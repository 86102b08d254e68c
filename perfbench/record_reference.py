"""Write ``reference.json``: fixed reference queries and their returned costs.

    python3 perfbench/record_reference.py

The reference queries are the first queries of each workload's stream for
``DEFAULT_SEED``, stored with their explicit closure sets, so that they do not
depend on how the program breaks ties between equal-cost routes. Every
benchmark run routes them first and fails any query whose costs differ.
Re-record only when the inputs change on purpose, never to absorb a changed
cost. The file also holds the default seed, and the Python version and core
count of the recording machine.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform

from calibrate import Calibration
from run import REFERENCE, SetUp, import_program
from spans import Spans
from workload import (
    DEFAULT_SEED,
    WORKLOADS,
    Block,
    CheckFailed,
    Env,
    blocks,
    network_text,
    route_query,
)

# (blocks, queries per block) routed as reference for each workload.
REFERENCE_SIZE = {"city-static": (5, 1), "city-detour": (3, 1), "city-incident": (1, 8)}


def main() -> None:
    sr = import_program()
    text = network_text(sr)
    spans = Spans(enabled=False)
    nf, scope = SetUp(sr, text, spans, Calibration(text)).once()
    top_edges = [e for e in range(nf.network.edge_count) if scope.level[e] == scope.top]
    workloads = {}
    for name, workload in WORKLOADS.items():
        env = Env(sr, nf.network, scope, top_edges, workload, spans)
        block_count, per_block = REFERENCE_SIZE[name]
        stream = blocks(workload, DEFAULT_SEED, nf.coordinates)
        recorded = []
        for _ in range(block_count):
            rng, pairs = next(stream)
            block = Block()
            costs = []
            for s, t in pairs[:per_block]:
                try:
                    costs.append([repr(c) for c in route_query(env, block, rng, s, t).costs])
                except CheckFailed as exc:
                    raise SystemExit(f"{name} {s}->{t}: {exc}") from exc
            recorded.append(
                {"closures": sorted(block.updates), "pairs": pairs[:per_block], "costs": costs}
            )
        workloads[name] = recorded
    out = {
        "default_seed": DEFAULT_SEED,
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "network_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "workloads": workloads,
    }
    REFERENCE.write_text(_dump(out), encoding="utf-8")
    print(f"wrote {REFERENCE}")


def _dump(out: dict) -> str:
    """JSON with one line per reference block."""
    head = [f" {json.dumps(k)}: {json.dumps(v)}" for k, v in out.items() if k != "workloads"]
    workloads = [
        f"  {json.dumps(name)}: [\n" + ",\n".join(f"   {json.dumps(b)}" for b in recorded) + "\n  ]"
        for name, recorded in out["workloads"].items()
    ]
    return "{\n" + ",\n".join(head) + ',\n "workloads": {\n' + ",\n".join(workloads) + "\n }\n}\n"


if __name__ == "__main__":
    main()
