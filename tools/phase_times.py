"""Per-phase times of simple detour routing on the city-detour inputs.

    python3 tools/phase_times.py --before OLD/src --after src --out BENCH.json

Each side runs in its own interpreter with that side's ``src`` first on the
path, ``--rounds`` times, the sides alternating which goes first so that
drift in machine speed falls on both; the rounds' samples are pooled. The child wraps the step functions of ``scoperoute.detour`` from
outside, routes the city-detour queries of ``perfbench/workload.py`` (a
fresh set of 50 closures per query, one on the static optimum, a cold
network copy per query) and reports each phase's self time per query:
a wrapped call's time minus that of the wrapped calls it makes. A phase
whose function a side lacks reads 0 there. The output holds the mean,
median and p90 per phase in ms, before and after, with the Python version
and core count.

``--src SRC`` runs one side and prints its per-query times as JSON.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

# Function of scoperoute.detour -> the phase its self time counts towards.
PHASES = {
    "_drained_runs": "static runs",
    "_records_from_runs": "records / grants",
    "_record_pass": "records / grants",
    "_direction": "gate runs",
    "_gate_passes": "usable lists",
    "_clean_masks": "clean masks",
    "_debt_viability": "viability",
    "dijkstra": "potentials",
    "_state_search_halves": "state search",
}
ROUTE = "route, whole"
OTHER = "route, rest"


class SelfTimes:
    """Self time per phase: a wrapped call's duration minus its wrapped children."""

    def __init__(self) -> None:
        self.stack: list[float] = []
        self.ms: dict[str, float] = {}

    def wrap(self, fn, phase: str):
        def timed(*args, **kwargs):
            self.stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = self.stack.pop()
                self.ms[phase] = self.ms.get(phase, 0.0) + (dt - child) * 1000.0
                if self.stack:
                    self.stack[-1] += dt

        return timed


def measure(src: str, queries: int, seed: int) -> dict[str, list[float]]:
    """Per-phase self times in ms, one entry per query, for the sources at ``src``."""
    sys.path[:0] = [str(Path(src).resolve()), str(ROOT / "perfbench")]
    import scoperoute as sr
    import scoperoute.detour as detour
    from workload import WORKLOADS, blocks, network_text, place_closures

    nf = sr.parse_network(network_text(sr))
    base, scope = nf.network, sr.balance_to_proper(nf.network, nf.scope)
    # Warm the structural caches every network copy shares, as the benchmark's set-up does.
    sr.qc_closure(base, scope, (), 0, base.vertex_count - 1)
    top_edges = [e for e in range(base.edge_count) if scope.level[e] == scope.top]
    times = SelfTimes()
    for name, phase in PHASES.items():
        if hasattr(detour, name):
            setattr(detour, name, times.wrap(getattr(detour, name), phase))
    phases = sorted(set(PHASES.values()))
    per_query: dict[str, list[float]] = {p: [] for p in phases + [ROUTE, OTHER]}
    stream = blocks(WORKLOADS["city-detour"], seed, nf.coordinates)
    for _ in range(queries):
        rng, [(s, t)] = next(stream)
        static = sr.bidirectional_s_dijkstra(base, scope, s, t)
        closed = base.with_updated_weights(place_closures(rng, base, static.walk, top_edges, 50))
        gc.collect()
        times.ms = {}
        t0 = perf_counter()
        sr.simple_detour_route(closed, scope, s, t)
        whole = (perf_counter() - t0) * 1000.0
        for p in phases:
            per_query[p].append(times.ms.get(p, 0.0))
        per_query[ROUTE].append(whole)
        per_query[OTHER].append(whole - sum(times.ms.values()))
    return per_query


def summary(values: list[float]) -> dict[str, float]:
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return {
        "mean": round(statistics.fmean(values), 3),
        "median": round(statistics.median(values), 3),
        "p90": round(deciles[8], 3),
    }


def run_side(src: str, queries: int, seed: int) -> dict[str, list[float]]:
    cmd = [sys.executable, __file__, "--src", src, "--queries", str(queries), "--seed", str(seed)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", help="measure one side and print its per-query times")
    parser.add_argument("--before", help="src directory of the version before the change")
    parser.add_argument("--after", default=str(ROOT / "src"))
    parser.add_argument("--out", help="write the before/after summary here")
    parser.add_argument("--queries", type=int, default=100)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args()
    if args.src:
        print(json.dumps(measure(args.src, args.queries, args.seed)))
        return
    if not (args.before and args.out):
        parser.error("give --src, or --before and --out")
    if args.queries < 40:
        parser.error("p90 needs at least 40 queries")
    sources = {"before": args.before, "after": args.after}
    sides: dict[str, dict[str, list[float]]] = {"before": {}, "after": {}}
    for r in range(args.rounds):
        for side in ("before", "after") if r % 2 == 0 else ("after", "before"):
            for phase, times in run_side(sources[side], args.queries, args.seed).items():
                sides[side].setdefault(phase, []).extend(times)
    report = {
        "workload": "city-detour",
        "what": "self time per phase of one simple_detour_route call, ms per query",
        "seed": args.seed,
        "queries": args.queries,
        "rounds": args.rounds,
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "phases": {
            phase: {side: summary(times[phase]) for side, times in sides.items()}
            for phase in sides["after"]
        },
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    width = max(map(len, report["phases"]))
    for phase, row in report["phases"].items():
        b, a = row["before"]["mean"], row["after"]["mean"]
        print(f"{phase:<{width}}  mean {b:8.2f} -> {a:8.2f} ms")


if __name__ == "__main__":
    main()
