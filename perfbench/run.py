"""scoperoute benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload city-detour --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. The run is an offline batch with a closed loop: one query at a
time, each query's calls timed from outside through the public functions of
``netio``, ``network``, ``search`` and ``detour``, every returned walk checked
outside the timed regions (see ``workload.py``).

Phases:

1. set-up: parse the network text, balance the scope mapping, warm the
   structural caches; repeated before and between the measured queries;
2. the reference queries: fixed inputs recorded in ``reference.json`` with
   their costs, so that any change of a returned cost counts as a failure;
3. the measured queries, drawn from ``--seed``, for ``--seconds`` seconds
   and at least ``MIN_QUERIES`` queries (``TRACE_WINDOW`` when traced).

Every time is scaled to a reference machine speed measured by a fixed kernel
run before each query and set-up (see ``calibrate.py``). With ``--trace 0``
the last stdout line holds the end-to-end metrics, with ``--trace 1`` the
per-layer metrics from the spans, whose self times are written to
``.bench_out/`` in the checkout. A readable summary goes to stderr.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from calibrate import Calibration
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
SETUP_FIRST = 3
SETUP_EVERY = 10
# Each end-to-end percentile needs ten samples beyond p90.
MIN_QUERIES = 100
# The traced run's counts are means over exactly this many first queries,
# so two runs with one seed give identical counts.
TRACE_WINDOW = 40
# Stop measuring by then whatever the query count, to exit within 180 s.
HARD_STOP_S = 140.0


def import_program():
    src = ROOT / "src"
    if not (src / "scoperoute" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {src / 'scoperoute'}")
    sys.path.insert(0, str(src))
    import scoperoute

    if Path(scoperoute.__file__).resolve().parent != (src / "scoperoute").resolve():
        raise SystemExit(f"perfbench: imported scoperoute from {scoperoute.__file__}")
    return scoperoute


class SetUp:
    """Parse the network text, balance the scope mapping, warm the caches.

    Repeated ``SETUP_FIRST`` times before the queries and once more after
    every ``SETUP_EVERY`` measured queries, so that the reported medians span
    the same stretch of machine time as the query metrics.
    """

    def __init__(self, sr, text: str, spans: Spans, calib: Calibration) -> None:
        self.sr, self.text, self.spans, self.calib = sr, text, spans, calib
        # (parse, balance, total) seconds and the calibration sample of each set-up
        self.runs: list[tuple[float, float, float, int]] = []

    def once(self):
        sr, spans = self.sr, self.spans
        spans.query = None
        gc.collect()
        sample = self.calib.sample()
        nf, p = spans.timed("netio.parse", sr.parse_network, self.text)
        scope, b = spans.timed("network.balance", sr.balance_to_proper, nf.network, nf.scope)
        # One quasi-closure pass builds the reversed twin and both adjacency
        # packs, the weight-independent caches every copy shares.
        _, w = spans.timed(
            "setup.warm", sr.qc_closure, nf.network, scope, (), 0, nf.network.vertex_count - 1
        )
        self.runs.append((p, b, p + b + w, sample))
        return nf, scope

    def median_s(self, part: int) -> float:
        """Median of one part (0 parse, 1 balance, 2 total) at reference speed."""
        return statistics.median(r[part] * self.calib.scale(r[3]) for r in self.runs)


def prepare(sr, workload, spans: Spans):
    text = network_text(sr)
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    digest = hashlib.sha256(text.encode()).hexdigest()
    if digest != reference["network_sha256"]:
        raise SystemExit(
            f"perfbench: the generated grid changed (sha256 {digest}); "
            "its recorded reference costs no longer apply"
        )
    setup = SetUp(sr, text, spans, Calibration(text))
    for _ in range(SETUP_FIRST):
        nf, scope = setup.once()
    top_edges = [e for e in range(nf.network.edge_count) if scope.level[e] == scope.top]
    env = Env(sr, nf.network, scope, top_edges, workload, spans)
    return env, nf.coordinates, setup, reference


class Tally:
    def __init__(self, calib: Calibration) -> None:
        self.calib = calib
        self.attempted = 0
        self.attempted_measured = 0
        self.failures: list[str] = []
        self.sample_of: dict = {}  # query -> the calibration sample taken just before it

    def run(self, env: Env, block: Block, rng, s: int, t: int, query, expected=None):
        """One query at the failure boundary; returns its outcome or None."""
        self.attempted += 1
        self.sample_of[query] = self.calib.sample()
        env.spans.query = query
        try:
            with env.spans.group("query"):
                out = route_query(env, block, rng, s, t)
            if expected is not None and [repr(c) for c in out.costs] != expected:
                raise CheckFailed(
                    f"costs {[repr(c) for c in out.costs]} differ from recorded {expected}"
                )
            return out
        except Exception as exc:
            self.failures.append(f"query {query} ({s}->{t}): {exc!r}")
            if len(self.failures) <= 3:
                traceback.print_exc(file=sys.stderr)
            return None


def run_reference(env: Env, tally: Tally, reference: dict) -> None:
    for b, ref in enumerate(reference["workloads"][env.workload.name]):
        block = Block(updates={e: math.inf for e in ref["closures"]})
        for i, ((s, t), costs) in enumerate(zip(ref["pairs"], ref["costs"])):
            tally.run(env, block, None, s, t, f"ref{b}.{i}", costs)
        del block
        gc.collect()


def run_measured(env: Env, tally: Tally, setup: SetUp, coordinates, seed, seconds, min_queries):
    outcomes = []
    next_setup = SETUP_EVERY
    start = perf_counter()
    stream = blocks(env.workload, seed, coordinates)
    while True:
        rng, pairs = next(stream)
        block = Block()
        for s, t in pairs:
            now = perf_counter() - start
            if now >= HARD_STOP_S or (now >= seconds and tally.attempted_measured >= min_queries):
                return outcomes, perf_counter() - start
            query = tally.attempted_measured
            tally.attempted_measured += 1
            out = tally.run(env, block, rng, s, t, query)
            if out is not None:
                outcomes.append((query, out))
        # Copies with their cached contexts are cyclic garbage (a network and
        # its reversed twin point at each other); free them between closure sets.
        del block
        if tally.attempted_measured >= next_setup:
            setup.once()
            next_setup += SETUP_EVERY
        gc.collect()


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(outcomes, scale: dict, setup: SetUp) -> dict:
    ms = {
        k: [1e3 * getattr(o, k + "_s") * scale[q] for q, o in outcomes]
        for k in ("static", "simple", "enhanced")
    }
    routing_s = sum(o.routing_s * scale[q] for q, o in outcomes)
    return {
        "setup_s": (setup.median_s(2), "s"),
        "static_ms.p50": (statistics.median(ms["static"]), "ms"),
        "static_ms.p90": (p90(ms["static"]), "ms"),
        "simple_ms.p50": (statistics.median(ms["simple"]), "ms"),
        "simple_ms.p90": (p90(ms["simple"]), "ms"),
        "simple_ms.mean": (statistics.fmean(ms["simple"]), "ms"),
        "enhanced_ms.p50": (statistics.median(ms["enhanced"]), "ms"),
        "enhanced_ms.p90": (p90(ms["enhanced"]), "ms"),
        "queries_per_s": (len(outcomes) / routing_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def measured_self_ms(spans: Spans, scale: dict) -> dict[str, list[float]]:
    """Span self times by name at reference speed, over the measured queries."""
    self_ms: dict[str, list[float]] = {}
    for rec, self_ns in spans.self_times():
        if isinstance(rec[2], int):
            self_ms.setdefault(rec[3], []).append(self_ns / 1e6 * scale[rec[2]])
    return self_ms


def per_layer(outcomes, setup: SetUp, self_ms: dict, spans: Spans, wall_s: float) -> dict:
    def mean_ms(name):
        return statistics.fmean(self_ms[name])

    window = [o for _, o in outcomes[:TRACE_WINDOW]]

    def count(key):
        return statistics.fmean(o.counts[key] for o in window)

    def ratio(num, den):
        den_sum = sum(o.counts[den] for o in window)
        return sum(o.counts[num] for o in window) / den_sum if den_sum else 0.0

    return {
        "netio.parse_ms": (1e3 * setup.median_s(0), "ms"),
        "network.balance_ms": (1e3 * setup.median_s(1), "ms"),
        "network.update_ms": (mean_ms("network.update"), "ms"),
        "search.bidir_ms": (mean_ms("search.bidir"), "ms"),
        "search.bidir_scanned": (count("bidir_scanned"), "count"),
        "search.bidir_relaxed": (count("bidir_relaxed"), "count"),
        "search.drained_ms": (mean_ms("search.drained"), "ms"),
        "search.drained_scanned": (count("drained_scanned"), "count"),
        "detour.context_ms": (mean_ms("detour.context"), "ms"),
        "detour.records": (count("records"), "count"),
        "detour.search_ms": (mean_ms("detour.simple_route") - mean_ms("detour.context"), "ms"),
        "detour.states_scanned": (count("states_scanned"), "count"),
        "detour.vertices_scanned": (count("vertices_scanned"), "count"),
        "detour.states_per_vertex": (ratio("states_scanned", "vertices_scanned"), "ratio"),
        "detour.permits_issued": (count("permits_issued"), "count"),
        "detour.permit_edges": (count("permit_edges"), "count"),
        "detour.permit_yield": (ratio("permit_edges", "permits_issued"), "ratio"),
        "detour.static_exit_share": (count("static_exit"), "ratio"),
        "detour.qc_ms": (mean_ms("detour.qc"), "ms"),
        "detour.qc_added": (count("qc_added"), "count"),
        "detour.qc_iterations": (count("qc_iterations"), "count"),
        "trace.overhead_pct": (100.0 * spans.overhead_ns / 1e9 / wall_s, "%"),
    }


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sr = import_program()
    workload = WORKLOADS[args.workload]
    spans = Spans(enabled=bool(args.trace))
    env, coordinates, setup, reference = prepare(sr, workload, spans)
    gc.collect()
    gc.freeze()  # the base network is long-lived: keep it out of collections

    calib = setup.calib
    tally = Tally(calib)
    run_reference(env, tally, reference)
    min_queries = TRACE_WINDOW if args.trace else MIN_QUERIES
    outcomes, wall_s = run_measured(
        env, tally, setup, coordinates, args.seed, args.seconds, min_queries
    )
    if not outcomes:
        raise SystemExit("perfbench: no query succeeded")
    scale = {q: calib.scale(sample) for q, sample in tally.sample_of.items()}

    if args.trace:
        self_ms = measured_self_ms(spans, scale)
        metrics = per_layer(outcomes, setup, self_ms, spans, wall_s)
        trace_path = ROOT / ".bench_out" / f"trace-{workload.name}-seed{args.seed}.jsonl"
        spans.write(trace_path)
    else:
        metrics = end_to_end(outcomes, scale, setup)

    window = [o for _, o in outcomes[:TRACE_WINDOW]]
    failed = len(tally.failures)
    info = [
        f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
        f"python {platform.python_version()}  cores {os.cpu_count()}",
        f"queries: {tally.attempted_measured} measured in {wall_s:.1f} s, "
        f"{tally.attempted - tally.attempted_measured} reference; "
        f"failed {failed} of {tally.attempted} (failed_ratio {failed / tally.attempted:.4f})",
        "costs sha256 (first %d queries): %s"
        % (len(window), digest(f"{o.s} {o.t} {o.costs!r}" for o in window)),
        "counts sha256 (first %d queries): %s"
        % (len(window), digest(f"{sorted(o.counts.items())}" for o in window)),
        f"machine speed: calibration kernel {1e3 * statistics.median(calib.samples):.3f} ms "
        f"(median of {len(calib.samples)}), times scaled to {1e3 * calib.reference_s:.3f} ms",
    ]
    info += [f"  {name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    if args.trace:
        info.append("self time per span at reference speed (calls, mean ms):")
        info += [
            f"  {name:24s} {len(v):5d} {statistics.fmean(v):10.3f}"
            for name, v in sorted(self_ms.items())
        ]
        info.append(f"spans written to {trace_path.relative_to(ROOT)}")
    info += [f"FAILED {f}" for f in tally.failures[:20]]
    print("\n".join(info), file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": tally.attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
