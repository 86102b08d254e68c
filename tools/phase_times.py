"""Per-phase times of detour routing on a benchmark workload's inputs.

    python3 tools/phase_times.py --workload city-detour [--route enhanced] [--cold] [--network grid:100] [--scale 1.1] --before OLD/src --after src --out BENCH.json

Each side runs in its own interpreter with that side's ``src`` first on the
path, ``--rounds`` times, the sides alternating which goes first so that
drift in machine speed falls on both; the rounds' samples are pooled. The
child wraps step functions of ``scoperoute.detour`` and ``scoperoute.search``
from outside and runs the queries of ``perfbench/workload.py`` as the
benchmark does: a static search on the base network, then
``simple_detour_route`` (``--route simple``, the default) or
``enhanced_detour_route`` (``--route enhanced``) on a network copy.
``city-static`` gives every query an unchanged copy, ``city-detour`` a
cold copy with a fresh set of 50
closures (one on the static optimum), and ``city-incident`` one copy with
50 closures to each block of 25 queries (one on the block's first static
optimum). It reports each phase's self time per query: a wrapped call's
time minus that of the wrapped calls it makes.

With ``--cold`` each route is timed as the first call on its pair, after
perfbench's calibration kernel (``perfbench/calibrate.py``, a full
Dijkstra over its own reading of the network text, which reads nothing of
the program's) has run untimed in between, as it runs before every query
perfbench times: the static search on the base network runs only where a
block's closures are placed on its walk, before the kernel. Without it
each route follows that static search on the same pair at once, with the
memory it read still warm. The report goes under the workload's name
followed by ", cold". A phase lists the
functions of the last two versions it has been measured on, so that they
can still be compared across a rename; the functions a side lacks are
named on stderr and under ``missing`` in the output, and a phase none of
whose functions a side has reads 0 there.

"closures / weightings" is reading the closure set after a failed static
exit and building the open weighting (and, on the permit path, the
record weighting) from it, with the test whether the gate runs may be
goal-directed: ``derive_closures`` (which reads the raised edges the
network recorded; a pass over all the weights in versions before that),
``_active_set``, ``_weightings`` and ``_record_weighting`` (in versions
before it ``_weightings`` built the record weighting on every failed
exit). "record
runs" are the two drained record searches (``_drained_runs``). "gate runs" are ``_directions`` and
``_direction``, which drain a gate run or set up a lazy one with its grant
list, and ``_settle_gate``, which steps a lazy one from inside the state
search. "certificate" is ``_certificate``: where the d_open run's
own walk fails its check, stepping both lazy gate runs until their keys
pass d_open, and their split minimum (in versions before the runs marked
their own final labels, also the hand-off marks when it fails; in versions
before the own-draw check, on every failed exit); "own-draw check" is
``_own_draw_split``, the check of the d_open run's own walk on its
running draws from either end; "d_open run" is ``_open_distance``, the
plain goal-directed run from the start that gives d_open. "quasi-closure" is
``_quasi_closure``, the enhanced route's growth of the closure set, and
``_bypass_witness``, the search for a closed edge's bypass witness that
it makes once per network and edge; it reads 0 on the simple route.
"potentials" are the directions' bounds where no goal-directed static
search left them: ``_zero_potentials``, the zero bounds of a route
without the landmark table and of the d_open run off positive integer
weights; in versions before it, ``_potentials`` and the detour module's
``_landmark_potentials``, which ranks the table's terms for the route's
endpoints, and its ``dijkstra`` runs, the exact open-network distances
that bounded the directions without the table, which read 0 once the
network has it. "landmark build" is paid once per network,
in its first static search; it is not part of "route, whole" or "route,
rest".

The output holds the mean, median and p90 per phase in ms, before and
after, and each phase's mean in each round, so that a difference smaller
than the spread between rounds shows as such. It holds the same summary
figures for six counts: the vertices each route's static search settled
on both sides (``DetourResult.scanned_static``), the gate runs each route
makes (``_direction`` calls) and the vertices they settle together (each
run's ``order`` when the route returns; a lazy run's pending head, which
the run has marked final, is not in it), the vertices each d_open run
settled (the runs of ``detour._scope_run``), the weights read one by one per route that fails
the static exit by the outermost calls of ``WEIGHT_READERS`` (counted on an
untimed replay of each such call with counting weight tuples swapped into
the network it was given: about 2m per call for a pass over all the weights),
and the landmark bounds each route evaluates, its
static search's included (calls of the functions
``search._landmark_potentials`` returns; the counting wrapper adds one
call to each evaluation, on both sides). It adds the Python version and
core count, under the workload's name, followed by ", enhanced route" for
``--route enhanced``; other entries already in the file are kept.

Every network builds its landmark table on its first static search
(``search._PLAIN_SEARCHES`` set to 0), so that on both sides every route
reads the table, whatever number of plain searches a version runs before
it builds one (``BENCH_23.json`` and earlier were measured with each
version's own number).

``--setup`` times the benchmark's set-up instead of routes, in the same
alternating rounds, ``--queries`` set-ups per side and round: parsing the
acceptance grid's text (``parse_network``, less the ``build_network`` it
calls), ``build_network``, ``balance_to_proper`` and the warm-up
``qc_closure`` that builds the shared caches, each in ms per set-up, and
the whole set-up; the report goes under "set-up".

``--network KIND:SIZE[:subdivisions=K][:oneway]`` runs the routes on
``generate_synthetic(KIND, SIZE, 3, seed=42, subdivisions=K, oneway=...)``
balanced to a proper scope mapping, instead of the acceptance grid parsed
from perfbench's text; ``--scale F`` multiplies every base weight and
every finite budget by ``F`` (``F`` = 1.1 gives fractional weights). The
workload's rule for queries and closures is kept: a pair is long when it
spans at least 0.8 SIZE grid cells (40 on the 50x50 grid, as perfbench
has it); a network without coordinates (kind ``random``) draws its pairs
uniformly. The calibration kernel of ``--cold`` still reads the acceptance
grid. Each network and scale gets its own entry, its name followed by the
spec and the scale.

``--src SRC`` runs one side and prints its per-query (or per-set-up)
times and per-run counts as JSON.
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

# Function of a scoperoute module -> the phase its self time counts towards.
PHASES = {
    ("detour", "_bidirectional_search"): "static search",
    ("detour", "derive_closures"): "closures / weightings",
    ("detour", "_active_set"): "closures / weightings",
    ("detour", "_weightings"): "closures / weightings",
    ("detour", "_record_weighting"): "closures / weightings",
    ("detour", "_drained_runs"): "record runs",
    ("detour", "_records_from_runs"): "records / grants",
    ("detour", "_record_pass"): "records / grants",
    ("detour", "_directions"): "gate runs",
    ("detour", "_direction"): "gate runs",
    ("detour", "_settle_gate"): "gate runs",
    ("detour", "_clean_masks"): "clean masks",
    ("detour", "_zero_potentials"): "potentials",
    ("detour", "dijkstra"): "potentials",
    ("detour", "_potentials"): "potentials",
    ("detour", "_state_search_halves"): "state search",
    ("detour", "_certificate"): "certificate",
    ("detour", "_own_draw_split"): "own-draw check",
    ("detour", "_open_distance"): "d_open run",
    ("detour", "_quasi_closure"): "quasi-closure",
    ("detour", "_bypass_witness"): "quasi-closure",
    ("search", "_build_landmark_rows"): "landmark build",
}
# Functions of the detour module that read weights one by one outside the
# searches, whose reads are counted.
WEIGHT_READERS = (("detour", "derive_closures"),)
STATIC_SETTLED = "static search, vertices settled"
GATE_RUNS = "gate runs per route"
GATE_SETTLED = "gate runs, vertices settled per route"
OPEN_SETTLED = "d_open run, vertices settled"
READS = "weights read per failed exit"
BOUNDS = "bound evaluations per route"
BUILD = "landmark build"
ROUTE = "route, whole"
OTHER = "route, rest"
WORKLOADS = ("city-static", "city-detour", "city-incident")
# Set-up phases: the module and function each one times, and its name.
SETUP_PHASES = (
    ("netio", "parse_network", "parse"),
    ("netio", "build_network", "build_network"),
    ("network", "balance_to_proper", "balance"),
    ("detour", "qc_closure", "warm"),
)
SETUP = "set-up, whole"


class CountingWeights(tuple):
    """A weight tuple that counts the weights read from it, all of them for
    a whole pass."""

    reads = 0

    def __getitem__(self, e):
        CountingWeights.reads += 1
        return tuple.__getitem__(self, e)

    def __iter__(self):
        CountingWeights.reads += len(self)
        return tuple.__iter__(self)


def weights_read(fn, network, args, kwargs) -> int:
    """The weights ``fn(network, *args, **kwargs)`` reads from ``network``."""
    saved = network.weight, network.weight_updated
    for name, values in zip(("weight", "weight_updated"), saved):
        object.__setattr__(network, name, CountingWeights(values))
    CountingWeights.reads = 0
    try:
        fn(network, *args, **kwargs)
    finally:
        for name, values in zip(("weight", "weight_updated"), saved):
            object.__setattr__(network, name, values)
    return CountingWeights.reads


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


def network_spec(spec: str) -> str:
    """``spec`` checked as ``KIND:SIZE[:subdivisions=K][:oneway]``."""
    parse_spec(spec)
    return spec


def parse_spec(spec: str) -> tuple[str, int, int, bool]:
    """``generate_synthetic``'s kind, size, subdivisions and oneway from a spec."""
    kind, size, *options = spec.split(":")
    subdivisions, oneway = 0, False
    for option in options:
        if option == "oneway":
            oneway = True
        elif option.startswith("subdivisions="):
            subdivisions = int(option.removeprefix("subdivisions="))
        else:
            raise argparse.ArgumentTypeError(f"unknown network option {option!r}")
    return kind, int(size), subdivisions, oneway


def load_network(sr, text: str, network: str | None, scale: float):
    """The network, its scope mapping before balancing, its coordinates and
    the least span of a long pair: the acceptance grid parsed from ``text``
    as perfbench parses it, or the synthetic network of the spec
    ``network``; base weights and finite budgets times ``scale``."""
    if network is None:
        nf, span = sr.parse_network(text), None
    else:
        kind, size, subdivisions, oneway = parse_spec(network)
        nf = sr.generate_synthetic(kind, size, 3, 42, subdivisions, oneway)
        span = round(0.8 * size)
    net, scope, coordinates = nf.network, nf.scope, nf.coordinates
    if not coordinates:
        # Every pair spans 0 cells: pairs are drawn uniformly.
        coordinates, span = {v: (0.0, 0.0) for v in range(net.vertex_count)}, 0
    if scale != 1.0:
        edges = [net.edge(e) for e in range(net.edge_count)]
        net = sr.build_network(net.vertex_count, edges, [w * scale for w in net.weight])
        scope = sr.ScopeMapping(scope.level, tuple(nu * scale for nu in scope.nu), scope.labels)
    return net, scope, coordinates, span


def measure(
    src: str, workload: str, queries: int, seed: int, route: str, cold: bool,
    network: str | None = None, scale: float = 1.0,
) -> dict:
    """Per-phase self times in ms, one entry per query, the counts, and the
    functions the sources at ``src`` lack."""
    sys.path[:0] = [str(Path(src).resolve()), str(ROOT / "perfbench")]
    import scoperoute as sr
    import scoperoute.detour
    import scoperoute.search
    import workload as perf_workload
    from calibrate import adjacency, kernel
    from workload import WORKLOADS, blocks, network_text, place_closures

    scoperoute.search._PLAIN_SEARCHES = 0

    detour_route = sr.enhanced_detour_route if route == "enhanced" else sr.simple_detour_route
    text = network_text(sr)
    kernel_input = adjacency(text)
    base, scope, coordinates, span = load_network(sr, text, network, scale)
    if span is not None:
        perf_workload.MIN_SPAN = span
    scope = sr.balance_to_proper(base, scope)
    # Warm the structural caches every network copy shares, as the benchmark's set-up does.
    sr.qc_closure(base, scope, (), 0, base.vertex_count - 1)
    top_edges = [e for e in range(base.edge_count) if scope.level[e] == scope.top]
    times = SelfTimes()
    missing = []
    originals = {
        (module_name, name): getattr(getattr(scoperoute, module_name), name)
        for module_name, name in WEIGHT_READERS
        if hasattr(getattr(scoperoute, module_name), name)
    }
    for (module_name, name), phase in PHASES.items():
        module = getattr(scoperoute, module_name)
        if hasattr(module, name):
            setattr(module, name, times.wrap(getattr(module, name), phase))
        else:
            missing.append(f"{module_name}.{name}")
            print(f"{src}: no scoperoute.{module_name}.{name} for {phase!r}", file=sys.stderr)
    # The outermost calls of the weight readers, replayed after each route.
    depth = [0]
    reader_calls = []

    def logged(fn, original):
        def call(network, *args, **kwargs):
            if depth[0] == 0:
                reader_calls.append((original, network, args, kwargs))
            depth[0] += 1
            try:
                return fn(network, *args, **kwargs)
            finally:
                depth[0] -= 1

        return call

    for (module_name, name), original in originals.items():
        module = getattr(scoperoute, module_name)
        setattr(module, name, logged(getattr(module, name), original))
    missing.extend(
        f"{module_name}.{name}" for module_name, name in WEIGHT_READERS
        if (module_name, name) not in originals and f"{module_name}.{name}" not in missing
    )
    # Keep each direction a route builds, to count its gate run's settled vertices.
    directions = []
    timed_direction = getattr(scoperoute.detour, "_direction", None)

    def collecting(*args, **kwargs):
        directions.append(timed_direction(*args, **kwargs))
        return directions[-1]

    if timed_direction is not None:
        scoperoute.detour._direction = collecting
    # And each d_open run, the only fresh run the detour module makes itself.
    open_runs = []
    fresh_run = getattr(scoperoute.detour, "_scope_run", None)

    def collecting_run(*args, **kwargs):
        open_runs.append(fresh_run(*args, **kwargs))
        return open_runs[-1]

    if fresh_run is not None:
        scoperoute.detour._scope_run = collecting_run
    # And each landmark bound evaluated, through the functions the table gives.
    evaluated = [0]
    real_potentials = scoperoute.search._landmark_potentials

    def counted(bound):
        def evaluate(v):
            evaluated[0] += 1
            return bound(v)

        return evaluate

    def counting_potentials(*args, **kwargs):
        bounds = real_potentials(*args, **kwargs)
        return bounds if bounds[0] is None else tuple(map(counted, bounds))

    scoperoute.search._landmark_potentials = counting_potentials
    if hasattr(scoperoute.detour, "_landmark_potentials"):
        scoperoute.detour._landmark_potentials = times.wrap(counting_potentials, "potentials")
    static_settled: list[float] = []
    gate_runs: list[float] = []
    gate_settled: list[float] = []
    open_settled: list[float] = []
    weight_reads: list[float] = []
    bound_evaluations: list[float] = []
    phases = sorted(set(PHASES.values()))
    per_query: dict[str, list[float]] = {p: [] for p in phases + [ROUTE, OTHER]}
    spec = WORKLOADS[workload]
    pairs = ((rng, s, t) for rng, block in blocks(spec, seed, coordinates) for s, t in block)
    for q in range(queries):
        rng, s, t = next(pairs)
        gc.collect()
        times.ms = {}
        if not cold or (q % spec.block_size == 0 and spec.closures):
            static = sr.bidirectional_s_dijkstra(base, scope, s, t)
        if q % spec.block_size == 0:
            # A block's closures sit on its first static optimum; its queries share one copy.
            updates = place_closures(rng, base, static.walk, top_edges, spec.closures) if spec.closures else {}
            closed = base.with_updated_weights(updates)
        if cold:
            kernel(kernel_input)
        built = times.ms.get(BUILD, 0.0)
        reader_calls.clear()
        evaluated[0] = 0
        t0 = perf_counter()
        res = detour_route(closed, scope, s, t)
        whole = (perf_counter() - t0) * 1000.0 - (times.ms.get(BUILD, 0.0) - built)
        if res.static_walk is None or res.static_cost_updated != res.static_cost_base:
            weight_reads.append(sum(weights_read(*call) for call in reader_calls))
        bound_evaluations.append(evaluated[0])
        static_settled.append(res.scanned_static)
        for p in phases:
            per_query[p].append(times.ms.get(p, 0.0))
        per_query[ROUTE].append(whole)
        per_query[OTHER].append(whole - sum(ms for p, ms in times.ms.items() if p != BUILD))
        gate_runs.append(len(directions))
        gate_settled.append(sum(len(d.gate.order) for d in directions))
        directions.clear()
        open_settled.extend(len(run.order) for run in open_runs)
        open_runs.clear()
    counts = {
        STATIC_SETTLED: static_settled,
        GATE_RUNS: gate_runs,
        GATE_SETTLED: gate_settled,
        OPEN_SETTLED: open_settled,
        READS: weight_reads,
        BOUNDS: bound_evaluations,
    }
    return {"ms": per_query, "counts": counts, "missing": sorted(missing)}


def measure_setup(src: str, runs: int) -> dict:
    """Self times in ms of each set-up phase, one entry per set-up, as the
    benchmark's set-up runs them on the acceptance grid's text."""
    sys.path[:0] = [str(Path(src).resolve()), str(ROOT / "perfbench")]
    import scoperoute as sr
    import scoperoute.detour
    import scoperoute.netio
    import scoperoute.network
    from workload import network_text

    text = network_text(sr)
    times = SelfTimes()
    timed = {}
    for module_name, name, phase in SETUP_PHASES:
        module = getattr(scoperoute, module_name)
        timed[phase] = times.wrap(getattr(module, name), phase)
        # parse_network calls build_network through its own module's name.
        setattr(module, name, timed[phase])
    per_run: dict[str, list[float]] = {phase: [] for *_, phase in SETUP_PHASES}
    per_run[SETUP] = []
    for _ in range(runs):
        gc.collect()
        times.ms = {}
        t0 = perf_counter()
        nf = timed["parse"](text)
        scope = timed["balance"](nf.network, nf.scope)
        timed["warm"](nf.network, scope, (), 0, nf.network.vertex_count - 1)
        per_run[SETUP].append((perf_counter() - t0) * 1000.0)
        for phase, ms in times.ms.items():
            per_run[phase].append(ms)
    return {"ms": per_run, "counts": {}, "missing": []}


def summary(values: list[float]) -> dict[str, float]:
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return {
        "mean": round(statistics.fmean(values), 3),
        "median": round(statistics.median(values), 3),
        "p90": round(deciles[8], 3),
    }


def run_side(
    src: str, workload: str, queries: int, seed: int, route: str, setup: bool, cold: bool,
    network: str | None, scale: float,
) -> dict:
    cmd = [
        sys.executable, __file__, "--src", src, "--workload", workload,
        "--queries", str(queries), "--seed", str(seed), "--route", route, "--scale", str(scale),
    ] + ["--setup"] * setup + ["--cold"] * cold + ["--network", network] * (network is not None)
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default="city-detour")
    parser.add_argument("--route", choices=("simple", "enhanced"), default="simple")
    parser.add_argument("--src", help="measure one side and print its per-query times")
    parser.add_argument("--before", help="src directory of the version before the change")
    parser.add_argument("--after", default=str(ROOT / "src"))
    parser.add_argument("--out", help="write the before/after summary here")
    parser.add_argument("--queries", type=int, default=100)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--setup", action="store_true", help="time the set-up phases, not routes")
    parser.add_argument(
        "--cold", action="store_true",
        help="time each route as the first call on its pair, after perfbench's calibration kernel",
    )
    parser.add_argument(
        "--network", type=network_spec,
        help="route on generate_synthetic's KIND:SIZE[:subdivisions=K][:oneway], not the acceptance grid",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0, help="multiply the base weights and finite budgets"
    )
    args = parser.parse_args()
    if args.scale <= 0:
        parser.error("--scale must be positive")
    if args.setup and (args.network or args.scale != 1.0):
        parser.error("--setup times the acceptance grid's set-up only")
    if args.src:
        if args.setup:
            print(json.dumps(measure_setup(args.src, args.queries)))
        else:
            print(json.dumps(measure(
                args.src, args.workload, args.queries, args.seed, args.route, args.cold,
                args.network, args.scale,
            )))
        return
    if not (args.before and args.out):
        parser.error("give --src, or --before and --out")
    if args.queries < 40:
        parser.error("p90 needs at least 40 queries")
    sources = {"before": args.before, "after": args.after}
    sides: dict[str, dict[str, list[float]]] = {"before": {}, "after": {}}
    # Per phase and side, the phase's mean over each round's queries.
    rounds: dict[str, dict[str, list[float]]] = {}
    counts: dict[str, dict[str, list[float]]] = {"before": {}, "after": {}}
    missing: dict[str, list[str]] = {}
    for r in range(args.rounds):
        for side in ("before", "after") if r % 2 == 0 else ("after", "before"):
            measured = run_side(
                sources[side], args.workload, args.queries, args.seed, args.route, args.setup,
                args.cold, args.network, args.scale,
            )
            for phase, times in measured["ms"].items():
                sides[side].setdefault(phase, []).extend(times)
                per_side = rounds.setdefault(phase, {"before": [], "after": []})
                per_side[side].append(round(statistics.fmean(times), 3))
            for name, values in measured["counts"].items():
                counts[side].setdefault(name, []).extend(values)
            missing[side] = measured["missing"]
    if args.setup:
        head = {
            "what": "self time per phase of one benchmark set-up on the acceptance grid's text: parse_network less build_network, build_network, balance_to_proper and the warm-up qc_closure, and the whole set-up, ms per set-up, with each round's mean per phase",
            "setups": args.queries,
        }
    else:
        head = {
            "workload": args.workload,
            "route": args.route,
            "cold": args.cold,
            "what": f"self time per phase of one {args.route}_detour_route call, and of the landmark build in the static search before it, ms per query, with each round's mean per phase; counts: vertices settled per route by its static search, gate runs made per route and the vertices they settled, vertices settled per d_open run, weights read one by one outside the searches (by derive_closures) per failed static exit, and landmark bounds evaluated per route"
            + ("; each route timed as the first call on its pair, after perfbench's calibration kernel" if args.cold else ""),
            "seed": args.seed,
            "queries": args.queries,
            "network": args.network or "acceptance grid (grid:50, parsed)",
            "scale": args.scale,
        }
    report = {
        **head,
        "rounds": args.rounds,
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "phases": {
            phase: {side: summary(times[phase]) for side, times in sides.items()}
            for phase in sides["after"]
        },
        "round means": {phase: rounds[phase] for phase in sides["after"]},
        "counts": {
            name: {
                side: summary(values[name])
                for side, values in counts.items()
                if len(values.get(name, ())) > 1
            }
            for name in counts["after"]
            if len(counts["after"][name]) > 1
        },
        "missing": missing,
    }
    out = Path(args.out)
    reports = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    if args.setup:
        name = "set-up"
    else:
        name = args.workload + (f", {args.route} route" if args.route != "simple" else "")
        name += ", cold" if args.cold else ""
        name += f", {args.network}" if args.network else ""
        name += f", x{args.scale:g}" if args.scale != 1.0 else ""
    reports[name] = report
    out.write_text(json.dumps(reports, indent=2) + "\n", encoding="utf-8")
    width = max(map(len, report["phases"]))
    for phase, row in report["phases"].items():
        b, a = row["before"]["mean"], row["after"]["mean"]
        per_round = " | ".join(
            " ".join(f"{x:.2f}" for x in rounds[phase][side]) for side in ("before", "after")
        )
        print(f"{phase:<{width}}  mean {b:8.2f} -> {a:8.2f} ms  (rounds {per_round})")
    for name, row in report["counts"].items():
        b, a = (f"{row[side]['mean']:.1f}" if side in row else "-" for side in ("before", "after"))
        print(f"{name}: mean {b} -> {a}")
    for side, names in missing.items():
        print(f"{side} lacks: {', '.join(names) or 'nothing'}")


if __name__ == "__main__":
    main()
