"""Route outputs of two source trees, compared case by case.

    python3 tools/ab_routes.py --before OLD/src --after src [--seeds 3000] [--no-bench]

Each side runs in its own interpreter with that side's ``src`` first on the
path. It routes the random closed networks of this checkout's
``tests/test_detour.py`` (``_closed_random_case``, each seed with integer
and with fractional weights) with ``simple_detour_route`` and
``enhanced_detour_route``, once with every network building its landmark
table on its first static search and once with no table, and records per
result the class, cost, ``qc_added`` and ``qc_iterations``, walk, permit
edges and counts, and the verdicts of ``validate_split_admissible`` and of
``validate_simple_detour`` (with closures ``None`` and with the
``qc_closure`` set) on the static walk and the returned walk. Each case is
routed again with its closures given explicitly, as a "routes" case per
form: every raised edge as a frozenset and as a one-shot generator, and
``derive_closures``' ``ClosureSet``. It routes the first 20 of the grid
closure sets below the same way (without the closures given explicitly)
on a fresh 50x50 grid that never builds its table, so that the route
without the table is compared at grid scale: the other grid cases, and the
criterion-7 batch, build theirs while they sample queries. Per network
and query it also records, as two separate cases, ``find_obstructed``'s
records (as their ``repr``) and the grant, gate and clean masks of both
directions of ``build_detour_context``, so that a difference in record
states cannot hide one in the masks; a gate that is a run, not a mask list, is recorded as the
mask list read off the run, the levels whose budget the settled draw of a
reached vertex passes. It records ``qc_closure``'s result (edges, hard set,
tags and iterations) as a "qc" case on inputs whose base graph is strongly
connected, where its bypass proof can answer: the two-way networks of
``_tight_detour_case`` and, with the criterion-7 placement of 50 closures on
the 50x50 grid, 100 closure sets, each with closures ``None`` and with an
explicit set that leaves out one infinite edge. For the full variant it
takes the first 300 ``bypass_network`` cases of ``tests/conftest.py`` and
records, as one "full" case each, the ``repr`` of
``brute_force_full_optimum`` and of ``validate_full_detour`` on the simple,
enhanced and optimal walks. Unless ``--no-bench``, it also records the
criterion-7 batch (``run_benchmark`` on the 50x50 grid: 500 queries, 50
closures each, timing off) as its CSV. The script prints how many cases
differ, in all and per kind (records, masks, routes, qc, full, csv), with
the first few, and exits 1 if any does. It tallies apart the cases whose
cost, class or verdict differs (records, masks, quasi-closures, the full
optimum and each walk's acceptance, the CSV without its count columns),
those that differ beyond that only in walk, permit edges or the full
verdicts' witnesses, as a change of walk among equal-cost walks does, and
those that differ only in counts (scanned vertices and states, permits
issued, the CSV's count columns), as a route that does less work shows.

Both sides import this checkout's ``tests/test_detour.py`` and
``tests/conftest.py``, so those files import at module level only names
that older sources have too.

``--src SRC`` runs one side and prints its records as JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FULL_SEEDS = 300
GRID_SETS = 100
# Grid closure sets also routed on a grid without the landmark table.
GRID_ROUTES = 20
RESULT_FIELDS = ("klass", "cost_updated", "qc_added", "qc_iterations")
DETAIL_FIELDS = (
    "permit_edges", "scanned_static", "scanned_detour", "scanned_detour_vertices", "permits_issued",
)
# Columns of the criterion-7 CSV that count work rather than give a result.
CSV_COUNTS = ("scanned_static", "scanned_simple", "scanned_enhanced", "permits")


def masks(direction, scope) -> list:
    """The grant, gate and clean masks of one direction of a context."""
    gate = direction.gate
    if not isinstance(gate, list):
        levels = list(enumerate(scope.nu))
        gate = [
            sum(1 << lv for lv, cap in levels if sigma[lv] <= cap) if d < math.inf else 0
            for d, sigma in zip(gate.dist, gate.sigma)
        ]
    return [direction.grant, gate, direction.clean]


def outcome(res, verdicts=None) -> list:
    """A route result as a case: its class, cost and ``verdicts``, then its
    walk, permit edges and counts."""
    walk = None if res.walk is None else [res.walk.start, res.walk.edges]
    result = [getattr(res, f) for f in RESULT_FIELDS] + [verdicts]
    return [result, [getattr(res, f) for f in DETAIL_FIELDS] + [walk]]


def csv_case(body: str) -> list:
    """The CSV as a case: without its count columns, then whole."""
    rows = [line.split(",") for line in body.splitlines()]
    keep = [i for i, name in enumerate(rows[0]) if name not in CSV_COUNTS]
    return [[[row[i] for i in keep] for row in rows], body]


def qc_case(qc) -> list:
    """A ``qc_closure`` result as a case: edges, hard set, tags, iterations."""
    return [[sorted(qc.edges), sorted(qc.hard), sorted(qc.kind.items()), qc.iterations], None]


def one_side(src: str, seeds: int, bench: bool) -> dict:
    sys.path[:0] = [src, str(ROOT / "tests")]
    import scoperoute.search
    from scoperoute import (
        BenchConfig, balance_to_proper, bidirectional_s_dijkstra, build_detour_context,
        derive_closures, enhanced_detour_route, brute_force_full_optimum, find_obstructed,
        generate_synthetic, place_random_closures, qc_closure, run_benchmark,
        simple_detour_route, validate_full_detour, validate_simple_detour,
        validate_split_admissible,
    )
    from conftest import bypass_network
    from test_detour import _closed_random_case, _tight_detour_case

    cases = {}
    for seed in range(seeds):
        tight = _tight_detour_case(seed)
        if tight is not None:
            cases[f"tight seed {seed} qc"] = qc_case(qc_closure(tight[0], tight[1], None, *tight[2:]))
    nf = generate_synthetic("grid", 50, 3, seed=42)
    grid, grid_scope = nf.network, balance_to_proper(nf.network, nf.scope)
    rng = random.Random(20)
    grid_sets = []
    for q in range(GRID_SETS):
        walk = None
        while walk is None or len(walk.edges) < 40:
            s, t = rng.randrange(grid.vertex_count), rng.randrange(grid.vertex_count)
            walk = bidirectional_s_dijkstra(grid, grid_scope, s, t).walk
        updates, _ = place_random_closures(grid, grid_scope, walk, 50, seed=q)
        grid_sets.append((s, t, updates))
        closed = grid.with_updated_weights(updates)
        explicit = frozenset(sorted(e for e, w in updates.items() if w == math.inf)[1:])
        for form, closures in (("None", None), ("explicit", explicit)):
            qc = qc_closure(closed, grid_scope, closures, s, t)
            cases[f"grid set {q} closures {form} qc"] = qc_case(qc)
    for seed in range(seeds):
        for fractional in (False, True):
            closed, scope, s, t = _closed_random_case(seed, fractional)
            ctx = build_detour_context(closed, scope, None, s, t)
            name = f"seed {seed}{' fractional' if fractional else ''}"
            cases[f"{name} records"] = [repr(find_obstructed(closed, scope, None, s, t)), None]
            cases[f"{name} masks"] = [[masks(d, scope) for d in (ctx.forward, ctx.backward)], None]
    routes = (simple_detour_route, enhanced_detour_route)

    def route_cases(closed, scope, s, t, label):
        """Both routes' results, with the verdicts on their walks, as cases."""
        results = [route(closed, scope, s, t) for route in routes]
        # Validated after both routes, so they run as they would alone.
        qc = qc_closure(closed, scope, None, s, t)
        for route, res in zip(routes, results):
            verdicts = [
                None if w is None else [
                    validate_split_admissible(w, closed, scope, s, t),
                    validate_simple_detour(w, closed, scope, None, s, t),
                    validate_simple_detour(w, closed, scope, qc, s, t),
                ]
                for w in (res.static_walk, res.walk)
            ]
            cases[f"{label}, {route.__name__}"] = outcome(res, verdicts)

    plain_searches = scoperoute.search._PLAIN_SEARCHES
    for table in (True, False):
        scoperoute.search._PLAIN_SEARCHES = 0 if table else sys.maxsize
        for seed in range(seeds):
            for fractional in (False, True):
                closed, scope, s, t = _closed_random_case(seed, fractional)
                route_cases(
                    closed, scope, s, t,
                    f"seed {seed}{' fractional' if fractional else ''} "
                    f"{'with' if table else 'without'} table",
                )
                raised = derive_closures(closed)
                ids = sorted(raised.edges)
                for form, given in (
                    ("frozenset", lambda: frozenset(ids)),
                    ("generator", lambda: (e for e in ids)),
                    ("ClosureSet", lambda: raised),
                ):
                    for route in routes:
                        name = (
                            f"seed {seed}{' fractional' if fractional else ''} "
                            f"{'with' if table else 'without'} table, {route.__name__}, "
                            f"closures {form}"
                        )
                        cases[name] = outcome(route(closed, scope, s, t, given()))
    # Still without the table: a fresh grid, which has served no search.
    plain = generate_synthetic("grid", 50, 3, seed=42).network
    for q, (s, t, updates) in enumerate(grid_sets[:GRID_ROUTES]):
        route_cases(plain.with_updated_weights(updates), grid_scope, s, t, f"grid set {q} without table")
    scoperoute.search._PLAIN_SEARCHES = plain_searches
    for seed in range(FULL_SEEDS):
        net, scope, s, t = bypass_network(random.Random(seed))
        optimum = brute_force_full_optimum(net, scope, None, s, t)
        walks = [route(net, scope, s, t).walk for route in (simple_detour_route, enhanced_detour_route)]
        verdicts = [
            None if w is None else validate_full_detour(w, net, scope, None, s, t)
            for w in walks + [optimum[0]]
        ]
        cases[f"bypass seed {seed} full"] = [
            [repr(optimum)] + [None if v is None else v.accepted for v in verdicts],
            [repr(v) for v in verdicts],
        ]
    if bench:
        nf = generate_synthetic("grid", 50, 3, seed=42)
        scope = balance_to_proper(nf.network, nf.scope)
        config = BenchConfig(query_count=500, closure_count=50, seed=20260810, measure_time=False)
        cases["criterion-7 batch csv"] = csv_case(run_benchmark(nf.network, scope, config).csv_body())
    return cases


def difference(kind: str, old, new) -> int:
    """How a differing case of ``kind`` differs: 0 in cost, class or
    verdict, else 1 in walk, permit edges or witnesses, else 2 in counts."""
    if old is None or new is None or old[0] != new[0]:
        return 0
    if kind == "csv":
        return 2
    if kind == "routes":
        # The details are [permit edges, counts..., walk].
        return 1 if (old[1][0], old[1][-1]) != (new[1][0], new[1][-1]) else 2
    return 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before")
    parser.add_argument("--after")
    parser.add_argument("--src", help="run one side and print its records")
    parser.add_argument("--seeds", type=int, default=3000)
    parser.add_argument("--no-bench", action="store_true")
    args = parser.parse_args()
    if args.src:
        print(json.dumps(one_side(args.src, args.seeds, not args.no_bench)))
        return 0
    if not (args.before and args.after):
        parser.error("give --before and --after, or --src")
    sides = []
    for src in (args.before, args.after):
        cmd = [sys.executable, __file__, "--src", src, "--seeds", str(args.seeds)]
        if args.no_bench:
            cmd.append("--no-bench")
        out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
        sides.append(json.loads(out))
    before, after = sides
    differ = [name for name in before.keys() | after.keys() if before.get(name) != after.get(name)]
    print(f"{len(before)} cases before, {len(after)} after, {len(differ)} differ")
    # Per kind: [cost, class or verdict; walk, permit edges or witnesses; counts only].
    kinds = {kind: [0, 0, 0] for kind in ("records", "masks", "routes", "qc", "full", "csv")}
    for name in differ:
        last = name.rsplit(" ", 1)[-1]
        kind = last if last in kinds else "routes"
        kinds[kind][difference(kind, before.get(name), after.get(name))] += 1
    whats = ("in cost, class or verdict", "beyond that in walk, permit edges or witnesses", "only in counts")
    for i, what in enumerate(whats):
        print(f"differ {what}: " + ", ".join(f"{kind} {n[i]}" for kind, n in kinds.items()))
    for name in sorted(differ)[:5]:
        print(f"  {name}:\n    before {before.get(name)!r:.300}\n    after  {after.get(name)!r:.300}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
