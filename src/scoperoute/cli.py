"""Command line front end.

Subcommands: ``route`` (static scope-aware routing), ``detour`` (simple or
enhanced closure handling), ``qc`` (quasi-closure set), ``validate`` (check
a walk file against one of the admissibility relations), ``bench`` (batch
benchmark), ``gen`` (synthetic network). Exit codes: 0 success, 1 error,
2 unreachable.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .bench import BenchConfig, _fmt, run_benchmark
from .detour import _recheck_detour, enhanced_detour_route, qc_closure, simple_detour_route
from .fulldetour import validate_full_detour
from .netio import (
    NetworkFile,
    ParseError,
    dump_network,
    export_route,
    generate_synthetic,
    load_network,
    parse_closures,
    parse_walk,
    save_network,
)
from .network import NetworkError, Walk, balance_to_proper
from .search import bidirectional_s_dijkstra, validate_split_admissible

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNREACHABLE = 2


def _load(args) -> NetworkFile:
    nf = load_network(args.network)
    if getattr(args, "closures", None):
        with open(args.closures, "r", encoding="utf-8") as fh:
            updates = parse_closures(fh.read(), nf.network)
        nf.network = nf.network.with_updated_weights(updates)
    return nf


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _print_walk(args, walk: Walk, nf: NetworkFile, cost: float, permit_edges=()) -> None:
    if args.format == "text":
        _emit(args, f"cost {_fmt(cost)}\nedges {' '.join(str(e) for e in walk.edges)}\n")
        return
    fmt, payload = export_route(
        walk, nf.network, nf.scope, args.format, nf.coordinates, permit_edges
    )
    # A GeoJSON payload has no final newline; a CSV one, fallback included, does.
    _emit(args, payload + "\n" if fmt == "geojson" else payload)


def cmd_route(args) -> int:
    nf = _load(args)
    weighting = "updated" if args.updated else "base"
    res = bidirectional_s_dijkstra(nf.network, nf.scope, args.source, args.target, weighting)
    if res.walk is None:
        sys.stderr.write("unreachable\n")
        return EXIT_UNREACHABLE
    if not validate_split_admissible(
        res.walk, nf.network, nf.scope, args.source, args.target, weighting
    ):
        sys.stderr.write("internal error: route failed validation\n")
        return EXIT_ERROR
    _print_walk(args, res.walk, nf, res.cost)
    return EXIT_OK


def cmd_detour(args) -> int:
    nf = _load(args)
    route = simple_detour_route if args.mode == "simple" else enhanced_detour_route
    res = route(nf.network, nf.scope, args.source, args.target)
    if res.walk is None:
        sys.stderr.write("unreachable\n")
        return EXIT_UNREACHABLE
    if res.klass != "static":
        enhanced = args.mode == "enhanced"
        if not _recheck_detour(res.walk, nf.network, nf.scope, enhanced, args.source, args.target):
            sys.stderr.write("internal error: detour failed validation\n")
            return EXIT_ERROR
    if args.format == "text":
        _emit(
            args,
            f"class {res.klass}\ncost {_fmt(res.cost_updated)}\n"
            f"static {_fmt(res.static_cost_base)} -> {_fmt(res.static_cost_updated)}\n"
            f"edges {' '.join(str(e) for e in res.walk.edges)}\n"
            f"permits {' '.join(str(e) for e in res.permit_edges)}\n",
        )
    else:
        _print_walk(args, res.walk, nf, res.cost_updated, res.permit_edges)
    return EXIT_OK


def cmd_qc(args) -> int:
    nf = _load(args)
    qc = qc_closure(nf.network, nf.scope, None, args.source, args.target)
    lines = [f"iterations {qc.iterations}"]
    for e in sorted(qc.edges):
        lines.append(f"{e} {qc.kind.get(e, 'hard')}")
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_validate(args) -> int:
    nf = _load(args)
    with open(args.walk, "r", encoding="utf-8") as fh:
        walk = parse_walk(fh.read(), nf.network, args.source)
    definition = args.definition
    if definition == "3":
        verdict = validate_split_admissible(
            walk, nf.network, nf.scope, args.source, args.target
        )
    elif definition in ("5", "7"):
        # The check ``cmd_detour`` runs on its simple and enhanced routes.
        enhanced = definition == "7"
        verdict = _recheck_detour(walk, nf.network, nf.scope, enhanced, args.source, args.target)
    else:
        full = validate_full_detour(
            walk, nf.network, nf.scope, None, args.source, args.target
        )
        if full.indeterminate:
            _emit(args, "indeterminate\n")
            return EXIT_OK
        verdict = bool(full.accepted)
    _emit(args, ("true" if verdict else "false") + "\n")
    return EXIT_OK


def cmd_bench(args) -> int:
    nf = _load(args)
    scope = nf.scope
    if args.balance:
        scope = balance_to_proper(nf.network, scope)
    config = BenchConfig(
        query_count=args.queries,
        closure_count=args.closure_count,
        seed=args.seed,
        measure_time=not args.no_timing,
    )
    report = run_benchmark(nf.network, scope, config)
    _emit(args, report.csv_body())
    if args.summary:
        sys.stderr.write(report.summary())
    return EXIT_OK


def cmd_gen(args) -> int:
    nf = generate_synthetic(args.kind, args.size, args.levels, args.seed, args.subdivide)
    if args.balance:
        nf.scope = balance_to_proper(nf.network, nf.scope)
    if args.out:
        save_network(nf, args.out)
    else:
        sys.stdout.write(dump_network(nf))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scoperoute", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, closures=True):
        p.add_argument("--network", required=True, help="network file")
        if closures:
            p.add_argument("--closures", help="closure file (edge per line, optional weight)")
        p.add_argument("--out", help="write output to file instead of stdout")

    p = sub.add_parser("route", help="static scope-aware route")
    common(p)
    p.add_argument("--source", type=int, required=True)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--updated", action="store_true", help="route on the updated weighting")
    p.add_argument("--format", choices=["text", "csv", "geojson"], default="text")
    p.set_defaults(func=cmd_route)

    p = sub.add_parser("detour", help="route around closures")
    common(p)
    p.add_argument("--mode", choices=["simple", "enhanced"], default="simple")
    p.add_argument("--source", type=int, required=True)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--format", choices=["text", "csv", "geojson"], default="text")
    p.set_defaults(func=cmd_detour)

    p = sub.add_parser("qc", help="print the quasi-closure set")
    common(p)
    p.add_argument("--source", type=int, required=True)
    p.add_argument("--target", type=int, required=True)
    p.set_defaults(func=cmd_qc)

    p = sub.add_parser("validate", help="validate a walk file against a definition")
    common(p)
    p.add_argument("--def", dest="definition", choices=["3", "5", "7", "9"], required=True)
    p.add_argument("--walk", required=True, help="file with one edge id per line")
    p.add_argument("--source", type=int, required=True)
    p.add_argument("--target", type=int, required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("bench", help="run the benchmark batch")
    common(p, closures=False)
    p.add_argument("--queries", type=int, default=500)
    p.add_argument("--closure-count", type=int, default=50)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--no-timing", action="store_true", help="blank timing columns (reproducible output)")
    p.add_argument("--summary", action="store_true", help="print aggregates to stderr")
    p.add_argument("--balance", action="store_true", help="balance the scope mapping first")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gen", help="generate a synthetic network")
    p.add_argument("--kind", choices=["grid", "random"], default="grid")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--subdivide", type=int, default=0, help="split grid roads into extra segments")
    p.add_argument("--balance", action="store_true", help="balance the scope mapping to proper")
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NetworkError, ParseError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
