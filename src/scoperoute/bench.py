"""Batch benchmark harness: random queries, random closures, per-query statistics.

Each query samples a random source/target pair biased towards long routes,
places closures so that at least one hits the static optimum, then runs the
static, simple-detour, and enhanced-detour algorithms, each detour variant
on its own cold copy of the closed network, and re-checks every returned
walk with its validator against a freshly built context. Per-query random
streams derive from (seed, query index), so results do not depend on
execution order.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from .detour import (
    enhanced_detour_route,
    qc_closure,
    simple_detour_route,
    validate_simple_detour,
)
from .network import INF, NetworkError, RoadNetwork, ScopeMapping
from .search import bidirectional_s_dijkstra

CSV_HEADER = (
    "query,src,dst,static_w,static_wstar,simple_wstar,enhanced_wstar,"
    "scanned_static,scanned_simple,scanned_enhanced,permits,qc_edges,qc_iters,"
    "ms_simple,ms_enhanced"
)


def _fmt(x: float) -> str:
    """A cost for reports: ``inf``, an integer, or six significant digits."""
    if x == INF:
        return "inf"
    if x == int(x):
        return str(int(x))
    return f"{x:.6g}"


@dataclass(frozen=True)
class BenchConfig:
    query_count: int = 500
    closure_count: int = 50
    seed: int = 1
    measure_time: bool = True


@dataclass
class QueryRecord:
    query: int
    src: int
    dst: int
    static_w: float = INF
    static_wstar: float = INF
    simple_wstar: float = INF
    enhanced_wstar: float = INF
    scanned_static: int = 0
    scanned_simple: int = 0
    scanned_enhanced: int = 0
    permits: int = 0
    qc_edges: int = 0
    qc_iters: int = 0
    ms_simple: float | None = None
    ms_enhanced: float | None = None
    validator_ok: bool = True

    def csv_row(self) -> str:
        def ms(x: float | None) -> str:
            return "" if x is None else f"{x:.3f}"

        return (
            f"{self.query},{self.src},{self.dst},{_fmt(self.static_w)},{_fmt(self.static_wstar)},"
            f"{_fmt(self.simple_wstar)},{_fmt(self.enhanced_wstar)},{self.scanned_static},"
            f"{self.scanned_simple},{self.scanned_enhanced},{self.permits},{self.qc_edges},"
            f"{self.qc_iters},{ms(self.ms_simple)},{ms(self.ms_enhanced)}"
        )


@dataclass
class BenchReport:
    config: BenchConfig
    records: list[QueryRecord]
    findings: list[str] = field(default_factory=list)

    def csv_body(self) -> str:
        """The CSV; the ``ms`` columns are blank when timing is off."""
        return "\n".join([CSV_HEADER] + [r.csv_row() for r in self.records]) + "\n"

    def summary(self) -> str:
        done = [r for r in self.records if r.static_w < INF]
        lines = [
            f"queries: {len(self.records)} (routable: {len(done)})",
            f"closures per query: {self.config.closure_count}",
        ]
        if done:
            def mean(values):
                values = list(values)
                return sum(values) / len(values) if values else 0.0

            hit = [r for r in done if r.static_wstar > r.static_w]
            lines.append(f"queries with closure on static optimum: {len(hit)}")
            simple_ok = [r for r in done if r.simple_wstar < INF]
            enhanced_ok = [r for r in done if r.enhanced_wstar < INF]
            lines.append(f"simple routable: {len(simple_ok)}, enhanced routable: {len(enhanced_ok)}")
            lines.append(
                "mean scanned static/simple/enhanced: "
                f"{mean(r.scanned_static for r in done):.1f}/"
                f"{mean(r.scanned_simple for r in done):.1f}/"
                f"{mean(r.scanned_enhanced for r in done):.1f}"
            )
            lines.append(f"mean permits issued: {mean(r.permits for r in done):.2f}")
            lines.append(
                f"mean quasi-closures added: {mean(r.qc_edges for r in done):.2f}, "
                f"max qc iterations: {max((r.qc_iters for r in done), default=0)}"
            )
            if self.config.measure_time:
                lines.append(
                    f"mean ms simple: {mean(r.ms_simple for r in done if r.ms_simple is not None):.2f}, "
                    f"mean ms enhanced: {mean(r.ms_enhanced for r in done if r.ms_enhanced is not None):.2f}"
                )
        if self.findings:
            lines.append("findings:")
            lines.extend(f"  - {f}" for f in self.findings)
        return "\n".join(lines) + "\n"


def place_random_closures(
    network: RoadNetwork,
    scope: ScopeMapping,
    base_walk,
    count: int,
    seed: int,
) -> tuple[dict[int, float], list[str]]:
    """Closure placement: one near the base walk's weighted midpoint, the
    rest uniform over unbounded open edges.

    Returns weight updates (all to infinity) plus any placement warnings.
    Deterministic for a seed.
    """
    if base_walk is None or not base_walk.edges:
        raise NetworkError("closure placement needs a nonempty base walk")
    rng = random.Random(seed)
    warnings: list[str] = []
    total = base_walk.cost(network, "base")
    acc = 0.0
    mid_edge = base_walk.edges[-1]
    for e in base_walk.edges:
        acc += network.weight[e]
        if acc >= total / 2:
            mid_edge = e
            break
    chosen = {mid_edge}
    unbounded = [
        e
        for e in range(network.edge_count)
        if scope.level[e] == scope.top and e != mid_edge and network.weight_updated[e] < INF
    ]
    want = count - 1
    if want > len(unbounded):
        warnings.append(
            f"only {len(unbounded)} unbounded edges available for {want} random closures"
        )
        chosen.update(unbounded)
    elif want > 0:
        chosen.update(rng.sample(sorted(unbounded), want))
    return {e: INF for e in sorted(chosen)}, warnings


def _sample_queries(
    network: RoadNetwork,
    scope: ScopeMapping,
    config: BenchConfig,
) -> list[tuple[int, int, float]]:
    """Uniform pairs filtered to the upper half of static distances."""
    rng = random.Random(config.seed)
    n = network.vertex_count
    wanted = config.query_count
    candidates: list[tuple[int, int, float]] = []
    attempts = 0
    while len(candidates) < 2 * wanted and attempts < 20 * wanted + 100:
        attempts += 1
        s, t = rng.randrange(n), rng.randrange(n)
        if s == t:
            continue
        res = bidirectional_s_dijkstra(network, scope, s, t, "base")
        if res.walk is None or not res.walk.edges:
            continue
        candidates.append((s, t, res.cost))
    if not candidates:
        return []
    ordered = sorted(c[2] for c in candidates)
    median = ordered[len(ordered) // 2]
    kept = [c for c in candidates if c[2] >= median]
    return kept[:wanted]


def run_benchmark(network: RoadNetwork, scope: ScopeMapping, config: BenchConfig) -> BenchReport:
    """Run the full batch; per-query failures are recorded, never raised."""
    report = BenchReport(config, [])
    queries = _sample_queries(network, scope, config)
    for idx, (s, t, static_cost) in enumerate(queries):
        record = QueryRecord(idx, s, t, static_w=static_cost)
        report.records.append(record)
        try:
            _run_query(network, scope, config, idx, record)
        except Exception as exc:  # pragma: no cover - defensive batch boundary
            report.findings.append(f"query {idx}: {exc}")
    for r in report.records:
        if (
            r.simple_wstar < INF
            and r.enhanced_wstar < INF
            and r.enhanced_wstar > r.simple_wstar
        ):
            report.findings.append(
                f"query {r.query}: enhanced cost {r.enhanced_wstar} exceeds simple {r.simple_wstar}"
            )
        if not r.validator_ok:
            report.findings.append(f"query {r.query}: validator rejected a returned walk")
    return report


def _run_query(
    network: RoadNetwork,
    scope: ScopeMapping,
    config: BenchConfig,
    idx: int,
    record: QueryRecord,
) -> None:
    """One query: each algorithm runs on its own cold copy of the closed network.

    Timing excludes making the copies. Every returned detour walk is then
    re-checked against a context built on one more fresh copy, so a fault in
    context building cannot validate itself.
    """
    static = bidirectional_s_dijkstra(network, scope, record.src, record.dst, "base")
    assert static.walk is not None
    updates, _ = place_random_closures(
        network, scope, static.walk, config.closure_count, seed=config.seed * 1_000_003 + idx
    )
    closed_net = network.with_updated_weights(updates)
    record.static_wstar = static.walk.cost(closed_net, "updated")
    record.scanned_static = static.scanned_count
    checks = []
    t0 = time.perf_counter()
    simple = simple_detour_route(closed_net, scope, record.src, record.dst)
    if config.measure_time:
        record.ms_simple = (time.perf_counter() - t0) * 1000.0
    record.simple_wstar = simple.cost_updated
    record.scanned_simple = simple.scanned_detour_vertices or simple.scanned_static
    record.permits = simple.permits_issued
    if simple.walk is not None and simple.klass != "static":
        checks.append((simple.walk, False))
    enhanced_net = network.with_updated_weights(updates)
    t0 = time.perf_counter()
    enhanced = enhanced_detour_route(enhanced_net, scope, record.src, record.dst)
    if config.measure_time:
        record.ms_enhanced = (time.perf_counter() - t0) * 1000.0
    record.enhanced_wstar = enhanced.cost_updated
    record.scanned_enhanced = enhanced.scanned_detour_vertices or enhanced.scanned_static
    record.qc_edges = enhanced.qc_added
    record.qc_iters = enhanced.qc_iterations
    if enhanced.walk is not None and enhanced.klass != "static":
        checks.append((enhanced.walk, True))
    if checks:
        fresh = network.with_updated_weights(updates)
        for walk, quasi in checks:
            closures = qc_closure(fresh, scope, None, record.src, record.dst) if quasi else None
            record.validator_ok = record.validator_ok and validate_simple_detour(
                walk, fresh, scope, closures, record.src, record.dst
            )
