"""Workload inputs and the per-query routine: timed calls, then checks.

All three workloads run on the acceptance grid,
``generate_synthetic("grid", 50, 3, seed=42)`` balanced to a proper scope
mapping (2500 vertices, 9800 edges). They differ in how queries share
closure sets:

* ``city-static``: no closures. Each query gets its own unchanged copy of the
  network per detour algorithm, so the detour calls always take the static
  early exit and the static search carries the workload.
* ``city-detour``: every query gets a fresh set of 50 closures, one on the
  midpoint of its static optimum, and each detour algorithm its own cold
  copy: one write per read.
* ``city-incident``: one closure set (an "incident") is shared by a block of
  queries, on one network copy per algorithm: many reads per write, and the
  copies' per-query context cache grows through the block. Every fifth
  query runs along the block's first route (endpoints within a few cells
  of its endpoints) and meets the closure placed on it; the other queries
  mostly keep their static route. About a quarter of the queries detour, so
  the median measures the static exit and the p90 the detour search.

The inputs come from the workload seed alone. The benchmark places closures
itself rather than through ``scoperoute.bench``, so that a change to the
program cannot change the inputs it is measured on.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

GRID = ("grid", 50, 3)
GRID_SEED = 42
# Pairs at least this many grid cells apart (Manhattan) are "long": about
# the upper half of static distances on the 50 x 50 grid.
MIN_SPAN = 40
CLOSURES_PER_SET = 50
CORRIDOR_RADIUS = 3
# The seed of the recorded reference queries, and the run's default.
DEFAULT_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    block_size: int  # queries that share one closure set and its network copies
    closures: int  # closures per set; 0 leaves the weights as built
    corridor_every: int = 0  # every k-th query of a block follows its first route


WORKLOADS = {
    w.name: w
    for w in (
        Workload("city-static", 1, 0),
        Workload("city-detour", 1, CLOSURES_PER_SET),
        Workload("city-incident", 25, CLOSURES_PER_SET, corridor_every=5),
    )
}


def _num(x: float) -> str:
    if x == math.inf:
        return "inf"
    return str(int(x)) if x == int(x) else repr(x)


def network_text(sr) -> str:
    """The acceptance grid in the network file format (written here, so that
    a change to ``dump_network`` cannot change the input)."""
    nf = sr.generate_synthetic(*GRID, seed=GRID_SEED)
    net, scope = nf.network, nf.scope
    lines = [
        f"V {net.vertex_count}",
        "L " + " ".join(f"{lbl}:{_num(nu)}" for lbl, nu in zip(scope.labels, scope.nu)),
    ]
    for e in range(net.edge_count):
        lines.append(
            f"E {net.tails[e]} {net.heads[e]} {_num(net.weight[e])} "
            f"{scope.labels[scope.level[e]]}"
        )
    for v in sorted(nf.coordinates):
        x, y = nf.coordinates[v]
        lines.append(f"C {v} {_num(x)} {_num(y)}")
    return "\n".join(lines) + "\n"


def blocks(workload: Workload, seed: int, coordinates: dict):
    """Endless stream of (rng, pairs); the rng then places the block's closures."""
    vertices = sorted(coordinates)

    def span(u, v):
        (xu, yu), (xv, yv) = coordinates[u], coordinates[v]
        return abs(xu - xv) + abs(yu - yv)

    def near(v):
        return [u for u in vertices if span(u, v) <= CORRIDOR_RADIUS]

    b = 0
    while True:
        rng = random.Random(f"{workload.name}/{seed}/{b}")
        pairs = []
        while len(pairs) < workload.block_size:
            if pairs and workload.corridor_every and len(pairs) % workload.corridor_every == 0:
                s, t = rng.choice(near(pairs[0][0])), rng.choice(near(pairs[0][1]))
            else:
                s, t = rng.choice(vertices), rng.choice(vertices)
            if span(s, t) >= MIN_SPAN:
                pairs.append((s, t))
        yield rng, pairs
        b += 1


def place_closures(rng, network, walk, top_edges, count) -> dict[int, float]:
    """One closure on the walk's weighted midpoint edge, the rest drawn from
    the unbounded-level edges (the criterion-7 placement)."""
    total = sum(network.weight[e] for e in walk.edges)
    acc = 0.0
    mid = walk.edges[-1]
    for e in walk.edges:
        acc += network.weight[e]
        if acc >= total / 2:
            mid = e
            break
    others = rng.sample([e for e in top_edges if e != mid], count - 1)
    return {e: math.inf for e in sorted({mid, *others})}


class CheckFailed(Exception):
    """A returned route failed a check."""


@dataclass
class Env:
    sr: object  # the scoperoute package
    network: object
    scope: object
    top_edges: list[int]
    workload: Workload
    spans: object


@dataclass
class Block:
    """A closure set and the network copies the algorithms share for it."""

    updates: dict[int, float] | None = None
    nets: tuple | None = None


@dataclass
class Outcome:
    s: int
    t: int
    static_s: float
    update_s: float
    simple_s: float
    enhanced_s: float
    costs: tuple[float, float, float]  # static (base), simple, enhanced (updated)
    counts: dict[str, int]  # exact counts from the returned objects

    @property
    def routing_s(self) -> float:
        return self.static_s + self.update_s + self.simple_s + self.enhanced_s


def route_query(env: Env, block: Block, rng, s: int, t: int) -> Outcome:
    sr, base, scope, spans = env.sr, env.network, env.scope, env.spans
    static, static_s = spans.timed(
        "search.bidir", sr.bidirectional_s_dijkstra, base, scope, s, t
    )
    if static.walk is None:
        raise CheckFailed(f"no static route {s}->{t}")
    update_s = 0.0
    if block.nets is None:
        if block.updates is None:
            block.updates = (
                place_closures(rng, base, static.walk, env.top_edges, env.workload.closures)
                if env.workload.closures
                else {}
            )
        simple_net, a = spans.timed("network.update", base.with_updated_weights, block.updates)
        enhanced_net, b = spans.timed("network.update", base.with_updated_weights, block.updates)
        block.nets = (simple_net, enhanced_net)
        update_s = a + b
    simple, simple_s = spans.timed(
        "detour.simple_route", sr.simple_detour_route, block.nets[0], scope, s, t
    )
    enhanced, enhanced_s = spans.timed(
        "detour.enhanced_route", sr.enhanced_detour_route, block.nets[1], scope, s, t
    )
    with spans.group("check"):
        probe_counts = _check(env, block.updates, s, t, static, simple, enhanced)
    counts = {
        "bidir_scanned": static.scanned_count,
        "bidir_relaxed": static.forward.relaxed_count + static.backward.relaxed_count,
        "states_scanned": simple.scanned_detour,
        "vertices_scanned": simple.scanned_detour_vertices,
        "permits_issued": simple.permits_issued,
        "permit_edges": len(simple.permit_edges),
        "static_exit": int(simple.klass == "static" and simple.scanned_detour == 0),
        "qc_added": enhanced.qc_added,
        "qc_iterations": enhanced.qc_iterations,
        **probe_counts,
    }
    return Outcome(
        s, t, static_s, update_s, simple_s, enhanced_s,
        (static.cost, simple.cost_updated, enhanced.cost_updated), counts,
    )


def _check(env: Env, updates, s: int, t: int, static, simple, enhanced) -> dict[str, int]:
    """Re-check every returned walk, on a fresh copy of the closed network, so
    that the search's own detour context is never reused.

    The context and quasi-closure built here double as the traced run's
    ``detour.context`` and ``detour.qc`` probes; their counts are returned.
    """
    sr, base, scope, spans = env.sr, env.network, env.scope, env.spans
    counts = {}
    if static.walk.cost(base, "base") != static.cost:
        raise CheckFailed("static cost differs from its walk's cost")
    if not spans.timed(
        "search.validate_split", sr.validate_split_admissible, static.walk, base, scope, s, t
    )[0]:
        raise CheckFailed("validate_split_admissible rejected the static walk")
    if spans.enabled:  # the traced run's extra probe: one drained search
        drained, _ = spans.timed("search.drained", sr.s_dijkstra, base, scope, s)
        counts["drained_scanned"] = drained.scanned_count
    fresh = base.with_updated_weights(updates)
    ctx = qc = qc_ctx = None
    # Untraced, the context and quasi-closure are built only to check a detour.
    if spans.enabled or simple.klass != "static" or enhanced.klass != "static":
        ctx, _ = spans.timed(
            "detour.context", sr.build_detour_context, fresh, scope, None, s, t
        )
        counts["records"] = len(ctx.records)
        qc, _ = spans.timed("detour.qc", sr.qc_closure, fresh, scope, None, s, t)
        # Without quasi-closures the enhanced relation is the simple one.
        qc_ctx = ctx if qc.edges == qc.hard else None
    for label, res, closures, context in (
        ("simple", simple, None, ctx),
        ("enhanced", enhanced, qc, qc_ctx),
    ):
        if res.walk is None or res.cost_updated == math.inf:
            raise CheckFailed(f"{label}: no open route")
        if res.walk.cost(fresh, "updated") != res.cost_updated:
            raise CheckFailed(f"{label}: cost differs from its walk's cost")
        if res.klass == "static":
            ok = res.walk.edges == static.walk.edges or spans.timed(
                "search.validate_split",
                sr.validate_split_admissible, res.walk, base, scope, s, t,
            )[0]
        else:
            ok = spans.timed(
                "detour.validate",
                sr.validate_simple_detour, res.walk, fresh, scope, closures, s, t, context,
            )[0]
        if not ok:
            raise CheckFailed(f"{label}: validator rejected the {res.klass} walk")
    if enhanced.cost_updated > simple.cost_updated:
        raise CheckFailed(
            f"enhanced cost {enhanced.cost_updated} exceeds simple {simple.cost_updated}"
        )
    return counts
