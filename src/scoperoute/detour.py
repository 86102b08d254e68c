"""Dynamic-closure machinery: obstruction records, detour permits, quasi-closures.

When roads close, the static admissibility relation is relaxed near the
closures. A vertex whose cheapest admissible continuation runs through a
closed road becomes *obstructed*; an obstructed vertex of finite obstruction
level licenses nearby edges of exactly that level ("detour permits") until a
vertex with an open higher-level departure is passed. The enhanced variant
first grows the closure set to its quasi-closure fixed point, adding open
edges from which the target (resp. start) cannot be reached admissibly at
all.

The walk validator and the routing search share one acceptance relation:

* a prefix edge is fine when usable from the start (witness-based settled
  gate on the closure-free network), a suffix edge when usable towards the
  target in reverse;
* any edge of finite level is fine when a matching-level obstruction record
  sits on the walk before it with a departure-clean corridor in between, or
  symmetrically after it with an entry-clean corridor (permit clauses).

The search explores (vertex, carried-permit mask, owed-permit mask) states
in both directions, each goal-directed by open-network distances to the far
end. A state that another state settled at the same vertex dominates
(carries a superset of its permits, owes a subset of its debt, costs no
more) is not expanded; every transition and the meeting test are monotone
in both masks, so this loses no optimum. Each settled state is joined at
once with the compatible states settled at its vertex by the other
direction, so the search is complete for exactly the relation the
validator decides.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from operator import eq

from .network import (
    INF,
    RoadNetwork,
    ScopeMapping,
    Walk,
    check_walk,
    zero_vector,
)
from .search import (
    ScopeSearchResult,
    _edge_pack,
    _split_exists,
    _split_minimum,
    bidirectional_s_dijkstra,
    dijkstra,
    s_dijkstra,
)


@dataclass(frozen=True)
class ClosureSet:
    """Edge ids treated as closed, with per-edge provenance tags.

    ``hard`` are the edges whose updated weight is infinite; ``edges`` is the
    full treated-as-closed set (equal to ``hard`` until quasi-closures are
    added). Tags: ``hard``, ``soft``, ``quasi-t``, ``quasi-s``.
    """

    edges: frozenset[int]
    hard: frozenset[int]
    kind: dict[int, str] = field(default_factory=dict)
    iterations: int = 0

    def __contains__(self, e: int) -> bool:
        return e in self.edges


def derive_closures(network: RoadNetwork) -> ClosureSet:
    """Edges with raised weight; those raised to infinity are flagged hard."""
    raised = [e for e in range(network.edge_count) if network.weight_updated[e] > network.weight[e]]
    hard = frozenset(e for e in raised if network.weight_updated[e] == INF)
    kind = {e: ("hard" if e in hard else "soft") for e in raised}
    return ClosureSet(frozenset(raised), hard, kind)


def _active_set(network: RoadNetwork, closures) -> frozenset[int]:
    """The set treated as closed: hard closures plus any quasi-closures."""
    if closures is None:
        return derive_closures(network).hard
    if isinstance(closures, ClosureSet):
        quasi = {e for e, k in closures.kind.items() if k.startswith("quasi")}
        return closures.hard | quasi
    return frozenset(closures)


@dataclass(frozen=True)
class ObstructionRecord:
    """An obstructed vertex: its state vector, level, and nearest closure.

    ``side`` is ``"t"`` when the obstruction blocks progress towards the
    target (grants forward permits) and ``"s"`` for the reverse case.
    ``omega`` carries the initial/final amendment vector for records found
    by combining both search directions near the endpoints.
    """

    vertex: int
    side: str
    state: tuple[float, ...]
    level: int
    closure_ref: int
    omega: tuple[float, ...] | None = None


def _state_level(state: tuple[float, ...], scope: ScopeMapping) -> int:
    for lv in range(scope.level_count):
        if state[lv] <= scope.nu[lv]:
            return lv
    return scope.top


def _vec_sub(a: tuple[float, ...], b: tuple[float, ...]) -> tuple[float, ...]:
    return tuple([x - y if x > y else 0.0 for x, y in zip(a, b)])


def _segment_level(tail: tuple[float, ...], head: tuple[float, ...], nu, top: int) -> int:
    """``_state_level`` of ``_vec_sub(tail, head)`` without building the vector.

    Budgets are non-negative, so clipping a component at zero never changes
    whether it is within budget.
    """
    for lv in range(top):
        if tail[lv] - head[lv] <= nu[lv]:
            return lv
    return top


# Raw records offered for one (vertex, side, level) key, before deduplication:
# (amended, state, closure_ref, omega); the smallest (amended, state) wins.
_Candidates = dict[tuple[int, str, int], tuple[bool, tuple[float, ...], int, tuple | None]]


def _offer(chosen: _Candidates, key, amended: bool, state, ref: int, omega) -> None:
    old = chosen.get(key)
    if old is None or (amended, state) < (old[0], old[1]):
        chosen[key] = (amended, state, ref, omega)


def _tree_records(
    network: RoadNetwork,
    scope: ScopeMapping,
    run: ScopeSearchResult,
    active: frozenset[int],
    side: str,
    other_reached: list[bool],
    chosen: _Candidates,
    finite_only: bool = False,
) -> None:
    """Offer the records read off one drained search tree to ``chosen``.

    Vertices whose tree walk crosses a closure get a plain record measured
    from the nearest crossing; additionally, vertices on the tree chain
    before a crossing whose far side connects to the other direction get an
    amended record carrying their own settled draw, provided their budgets
    are not yet exhausted (the near-endpoint case).
    """
    n = network.vertex_count
    nu = scope.nu
    top = scope.top
    # run operates on the reversed graph for side "t"; its edge ids are
    # shared, so the tree parent is the original head in that case.
    ends = network.tails if side == "s" else network.heads
    parent_edge = run.parent_edge
    tree = run.tree_sigma
    children: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        e = parent_edge[v]
        if e is not None:
            children[ends[e]].append(v)
    # Preorder with children in increasing order; anchor[v] is the head of
    # the nearest closure edge on v's tree walk, -1 when there is none.
    anchor = [-1] * n
    crossings: list[int] = []
    stack = [run.source]
    while stack:
        v = stack.pop()
        kids = children[v]
        if kids:
            stack.extend(reversed(kids))
        e = parent_edge[v]
        if e is None:
            continue
        if e in active:
            a = v
            crossings.append(v)
        else:
            a = anchor[ends[e]]
            if a < 0:
                continue
        anchor[v] = a
        tv, ta = tree[v], tree[a]
        lv = _segment_level(tv, ta, nu, top)
        if finite_only and lv >= top:
            continue
        _offer(chosen, (v, side, lv), False, _vec_sub(tv, ta), parent_edge[a], None)
    # Amended records: walk up from each closure tree edge whose subtree
    # meets the opposite search. A subtree meets it when a vertex anchored
    # in it does, or a nested crossing's subtree does.
    meets = [False] * n
    for v in range(n):
        if other_reached[v] and anchor[v] >= 0:
            meets[anchor[v]] = True
    for v in reversed(crossings):
        if meets[v]:
            outer = anchor[ends[parent_edge[v]]]
            if outer >= 0:
                meets[outer] = True
    amended_side = "t" if side == "s" else "s"
    finite = scope.finite_levels()
    saturated: dict[int, bool] = {}
    for v in sorted(crossings):
        if not meets[v]:
            continue
        e = parent_edge[v]
        parent = ends[e]
        tp = tree[parent]
        at = parent
        while True:
            sat = saturated.get(at)
            if sat is None:
                sigma_at = run.sigma[at]
                sat = all(sigma_at[lv] > nu[lv] for lv in finite)
                saturated[at] = sat
            if not sat:
                lv = _segment_level(tp, tree[at], nu, top)
                if not (finite_only and lv >= top):
                    _offer(
                        chosen, (at, amended_side, lv), True, _vec_sub(tp, tree[at]), e,
                        run.sigma[at],
                    )
            pe = parent_edge[at]
            if pe is None:
                break
            at = ends[pe]


def find_obstructed(
    network: RoadNetwork,
    scope: ScopeMapping,
    closures,
    source: int,
    target: int,
) -> list[ObstructionRecord]:
    """Identify obstructed vertices by two drained scope-aware searches.

    Closed edges are traversed at their base weight so the searches flow
    through them and everything downstream in a tree is marked; open edges
    keep their updated weight. Closure tails additionally get a zero-state
    record towards the target (and heads one towards the start) whenever the
    far side connects, so a blocked route always leaves a permit anchor at
    the blocking spot.
    """
    active = _active_set(network, closures)
    scope.validate(network)
    w2 = [
        network.weight[e] if e in active else network.weight_updated[e]
        for e in range(network.edge_count)
    ]
    fwd = s_dijkstra(network, scope, source, w2)
    bwd = s_dijkstra(network.reverse(), scope, target, w2)
    return _records_from_runs(network, scope, active, fwd, bwd)


def _records_from_runs(
    network: RoadNetwork,
    scope: ScopeMapping,
    active: frozenset[int],
    fwd: ScopeSearchResult,
    bwd: ScopeSearchResult,
    finite_only: bool = False,
) -> list[ObstructionRecord]:
    """Obstruction records of both drained runs, one per (vertex, side, level).

    Plain records win over amended ones, then the lowest state, then the
    first offered; the result is sorted by (vertex, side, level).
    """
    fwd_reached = [d < INF for d in fwd.dist]
    bwd_reached = [d < INF for d in bwd.dist]
    chosen: _Candidates = {}
    # Forward tree: closures behind a vertex obstruct it for the start.
    _tree_records(network, scope, fwd, active, "s", bwd_reached, chosen, finite_only)
    # Reverse tree: closures ahead obstruct for the target.
    _tree_records(network, scope, bwd, active, "t", fwd_reached, chosen, finite_only)
    zero = zero_vector(scope)
    zero_level = _state_level(zero, scope)
    for e in sorted(active):
        x, y = network.tails[e], network.heads[e]
        if bwd_reached[y]:
            _offer(chosen, (x, "t", zero_level), False, zero, e, None)
        if fwd_reached[x]:
            _offer(chosen, (y, "s", zero_level), False, zero, e, None)
    records = []
    for key in sorted(chosen):
        vertex, side, level = key
        _amended, state, ref, omega = chosen[key]
        records.append(ObstructionRecord(vertex, side, state, level, ref, omega))
    return records


@dataclass
class DetourContext:
    """Shared precomputation for one (network, closures, s, t) query."""

    network: RoadNetwork
    scope: ScopeMapping
    active: frozenset[int]
    source: int
    target: int
    records: list[ObstructionRecord]
    s_usable: list[bool]
    t_usable: list[bool]
    rec_t_mask: list[int]
    rec_s_mask: list[int]
    clean_dep_mask: list[int]
    clean_ent_mask: list[int]
    viable_s_mask: list[int]
    viable_t_mask: list[int]
    gate_fwd: ScopeSearchResult
    gate_bwd: ScopeSearchResult
    rec_fwd: ScopeSearchResult
    rec_bwd: ScopeSearchResult
    closed_flag: list[bool]
    out_pack: list[tuple[tuple[int, int, int], ...]]
    in_pack: list[tuple[tuple[int, int, int], ...]]
    pure_hard: bool


def build_detour_context(
    network: RoadNetwork,
    scope: ScopeMapping,
    closures,
    source: int,
    target: int,
) -> DetourContext:
    active = _active_set(network, closures)
    scope.validate(network)
    n = network.vertex_count
    m = network.edge_count
    top = scope.top
    wstar = network.weight_updated
    base = network.weight
    closed_flag = [False] * m
    for e in active:
        closed_flag[e] = True
    w2 = list(wstar)
    wg = list(wstar)
    for e in active:
        w2[e] = base[e]
        wg[e] = INF
    pure_hard = all(map(eq, w2, base))
    rev = network.reverse()
    rec_fwd = s_dijkstra(network, scope, source, w2)
    rec_bwd = s_dijkstra(rev, scope, target, w2)
    records = _records_from_runs(
        network, scope, active, rec_fwd, rec_bwd, finite_only=True
    )
    gate_fwd = s_dijkstra(network, scope, source, wg, track_tree=False)
    gate_bwd = s_dijkstra(rev, scope, target, wg, track_tree=False)
    out_pack = _edge_pack(network, scope)
    in_pack = _edge_pack(rev, scope)
    # An open edge is usable from the start when its tail's gate label
    # passes the budget at the edge's level; towards the target, its head's.
    s_usable = _gate_passes(gate_fwd, network.tails, scope, wg)
    t_usable = _gate_passes(gate_bwd, network.heads, scope, wg)

    rec_t_mask = [0] * n
    rec_s_mask = [0] * n
    for r in records:
        if r.level >= top:
            continue
        if r.side == "t":
            rec_t_mask[r.vertex] |= 1 << r.level
        else:
            rec_s_mask[r.vertex] |= 1 << r.level

    clean_dep_mask = _clean_masks(network, scope, closed_flag, active)
    clean_ent_mask = _clean_masks(rev, scope, closed_flag, active)
    viable_s_mask = _debt_viability(in_pack, closed_flag, rec_s_mask, clean_ent_mask)
    viable_t_mask = _debt_viability(out_pack, closed_flag, rec_t_mask, clean_dep_mask)
    return DetourContext(
        network,
        scope,
        active,
        source,
        target,
        records,
        s_usable,
        t_usable,
        rec_t_mask,
        rec_s_mask,
        clean_dep_mask,
        clean_ent_mask,
        viable_s_mask,
        viable_t_mask,
        gate_fwd,
        gate_bwd,
        rec_fwd,
        rec_bwd,
        closed_flag,
        out_pack,
        in_pack,
        pure_hard,
    )


def _gate_passes(
    run: ScopeSearchResult, ends: tuple[int, ...], scope: ScopeMapping, weights: list[float]
) -> list[bool]:
    """Per edge of finite weight: does the gate label at its near end pass.

    ``ends`` gives each edge's end that ``run`` reaches first (tails for a
    forward run, heads for a reverse one).
    """
    nu = scope.nu
    levels = range(scope.level_count)
    passing = [0] * len(run.dist)
    for v, d in enumerate(run.dist):
        if d < INF:
            sig = run.sigma[v]
            mask = 0
            for lv in levels:
                if sig[lv] <= nu[lv]:
                    mask |= 1 << lv
            passing[v] = mask
    return [
        w != INF and (passing[x] >> lv) & 1 == 1 for x, lv, w in zip(ends, scope.level, weights)
    ]


def _clean_mask(row, closed_flag: list[bool], top: int) -> int:
    """Levels ``l`` at which no open edge of ``row`` exceeds ``l``."""
    high = -1
    for e, _far, lv in row:
        if lv > high and not closed_flag[e]:
            high = lv
    full = (1 << top) - 1
    return full & ~((1 << min(high, top)) - 1) if high > 0 else full


def _clean_masks(
    network: RoadNetwork, scope: ScopeMapping, closed_flag: list[bool], active: frozenset[int]
) -> list[int]:
    """Per vertex, the levels at which it is departure-clean in ``network``.

    Called on the reversed network this gives the entry-clean masks. The
    closure-free masks are structural and cached; only the tails of closed
    edges can differ from them.
    """
    pack = _edge_pack(network, scope)
    top = scope.top
    key = ("clean", scope.level)
    open_masks = network._aux.get(key)
    if open_masks is None:
        nothing_closed = [False] * network.edge_count
        open_masks = [_clean_mask(row, nothing_closed, top) for row in pack]
        network._aux[key] = open_masks
    masks = list(open_masks)
    tails = network.tails
    for v in {tails[e] for e in active}:
        masks[v] = _clean_mask(pack[v], closed_flag, top)
    return masks


def _debt_viability(
    pack,
    closed_flag: list[bool],
    rec_mask: list[int],
    clean_mask: list[int],
) -> list[int]:
    """Per vertex and level: can an owed permit still find its witness ahead.

    Level ``l`` is viable at ``v`` when some open-edge path from ``v`` reaches
    a vertex holding a matching record while every interior vertex stays
    corridor-clean at ``l``. ``pack`` lists, per vertex, the edges by which
    such a path can arrive there: the in-edge pack for paths leaving ``v``
    forwards, the out-edge pack for paths to ``v`` on the reversed network.
    All levels spread at once as bit masks, from the record holders back.
    """
    viable = list(rec_mask)
    stack = [v for v, mask in enumerate(rec_mask) if mask]
    while stack:
        v = stack.pop()
        bits = viable[v]
        for e, u, _lv in pack[v]:
            # u is an interior corridor vertex unless it holds a record.
            new = bits & (rec_mask[u] | clean_mask[u]) & ~viable[u]
            if new and not closed_flag[e]:
                viable[u] |= new
                stack.append(u)
    return viable


def _walk_permit_masks(ctx: DetourContext, vertices: list[int]) -> tuple[list[int], list[int]]:
    """Carried-permit masks along a concrete walk, both directions.

    ``live_t[p]`` is the mask of levels licensed for an edge departing
    position ``p``; ``live_s[p]`` licenses an edge arriving at position ``p``.
    """
    k = len(vertices)
    live_t = [0] * k
    live_s = [0] * k
    mask = ctx.rec_t_mask[vertices[0]]
    live_t[0] = mask
    for p in range(1, k):
        v = vertices[p]
        mask = ctx.rec_t_mask[v] | (mask & ctx.clean_dep_mask[v])
        live_t[p] = mask
    mask = ctx.rec_s_mask[vertices[k - 1]]
    live_s[k - 1] = mask
    for p in range(k - 2, -1, -1):
        v = vertices[p]
        mask = ctx.rec_s_mask[v] | (mask & ctx.clean_ent_mask[v])
        live_s[p] = mask
    return live_t, live_s


def validate_simple_detour(
    walk: Walk,
    network: RoadNetwork,
    scope: ScopeMapping,
    closures,
    source: int,
    target: int,
    context: DetourContext | None = None,
) -> bool:
    """Decide the detour acceptance relation for an explicit walk.

    The walk must avoid closed edges; each edge must be usable from the
    start (prefix side of some split), usable towards the target (suffix
    side), or licensed by a matching-level obstruction record on the walk
    with a clean corridor in between.
    """
    check_walk(walk, network)
    if walk.start != source or walk.end(network) != target:
        return False
    ctx = context or build_detour_context(network, scope, closures, source, target)
    if any(e in ctx.active for e in walk.edges):
        return False
    live_t, live_s = _walk_permit_masks(ctx, walk.vertices(network))
    top = ctx.scope.top
    prefix_ok = []
    suffix_ok = []
    for i, e in enumerate(walk.edges):
        lv = ctx.scope.level[e]
        licensed = lv < top and (
            (live_t[i] >> lv) & 1 or (live_s[i + 1] >> lv) & 1
        )
        prefix_ok.append(licensed or ctx.s_usable[e])
        suffix_ok.append(licensed or ctx.t_usable[e])
    return _split_exists(prefix_ok, suffix_ok)


@dataclass
class _StateSearch:
    """One direction of the permit-aware search over (vertex, masks) states.

    States are packed into ints: ``(vertex << 2F) | (carried << F) | owed``
    with ``F`` finite levels, ``carried`` the permit levels currently live on
    the walk and ``owed`` the levels of edges taken on credit that still need
    a matching record ahead. ``settled`` maps a vertex to the states settled
    (and expanded) there, as ``(carried, owed, cost, permits, key)`` tuples.
    """

    bits: int
    cost: dict[int, float]
    parent: dict[int, tuple[int | None, int | None, str]]
    permits: dict[int, int]
    settled: dict[int, list[tuple[int, int, float, int, int]]] = field(default_factory=dict)
    scanned: int = 0
    licensed_relaxations: int = 0


# The best compatible state pair: ((cost, permits, vertex), forward key, backward key).
_Meeting = tuple[tuple[float, int, int], int, int]


# Relative margin on the stop rule: keys add a potential to a cost, and the
# margin keeps rounding in those sums from stopping the search a hair early.
# It can only make the search settle more states.
_STOP_MARGIN = 1e-9


def _state_search_halves(
    ctx: DetourContext,
) -> tuple[_StateSearch, _StateSearch, _Meeting | None]:
    """Interleaved forward/backward permit-aware searches, joined as they settle.

    Each half is goal-directed: it pops states in order of cost plus a
    potential, the open-network distance (scope ignored) to the far end.
    Every walk a half can extend to a meeting also runs in the open network,
    so the potential is a consistent lower bound and keys never fall along
    a walk. States at vertices that cannot reach the far end at all get an
    infinite potential and are never queued: no partner can meet them.

    A popped state is not expanded when a state already settled at its
    vertex on the same side dominates it: costs no more, carries a superset
    of its permit mask and owes a subset of its debt mask. The pruning is
    exact because every transition is monotone in both masks: a larger
    carried mask licenses at least the same edges, so a smaller owed mask
    stays smaller after the edge, after the records at the head clear it,
    and through the corridor-clean and viability prunes; the carried mask
    after the edge stays a superset. So whatever the dominated state
    reaches, the dominating one reaches at no greater cost with masks that
    dominate again. The join test (each side's owed levels carried by the
    other) is monotone the same way, so a dominating state meets every
    partner the dominated one would have met.

    Each settled state is joined at once with the states settled at its
    vertex on the other side; ``best`` is the minimum over all compatible
    pairs seen, ties broken by permit count, then meeting vertex. Both
    halves stop once their queue heads reach ``best`` (plus a rounding
    margin): the two states of a cheaper compatible pair would each have a
    key below ``best`` (the partner's cost bounds the potential), so both,
    or states dominating them, would have settled and met already.
    """
    scope = ctx.scope
    top = scope.top
    wstar = ctx.network.weight_updated
    bits = max(top, 1)
    vshift = 2 * bits
    closed = ctx.closed_flag
    open_weights = list(wstar)
    for e in ctx.active:
        open_weights[e] = INF
    to_target = dijkstra(ctx.network.reverse(), open_weights, ctx.target).dist
    from_source = dijkstra(ctx.network, open_weights, ctx.source).dist
    searches = []
    heaps = []
    tabset = []
    for forward in (True, False):
        start = ctx.source if forward else ctx.target
        start_live = ctx.rec_t_mask[start] if forward else ctx.rec_s_mask[start]
        start_key = (start << vshift) | (start_live << bits)
        potential = to_target if forward else from_source
        search = _StateSearch(
            bits, {start_key: 0.0}, {start_key: (None, None, "start")}, {start_key: 0}
        )
        searches.append(search)
        heaps.append(
            [(potential[start], 0, start, start_live, 0, 0.0)] if potential[start] < INF else []
        )
        if forward:
            tabset.append(
                (ctx.rec_s_mask, ctx.rec_t_mask, ctx.clean_ent_mask, ctx.clean_dep_mask,
                 ctx.viable_s_mask, ctx.out_pack, ctx.s_usable, potential)
            )
        else:
            tabset.append(
                (ctx.rec_t_mask, ctx.rec_s_mask, ctx.clean_dep_mask, ctx.clean_ent_mask,
                 ctx.viable_t_mask, ctx.in_pack, ctx.t_usable, potential)
            )
    best = INF
    limit = INF
    meeting: _Meeting | None = None
    heap0, heap1 = heaps
    push = heapq.heappush
    pop = heapq.heappop
    while True:
        t0 = heap0[0][0] if heap0 else INF
        t1 = heap1[0][0] if heap1 else INF
        # Raw heap tops may be stale (too small); that only delays the stop.
        if (t0 >= limit and t1 >= limit) or (t0 == INF and t1 == INF):
            break
        side = 0 if t0 <= t1 else 1
        if (t0 if side == 0 else t1) >= limit:
            side = 1 - side
        heap = heaps[side]
        search = searches[side]
        cost = search.cost
        _k, perms, v, live, debt, d = pop(heap)
        key = (v << vshift) | (live << bits) | debt
        if d > cost[key]:
            continue
        settled = search.settled
        here = settled.get(v)
        if here is None:
            here = settled[v] = []
        else:
            dominated = False
            for s_live, s_debt, s_cost, _p, _k in here:
                if s_cost <= d and not (live & ~s_live or s_debt & ~debt):
                    dominated = True
                    break
            if dominated:
                continue
        here.append((live, debt, d, perms, key))
        search.scanned += 1
        far = searches[1 - side].settled.get(v)
        if far:
            for o_live, o_debt, o_cost, o_perms, o_key in far:
                total = d + o_cost
                if total > best or debt & ~o_live or o_debt & ~live:
                    continue
                rank = (total, perms + o_perms, v)
                if meeting is None or rank < meeting[0]:
                    best = total
                    limit = best + best * _STOP_MARGIN
                    meeting = (rank, key, o_key) if side == 0 else (rank, o_key, key)
        rec_stop, rec_carry, clean_debt, clean_carry, viable, pack, usable, potential = tabset[side]
        permits = search.permits
        parent = search.parent
        for e, u, lv in pack[v]:
            we = wstar[e]
            if we == INF or closed[e]:
                continue
            if usable[e]:
                new_debt = debt
                nperms = perms
                tag = "plain"
            elif lv < top:
                nperms = perms + 1
                if (live >> lv) & 1:
                    new_debt = debt
                    tag = "permit"
                else:
                    new_debt = debt | (1 << lv)
                    tag = "debt"
            else:
                continue
            if new_debt:
                new_debt &= ~rec_stop[u]
                if new_debt and (new_debt & ~clean_debt[u] or new_debt & ~viable[u]):
                    continue
            hu = potential[u]
            if hu == INF:
                continue
            nlive = rec_carry[u] | (live & clean_carry[u])
            nkey = (u << vshift) | (nlive << bits) | new_debt
            ncost = d + we
            old = cost.get(nkey, INF)
            if ncost < old or (ncost == old and nperms < permits[nkey]):
                cost[nkey] = ncost
                permits[nkey] = nperms
                parent[nkey] = (key, e, tag)
                if tag != "plain":
                    search.licensed_relaxations += 1
                push(heap, (ncost + hu, nperms, u, nlive, new_debt, ncost))
    return searches[0], searches[1], meeting


@dataclass
class DetourSearchOutcome:
    walk: Walk | None
    cost: float
    permit_edges: tuple[int, ...]
    scanned: int
    scanned_vertices: int
    permits_issued: int


def _detour_state_search(ctx: DetourContext) -> DetourSearchOutcome:
    """Cheapest walk through a compatible pair of forward and reverse states.

    A forward state's owed permits must be covered by the reverse state's
    carried mask at the meeting vertex and vice versa, which is exactly the
    cross-split witness condition of the acceptance relation. The pair comes
    from the join inside ``_state_search_halves``; the walk is stitched from
    both halves' parent chains.
    """
    fwd, bwd, meeting = _state_search_halves(ctx)
    scanned = fwd.scanned + bwd.scanned
    scanned_vertices = len(fwd.settled) + len(bwd.settled)
    issued = fwd.licensed_relaxations + bwd.licensed_relaxations
    if meeting is None:
        return DetourSearchOutcome(None, INF, (), scanned, scanned_vertices, issued)
    rank, key_f, key_b = meeting
    edges: list[int] = []
    permit_edges: list[int] = []
    state = key_f
    while True:
        prev, e, tag = fwd.parent[state]
        if prev is None:
            break
        edges.append(e)
        if tag != "plain":
            permit_edges.append(e)
        state = prev
    edges.reverse()
    state = key_b
    while True:
        prev, e, tag = bwd.parent[state]
        if prev is None:
            break
        edges.append(e)
        if tag != "plain":
            permit_edges.append(e)
        state = prev
    walk = Walk(ctx.source, tuple(edges))
    return DetourSearchOutcome(
        walk, rank[0], tuple(sorted(set(permit_edges))), scanned, scanned_vertices, issued
    )


@dataclass
class DetourResult:
    """Outcome of one routing query under closures."""

    walk: Walk | None
    cost_updated: float
    klass: str
    static_walk: Walk | None = None
    static_cost_base: float = INF
    static_cost_updated: float = INF
    permit_edges: tuple[int, ...] = ()
    scanned_static: int = 0
    scanned_detour: int = 0
    scanned_detour_vertices: int = 0
    permits_issued: int = 0
    qc_iterations: int = 0
    qc_added: int = 0
    context: DetourContext | None = None

    @property
    def reachable(self) -> bool:
        return self.walk is not None


def _route(
    network: RoadNetwork,
    scope: ScopeMapping,
    source: int,
    target: int,
    active: frozenset[int],
    detour_class: str,
    qc_iterations: int = 0,
    qc_added: int = 0,
) -> DetourResult:
    res = DetourResult(None, INF, "unreachable")
    res.qc_iterations = qc_iterations
    res.qc_added = qc_added
    ctx = build_detour_context(network, scope, active, source, target)
    res.context = ctx
    # With hard closures only, the record runs use the base weights, so
    # their split minimum is the static optimum.
    if ctx.pure_hard:
        static = _split_minimum(ctx.rec_fwd, ctx.rec_bwd)
    else:
        static = bidirectional_s_dijkstra(network, scope, source, target, "base")
    res.scanned_static = static.scanned_count
    if static.walk is not None:
        res.static_walk = static.walk
        res.static_cost_base = static.cost
        res.static_cost_updated = static.walk.cost(network, "updated")
        if res.static_cost_updated == res.static_cost_base:
            res.walk = static.walk
            res.cost_updated = res.static_cost_updated
            res.klass = "static"
            return res
    outcome = _detour_state_search(ctx)
    res.scanned_detour = outcome.scanned
    res.scanned_detour_vertices = outcome.scanned_vertices
    res.permits_issued = outcome.permits_issued
    if outcome.walk is not None and outcome.cost < res.static_cost_updated:
        res.walk = outcome.walk
        res.cost_updated = outcome.cost
        res.klass = detour_class
        res.permit_edges = outcome.permit_edges
    elif res.static_walk is not None and res.static_cost_updated < INF:
        res.walk = res.static_walk
        res.cost_updated = res.static_cost_updated
        res.klass = "static"
    return res


def simple_detour_route(
    network: RoadNetwork,
    scope: ScopeMapping,
    source: int,
    target: int,
    closures=None,
) -> DetourResult:
    """Static route if it survives the weight update, else the best simple detour.

    Follows the four-step scheme: static initialisation with early exit,
    obstruction identification, permit grants, and completion on the updated
    weights. The returned walk is the cheaper (under updated weights) of the
    static optimum and the best detour-admissible walk.
    """
    active = _active_set(network, closures)
    return _route(network, scope, source, target, active, "simple-detour")


def enhanced_detour_route(
    network: RoadNetwork,
    scope: ScopeMapping,
    source: int,
    target: int,
    closures=None,
) -> DetourResult:
    """Simple detour routing with the closure set grown to its quasi-closure fixed point."""
    qc = qc_closure(network, scope, closures, source, target)
    return _route(
        network,
        scope,
        source,
        target,
        qc.edges,
        "enhanced-detour",
        qc_iterations=qc.iterations,
        qc_added=len(qc.edges) - len(qc.hard),
    )


def _plain_reach(pack, vertex_count: int, source: int, blocked) -> list[bool]:
    """Vertices reachable from ``source`` over open edges, gates ignored."""
    reached = [False] * vertex_count
    reached[source] = True
    stack = [source]
    while stack:
        v = stack.pop()
        for e, u, _lv in pack[v]:
            if not reached[u] and not blocked[e]:
                reached[u] = True
                stack.append(u)
    return reached


def qc_closure(
    network: RoadNetwork,
    scope: ScopeMapping,
    closures,
    source: int,
    target: int,
) -> ClosureSet:
    """Least fixed point of adding quasi-closed edges to the closure set.

    An open edge is quasi-closed for the target when, in the network minus
    the current closures, no walk from its head reaches the target at all
    (a dead-end pocket behind the closures); symmetric for the start. The
    structural reading keeps every closure-avoiding walk quasi-closure
    avoiding, which is what makes the enhanced relaxation a true superset
    of the simple one.

    One adding round reaches the fixed point. Take an open edge x -> y that
    the round keeps: y reaches the target and the start reaches x. Every
    edge of a walk from y to the target has a head that reaches the target
    along the rest of the walk, and a tail the start reaches through x -> y
    and the walk before it; so the round keeps the whole walk, and by the
    symmetric argument the whole walk from the start to x. After the round
    x is still reached and y still reaches, and no further edge becomes
    quasi-closed. ``iterations`` is the number of rounds a fixed-point loop
    takes: 1 when nothing is added, else 2 (the second round adds nothing).
    """
    base = closures if isinstance(closures, ClosureSet) else None
    active = set(_active_set(network, closures))
    hard = frozenset(active) if base is None else base.hard
    kind = dict(base.kind) if base is not None else {e: "hard" for e in active}
    scope.validate(network)
    n = network.vertex_count
    m = network.edge_count
    tails, heads = network.tails, network.heads
    wstar = network.weight_updated
    blocked = [e in active or wstar[e] == INF for e in range(m)]
    t_reach = _plain_reach(_edge_pack(network.reverse(), scope), n, target, blocked)
    s_reach = _plain_reach(_edge_pack(network, scope), n, source, blocked)
    added = 0
    for e in range(m):
        if blocked[e]:
            continue
        if not t_reach[heads[e]]:
            kind[e] = "quasi-t"
        elif not s_reach[tails[e]]:
            kind[e] = "quasi-s"
        else:
            continue
        active.add(e)
        added += 1
    return ClosureSet(frozenset(active), hard, kind, 2 if added else 1)
