"""Dynamic-closure machinery: obstruction records, detour permits, quasi-closures.

When roads close, the static admissibility relation is relaxed near the
closures. A vertex whose cheapest admissible continuation runs through a
closed road becomes *obstructed*; an obstructed vertex of finite obstruction
level licenses nearby edges of exactly that level ("detour permits") until a
vertex with an open higher-level departure is passed. The enhanced variant
first grows the closure set to its quasi-closure fixed point, adding open
edges from which the target (resp. start) cannot be reached admissibly at
all. Most closure sets add none, and that is proved without a pass over
the whole network: when the base graph is strongly connected and each
closed edge's tail reaches its head on the open roads, every vertex still
reaches every other (see ``qc_closure``).

The walk validator and the routing search share one acceptance relation:

* a prefix edge is fine when usable from the start (witness-based settled
  gate on the closure-free network), a suffix edge when usable towards the
  target in reverse;
* any edge of finite level is fine when a matching-level obstruction record
  sits on the walk before it with a departure-clean corridor in between, or
  symmetrically after it with an entry-clean corridor (permit clauses).

Each direction reads its gate run's labels, through ``search._usable``
at a vertex the search settles, and two per-vertex bit masks, one bit per
level: the levels of the records there, and the levels at which it is
corridor-clean. The record tree pass measures each record's state along
the tree path between its vertex and its closure crossing. The grant masks
come straight from the pass's keys; full record objects are built from the
same pass only when asked for (``find_obstructed``, ``DetourContext.records``).

Each direction has one consistent lower bound on the open-network
distance to its far end, which its gate run, the certificate and the
permit-state search all read: the landmark bounds of the static search
once the network has its landmark table, each evaluated once per vertex
and direction in a route, else in a route the exact open-network
distances, and 0 in ``build_detour_context``, whose readers read no bound.
The table only tightens the bound; the weights alone choose the steps.

A gate run is read only at the vertices the search settles, so the routes
run it lazily where that is exact: where the open weights are positive
integers, each gate run is goal-directed by its direction's bound and
stepped only until the vertex a search state settles at is final. Its
labels there are the drained run's (see ``_settle_gate``), and the run
itself marks which labels are final (``ScopeSearchResult.final``), so the
permit-state search reads a run the certificate stepped as it finds it.
Elsewhere, and in ``build_detour_context`` and the validators always, the
gate runs are drained, so a route is checked against labels computed
independently of its lazy runs. Where the gate runs are lazy, a route
first tries a certificate (``_certificate``): a walk that needs no permit
and costs the plain open-weight distance d_open, so that no walk is
cheaper and no record is built. The plain run that finds d_open leaves a
tree walk of that cost; when it splits into a prefix and a suffix whose
edges pass their gates on the walk's own running draws from either end,
the drained gate runs pass them too, and no gate run or grant list is
made: the d_open run reads only the forward pack and bound and the open
weights. Otherwise the gate runs are made and stepped until their split
minimum is d_open, stopping at their first meeting of that sum, since no
meeting can be cheaper, or until it cannot be. When d_open is infinite no
walk is accepted at all. The corridor-clean masks are built only for the
permit-state search.

A query allocates only what it reads: the open weighting is the
network's own updated weights wherever those already close every edge
treated as closed (``_weightings``), and a run's final marks are one byte
per vertex (``ScopeSearchResult.final``).

The search explores (vertex, carried-permit mask, owed-permit mask) states
in both directions, each goal-directed by its direction's bound. A state
that another state settled at the same vertex dominates (carries a
superset of its permits, owes a subset of its debt, costs no more) is not
expanded; every transition and the meeting test are monotone in both
masks, so this loses no optimum. Each settled state is joined at once
with the compatible states settled at its vertex by the other direction,
so the search is complete for exactly the relation the validator decides.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field, replace

from .network import (
    INF,
    NetworkError,
    RoadNetwork,
    ScopeMapping,
    Walk,
    _check_endpoints,
    _edge_pack,
    _level_cached,
    _reach,
    _strongly_connected,
    add_draw,
    check_walk,
    zero_vector,
)
from .search import (
    BidirectionalResult,
    ScopeSearchResult,
    _bidirectional_search,
    _goal_directed,
    _goal_directed_meeting,
    _landmark_potentials,
    _own_draw_flags,
    _scope_run,
    _scope_search,
    _scope_steps,
    _split_exists,
    _split_minimum,
    _usable,
    dijkstra,
    is_saturated,
    s_dijkstra,
)


@dataclass(frozen=True)
class ClosureSet:
    """Edge ids treated as closed, with per-edge provenance tags.

    ``hard`` are the edges whose updated weight is infinite. ``edges`` holds
    every raised edge, soft ones included, as ``derive_closures`` returns
    it, and the hard and quasi-closed edges as ``qc_closure`` returns it.
    The routes treat as closed the hard edges and the quasi-tagged ones
    (``_active_set``), never soft ones. Tags: ``hard``, ``soft``,
    ``quasi-t``, ``quasi-s``.
    """

    edges: frozenset[int]
    hard: frozenset[int]
    kind: dict[int, str] = field(default_factory=dict)
    iterations: int = 0

    def __contains__(self, e: int) -> bool:
        return e in self.edges


def derive_closures(network: RoadNetwork) -> ClosureSet:
    """Edges with raised weight; those raised to infinity are flagged hard.

    Reads the raised edges the network recorded when its weights were
    written (``RoadNetwork._raised``) and their updated weights only, so it
    costs O(raised), not a pass over all m weights.
    """
    raised = network._raised
    wstar = network.weight_updated
    hard = frozenset(e for e in raised if wstar[e] == INF)
    kind = {e: ("hard" if e in hard else "soft") for e in raised}
    return ClosureSet(frozenset(raised), hard, kind)


def _active_set(network: RoadNetwork, closures) -> frozenset[int]:
    """The set treated as closed: hard closures plus any quasi-closures.

    ``None`` means the edges whose updated weight is infinite, a
    ``ClosureSet`` its hard and quasi-tagged edges, any other iterable those
    edge ids; an id the network does not have raises ``NetworkError``.
    """
    if closures is None:
        return derive_closures(network).hard
    if isinstance(closures, ClosureSet):
        quasi = {e for e, k in closures.kind.items() if k.startswith("quasi")}
        active = closures.hard | quasi
    else:
        active = frozenset(closures)
    unknown = [e for e in active if not 0 <= e < network.edge_count]
    if unknown:
        raise NetworkError(f"unknown edge id {min(unknown)}")
    return active


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


def _segment_level(state: tuple[float, ...], nu, top: int) -> int:
    """Lowest level whose budget the draw ``state`` is within."""
    for lv in range(top):
        if state[lv] <= nu[lv]:
            return lv
    return top


def _tree_records(
    scope: ScopeMapping,
    run: ScopeSearchResult,
    other: ScopeSearchResult,
    active: frozenset[int],
    side: str,
    offer,
) -> None:
    """Offer the record keys read off one drained search tree to ``offer``.

    A record's state is the draw of the tree path between its vertex and a
    closure crossing. Vertices whose tree walk crosses a closure get a plain
    record, measured down from the nearest crossing's head; vertices on the
    tree chain before a crossing whose far side the opposite run ``other``
    reaches get an amended record, measured down to the crossing's tail and
    carrying their own settled draw, if their budgets are not yet exhausted
    (the near-endpoint case). Each key goes to
    ``offer(vertex, side, level, amended, state, closure_ref, omega)``.

    One pass over the run's settle order reads the tree in the run's own
    network (reversed for the backward run): each vertex comes after its
    tree parent ``run._tails[e]``, so its nearest crossing is its parent
    edge or its parent's, and its draw from that crossing's head is its
    parent's plus its parent edge.
    """
    nu = scope.nu
    top = scope.top
    level = scope.level
    w = run._weights
    tails = run._tails
    parent_edge = run.parent_edge
    reach = other.dist
    zero = zero_vector(scope)
    # anchor[v] is the head of the nearest closure edge on v's tree walk (-1
    # for none), seg[v] the draw from it to v. meets holds the crossings whose
    # subtree the opposite run reaches: at a vertex anchored in it, or in a
    # crossing nested inside it; marking walks out through the enclosing ones.
    anchor = [-1] * len(run.dist)
    seg = [zero] * len(run.dist)
    meets: set[int] = set()
    for v in run.order[1:]:
        e = parent_edge[v]
        parent = tails[e]
        if e in active:
            a = v
        else:
            a = anchor[parent]
            if a < 0:
                continue
            seg[v] = add_draw(seg[parent], level[e], w[e])
        anchor[v] = a
        if reach[v] < INF:
            at = a
            while at >= 0 and at not in meets:
                meets.add(at)
                at = anchor[tails[parent_edge[at]]]
        offer(v, side, _segment_level(seg[v], nu, top), False, seg[v], parent_edge[a], None)
    amended_side = "t" if side == "s" else "s"
    saturated: dict[int, bool] = {}
    for v in sorted(meets):
        e = parent_edge[v]
        at, state = tails[e], zero
        while True:
            if at not in saturated:
                saturated[at] = is_saturated(run.sigma[at], scope)
            if not saturated[at]:
                lv = _segment_level(state, nu, top)
                offer(at, amended_side, lv, True, state, e, run.sigma[at])
            pe = parent_edge[at]
            if pe is None:
                break
            state = add_draw(state, level[pe], w[pe])
            at = tails[pe]


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
    closed = _weightings(network, _active_set(network, closures))
    runs = _drained_runs(network, scope, source, target, _record_weighting(network, closed))
    return _records_from_runs(scope, closed.active, *runs)


@dataclass(frozen=True)
class _Weightings:
    """The set treated as closed, ``active``, and what the searches read of
    it: ``open``, the updated weights with ``active`` at infinity (d_open
    run, gate runs, state search, quasi-closure; the record runs read it
    through ``_record_weighting``), which is the network's own
    ``weight_updated`` tuple when every edge of ``active`` is already
    infinite there, as the simple route's always is, and else a copy, so
    that nothing may write to it; ``goal``, whether searches on ``open`` may be
    goal-directed with exact sums, with or without the landmark table
    (``search._goal_directed``, decided on the base weights as
    ``build_network`` measured them and on the raised edges ``_weightings``
    is given; false without them); ``cut``, the edges of
    finite base weight that ``open`` closes, listed from ``active`` and
    the raised edges (``None`` without them)."""

    active: frozenset[int]
    open: tuple[float, ...] | list[float]
    goal: bool
    cut: tuple[int, ...] | None


def _weightings(network: RoadNetwork, active: frozenset[int], raised=None) -> _Weightings:
    open_w = network.weight_updated
    if any(open_w[e] != INF for e in active):
        open_w = list(open_w)
        for e in active:
            open_w[e] = INF
    if raised is None:
        return _Weightings(active, open_w, False, None)
    goal = _goal_directed(network, [open_w[e] for e in raised])
    # A raised edge's base weight is below its updated one, so finite.
    base = network.weight
    cut = {e for e in active if base[e] != INF}
    cut.update(e for e in raised if open_w[e] == INF)
    return _Weightings(active, open_w, goal, tuple(sorted(cut)))


def _record_weighting(network: RoadNetwork, closed: _Weightings) -> list[float]:
    """The record runs' weights: a copy of ``closed.open`` with its closed
    edges at base weight, built only where records are read."""
    record = list(closed.open)
    base = network.weight
    for e in closed.active:
        record[e] = base[e]
    return record


def _drained_runs(
    network: RoadNetwork, scope: ScopeMapping, source: int, target: int, weights
) -> tuple[ScopeSearchResult, ScopeSearchResult]:
    """The record runs: drained scope-aware runs from ``source`` and,
    reversed, from ``target``, on the record weighting ``weights``."""
    _check_endpoints(network, source, target)
    fwd = s_dijkstra(network, scope, source, weights)
    return fwd, s_dijkstra(network.reverse(), scope, target, weights)


def _record_pass(
    scope: ScopeMapping,
    active: frozenset[int],
    fwd: ScopeSearchResult,
    bwd: ScopeSearchResult,
    offer,
) -> None:
    """Offer the record keys of both drained record runs to ``offer``, as
    ``_tree_records`` does, then the closure-end zero keys; a key can come
    more than once. Each run reads the other's reach from its ``dist``."""
    # Forward tree: closures behind a vertex obstruct it for the start.
    _tree_records(scope, fwd, bwd, active, "s", offer)
    # Reverse tree: closures ahead obstruct for the target.
    _tree_records(scope, bwd, fwd, active, "t", offer)
    # Budgets are non-negative, so the zero state is within level 0.
    zero = zero_vector(scope)
    for e in sorted(active):
        x, y = fwd._tails[e], bwd._tails[e]
        if bwd.dist[y] < INF:
            offer(x, "t", 0, False, zero, e, None)
        if fwd.dist[x] < INF:
            offer(y, "s", 0, False, zero, e, None)


def _records_from_runs(
    scope: ScopeMapping,
    active: frozenset[int],
    fwd: ScopeSearchResult,
    bwd: ScopeSearchResult,
) -> list[ObstructionRecord]:
    """Obstruction records of both drained runs, one per (vertex, side, level).

    Plain records win over amended ones, then the lowest state, then the
    first offered; the result is sorted by (vertex, side, level).
    """
    # key -> (amended, state, closure_ref, omega) of the record kept so far
    chosen: dict[tuple[int, str, int], tuple] = {}

    def offer(v, side, lv, amended, state, ref, omega):
        key = (v, side, lv)
        old = chosen.get(key)
        if old is None or (amended, state) < old[:2]:
            chosen[key] = (amended, state, ref, omega)

    _record_pass(scope, active, fwd, bwd, offer)
    return [
        ObstructionRecord(v, side, state, lv, ref, omega)
        for (v, side, lv), (_amended, state, ref, omega) in sorted(chosen.items())
    ]


@dataclass(frozen=True)
class _Direction:
    """What one search direction reads, in that direction's network.

    Forwards: the network from the start, permits granted by ``"t"``
    records; backwards: the reversed network from the target, ``"s"``
    records. Per vertex, ``pack`` lists the edges to relax, ``grant`` the
    levels of the records there and ``clean`` the levels at which it is
    corridor-clean; the record pass sets ``grant``, and ``clean`` is set
    only on the permit path (``_context``), ``None`` before. ``bound`` is
    a consistent lower bound on the open-network distance to the far end
    and ``bounds`` its values, ``-1.0`` where not evaluated yet: the
    landmark bound, in a route into the list the static search's side of
    this direction filled (see ``search._bidirectional_search``), or
    without the table the exact distance in a route and 0 in
    ``build_detour_context``, every value evaluated (see ``_potentials``).
    The gate run and the permit-state half of this direction go on
    filling the list that the certificate's d_open run (forwards) filled
    before them. A route builds its directions only once it needs a gate
    run: when the d_open run's own walk fails its check
    (``_certificate``), or where the gate runs are drained.
    ``gate`` is the run from the endpoint on the open weighting, read through ``_usable``:
    drained, or lazy while ``steps`` holds the rest of a run goal-directed
    by ``bound``, in which case a label is final only where the run has
    marked it (``gate.final``; ``_settle_gate`` steps it on).
    """

    pack: list[tuple[tuple[int, int, int], ...]]
    gate: ScopeSearchResult
    grant: list[int]
    bound: Callable[[int], float]
    bounds: list[float]
    steps: Iterator[tuple[float, float, int]] | None = None
    clean: list[int] | None = None


def _direction(
    network: RoadNetwork,
    scope: ScopeMapping,
    endpoint: int,
    closed: _Weightings,
    bound: Callable[[int], float],
    bounds: list[float],
) -> _Direction:
    """One direction's tables, no grant bit and no clean mask set yet, and
    its gate run from ``endpoint`` on the open weighting (``network``
    reversed for the backward one): drained, or where ``closed.goal``
    allows it, goal-directed by ``bound`` into ``bounds`` and left for the
    certificate and the permit-state search to step."""
    pack = _edge_pack(network, scope)
    grant = [0] * network.vertex_count
    if not closed.goal:
        gate = s_dijkstra(network, scope, endpoint, closed.open)
        return _Direction(pack, gate, grant, bound, bounds)
    gate, steps = _scope_search(network, scope, endpoint, closed.open, None, bound, bounds)
    return _Direction(pack, gate, grant, bound, bounds, steps)


def _settle_gate(direction: _Direction, v: int) -> None:
    """Step a lazy gate run until it has marked ``v`` final, or to its end.

    ``_scope_steps`` marks and yields a vertex once every tight arrival at
    it has been relaxed: the weights are positive integers and the
    potential consistent, so a tail of a tight arrival has no greater key
    and a smaller distance, and ``(key, d)`` order settles it first.
    ``dist`` and ``sigma`` are then those of the drained run. A run that
    ends has settled every vertex it reaches and marks every vertex.
    """
    for _key, _d, u in direction.steps:
        if u == v:
            return


def _certificate(
    network: RoadNetwork,
    scope: ScopeMapping,
    closed: _Weightings,
    source: int,
    target: int,
    potentials: tuple,
) -> tuple[BidirectionalResult | None, int, tuple[_Direction, _Direction] | None]:
    """A detour optimum that needs no permit, when one costs d_open (see
    ``_route``), or ``None``; the vertices its searches settled; and the
    two directions, built only when the gate runs were needed.

    ``potentials`` are the directions' bounds (``_potentials``); the
    weights must be positive integers (``closed.goal``). The d_open run
    reads only the forward pack, the forward bound and its list, and the
    open weights, so the directions, with their gate runs and grant lists,
    are built only when P fails.

    When d_open is inf no walk avoids the closed edges, so no walk is
    accepted: the result has no walk and cost inf, no gate run is made,
    and the count is 0, as after the static exit.

    First P, the d_open run's tree walk to the target
    (``_open_distance``): when it passes ``_own_draw_split``, P is the
    result, and no gate run is made. Every prefix of P is a tree
    walk of a plain run, so a plain shortest walk, and a scoped distance is
    never below the plain one on the same weights. The check finds a split
    such that each edge before it passes its gate on the running draw of
    P's prefix up to that edge, and each edge after it, reversed, on the
    running draw of P's reversed suffix from the target. By induction along
    the prefix, the drained forward gate run then reaches each prefix vertex
    at P's cost, with a draw no higher than P's own there: the edge into
    it passes the gate on the drained run's draw at its tail, no higher
    than P's, and arrives at the plain distance, so it is a tight arrival
    and its draw bounds the merged one. So each prefix edge is usable from
    the start (``search._usable``), and likewise each suffix edge usable
    backwards from the target: P is split-admissible on the open
    weighting, needs no permit, and costs d_open. A P result's ``forward``
    is the d_open run and its ``backward`` is ``None``.

    Else both directions are built (``_directions``), and their lazy gate
    runs are stepped as ``bidirectional_s_dijkstra``
    steps its goal-directed runs, until both keys pass d_open; U, their
    split minimum, is then d_open if the drained runs' split minimum is.
    They stop earlier, at their first meeting of sum d_open
    (``_goal_directed_meeting``'s ``low``): every finite meeting sum is the
    cost of a walk on the open weighting, so none is below d_open, and U is
    d_open, met at that vertex or at another of equal sum. U's walk is a
    tree walk of the gate runs: each prefix edge passes the forward gate at
    its tail, settled when it relaxed the edge, and each suffix edge the
    backward gate at its head, so it needs no permit; U is the result when
    it costs d_open.

    U is scanned over the vertices either run settled and the pending
    heads, the meeting the early stop found among them. Whether U is d_open
    is what a scan over all n would say: a vertex whose labels sum to at
    most d_open has a key of at most d_open on both sides (a side's bound
    there is at most the other side's label), so both runs yield it before
    they stop, and the later yield, on final labels, meets at a sum of at
    most d_open and stops the runs there.

    The count is the vertices the d_open run and the gate runs settled.
    When U is not d_open the permit-state search steps the gate runs on
    from where they stopped. Each run has marked the labels it made final:
    the vertices it settled and its pending head, or every vertex if it
    ended.
    """
    to_target, _to_source, (forward_bounds, _backward_bounds) = potentials
    d_open, plain = _open_distance(
        network, scope, source, target, closed.open, to_target, forward_bounds
    )
    if d_open == INF:
        return BidirectionalResult(None, INF, None, plain, None), 0, None
    walk = plain.walk_to(target)
    if _own_draw_split(walk, scope, closed.open):
        return BidirectionalResult(walk, d_open, None, plain, None), plain.scanned_count, None
    forward, backward = directions = _directions(network, scope, closed, source, target, potentials)
    runs = (forward.gate, backward.gate)
    heads = _goal_directed_meeting(runs, (forward.steps, backward.steps), d_open, d_open)
    pending = [head[2] for head in heads if head is not None]
    split = _split_minimum(*runs, forward.gate.order + backward.gate.order + pending)
    scanned = plain.scanned_count + split.scanned_count
    return (split if split.cost == d_open else None), scanned, directions


def _own_draw_split(walk: Walk, scope: ScopeMapping, weights) -> bool:
    """Whether ``walk`` splits into a prefix whose every edge passes its
    gate on the prefix's own running draw from the start and a suffix whose
    every edge passes, reversed, on the reversed suffix's own draw from the
    end (``search._own_draw_flags``, one scan each way, split by
    ``search._split_exists``)."""
    level, nu, zero = scope.level, scope.nu, zero_vector(scope)
    edges = walk.edges
    prefix_ok = _own_draw_flags(edges, level, weights, nu, zero)
    suffix_ok = _own_draw_flags(edges[::-1], level, weights, nu, zero)
    suffix_ok.reverse()
    return _split_exists(prefix_ok, suffix_ok)


def _open_distance(
    network: RoadNetwork,
    scope: ScopeMapping,
    source: int,
    target: int,
    weights,
    bound: Callable[[int], float],
    bounds: list[float],
) -> tuple[float, ScopeSearchResult]:
    """d_open, the plain distance from ``source`` to ``target`` on
    ``weights``, the open weighting, scope ignored; and the run that found
    it, whose tree walk to ``target`` costs d_open.

    A run of ``_scope_steps`` on the forward pack with every budget
    infinite, so no gate ever closes, goal-directed by the forward
    direction's ``bound`` into its list ``bounds``. The bound is consistent
    and 0 at ``target``, so keys never fall and ``target`` would settle at
    key d_open: the run stops once the head's key reaches ``target``'s
    distance label. Every vertex of the tree walk to ``target`` before it
    has settled, so each prefix of that walk is a plain shortest walk.
    """
    run = _scope_run(network, scope, source, weights)
    flat = (INF,) * scope.level_count
    dist = run.dist
    for key, _d, _u in _scope_steps(run, _edge_pack(network, scope), flat, bound, bounds):
        if dist[target] <= key:
            break
    return dist[target], run


@dataclass
class DetourContext:
    """Shared precomputation for one (network, closures, s, t) query.

    ``weights`` is the open weighting: updated weights, the treated-as-closed
    edges ``active`` at infinity (a caller's explicit closure set can make
    them differ from the infinite ones). ``record_runs`` are the two
    drained record searches; the routing path reads them only through the
    grant masks, and ``records`` builds the full records from them on each
    read.
    """

    network: RoadNetwork
    scope: ScopeMapping
    active: frozenset[int]
    source: int
    target: int
    record_runs: tuple[ScopeSearchResult, ScopeSearchResult]
    weights: tuple[float, ...] | list[float]
    forward: _Direction
    backward: _Direction

    @property
    def records(self) -> list[ObstructionRecord]:
        """The finite-level obstruction records, one per granted bit."""
        records = _records_from_runs(self.scope, self.active, *self.record_runs)
        return [r for r in records if r.level < self.scope.top]


def build_detour_context(
    network: RoadNetwork,
    scope: ScopeMapping,
    closures,
    source: int,
    target: int,
) -> DetourContext:
    """The record runs, the grant masks, then both directions' tables, with
    drained gate runs."""
    closed = _weightings(network, _active_set(network, closures))
    return _context(network, scope, closed, source, target)


def _potentials(
    network: RoadNetwork,
    closed: _Weightings,
    source: int,
    target: int,
    exact: bool = True,
) -> tuple[Callable[[int], float], Callable[[int], float], tuple[list[float], list[float]]]:
    """The forward direction's bound towards ``target``, the backward one's
    towards ``source``, and the two lists of their values, where a route's
    static search has not left them (see ``_route``).

    With the landmark table the bounds are its potentials of ``source`` and
    ``target``, into fresh lists. Without it they are, if
    ``exact``, the exact distances to ``target`` and from ``source`` on the
    open weighting, two whole ``dijkstra`` runs: consistent on it, and
    infinite where the far end cannot be reached. Otherwise they are 0
    everywhere, also consistent: a context for the validators, whose gate
    runs are drained and which read no bound, makes no run for them."""
    to_target, to_source = _landmark_potentials(network, source, target)
    if to_target is None:
        if exact:
            bounds = (
                dijkstra(network.reverse(), closed.open, target).dist,
                dijkstra(network, closed.open, source).dist,
            )
        else:
            bounds = ([0.0] * network.vertex_count, [0.0] * network.vertex_count)
        to_target, to_source = bounds[0].__getitem__, bounds[1].__getitem__
    else:
        bounds = ([-1.0] * network.vertex_count, [-1.0] * network.vertex_count)
    return to_target, to_source, bounds


def _directions(
    network: RoadNetwork,
    scope: ScopeMapping,
    closed: _Weightings,
    source: int,
    target: int,
    potentials: tuple,
) -> tuple[_Direction, _Direction]:
    """The forward and the backward direction, each bounded towards its far
    end by ``potentials`` (``_potentials``)."""
    to_target, to_source, bounds = potentials
    return (
        _direction(network, scope, source, closed, to_target, bounds[0]),
        _direction(network.reverse(), scope, target, closed, to_source, bounds[1]),
    )


def _context(
    network: RoadNetwork,
    scope: ScopeMapping,
    closed: _Weightings,
    source: int,
    target: int,
    directions: tuple[_Direction, _Direction] | None = None,
) -> DetourContext:
    """``build_detour_context`` on ``closed``: the record runs, then the
    grant masks set in ``directions``, which ``_directions`` builds after
    the record runs where not given, without exact bounds, and their clean
    masks."""
    record_runs = _drained_runs(network, scope, source, target, _record_weighting(network, closed))
    forward, backward = directions or _directions(
        network, scope, closed, source, target,
        _potentials(network, closed, source, target, exact=False),
    )
    forward = replace(forward, clean=_clean_masks(network, scope, closed.active))
    backward = replace(backward, clean=_clean_masks(network.reverse(), scope, closed.active))
    top = scope.top
    grant = {"t": forward.grant, "s": backward.grant}

    def grant_bit(v, side, lv, *_record):
        # The keys alone decide the masks, so no record is built.
        if lv < top:
            grant[side][v] |= 1 << lv

    _record_pass(scope, closed.active, *record_runs, grant_bit)
    return DetourContext(
        network, scope, closed.active, source, target, record_runs, closed.open, forward, backward
    )


def _clean_mask(row, active: frozenset[int], top: int) -> int:
    """Levels ``l`` at which no open edge of ``row`` exceeds ``l``."""
    high = 0
    for e, _far, lv in row:
        if lv > high and e not in active:
            high = lv
    return ((1 << top) - 1) & ~((1 << high) - 1)


def _clean_masks(network: RoadNetwork, scope: ScopeMapping, active: frozenset[int]) -> list[int]:
    """Per vertex, the levels at which it is departure-clean in ``network``.

    Called on the reversed network this gives the entry-clean masks. The
    closure-free masks are structural and cached; only the tails of closed
    edges can differ from them.
    """
    pack = _edge_pack(network, scope)
    top = scope.top

    def build():
        return [_clean_mask(row, frozenset(), top) for row in pack]

    masks = list(_level_cached(network, "clean", scope.level, build))
    tails = network.tails
    for v in {tails[e] for e in active}:
        masks[v] = _clean_mask(pack[v], active, top)
    return masks


def _carried_masks(direction: _Direction, vertices) -> list[int]:
    """Carried-permit masks at the vertices of a walk, in the direction's order.

    A mask holds the levels licensed for an edge leaving the vertex in that
    order: the records there, plus what was carried in through a clean vertex.
    """
    grant, clean = direction.grant, direction.clean
    masks = []
    mask = 0
    for v in vertices:
        mask = grant[v] | (mask & clean[v])
        masks.append(mask)
    return masks


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
    # Closed roads: the treated-as-closed edges and any other infinite one.
    if any(ctx.weights[e] == INF for e in walk.edges):
        return False
    vertices = walk.vertices(network)
    # live_t[p] licenses the edge departing position p, live_s[p] the one
    # arriving there.
    live_t = _carried_masks(ctx.forward, vertices)
    live_s = _carried_masks(ctx.backward, reversed(vertices))[::-1]
    top, nu = ctx.scope.top, ctx.scope.nu
    prefix_ok = []
    suffix_ok = []
    for i, e in enumerate(walk.edges):
        lv = ctx.scope.level[e]
        licensed = lv < top and (
            (live_t[i] >> lv) & 1 or (live_s[i + 1] >> lv) & 1
        )
        # An edge is usable when its near end's gate passes its level.
        prefix_ok.append(licensed or _usable(ctx.forward.gate, nu, vertices[i], lv))
        suffix_ok.append(licensed or _usable(ctx.backward.gate, nu, vertices[i + 1], lv))
    return _split_exists(prefix_ok, suffix_ok)


@dataclass
class _StateSearch:
    """One half of the permit-aware search over (vertex, masks) states.

    States are packed into ints: ``(vertex << 2F) | (carried << F) | owed``
    with ``F`` finite levels, ``carried`` the permit levels live on the walk
    and ``owed`` the levels of edges taken on credit that still need a
    matching record ahead. The half relaxes ``own``'s edges and carries its
    permits; ``other``'s grant and clean masks pay its debts. Its potential
    is ``own.bounds``, evaluated where it reads it. ``label`` maps a state
    to its best ``(cost, permits, parent state, edge, licensed)``,
    ``licensed`` telling whether the edge took a permit; ``settled`` maps
    a vertex to the states expanded there, as ``(carried, owed, cost,
    permits, key)`` tuples.
    """

    own: _Direction
    other: _Direction
    heap: list[tuple[float, int, int, int, int, float]]
    label: dict[int, tuple[float, int, int | None, int | None, bool]]
    settled: dict[int, list[tuple[int, int, float, int, int]]] = field(default_factory=dict)
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
    potential, its direction's bound (``_Direction.bound``), a consistent
    lower bound on the open-network distance (scope ignored) to the far
    end, each value evaluated once and shared through ``_Direction.bounds``
    with its gate run and, in a route, the static search's side of that
    direction. Every walk a half can extend to a meeting also runs in the
    open network, so keys never fall along a walk. A state at a vertex of
    infinite potential (without the landmark table, one that cannot reach
    the far end) is never queued: no partner can meet it.

    An edge whose level the gate at its tail does not pass takes a permit,
    and owes its level unless a carried permit covers it. A half reads its
    gate run at each vertex it settles, stepping a lazy run there first. A state's label
    is replaced by a cheaper one, or an equally cheap one with fewer permits.

    A popped state is not expanded when a state already settled at its
    vertex on the same side dominates it: costs no more, carries a superset
    of its permit mask and owes a subset of its debt mask. The pruning is
    exact because every transition is monotone in both masks: a larger
    carried mask licenses at least the same edges, so a smaller owed mask
    stays smaller after the edge, after the records at the head clear it,
    and through the corridor-clean prune; the carried mask after the edge
    stays a superset. So whatever the dominated state reaches, the
    dominating one reaches at no greater cost with masks that dominate
    again. The join test (each side's owed levels carried by the other) is
    monotone the same way, so a dominating state meets every partner the
    dominated one would have met. A debt that no record ahead can pay is
    not pruned early: the state can meet no partner, and it dominates no
    state whose debt can be paid, since that debt would be a superset of
    its own.

    Each settled state is joined at once with the states settled at its
    vertex on the other side; ``best`` is the minimum over all compatible
    pairs seen, ties broken by permit count, then meeting vertex. Both
    halves stop once their queue heads reach ``best`` (plus a rounding
    margin): the two states of a cheaper compatible pair would each have a
    key below ``best`` (the partner's cost bounds the potential), so both,
    or states dominating them, would have settled and met already.
    """
    top, nu = ctx.scope.top, ctx.scope.nu
    weights = ctx.weights
    bits = max(top, 1)
    vshift = 2 * bits

    def half(own, other, start) -> _StateSearch:
        potential = own.bounds
        if potential[start] < 0.0:
            potential[start] = own.bound(start)
        live = own.grant[start]
        heap = [(potential[start], 0, start, live, 0, 0.0)] if potential[start] < INF else []
        label = {(start << vshift) | (live << bits): (0.0, 0, None, None, False)}
        return _StateSearch(own, other, heap, label)

    halves = (
        half(ctx.forward, ctx.backward, ctx.source),
        half(ctx.backward, ctx.forward, ctx.target),
    )
    best = INF
    limit = INF
    meeting: _Meeting | None = None
    heap0, heap1 = halves[0].heap, halves[1].heap
    push = heapq.heappush
    pop = heapq.heappop
    while True:
        t0 = heap0[0][0] if heap0 else INF
        t1 = heap1[0][0] if heap1 else INF
        # Raw heap tops may be stale (too small); that only delays the stop.
        if t0 >= limit and t1 >= limit:
            break
        side = 0 if t0 <= t1 else 1
        search = halves[side]
        heap = search.heap
        label = search.label
        _k, perms, v, live, debt, d = pop(heap)
        key = (v << vshift) | (live << bits) | debt
        if d > label[key][0]:
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
        far = halves[1 - side].settled.get(v)
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
        own, other = search.own, search.other
        grant, clean = own.grant, own.clean
        debt_grant, debt_clean = other.grant, other.clean
        # _usable's test, with the reach check read once per settled state.
        gate = own.gate
        if own.steps is not None and not gate.final[v]:
            _settle_gate(own, v)
        sig = gate.sigma[v] if gate.dist[v] < INF else None
        potential = own.bounds
        bound = own.bound
        for e, u, lv in own.pack[v]:
            we = weights[e]
            if we == INF:
                continue
            if sig is not None and sig[lv] <= nu[lv]:
                licensed = False
                new_debt = debt
            elif lv < top:
                licensed = True
                new_debt = debt if (live >> lv) & 1 else debt | (1 << lv)
            else:
                continue
            if new_debt:
                new_debt &= ~debt_grant[u]
                if new_debt & ~debt_clean[u]:
                    continue
            hu = potential[u]
            if hu < 0.0:
                hu = potential[u] = bound(u)
            elif hu == INF:
                continue
            nlive = grant[u] | (live & clean[u])
            nkey = (u << vshift) | (nlive << bits) | new_debt
            ncost = d + we
            nperms = perms + licensed
            old = label.get(nkey)
            if old is None or ncost < old[0] or (ncost == old[0] and nperms < old[1]):
                label[nkey] = (ncost, nperms, key, e, licensed)
                if licensed:
                    search.licensed_relaxations += 1
                push(heap, (ncost + hu, nperms, u, nlive, new_debt, ncost))
    return halves[0], halves[1], meeting


def _unwind(label: dict, key: int) -> tuple[list[int], list[int]]:
    """Edges and permit edges of a state's parent chain, from the state back."""
    edges: list[int] = []
    permit_edges: list[int] = []
    while True:
        _cost, _perms, prev, e, licensed = label[key]
        if prev is None:
            return edges, permit_edges
        edges.append(e)
        if licensed:
            permit_edges.append(e)
        key = prev


@dataclass
class DetourResult:
    """Outcome of one routing query under closures.

    ``scanned_static`` counts the vertices the static step's
    ``bidirectional_s_dijkstra`` settled on both sides, on every network
    copy; ``scanned_detour`` the states and ``scanned_detour_vertices`` the
    distinct vertices per side the permit-state search settled (0 after
    the static exit). A route the certificate answers with a walk (see
    ``_route``) counts in both the vertices its d_open run and its two gate
    runs settled: the d_open run's alone when the run's own walk is
    certified and no gate run is made. A route whose d_open is
    inf counts 0, as after the static exit. The permit-state search's gate
    and record runs are not counted, nor the certificate's runs before it,
    nor the ``dijkstra`` runs that bound the directions without the
    landmark table.
    """

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


def _static_exit(res: DetourResult, network: RoadNetwork, static) -> bool:
    """Record the static result in ``res``; true when it survives the update."""
    res.scanned_static = static.scanned_count
    if static.walk is None:
        return False
    res.static_walk = static.walk
    res.static_cost_base = static.cost
    res.static_cost_updated = static.walk.cost(network, "updated")
    if res.static_cost_updated != res.static_cost_base:
        return False
    res.walk = static.walk
    res.cost_updated = res.static_cost_updated
    res.klass = "static"
    return True


def _route(
    network: RoadNetwork,
    scope: ScopeMapping,
    source: int,
    target: int,
    closures,
    enhanced: bool,
) -> DetourResult:
    """The detour steps in order: static result and early exit, the closure
    set and its weightings, grown by the quasi-closure when ``enhanced``
    (the weightings are built again only if it adds an edge), the
    directions' bounds, the certificate where the weights allow it, else
    both directions with their gate runs, the record runs, then the rest of
    the context and the permit-state search. The weights alone choose these
    steps; the landmark table only tightens the directions' bounds.

    A caller's ``closures`` are read once, before the static search, so an
    unknown edge id raises ``NetworkError`` even on the static exit and a
    one-shot iterable is not used up. After a failed exit the raised edges
    the network recorded (``derive_closures``, O(raised)) give the closure
    set and its open weighting (``_weightings``), which everything after
    reads: the network's own updated weights, with no copy, when they
    already close every edge of the set; the record runs' weighting is
    built only on the permit path (``_record_weighting``).

    The static result comes from ``bidirectional_s_dijkstra``'s search on
    the base weights of every copy, goal-directed once the network has its
    landmark table. With positive weights it is the split minimum of two
    drained base-weight runs, walk included, at a fraction of their settled
    vertices; the drained runs follow only a failed exit, as record runs.
    The landmark bounds depend only on the table and the endpoints, so the
    static search's two potentials and per-vertex bound lists go on to the
    directions: the d_open run, the gate runs and the permit-state halves
    evaluate only the bounds the static search left unevaluated, and the
    table's terms are ranked once per route. Without the table the
    directions' bounds are the exact open-network distances instead
    (``_potentials``). Where the open weights are positive integers
    (``_Weightings.goal``) the gate runs are lazy, with the drained runs'
    labels wherever the search reads them.

    Under the same condition a failed exit first tries a certificate
    (``_certificate``). Every walk the detour relation accepts avoids the
    closed edges, so it costs at least d_open, the plain distance on the
    open weighting (``_open_distance``); the weights are positive integers,
    so the sums are exact. A walk of cost d_open that needs no permit is
    then a detour optimum: first P, the d_open run's own tree walk, when it
    passes its gates on its own running draws (``_own_draw_split``), else
    U, the gate runs' split minimum, when it equals d_open. The route
    returns it, or the static walk if that is no dearer, without any record
    run, grant or permit-state search, and on P without making a gate run
    or a grant list. Among walks of equal cost it can differ from the permit-state
    search's. With quasi-closures the argument is the same. When d_open is
    inf no walk avoids the closed edges, so the route returns the static
    walk, if its updated cost is finite, or nothing, again with no record
    run or permit-state search. Otherwise the gate runs, stepped that far,
    go on to the permit-state search.
    """
    active = None if closures is None else _active_set(network, closures)
    res = DetourResult(None, INF, "unreachable")
    static, static_potentials = _bidirectional_search(network, scope, source, target)
    if _static_exit(res, network, static):
        return res
    derived = derive_closures(network)
    closed = _weightings(network, derived.hard if active is None else active, derived.edges)
    if enhanced:
        qc = _quasi_closure(network, scope, closures, closed, source, target)
        res.qc_iterations, res.qc_added = qc.iterations, len(qc.edges) - len(closed.active)
        if res.qc_added:
            closed = _weightings(network, qc.edges, derived.edges)
    potentials = static_potentials or _potentials(network, closed, source, target)
    certified = directions = None
    if closed.goal:
        certified, scanned, directions = _certificate(
            network, scope, closed, source, target, potentials
        )
    if certified is not None:
        res.scanned_detour = res.scanned_detour_vertices = scanned
        walk, cost, permit_edges = certified.walk, certified.cost, ()
    else:
        directions = directions or _directions(network, scope, closed, source, target, potentials)
        ctx = _context(network, scope, closed, source, target, directions)
        fwd, bwd, meeting = _state_search_halves(ctx)
        res.scanned_detour = sum(len(here) for half in (fwd, bwd) for here in half.settled.values())
        res.scanned_detour_vertices = len(fwd.settled) + len(bwd.settled)
        res.permits_issued = fwd.licensed_relaxations + bwd.licensed_relaxations
        walk, cost, permit_edges = None, INF, ()
        if meeting is not None:
            # The walk runs along the forward half's parent chain to the
            # meeting vertex, then back along the reverse half's chain.
            rank, key_f, key_b = meeting
            prefix, prefix_permits = _unwind(fwd.label, key_f)
            suffix, suffix_permits = _unwind(bwd.label, key_b)
            prefix.reverse()
            walk, cost = Walk(source, tuple(prefix + suffix)), rank[0]
            permit_edges = tuple(sorted(set(prefix_permits + suffix_permits)))
    if cost < res.static_cost_updated:
        res.walk, res.cost_updated, res.permit_edges = walk, cost, permit_edges
        res.klass = "enhanced-detour" if enhanced else "simple-detour"
    elif res.static_cost_updated < INF:
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
    return _route(network, scope, source, target, closures, False)


def enhanced_detour_route(
    network: RoadNetwork,
    scope: ScopeMapping,
    source: int,
    target: int,
    closures=None,
) -> DetourResult:
    """Simple detour routing with the closure set grown to its quasi-closure fixed point.

    The quasi-closure is computed only once the static route has failed the
    early exit, so a result of the early exit carries ``qc_iterations`` and
    ``qc_added`` of 0.
    """
    return _route(network, scope, source, target, closures, True)


def _recheck_detour(walk: Walk, network: RoadNetwork, scope: ScopeMapping, enhanced: bool, s, t):
    """Re-check a returned detour walk on a freshly built context, never the
    search's own, with the closures its route used: the quasi-closure set
    for the enhanced route, ``None`` (the hard closures) for the simple one."""
    closures = qc_closure(network, scope, None, s, t) if enhanced else None
    return validate_simple_detour(walk, network, scope, closures, s, t)


def _bypassed(network: RoadNetwork, pack, closed: _Weightings) -> bool:
    """Whether the tail of every edge of ``closed.cut`` reaches its head on
    the open weighting, found by searches stopped at the head that together
    expand at most as many vertices as one reach pass; ``False`` as soon as
    one fails or the searches would expand more."""
    tails, heads = network.tails, network.heads
    budget = network.vertex_count
    for e in closed.cut:
        y = heads[e]
        bypass, expanded = _reach(pack, tails[e], closed.open, y, budget)
        if bypass[-1] != y:
            return False
        budget -= expanded
    return True


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

    Most closure sets add nothing, and that is proved first, without the
    round's two reach passes. Call the edges of finite base weight the base
    graph, those finite on the open weighting the open graph, and the cut
    the base edges the open graph lacks. If the base graph is strongly
    connected and the tail of every cut edge reaches its head in the open
    graph (a bypass), then every base walk becomes an open one by replacing
    each cut edge with its bypass; so in the open graph, too, every vertex
    reaches the target and is reached from the start, and no edge is
    quasi-closed. Strong connectivity is found once per network, usually by
    ``balance_to_proper`` (``network._strongly_connected``); the bypass
    searches stop at the cut edge's head, and all of them together expand
    at most as many vertices as one reach pass, else the round runs as above.
    """
    _check_endpoints(network, source, target)
    derived = derive_closures(network)
    active = derived.hard if closures is None else _active_set(network, closures)
    closed = _weightings(network, active, derived.edges)
    return _quasi_closure(network, scope, closures, closed, source, target)


def _quasi_closure(network: RoadNetwork, scope: ScopeMapping, closures, closed, source, target):
    """``qc_closure`` on the weightings ``closed`` of ``closures``: the edges
    left open are the finite ones of ``closed.open``. Of ``closures`` only a
    ``ClosureSet``'s hard set and tags are read, so a used-up iterable will
    do."""
    base = closures if isinstance(closures, ClosureSet) else None
    hard = closed.active if base is None else base.hard
    kind = dict(base.kind) if base is not None else {e: "hard" for e in closed.active}
    scope.validate(network)
    pack = _edge_pack(network, scope)
    if _strongly_connected(network, scope) and _bypassed(network, pack, closed):
        return ClosureSet(closed.active, hard, kind, 1)
    tails, heads = network.tails, network.heads
    weights = closed.open
    t_reach = set(_reach(_edge_pack(network.reverse(), scope), target, weights)[0])
    s_reach = set(_reach(pack, source, weights)[0])
    active = set(closed.active)
    added = 0
    for e in range(network.edge_count):
        if weights[e] == INF:
            continue
        if heads[e] not in t_reach:
            kind[e] = "quasi-t"
        elif tails[e] not in s_reach:
            kind[e] = "quasi-s"
        else:
            continue
        active.add(e)
        added += 1
    return ClosureSet(frozenset(active), hard, kind, 2 if added else 1)
