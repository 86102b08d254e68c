"""Label-setting searches: classical Dijkstra and the scope-aware variant.

The scope-aware search keeps, per vertex, the distance estimate together
with a draw vector recording how much weight the best walks have travelled
on strictly-higher-level edges. An outgoing edge is relaxed only while the
draw component at the edge's level stays within that level's budget.

Edge usability is witness-based: an edge is usable from ``s`` exactly when
the settled draw label of its tail passes the gate, i.e. when some
cheapest admissible walk to the tail leaves enough budget. The
enumeration-based oracle in this module implements the same relation by
brute force and is the ground truth the searches are tested against.

On positive integer weights the bidirectional search is goal-directed by
lower bounds from a landmark table, built once a network has served a few
static searches; its results stay those of the plain search, walks
included. Each search reads only the few landmark terms of the table that
best bound the distance between its endpoints (``_landmark_potentials``).
A bound is evaluated at most once per vertex and side, into a per-vertex
list that the detour step's searches towards the same endpoints go on
filling (``_bidirectional_search``).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from operator import add

from .network import (
    INF,
    NetworkError,
    RoadNetwork,
    ScopeMapping,
    Walk,
    _check_endpoints,
    _distance_bound,
    _edge_pack,
    add_draw,
    check_walk,
    inf_vector,
    min_vec,
    zero_vector,
)


class _ParentTree:
    """Walks read off the predecessor tree of a run's ``dist``/``parent_edge`` labels."""

    def walk_to(self, target: int) -> Walk | None:
        if self.dist[target] == INF:
            return None
        edges: list[int] = []
        at = target
        while at != self.source:
            e = self.parent_edge[at]
            assert e is not None
            edges.append(e)
            at = self._tails[e]
        edges.reverse()
        return Walk(self.source, tuple(edges))


@dataclass
class SearchResult(_ParentTree):
    """Labels of one classical Dijkstra run."""

    source: int
    dist: list[float]
    parent_edge: list[int | None]
    scanned_count: int = 0
    relaxed_count: int = 0
    _tails: tuple[int, ...] = ()


def dijkstra(
    network: RoadNetwork,
    weighting: str,
    source: int,
    target: int | None = None,
) -> SearchResult:
    """Classical Dijkstra; edges of infinite weight are never relaxed."""
    if not (0 <= source < network.vertex_count):
        raise NetworkError(f"unknown source vertex {source}")
    if target is not None and not (0 <= target < network.vertex_count):
        raise NetworkError(f"unknown target vertex {target}")
    w = network.weights(weighting) if isinstance(weighting, str) else weighting
    n = network.vertex_count
    dist = [INF] * n
    parent: list[int | None] = [None] * n
    done = [False] * n
    dist[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    res = SearchResult(source, dist, parent)
    res._tails = network.tails
    while heap:
        d, u = heapq.heappop(heap)
        if done[u] or d > dist[u]:
            continue
        done[u] = True
        res.scanned_count += 1
        if target is not None and u == target:
            break
        for e in network.out_edges(u):
            we = w[e]
            if we == INF:
                continue
            v = network.heads[e]
            nd = d + we
            if nd < dist[v]:
                dist[v] = nd
                parent[v] = e
                res.relaxed_count += 1
                heapq.heappush(heap, (nd, v))
    return res


@dataclass
class ScopeSearchResult(_ParentTree):
    """Labels of one scope-aware run: distances, draw vectors, settle order.

    ``sigma`` holds the component-wise minimum draw over cheapest admissible
    arrivals (what the relaxation gate reads). ``order`` lists the settled
    vertices in the order they settled, so every vertex comes after its tree
    parent; a drained run settles exactly the vertices of finite ``dist``.
    The draw of a concrete predecessor-tree walk, which obstruction states
    are measured from, is summed along that order with the relaxed weights
    ``_weights``.

    ``final``, one byte per vertex, marks with 1 the vertices whose labels
    the run has made final: those in ``order``, the pending head it has
    yielded but not settled yet, and, once its queue is empty, every vertex
    (see ``_scope_steps``).
    """

    source: int
    dist: list[float]
    parent_edge: list[int | None]
    sigma: list[tuple[float, ...]]
    order: list[int]
    final: bytearray
    relaxed_count: int = 0
    _tails: tuple[int, ...] = ()
    _weights: tuple[float, ...] | list[float] = ()

    @property
    def scanned_count(self) -> int:
        return len(self.order)


def _scope_run(
    network: RoadNetwork,
    scope: ScopeMapping,
    source: int,
    weighting: str,
    seed_sigma: tuple[float, ...] | None = None,
) -> ScopeSearchResult:
    """Fresh labels of a run from ``source``, only the source reached."""
    if not (0 <= source < network.vertex_count):
        raise NetworkError(f"unknown source vertex {source}")
    scope.validate(network)
    n = network.vertex_count
    res = ScopeSearchResult(
        source, [INF] * n, [None] * n, [inf_vector(scope)] * n, [], bytearray(n)
    )
    res._tails = network.tails
    res._weights = network.weights(weighting) if isinstance(weighting, str) else weighting
    res.dist[source] = 0.0
    res.sigma[source] = zero_vector(scope) if seed_sigma is None else tuple(seed_sigma)
    return res


def _scope_search(
    network: RoadNetwork,
    scope: ScopeMapping,
    source: int,
    weighting: str,
    seed_sigma: tuple[float, ...] | None = None,
    potential=None,
    bounds: list[float] | None = None,
):
    """Fresh labels from ``source`` and the stepping search that settles them;
    ``bounds`` as in ``_scope_steps``."""
    res = _scope_run(network, scope, source, weighting, seed_sigma)
    return res, _scope_steps(res, _edge_pack(network, scope), scope.nu, potential, bounds)


def _scope_steps(res: ScopeSearchResult, pack, nu, potential=None, bounds=None):
    """The scope-aware relaxation loop, one settled vertex per step.

    Each step marks the live queue head in ``res.final`` and yields it,
    ``(d, u)`` or with a potential ``(key, d, u)``; resuming settles ``u``,
    appends it to ``res.order`` and relaxes its out-edges at the weights
    ``res._weights``. Once the queue is empty every vertex is marked: the
    run has settled all it reaches, and the rest stay unreached. Draining
    the generator is a full run; the relaxed count is written when it
    finishes or is closed.

    Relaxation of an edge at level ``l`` requires ``sigma[l][tail] <= nu[l]``.
    A strict distance improvement resets the head's draw vector to the new
    arrival's; an exact tie merges component-wise minima over the equal-cost
    arrivals.

    Without ``potential`` the key is ``d``. With it the key is ``d + h(v)``,
    ``h = potential`` evaluated at most once per vertex, into ``bounds``: a
    per-vertex list, ``-1.0`` where not evaluated yet, that the caller may
    share with another search on the same potential. The caller
    guarantees positive integer weights and a consistent ``h`` (see
    ``_goal_potentials``); equal keys then settle the smaller ``d`` first, so
    every tight arrival still reaches its head before the head settles.
    What plain Dijkstra's settle order decides implicitly is then made
    explicit: on a tie at an unsettled head, the parent is the arrival whose
    tail comes first in ``(dist, vertex id)`` order, then first in pack order.
    """
    dist, parent, sigma = res.dist, res.parent_edge, res.sigma
    settle = res.order.append
    tails, w = res._tails, res._weights
    done = res.final
    goal = potential is not None
    if goal:
        if bounds[res.source] < 0.0:
            bounds[res.source] = potential(res.source)
        heap: list[tuple] = [(bounds[res.source], 0.0, res.source)]
    else:
        heap = [(0.0, res.source)]
    push = heapq.heappush
    pop = heapq.heappop
    relaxed = 0
    try:
        while heap:
            head = pop(heap)
            if goal:
                _, d, u = head
            else:
                d, u = head
            if done[u] or d > dist[u]:
                continue
            done[u] = 1
            yield head
            settle(u)
            sig_u = sigma[u]
            for e, v, lv in pack[u]:
                we = w[e]
                if we == INF:
                    continue
                if sig_u[lv] > nu[lv]:
                    continue
                nd = d + we
                dv = dist[v]
                if nd > dv:
                    continue
                # A level-0 edge charges no budget: add_draw would return sig_u.
                arrival = add_draw(sig_u, lv, we) if lv else sig_u
                if nd < dv:
                    dist[v] = nd
                    parent[v] = e
                    sigma[v] = arrival
                    relaxed += 1
                    if goal:
                        hv = bounds[v]
                        if hv < 0.0:
                            hv = bounds[v] = potential(v)
                        push(heap, (nd + hv, nd, v))
                    else:
                        push(heap, (nd, v))
                else:
                    sigma[v] = min_vec(sigma[v], arrival)
                    if goal and not done[v]:
                        t = tails[parent[v]]
                        if d < dist[t] or (d == dist[t] and u < t):
                            parent[v] = e
        done[:] = b"\x01" * len(done)
    finally:
        res.relaxed_count = relaxed


def s_dijkstra(
    network: RoadNetwork,
    scope: ScopeMapping,
    source: int,
    weighting: str = "base",
    seed_sigma: tuple[float, ...] | None = None,
) -> ScopeSearchResult:
    """Scope-aware Dijkstra from ``source``, run until the queue is empty.

    ``seed_sigma`` pre-charges the source's budgets. The result's ``order``
    then holds every vertex of finite distance, each after its tree parent.
    """
    res, steps = _scope_search(network, scope, source, weighting, seed_sigma)
    deque(steps, maxlen=0)  # drain
    return res


def is_saturated(sigma: tuple[float, ...], scope: ScopeMapping) -> bool:
    """True when every finite-level budget is exhausted in the given label."""
    return all(sigma[lv] > scope.nu[lv] for lv in scope.finite_levels())


@dataclass
class BidirectionalResult:
    """Split-minimal result of a forward and a reverse scope-aware run.

    The detour certificate also answers from its forward d_open run alone,
    with ``backward`` ``None`` (see ``detour._certificate``).
    """

    walk: Walk | None
    cost: float
    meeting: int | None
    forward: ScopeSearchResult
    backward: ScopeSearchResult | None

    @property
    def scanned_count(self) -> int:
        return self.forward.scanned_count + self.backward.scanned_count


def _split_minimum(
    forward: ScopeSearchResult, backward: ScopeSearchResult, candidates: list[int]
) -> BidirectionalResult:
    """The cheapest meeting of a forward run and a reverse run, stitched.

    Minimises ``forward.dist[v] + backward.dist[v]`` over the vertices
    ``candidates`` (the lowest such vertex on ties) and joins the forward
    tree walk to ``v`` with the reversed reverse-tree walk to ``v``. The
    runs may be partial: only vertices labelled on both sides can meet.
    A caller passes a set it has shown to hold every vertex of least sum
    over all n, so that the result is the full scan's at the cost of the
    candidates:

    * a goal-directed ``bidirectional_s_dijkstra``: the forward settle
      order, since its stop rule settles every cheapest meeting vertex on
      both sides (see its docstring);
    * a plain one: both settle orders. A vertex settled on neither side but
      labelled on both has labels no lower than the queue heads, so with the
      stop rule (both heads at least ``best``) a sum of at least twice
      ``best``, and ``best`` is a sum at a settled vertex. So it can hold
      the least sum only if that is 0, ties at weight 0 included; but
      while the forward head is 0 it takes every turn, the backward side
      settles nothing and labels only ``target``, and ``best`` becomes 0
      only once the forward side has settled ``target``;
    * the certificate (``detour._certificate``): both settle orders and
      both pending heads, where its early stop leaves the meeting it found.
    """
    fd, bd = forward.dist, backward.dist
    sums = map(add, map(fd.__getitem__, candidates), map(bd.__getitem__, candidates))
    cost, meeting = min(zip(sums, candidates), default=(INF, None))
    if cost == INF:
        return BidirectionalResult(None, INF, None, forward, backward)
    prefix = forward.walk_to(meeting)
    suffix_rev = backward.walk_to(meeting)
    assert prefix is not None and suffix_rev is not None
    walk = Walk(forward.source, prefix.edges + tuple(reversed(suffix_rev.edges)))
    return BidirectionalResult(walk, cost, meeting, forward, backward)


# Landmarks of the table, and the terms of it each goal-directed search
# reads (see _landmark_potentials). Vertices a static search settles, mean
# over 200 pairs of the acceptance grid at least 40 cells apart, by K
# landmarks (rows) and T terms read (columns):
#
#            T = 4     6     8    12   all
#   K =  8     382   360   350   346   345
#   K = 16     366   324   299   279   266
#   K = 24     311   281   264   247   225
#   K = 32     314   270   253   233   197
#
# A bound over 8 terms, written out, takes about 0.8 us; a map over all 49
# terms of 24 landmarks 3.2-3.9 us. So a long search takes 1.4-1.8 ms with
# 8 terms of 24 landmarks, 2.6 ms with all 17 of 8 landmarks, and
# 2.7-3.0 ms with all 49 of 24. With 8 terms of 32 landmarks it took about
# a tenth less than with 24, for a build about a third longer, which the
# plain searches below would then have to pay back (CPython 3.11, 2 cores).
_LANDMARKS = 24
_TERMS = 8
# Static searches a network serves plain before it builds the landmark
# table. On the acceptance grid the build (0.2-0.35 s) costs about as
# much as this many plain long searches cost over goal-directed ones
# (about 21-27 measured), so a network that serves one search (a
# command-line call) never pays for the table, and one that serves many
# pays at most about twice the least it could.
_PLAIN_SEARCHES = 24
# Landmark distances stay below int32's largest value, which stands for
# "unreachable"; below it every distance and heap key of a goal-directed
# search is an exact float sum.
_FAR = 2**31 - 1


def _landmark_rows(network: RoadNetwork) -> list[tuple[int, ...]] | None:
    """The landmark table's columns on the base weights (see
    ``_build_landmark_rows``), built once the network has served
    ``_PLAIN_SEARCHES`` static searches without them.

    Each call is one static search; the count and the table are cached in
    ``_aux``, which every weight variant of the network shares, as they
    share ``weight``, the only weights the table depends on. ``None`` while
    the count runs, and for good when the base weights are not positive
    integers or their distances can reach int32's largest value.
    """
    aux = network._aux
    if "landmarks" not in aux:
        plain = aux.get("plain searches", 0)
        if plain < _PLAIN_SEARCHES:
            aux["plain searches"] = plain + 1
            return None
        _landmarks_now(network)
    return aux["landmarks"]


def _landmarks_now(network: RoadNetwork) -> None:
    """Build the landmark table unless the network has it: in the static
    search that follows the plain ones (``_landmark_rows``), or at once for
    a caller about to serve many static searches (``bench.run_benchmark``),
    none of which then runs plain, whatever the network served before."""
    if "landmarks" not in network._aux:
        network._aux["landmarks"] = _build_landmark_rows(network)


def _build_landmark_rows(network: RoadNetwork) -> list[tuple[int, ...]] | None:
    """The landmark table, one column per term: a tuple of ``d(L, v)`` over
    the vertices ``v`` for each landmark ``L``, then one of ``-d(v, L)`` for
    each, then a column of zeros, which floors every bound at 0 (see
    ``_landmark_potentials``); an unreachable entry is int32's largest
    value, as ``_FAR`` or ``-_FAR``.

    A query reads 8 terms at each vertex it bounds, so as columns its reads
    fall in the 8 tuples it chose, where nearby vertex ids share memory,
    instead of in a whole 49-entry row per vertex. Equal entries are one int object: the acceptance grid's
    table holds 705 distinct values, so its 49 columns of 2500 entries take
    about 1.0 MB, and its build peaks at 1.5 MB of allocations
    (``tracemalloc``, CPython 3.11); as 2500 rows of 49 they took 1.1 MB
    and peaked at 4.5 MB, and with an int object per entry about 2.9 MB.

    The landmarks are chosen farthest-point: each next one maximises the
    smallest round trip to those already chosen.
    """
    n = network.vertex_count
    if network._aux.get("distance bound", INF) >= _FAR:
        return None
    k = min(_LANDMARKS, n)
    rev = network.reverse()
    intern = {}.setdefault
    out_columns: list[tuple[int, ...]] = []
    back_columns: list[tuple[int, ...]] = []
    first = dijkstra(network, "base", 0).dist
    landmark = max(range(n), key=lambda v: (first[v] < INF, first[v], -v))
    round_trip = [INF] * n
    for _ in range(k):
        out = dijkstra(network, "base", landmark).dist
        back = dijkstra(rev, "base", landmark).dist
        column = [int(x) if x < INF else _FAR for x in out]
        out_columns.append(tuple(map(intern, column, column)))
        column = [-int(x) if x < INF else -_FAR for x in back]
        back_columns.append(tuple(map(intern, column, column)))
        round_trip = list(map(min, round_trip, map(add, out, back)))
        landmark = max(range(n), key=lambda v: (round_trip[v], -v))
    return out_columns + back_columns + [(0,) * n]


def _goal_directed(network: RoadNetwork, raised) -> bool:
    """Whether a search on a weighting at or above the base one may be
    goal-directed, its keys exact sums: the base weights, as
    ``build_network`` measured them, and ``raised``, the entries above their
    base weight (or all), are positive integers whose distances stay below
    int32's largest value. Reads only ``raised``, with or without the
    landmark table; neither counts a static search nor builds the table."""
    return (
        network._aux.get("distance bound", INF) < _FAR
        and _distance_bound(raised, network.vertex_count) < _FAR
    )


def _goal_potentials(network: RoadNetwork, weighting, source: int, target: int):
    """Consistent lower bounds for a bidirectional search, or ``(None, None)``.

    Each call is one static search for ``_landmark_rows``' count. The
    bounds are ``_landmark_potentials``'; an unreachable entry stands in as
    int32's largest value, which keeps them valid and consistent.
    Base-weight distances bound the distances of every weighting at or
    above the base one and of every scope, which only removes walks; so
    they hold for the named weightings of every weight variant, where
    ``_goal_directed`` allows them.
    """
    if weighting not in ("base", "updated"):
        return None, None
    # Counts this search, and builds the table when due.
    if _landmark_rows(network) is None or not _goal_directed(
        network, network.weight_updated if weighting == "updated" else ()
    ):
        return None, None
    return _landmark_potentials(network, source, target)


def _landmark_potentials(network: RoadNetwork, source: int, target: int):
    """Landmark lower bounds on the base-weight distance from a vertex to
    ``target`` and from ``source`` to a vertex, on a network that has its
    landmark table.

    Reading the table neither counts a static search nor builds it. By the
    triangle inequality, ``d(x, y)`` is at least ``d(L, y) - d(L, x)`` and
    ``d(x, L) - d(y, L)`` for every landmark ``L``: a column's entry at
    ``y`` minus its entry at ``x`` (see ``_build_landmark_rows``), each
    column a term. Every term is a consistent lower bound, and so is the
    largest of any of them. A bound reads the ``_TERMS`` terms largest on
    ``(source, target)``, the earlier column on ties: a term's value there,
    ``col[target] - col[source]``, is its bound at the start of either
    side, so one ranking serves both. A table with fewer terms pads them
    with its zero column. A bound is the largest of the terms read and 0,
    so never negative, and an int. Fewer terms give lower bounds away from
    the start, so the searches settle more vertices than with every term,
    but each bound costs a fraction; ``bidirectional_s_dijkstra`` returns
    the same on every consistent bound.
    """
    columns = network._aux["landmarks"]
    terms = sorted(columns, key=lambda col: col[source] - col[target])[:_TERMS]
    terms += [columns[-1]] * (_TERMS - len(terms))
    # Written out for the _TERMS = 8 terms: about half the time of a map.
    c0, c1, c2, c3, c4, c5, c6, c7 = terms
    t0, t1, t2, t3, t4, t5, t6, t7 = (col[target] for col in terms)
    s0, s1, s2, s3, s4, s5, s6, s7 = (col[source] for col in terms)

    def toward_target(v: int) -> int:
        return max(t0 - c0[v], t1 - c1[v], t2 - c2[v], t3 - c3[v],
                   t4 - c4[v], t5 - c5[v], t6 - c6[v], t7 - c7[v], 0)

    def toward_source(v: int) -> int:
        return max(c0[v] - s0, c1[v] - s1, c2[v] - s2, c3[v] - s3,
                   c4[v] - s4, c5[v] - s5, c6[v] - s6, c7[v] - s7, 0)

    return toward_target, toward_source


def bidirectional_s_dijkstra(
    network: RoadNetwork,
    scope: ScopeMapping,
    source: int,
    target: int,
    weighting: str = "base",
) -> BidirectionalResult:
    """Minimum-cost walk splitting into an admissible prefix from ``source``
    and a suffix whose reversal is admissible from ``target`` in the
    reversed network.

    The two searches alternate on the smaller queue head and stop once both
    heads reach the best meeting sum seen at a settled vertex. The
    sum-of-heads rule of plain bidirectional search is unsound here: the
    prefix and suffix relations are different, so a vertex settled on one
    side only can still close a cheaper meeting. Requiring each head to pass
    the best sum guarantees the minimising vertex is settled on both sides,
    and the result then equals the split minimum of two drained
    unidirectional runs: cost, meeting vertex and walk.

    When the weights are positive integers and the network has its
    landmark table (see ``_goal_potentials``) each side is goal-directed by
    landmark bounds: forwards towards ``target``, backwards towards
    ``source``. A head's key is then its distance plus the bound, and the
    searches stop only once both keys are strictly above the best sum.
    Every vertex of a cheapest meeting has a key of at most that sum on
    either side, so ties included, all of them settle on both sides and the
    lowest one is found; the explicit parent rule of ``_scope_steps`` gives
    the drained runs' walks. Otherwise the keys are the distances and the
    searches stop once both reach the best sum.
    """
    return _bidirectional_search(network, scope, source, target, weighting)[0]


def _bidirectional_search(
    network: RoadNetwork,
    scope: ScopeMapping,
    source: int,
    target: int,
    weighting: str = "base",
) -> tuple[BidirectionalResult, tuple | None]:
    """``bidirectional_s_dijkstra``'s result and, when it was goal-directed,
    its two potentials, the forward one towards ``target`` and the backward
    one towards ``source``, with the per-vertex bound lists of its two sides
    as ``_scope_steps`` leaves them, ``-1.0`` where not evaluated:
    ``(toward_target, toward_source, (forward_bounds, backward_bounds))``.
    ``None`` for a plain search.

    The potentials are ``_landmark_potentials(network, source, target)``,
    so a later search on the same table and endpoints may read them and go
    on filling the lists, without ranking the table's terms again.
    """
    _check_endpoints(network, source, target)
    toward_target, toward_source = _goal_potentials(network, weighting, source, target)
    goal = toward_target is not None
    n = network.vertex_count
    bounds = ([-1.0] * n, [-1.0] * n) if goal else None
    fwd_bounds, bwd_bounds = bounds or (None, None)
    fwd, fwd_steps = _scope_search(network, scope, source, weighting, None, toward_target, fwd_bounds)
    bwd, bwd_steps = _scope_search(
        network.reverse(), scope, target, weighting, None, toward_source, bwd_bounds
    )
    # Two copies of one loop: unpacking the goal-directed heads and testing
    # the strict stop cost the plain search about a tenth of its time.
    if goal:
        _goal_directed_meeting((fwd, bwd), (fwd_steps, bwd_steps))
    else:
        runs = (fwd, bwd)
        steps = (fwd_steps, bwd_steps)
        heads = [next(fwd_steps, None), next(bwd_steps, None)]
        best = INF
        while True:
            tops = [INF if h is None else h[0] for h in heads]
            if tops[0] >= best and tops[1] >= best:
                break
            side = 0 if tops[0] <= tops[1] else 1
            d, u = heads[side]
            far = runs[1 - side].dist[u]
            if d + far < best:
                best = d + far
            heads[side] = next(steps[side], None)
    fwd_steps.close()
    bwd_steps.close()
    result = _split_minimum(fwd, bwd, fwd.order if goal else fwd.order + bwd.order)
    return result, (toward_target, toward_source, bounds) if goal else None


def _goal_directed_meeting(runs, steps, cap: float = INF, low: float = -INF):
    """Step a forward and a reverse goal-directed run, on the smaller head
    key, until both keys are strictly above ``best``: the least meeting sum
    seen at a settled vertex, or ``cap`` if that is lower (the stop rule of
    ``bidirectional_s_dijkstra``). Every vertex of a meeting of cost at
    most ``best`` has then settled on both sides, so the runs' split
    minimum is the drained runs' if that is at most ``cap``.

    ``low`` is a known lower bound on every meeting sum. The runs stop as
    soon as a head meets the other run at a sum of at most ``low``: no
    meeting is cheaper, so the runs' split minimum costs exactly that sum,
    though its meeting vertex (and walk) can differ from the drained runs'
    among those of equal cost. The head that met is then pending; with
    keys that bound the walks to the far end from below, its key is at
    most ``low``.

    Returns each run's pending head, the ``(key, d, u)`` it has yielded but
    not settled (``u``'s labels are final), or ``None`` for a run that ended.
    """
    fwd_dist, bwd_dist = runs[0].dist, runs[1].dist
    fwd_steps, bwd_steps = steps
    fwd_head, bwd_head = next(fwd_steps, None), next(bwd_steps, None)
    fwd_top = INF if fwd_head is None else fwd_head[0]
    bwd_top = INF if bwd_head is None else bwd_head[0]
    best = cap
    while True:
        if fwd_top <= bwd_top:
            if fwd_top > best or fwd_top == INF:
                break
            _, d, u = fwd_head
            meet = d + bwd_dist[u]
            if meet <= best:
                if meet <= low:
                    break
                best = meet
            fwd_head = next(fwd_steps, None)
            fwd_top = INF if fwd_head is None else fwd_head[0]
        else:
            # bwd_top < fwd_top, so bwd_top is finite.
            if bwd_top > best:
                break
            _, d, u = bwd_head
            meet = d + fwd_dist[u]
            if meet <= best:
                if meet <= low:
                    break
                best = meet
            bwd_head = next(bwd_steps, None)
            bwd_top = INF if bwd_head is None else bwd_head[0]
    return fwd_head, bwd_head


def validate_s_admissible(
    walk: Walk,
    network: RoadNetwork,
    scope: ScopeMapping,
    source: int,
    weighting: str = "base",
    initial: tuple[float, ...] | None = None,
) -> bool:
    """Walk-local admissibility check against the walk's own running draw.

    Scans left to right; appending an edge of level ``l`` requires the
    prefix's draw component ``l`` (plus the optional initial charge) to stay
    within ``nu[l]``. This is the cheap per-walk check; the searches and the
    oracle use the witness-based relation instead, which may disagree on
    walks with non-optimal prefixes.
    """
    check_walk(walk, network)
    scope.validate(network)
    if walk.start != source:
        return False
    w = network.weights(weighting) if isinstance(weighting, str) else weighting
    sigma = initial if initial is not None else zero_vector(scope)
    return all(_own_draw_flags(walk.edges, scope.level, w, scope.nu, sigma))


def _own_draw_flags(edges, level, weights, nu, initial) -> list[bool]:
    """Per edge of ``edges``, in order: whether its level's gate passes on
    the walk's own running draw, ``initial`` plus the draw of the edges
    before it (``add_draw`` summed, as ``validate_s_admissible`` reads it).
    Given a walk's edges reversed, the flags of its reversal from the end."""
    sigma = list(initial)
    flags = []
    for e in edges:
        lv = level[e]
        flags.append(sigma[lv] <= nu[lv])
        we = weights[e]
        for i in range(lv):
            sigma[i] += we
    return flags


@dataclass
class SettledLabels:
    """The enumeration oracle's labels: optimum cost and merged draw per vertex."""

    dist: list[float]
    sigma: list[tuple[float, ...]]


def _usable(labels, nu, v: int, lv: int) -> bool:
    """Whether a level-``lv`` edge leaving ``v`` is usable from the source of
    ``labels``, a run or ``SettledLabels``: ``v`` is reached and its settled
    draw passes the gate (an unreached vertex's draw passes the top level)."""
    return labels.dist[v] < INF and labels.sigma[v][lv] <= nu[lv]


def validate_split_admissible(
    walk: Walk,
    network: RoadNetwork,
    scope: ScopeMapping,
    source: int,
    target: int,
    weighting: str = "base",
    forward: ScopeSearchResult | SettledLabels | None = None,
    backward: ScopeSearchResult | SettledLabels | None = None,
) -> bool:
    """Witness-based check of the two-sided admissibility relation.

    True iff the walk splits into a prefix of edges usable from ``source``
    and a suffix of edges whose reversals are usable from ``target`` in the
    reversed network, judged by ``_usable`` on settled labels: ``forward``
    and ``backward``, runs or ``SettledLabels``, default to drained runs. A
    walk over an edge that is infinite under ``weighting`` is never accepted.
    """
    check_walk(walk, network)
    if walk.start != source or walk.end(network) != target:
        return False
    w = network.weights(weighting) if isinstance(weighting, str) else weighting
    if any(w[e] == INF for e in walk.edges):
        return False
    if forward is None:
        forward = s_dijkstra(network, scope, source, weighting)
    if backward is None:
        backward = s_dijkstra(network.reverse(), scope, target, weighting)
    return _split_exists(
        [_usable(forward, scope.nu, network.tails[e], scope.level[e]) for e in walk.edges],
        [_usable(backward, scope.nu, network.heads[e], scope.level[e]) for e in walk.edges],
    )


def _split_exists(prefix_ok: list[bool], suffix_ok: list[bool]) -> bool:
    """The split scan shared by the validators and the certificate's
    own-draw check (``detour._own_draw_split``).

    Given per-edge flags of a walk (may the edge sit in the prefix, may it
    sit in the suffix), true iff some split point ``j`` has every edge
    before ``j`` prefix-ok and every edge from ``j`` on suffix-ok. The
    latest candidate is the end of the longest prefix-ok run, and it leaves
    the shortest suffix, so it is the only split worth testing.
    """
    j = next((i for i, ok in enumerate(prefix_ok) if not ok), len(prefix_ok))
    return all(suffix_ok[j:])


class BudgetExceeded(RuntimeError):
    """Enumeration budget ran out before the oracle could settle."""


def oracle_settled_labels(
    network: RoadNetwork,
    scope: ScopeMapping,
    source: int,
    weighting: str = "base",
    hop_bound: int | None = None,
    budget: int = 2_000_000,
    seed_sigma: tuple[float, ...] | None = None,
) -> SettledLabels:
    """Settle per-vertex optima and merged draws by plain walk enumeration.

    Walks are generated by extending enumerated prefixes and processed in
    cost order; a walk is admissible when its prefix is and the appended
    edge's gate passes against the tail's already-settled merged draw.
    Independent of the heap-based search code by construction.
    """
    if not (0 <= source < network.vertex_count):
        raise NetworkError(f"unknown source vertex {source}")
    scope.validate(network)
    w = network.weights(weighting) if isinstance(weighting, str) else weighting
    if hop_bound is None:
        hop_bound = network.vertex_count + 4
    n = network.vertex_count
    nu = scope.nu
    start_vec = zero_vector(scope) if seed_sigma is None else tuple(seed_sigma)
    opt = [INF] * n
    merged: list[tuple[float, ...]] = [inf_vector(scope)] * n
    # Heap entries: (cost, sequence, end vertex, hops, own draw, last edge).
    # The last edge's gate is checked when the walk is popped: by then every
    # walk of lower or equal cost to the edge's tail has been processed, so
    # the tail's merged draw is final (weights are positive).
    counter = 0
    heap: list[tuple[float, int, int, int, tuple[float, ...], int | None]] = [
        (0.0, counter, source, 0, start_vec, None)
    ]
    processed = 0
    while heap:
        cost, _, v, hops, sigma, last = heapq.heappop(heap)
        processed += 1
        if processed > budget:
            raise BudgetExceeded(f"oracle enumeration exceeded {budget} walks")
        if last is not None:
            lv = scope.level[last]
            if merged[network.tails[last]][lv] > nu[lv]:
                continue
        if cost > opt[v]:
            continue
        if cost < opt[v]:
            opt[v] = cost
            merged[v] = sigma
        else:
            merged[v] = min_vec(merged[v], sigma)
        if hops >= hop_bound:
            continue
        for e in network.out_edges(v):
            we = w[e]
            if we == INF:
                continue
            counter += 1
            heapq.heappush(
                heap,
                (cost + we, counter, network.heads[e], hops + 1,
                 add_draw(sigma, scope.level[e], we), e),
            )
    return SettledLabels(opt, merged)


def brute_force_optimal_admissible(
    network: RoadNetwork,
    scope: ScopeMapping,
    source: int,
    target: int,
    hop_bound: int | None = None,
    weighting: str = "base",
    budget: int = 2_000_000,
    split: bool = True,
):
    """Enumeration oracle for the optimal admissible walk cost.

    With ``split`` the two-sided relation is used (prefix usable from the
    source, reversed suffix usable from the target); otherwise only the
    one-sided forward relation. Returns ``(cost, meeting_vertex)`` where the
    cost is ``inf`` for unreachable targets. Raises :class:`BudgetExceeded`
    when the enumeration budget runs out.
    """
    if not (0 <= target < network.vertex_count):
        raise NetworkError(f"unknown target vertex {target}")
    fwd = oracle_settled_labels(network, scope, source, weighting, hop_bound, budget)
    if not split:
        return fwd.dist[target], target if fwd.dist[target] < INF else None
    bwd = oracle_settled_labels(network.reverse(), scope, target, weighting, hop_bound, budget)
    best = INF
    meeting = None
    for v in range(network.vertex_count):
        c = fwd.dist[v] + bwd.dist[v]
        if c < best:
            best = c
            meeting = v
    return best, meeting
