"""Full detour admissibility: decomposition validator and desk-scale optimum search.

This is the semantic gold standard the cheaper detour algorithms are
compared against. A walk is fully detour-admissible when it avoids the
closures and admits a decomposition into forward obstruction anchors,
reverse anchors, and breakpoints such that every restricted edge is within
budget relative to some anchor's obstruction state, with the connecting
subwalk staying clear of the breakpoints and the opposite anchors.

Everything here is evaluated literally on the base-weighted network with
the closure edges still present; witness walks are found by dedicated
seeded searches and obstruction probes by bounded walk enumeration, so the
module is deliberately exponential and intended for small instances only.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .network import (
    INF,
    RoadNetwork,
    ScopeMapping,
    Walk,
    add_draw,
    check_walk,
    inf_vector,
    min_vec,
    zero_vector,
)
from .detour import _active_set
from .search import SettledLabels, s_dijkstra, validate_split_admissible


class SearchBudgetExceeded(RuntimeError):
    """The witness search ran out of its enumeration budget."""


@dataclass(frozen=True)
class Decomposition:
    """Witness for full detour admissibility.

    Anchor entries are positions into the walk's vertex sequence;
    ``pi_forward[i]`` is the obstruction state charged at forward anchor i
    (the zero vector for the start anchor), mirrored for the reverse side.
    """

    forward_anchors: tuple[int, ...]
    reverse_anchors: tuple[int, ...]
    breakpoints: tuple[int, ...]
    pi_forward: tuple[tuple[float, ...], ...]
    pi_reverse: tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class FullVerdict:
    accepted: bool | None
    witness: Decomposition | None = None

    @property
    def indeterminate(self) -> bool:
        return self.accepted is None

    def __bool__(self) -> bool:
        if self.accepted is None:
            raise SearchBudgetExceeded("verdict is indeterminate")
        return self.accepted


class _ProbeEngine:
    """Obstruction probes by bounded walk enumeration on the base weights.

    A vertex is obstructed towards the target for an initial charge vector
    when some cheapest walk among the charge-amended admissible ones runs
    through a closure; the state is the component-wise minimum draw from the
    vertex to a closure tail over all such cheapest walks.
    """

    def __init__(
        self,
        network: RoadNetwork,
        scope: ScopeMapping,
        active: frozenset[int],
        target: int,
        hop_bound: int,
        budget: int,
    ) -> None:
        self.network = network
        self.scope = scope
        self.active = active
        self.target = target
        self.hop_bound = hop_bound
        self.budget = budget
        self.rev = s_dijkstra(network.reverse(), scope, target, "base")
        self._cache: dict[tuple[int, tuple[float, ...]], tuple[bool, tuple[float, ...] | None]] = {}

    def probe(self, vertex: int, omega: tuple[float, ...]):
        key = (vertex, omega)
        if key not in self._cache:
            self._cache[key] = self._probe(vertex, omega)
        return self._cache[key]

    def _probe(self, vertex: int, omega: tuple[float, ...]):
        net = self.network
        scope = self.scope
        seeded = s_dijkstra(net, scope, vertex, "base", seed_sigma=omega)
        best = INF
        for v in range(net.vertex_count):
            c = seeded.dist[v] + self.rev.dist[v]
            if c < best:
                best = c
        if best == INF:
            return False, None
        seeded_labels = SettledLabels(seeded.dist, seeded.sigma)
        rev_labels = SettledLabels(self.rev.dist, self.rev.sigma)
        # Enumerate all vertex-to-target walks of optimal amended cost and
        # fold the draws to their closure tails.
        state: tuple[float, ...] | None = None
        steps = 0
        edges_taken: list[int] = []

        def dfs(at: int, cost: float, hops: int) -> None:
            nonlocal steps, state
            steps += 1
            if steps > self.budget:
                raise SearchBudgetExceeded("obstruction probe budget exceeded")
            if at == self.target and cost == best:
                walk = tuple(edges_taken)
                if validate_split_admissible(
                    Walk(vertex, walk), net, scope, vertex, self.target,
                    forward=seeded_labels, backward=rev_labels,
                ):
                    draw = zero_vector(scope)
                    for e in walk:
                        if e in self.active:
                            state_here = draw
                            state = state_here if state is None else min_vec(state, state_here)
                        draw = add_draw(draw, scope.level[e], net.weight[e])
            if hops >= self.hop_bound or cost >= best:
                return
            for e in net.out_edges(at):
                w = net.weight[e]
                if w == INF or cost + w > best:
                    continue
                edges_taken.append(e)
                dfs(net.heads[e], cost + w, hops + 1)
                edges_taken.pop()

        dfs(vertex, 0.0, 0)
        if state is None:
            return False, None
        return True, state


def validate_full_detour(
    walk: Walk,
    network: RoadNetwork,
    scope: ScopeMapping,
    closures,
    source: int,
    target: int,
    hop_bound: int | None = None,
    budget: int = 200_000,
) -> FullVerdict:
    """Search for a decomposition witnessing full detour admissibility.

    Enumerates forward/reverse anchor sets over plainly obstructed walk
    positions and breakpoint placements, re-probing anchors under amended
    charge vectors where the decomposition demands it. Returns an
    indeterminate verdict when the probe or decomposition budget runs out.
    """
    check_walk(walk, network)
    scope.validate(network)
    if walk.start != source or walk.end(network) != target:
        return FullVerdict(False)
    active = _active_set(network, closures)
    if any(e in active for e in walk.edges):
        return FullVerdict(False)
    if hop_bound is None:
        hop_bound = network.vertex_count + 4
    k = len(walk.edges)
    vertices = walk.vertices(network)
    if k == 0:
        return FullVerdict(True, Decomposition((0,), (0,), (), (zero_vector(scope),), (zero_vector(scope),)))

    try:
        fwd_engine = _ProbeEngine(network, scope, active, target, hop_bound, budget)
        rnet = network.reverse()
        bwd_engine = _ProbeEngine(rnet, scope, active, source, hop_bound, budget)
        most_restrictive = inf_vector(scope)

        fwd_candidates = [
            p
            for p in range(1, k)
            if active and fwd_engine.probe(vertices[p], most_restrictive)[0]
        ]
        bwd_candidates = [
            p
            for p in range(1, k)
            if active and bwd_engine.probe(vertices[p], most_restrictive)[0]
        ]

        # Seeded witness labels for condition (v), cached per (anchor, pi).
        fwd_labels: dict[tuple[int, tuple[float, ...]], object] = {}
        bwd_labels: dict[tuple[int, tuple[float, ...]], object] = {}

        def fwd_label(anchor_vertex: int, pi: tuple[float, ...]):
            key = (anchor_vertex, pi)
            if key not in fwd_labels:
                fwd_labels[key] = s_dijkstra(network, scope, anchor_vertex, "base", seed_sigma=pi)
            return fwd_labels[key]

        def bwd_label(anchor_vertex: int, pi: tuple[float, ...]):
            key = (anchor_vertex, pi)
            if key not in bwd_labels:
                bwd_labels[key] = s_dijkstra(rnet, scope, anchor_vertex, "base", seed_sigma=pi)
            return bwd_labels[key]

        combos = 0
        for p in range(len(fwd_candidates) + 1):
            for fset in combinations(fwd_candidates, p):
                for q in range(len(bwd_candidates) + 1):
                    for bset_rev in combinations(sorted(bwd_candidates, reverse=True), q):
                        combos += 1
                        if combos > 4096:
                            return FullVerdict(None)
                        witness = _try_decomposition(
                            walk,
                            vertices,
                            network,
                            scope,
                            (0,) + fset,
                            (k,) + bset_rev,
                            fwd_engine,
                            bwd_engine,
                            fwd_label,
                            bwd_label,
                        )
                        if witness is not None:
                            return FullVerdict(True, witness)
        return FullVerdict(False)
    except SearchBudgetExceeded:
        return FullVerdict(None)


def _breakpoint_slots(fwd_anchors: tuple[int, ...], rev_anchors: tuple[int, ...]) -> list[tuple[int, int]]:
    """Position ranges needing exactly one breakpoint: a forward anchor
    immediately succeeded (among all anchors) by a reverse anchor."""
    tagged = [(p, "f") for p in fwd_anchors] + [(p, "r") for p in rev_anchors]
    tagged.sort(key=lambda t: (t[0], t[1]))
    slots = []
    for (p1, k1), (p2, k2) in zip(tagged, tagged[1:]):
        if k1 == "f" and k2 == "r":
            slots.append((p1, p2))
    return slots


def _try_decomposition(
    walk: Walk,
    vertices: list[int],
    network: RoadNetwork,
    scope: ScopeMapping,
    fwd_anchors: tuple[int, ...],
    rev_anchors: tuple[int, ...],
    fwd_engine: _ProbeEngine,
    bwd_engine: _ProbeEngine,
    fwd_label,
    bwd_label,
) -> Decomposition | None:
    if len(set(fwd_anchors) & set(rev_anchors)) > 0:
        return None
    slots = _breakpoint_slots(fwd_anchors, rev_anchors)
    choices: list[tuple[int, ...]] = [()]
    for lo, hi in slots:
        choices = [c + (b,) for c in choices for b in range(lo, hi + 1)]
    rev_sorted = tuple(sorted(rev_anchors, reverse=True))
    for bset in choices:
        breakpoints = tuple(sorted(set(bset)))
        if len(breakpoints) != len(bset):
            continue
        pi_f = _anchor_chain(
            walk, vertices, scope, fwd_anchors, breakpoints, fwd_engine, fwd_label, forward=True
        )
        if pi_f is None:
            continue
        pi_r = _anchor_chain(
            walk, vertices, scope, rev_sorted, breakpoints, bwd_engine, bwd_label, forward=False
        )
        if pi_r is None:
            continue
        if _edges_justified(
            walk, vertices, network, scope, fwd_anchors, rev_sorted, breakpoints,
            pi_f, pi_r, fwd_label, bwd_label,
        ):
            return Decomposition(fwd_anchors, rev_sorted, breakpoints, pi_f, pi_r)
    return None


def _anchor_chain(
    walk: Walk,
    vertices: list[int],
    scope: ScopeMapping,
    anchors: tuple[int, ...],
    breakpoints: tuple[int, ...],
    engine: _ProbeEngine,
    label,
    forward: bool,
):
    """Validate the anchor sequence and compute the charged states.

    The first anchor (the walk endpoint) carries the zero vector; each later
    anchor must probe as obstructed, amended with the accumulated charge when
    the connecting subwalk avoids the breakpoints.
    """
    pis: list[tuple[float, ...]] = [zero_vector(scope)]
    most = inf_vector(scope)
    for i in range(1, len(anchors)):
        prev_pos, pos = anchors[i - 1], anchors[i]
        lo, hi = (prev_pos, pos) if forward else (pos, prev_pos)
        b_free = all(not (lo <= b <= hi) for b in breakpoints)
        if b_free:
            lbl = label(vertices[prev_pos], pis[i - 1])
            omega = lbl.sigma[vertices[pos]]
            if lbl.dist[vertices[pos]] == INF:
                omega = most
        else:
            omega = most
        obstructed, state = engine.probe(vertices[pos], omega)
        if not obstructed:
            return None
        pis.append(state)
    return tuple(pis)


def _edges_justified(
    walk: Walk,
    vertices: list[int],
    network: RoadNetwork,
    scope: ScopeMapping,
    fwd_anchors: tuple[int, ...],
    rev_anchors: tuple[int, ...],
    breakpoints: tuple[int, ...],
    pi_f: tuple[tuple[float, ...], ...],
    pi_r: tuple[tuple[float, ...], ...],
    fwd_label,
    bwd_label,
) -> bool:
    nu = scope.nu
    top = scope.top
    blocked_f = set(breakpoints) | set(rev_anchors[1:])
    blocked_r = set(breakpoints) | set(fwd_anchors[1:])
    for m, e in enumerate(walk.edges):
        lv = scope.level[e]
        if lv >= top:
            continue
        ok = False
        for i, a in enumerate(fwd_anchors):
            if a > m:
                continue
            if any(a <= x <= m for x in blocked_f):
                continue
            lbl = fwd_label(vertices[a], pi_f[i])
            u = vertices[m]
            if lbl.dist[u] < INF and lbl.sigma[u][lv] <= nu[lv]:
                ok = True
                break
        if not ok:
            for j, c in enumerate(rev_anchors):
                if c < m + 1:
                    continue
                if any(m + 1 <= x <= c for x in blocked_r):
                    continue
                lbl = bwd_label(vertices[c], pi_r[j])
                v = vertices[m + 1]
                if lbl.dist[v] < INF and lbl.sigma[v][lv] <= nu[lv]:
                    ok = True
                    break
        if not ok:
            return False
    return True


def brute_force_full_optimum(
    network: RoadNetwork,
    scope: ScopeMapping,
    closures,
    source: int,
    target: int,
    hop_bound: int | None = None,
    budget: int = 200_000,
):
    """Cheapest closure-avoiding walk accepted by the full validator.

    Returns ``(walk, cost)`` under the updated weighting, ``(None, inf)``
    when no accepted walk exists, and raises :class:`SearchBudgetExceeded`
    when enumeration or validation cannot finish within budget.
    """
    scope.validate(network)
    active = _active_set(network, closures)
    if hop_bound is None:
        hop_bound = network.vertex_count + 4
    wstar = network.weight_updated
    candidates: list[tuple[float, tuple[int, ...]]] = []
    steps = 0
    edges_taken: list[int] = []

    def dfs(at: int, cost: float, hops: int) -> None:
        nonlocal steps
        steps += 1
        if steps > budget:
            raise SearchBudgetExceeded("walk enumeration budget exceeded")
        if at == target:
            candidates.append((cost, tuple(edges_taken)))
        if hops >= hop_bound:
            return
        for e in network.out_edges(at):
            if e in active or wstar[e] == INF:
                continue
            edges_taken.append(e)
            dfs(network.heads[e], cost + wstar[e], hops + 1)
            edges_taken.pop()

    dfs(source, 0.0, 0)
    candidates.sort()
    for cost, edges in candidates:
        verdict = validate_full_detour(
            Walk(source, edges), network, scope, active, source, target, hop_bound, budget
        )
        if verdict.indeterminate:
            raise SearchBudgetExceeded("validation budget exceeded")
        if verdict.accepted:
            return Walk(source, edges), cost
    return None, INF
