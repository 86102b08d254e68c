"""Road-network graph model: scope mappings, draw vectors, structural transforms.

A road network is a directed multigraph with a base weighting ``w`` and an
updated weighting ``w*`` (``w*(e) >= w(e)``; ``inf`` marks a closed road).
Every edge carries a scope level; each level has a budget ``nu`` limiting how
much weight may be travelled on strictly-higher-level edges before edges of
that level stop being usable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

INF = math.inf


class NetworkError(ValueError):
    """Raised on malformed network or scope input."""


@dataclass(frozen=True)
class RoadNetwork:
    """Directed multigraph with stable edge ids and two weightings.

    Vertices are contiguous ints ``0..n-1``. Edges are kept in insertion
    order; parallel edges and self-loops are allowed. ``weight_updated``
    defaults to ``weight`` and may only be raised (closures use ``inf``).
    """

    vertex_count: int
    tails: tuple[int, ...]
    heads: tuple[int, ...]
    weight: tuple[float, ...]
    weight_updated: tuple[float, ...]
    _out: tuple[tuple[int, ...], ...] = field(repr=False, compare=False, default=())
    _in: tuple[tuple[int, ...], ...] = field(repr=False, compare=False, default=())
    # Structural scratch cache (adjacency packs etc.); shared between weight
    # variants of the same graph, so entries must not depend on weights.
    _aux: dict = field(repr=False, compare=False, default_factory=dict)

    @property
    def edge_count(self) -> int:
        return len(self.tails)

    def out_edges(self, v: int) -> tuple[int, ...]:
        return self._out[v]

    def in_edges(self, v: int) -> tuple[int, ...]:
        return self._in[v]

    def edge(self, e: int) -> tuple[int, int]:
        return self.tails[e], self.heads[e]

    def weights(self, which: str) -> tuple[float, ...]:
        if which == "base":
            return self.weight
        if which == "updated":
            return self.weight_updated
        raise NetworkError(f"unknown weighting {which!r}")

    def reverse(self) -> "RoadNetwork":
        """Edge-for-edge reversal; ids and weights are preserved.

        The reversal shares every tuple of this network, and all reversals of
        weight variants of one graph share one structural cache, so building
        it is O(1). It is not kept: a network and its twin referring to each
        other would leave every dropped copy to the cyclic collector.
        """
        rev_aux = self._aux.setdefault("revaux", {})
        rev_aux.setdefault("revaux", self._aux)
        return RoadNetwork(
            self.vertex_count,
            self.heads,
            self.tails,
            self.weight,
            self.weight_updated,
            self._in,
            self._out,
            rev_aux,
        )

    def with_updated_weights(self, updates: dict[int, float]) -> "RoadNetwork":
        """Copy of the network with ``w*`` raised on the given edges.

        Shares the adjacency structure and the structural cache with the
        original; only the updated weighting differs.
        """
        wstar = list(self.weight_updated)
        for e, value in updates.items():
            if e < 0 or e >= self.edge_count:
                raise NetworkError(f"unknown edge id {e}")
            if math.isnan(value):
                raise NetworkError(f"edge {e}: updated weight is NaN")
            if value < self.weight[e]:
                raise NetworkError(
                    f"edge {e}: updated weight {value} below base weight {self.weight[e]}"
                )
            wstar[e] = float(value)
        return RoadNetwork(
            self.vertex_count,
            self.tails,
            self.heads,
            self.weight,
            tuple(wstar),
            self._out,
            self._in,
            self._aux,
        )


def build_network(
    vertex_count: int,
    edge_list: list[tuple[int, int]],
    weights,
    updated_weights=None,
) -> RoadNetwork:
    """Build a RoadNetwork, validating endpoints and weight signs.

    Edge ids follow the input order. ``updated_weights`` defaults to the base
    weights.
    """
    if vertex_count < 0:
        raise NetworkError("vertex_count must be non-negative")
    if len(edge_list) != len(weights):
        raise NetworkError("edge_list and weights length mismatch")
    tails: list[int] = []
    heads: list[int] = []
    for e, (u, v) in enumerate(edge_list):
        if not (0 <= u < vertex_count) or not (0 <= v < vertex_count):
            raise NetworkError(f"edge {e}: endpoint out of range: ({u}, {v})")
        tails.append(u)
        heads.append(v)
    w = []
    for e, value in enumerate(weights):
        if math.isnan(value):
            raise NetworkError(f"edge {e}: weight is NaN")
        if value < 0:
            raise NetworkError(f"edge {e}: negative weight {value}")
        w.append(float(value))
    if updated_weights is None:
        wstar = list(w)
    else:
        if len(updated_weights) != len(w):
            raise NetworkError("updated_weights length mismatch")
        wstar = []
        for e, value in enumerate(updated_weights):
            if math.isnan(value):
                raise NetworkError(f"edge {e}: updated weight is NaN")
            if value < w[e]:
                raise NetworkError(f"edge {e}: updated weight {value} below base {w[e]}")
            wstar.append(float(value))
    out: list[list[int]] = [[] for _ in range(vertex_count)]
    inc: list[list[int]] = [[] for _ in range(vertex_count)]
    for e in range(len(tails)):
        out[tails[e]].append(e)
        inc[heads[e]].append(e)
    return RoadNetwork(
        vertex_count,
        tuple(tails),
        tuple(heads),
        tuple(w),
        tuple(wstar),
        tuple(tuple(es) for es in out),
        tuple(tuple(es) for es in inc),
    )


def reverse(network: RoadNetwork) -> RoadNetwork:
    return network.reverse()


@dataclass(frozen=True)
class ScopeMapping:
    """Per-edge scope level plus the per-level budget vector ``nu``.

    Levels are dense ordinals ``0..top`` where ``top`` is the unbounded
    level (``nu[top] == inf``). Original level labels are kept as metadata;
    sparse label sets are re-indexed densely on construction.
    """

    level: tuple[int, ...]
    nu: tuple[float, ...]
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.nu) < 2:
            raise NetworkError("scope mapping needs at least levels 0 and inf")
        if self.nu[-1] != INF:
            raise NetworkError("last scope value must be inf")
        for i, value in enumerate(self.nu):
            if math.isnan(value):
                raise NetworkError(f"scope value nu[{i}] is NaN")
            if value < 0:
                raise NetworkError(f"scope value nu[{i}] negative")
            if i and value <= self.nu[i - 1]:
                raise NetworkError(
                    f"scope values must be strictly increasing, got {self.nu[i - 1]} then {value}"
                )
        top = len(self.nu) - 1
        for e, lv in enumerate(self.level):
            if not (0 <= lv <= top):
                raise NetworkError(f"edge {e}: level {lv} out of range")

    @property
    def top(self) -> int:
        return len(self.nu) - 1

    @property
    def level_count(self) -> int:
        return len(self.nu)

    def finite_levels(self) -> range:
        return range(self.top)

    def validate(self, network: RoadNetwork) -> None:
        # Value invariants are checked at construction; only the pairing
        # with a concrete network can fail here.
        if len(self.level) != network.edge_count:
            raise NetworkError("scope level count does not match edge count")


def make_scope(levels, nu, labels=None) -> ScopeMapping:
    """Build a ScopeMapping from per-edge level ordinals and a nu vector."""
    nu = tuple(float(x) for x in nu)
    if labels is None:
        labels = tuple(str(i) for i in range(len(nu) - 1)) + ("inf",)
    return ScopeMapping(tuple(int(x) for x in levels), nu, tuple(labels))


def scope_from_labels(edge_labels, label_nu: dict) -> ScopeMapping:
    """Re-index sparse level labels densely, keeping labels as metadata.

    ``label_nu`` maps each label (ints plus the ``inf`` label) to its scope
    value; it must contain the ``inf`` label.
    """

    def key(lbl):
        return (1, 0.0) if lbl in ("inf", INF) else (0, float(lbl))

    declared = sorted(label_nu, key=key)
    if not declared or key(declared[-1])[0] != 1:
        raise NetworkError("scope declaration must include the inf level")
    index = {lbl: i for i, lbl in enumerate(declared)}
    nu = tuple(float(label_nu[lbl]) for lbl in declared)
    try:
        levels = tuple(index[lbl] for lbl in edge_labels)
    except KeyError as exc:
        raise NetworkError(f"edge uses undeclared level label {exc.args[0]!r}") from exc
    return ScopeMapping(levels, nu, tuple(str(lbl) for lbl in declared))


@dataclass(frozen=True)
class Walk:
    """Alternating vertex/edge sequence, stored as a start vertex plus edge ids."""

    start: int
    edges: tuple[int, ...] = ()

    def __len__(self) -> int:
        return len(self.edges)

    def vertices(self, network: RoadNetwork) -> list[int]:
        seq = [self.start]
        for e in self.edges:
            seq.append(network.heads[e])
        return seq

    def end(self, network: RoadNetwork) -> int:
        return network.heads[self.edges[-1]] if self.edges else self.start

    def cost(self, network: RoadNetwork, which: str = "base") -> float:
        w = network.weights(which)
        return sum(w[e] for e in self.edges)

    def concat(self, other: "Walk", network: RoadNetwork) -> "Walk":
        if self.end(network) != other.start:
            raise NetworkError("walks are not concatenable")
        return Walk(self.start, self.edges + other.edges)


def check_walk(walk: Walk, network: RoadNetwork) -> None:
    if not (0 <= walk.start < max(network.vertex_count, 1)):
        raise NetworkError(f"walk start {walk.start} out of range")
    at = walk.start
    for e in walk.edges:
        if e < 0 or e >= network.edge_count:
            raise NetworkError(f"walk references unknown edge {e}")
        if network.tails[e] != at:
            raise NetworkError(f"walk breaks incidence at edge {e}")
        at = network.heads[e]


def zero_vector(scope: ScopeMapping) -> tuple[float, ...]:
    return (0.0,) * scope.level_count


def inf_vector(scope: ScopeMapping) -> tuple[float, ...]:
    return (INF,) * scope.level_count


def add_draw(sigma: tuple[float, ...], level: int, weight: float) -> tuple[float, ...]:
    """Account one edge of the given level: charges every index below it."""
    if level == 0 or weight == 0.0:
        return sigma
    return tuple([s + weight for s in sigma[:level]]) + sigma[level:]


def min_vec(a: tuple[float, ...], b: tuple[float, ...]) -> tuple[float, ...]:
    return tuple([x if x <= y else y for x, y in zip(a, b)])


def s_draw(walk: Walk, scope: ScopeMapping, network: RoadNetwork, which: str = "base") -> tuple[float, ...]:
    """Draw vector of a walk: index ``l`` sums weights of edges with level > l."""
    check_walk(walk, network)
    w = network.weights(which)
    sigma = [0.0] * scope.level_count
    for e in walk.edges:
        lv = scope.level[e]
        we = w[e]
        for i in range(lv):
            sigma[i] += we
    return tuple(sigma)


def _strongly_connected_components(vertex_count: int, out_edges) -> list[int]:
    """Iterative Tarjan; returns a component id per vertex."""
    index = [-1] * vertex_count
    low = [0] * vertex_count
    on_stack = [False] * vertex_count
    comp = [-1] * vertex_count
    stack: list[int] = []
    counter = 0
    comp_count = 0
    for root in range(vertex_count):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, ei = work[-1]
            if ei == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            targets = out_edges(v)
            while ei < len(targets):
                u = targets[ei]
                ei += 1
                if index[u] == -1:
                    work[-1] = (v, ei)
                    work.append((u, 0))
                    advanced = True
                    break
                if on_stack[u]:
                    low[v] = min(low[v], index[u])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                while True:
                    u = stack.pop()
                    on_stack[u] = False
                    comp[u] = comp_count
                    if u == v:
                        break
                comp_count += 1
            if work:
                p = work[-1][0]
                low[p] = min(low[p], low[v])
    return comp


def is_routing_connected(network: RoadNetwork) -> bool:
    """True iff for every ordered edge pair (e, f) some walk starts with e and ends with f.

    Equivalent to: all endpoints of edges lie in one strongly connected
    component. Vacuously true without edges.
    """
    return len(_scc_groups(network, range(network.edge_count))) <= 1


def is_proper(network: RoadNetwork, scope: ScopeMapping) -> bool:
    """True iff every used level's up-closed edge subgraph is routing-connected.

    Requires the unbounded level to be used whenever the network has edges;
    a non-routing-connected network is never proper.
    """
    scope.validate(network)
    if not is_routing_connected(network):
        return False
    if network.edge_count and scope.top not in set(scope.level):
        return False
    for lv in sorted(set(scope.level)):
        sub = [e for e in range(network.edge_count) if scope.level[e] >= lv]
        if len(_scc_groups(network, sub)) > 1:
            return False
    return True


def balance_to_proper(network: RoadNetwork, scope: ScopeMapping) -> ScopeMapping:
    """Raise edge levels until every up-closed level subgraph is routing-connected.

    Works top-down from the unbounded level. For each level whose subgraph
    splits into several strongly connected pieces, greedily promotes the
    edges of shortest (hop-count, then edge-id) connecting paths. Never
    lowers a level; deterministic for a given input.
    """
    scope.validate(network)
    if not is_routing_connected(network):
        raise NetworkError("network is not routing-connected; no proper scope mapping exists")
    if network.edge_count == 0:
        return scope
    level = list(scope.level)
    if scope.top not in set(level):
        # The unbounded level must be inhabited; promote one shortest cycle.
        seed = min(range(network.edge_count))
        cycle = _shortest_edge_path_between(
            network, [network.heads[seed]], [network.tails[seed]]
        ) or []
        for e in [seed] + cycle:
            level[e] = scope.top
    for lv in range(scope.top, 0, -1):
        if lv not in set(level):
            continue
        guard = 0
        while True:
            sub = [e for e in range(network.edge_count) if level[e] >= lv]
            groups = _scc_groups(network, sub)
            if len(groups) <= 1:
                break
            guard += 1
            if guard > network.vertex_count + 2:
                raise NetworkError("cannot balance scope mapping to proper")
            # Link the components into a ring along shortest connecting
            # edge paths, promoting the path edges to this level.
            groups.sort(key=min)
            promoted = False
            for a, b in zip(groups, groups[1:] + groups[:1]):
                path = _shortest_edge_path_between(network, a, b)
                for e in path or ():
                    if level[e] < lv:
                        level[e] = lv
                        promoted = True
            if not promoted:
                # Components already linked one-way by >=lv edges; nothing
                # promotable contradicts the routing-connected precondition.
                raise NetworkError("cannot balance scope mapping to proper")
    return ScopeMapping(tuple(level), scope.nu, scope.labels)


def _scc_groups(network: RoadNetwork, edge_ids) -> list[list[int]]:
    """Vertex groups of the strongly connected components of an edge subgraph.

    Only endpoints of the given edges count; no edges give no groups.
    """
    edge_ids = list(edge_ids)
    if not edge_ids:
        return []
    touched = set()
    adj: dict[int, list[int]] = {}
    for e in edge_ids:
        u, v = network.tails[e], network.heads[e]
        touched.add(u)
        touched.add(v)
        adj.setdefault(u, []).append(v)
    verts = sorted(touched)
    local = {v: i for i, v in enumerate(verts)}
    local_adj = [[local[t] for t in adj.get(v, ())] for v in verts]
    comp = _strongly_connected_components(len(verts), lambda i: local_adj[i])
    groups: dict[int, list[int]] = {}
    for i, c in enumerate(comp):
        groups.setdefault(c, []).append(verts[i])
    return list(groups.values())


def _shortest_edge_path_between(network: RoadNetwork, group_a, group_b):
    """Fewest-hop edge path from any vertex of group_a to any of group_b.

    Multi-source breadth-first search; sources and edges are visited in
    sorted order, so the result is deterministic.
    """
    targets = set(group_b)
    sources = sorted(set(group_a))
    prev: dict[int, int] = {}
    seen = set(sources)
    frontier = sources
    found = None
    while frontier and found is None:
        nxt = []
        for v in frontier:
            for e in sorted(network.out_edges(v)):
                u = network.heads[e]
                if u in seen:
                    continue
                seen.add(u)
                prev[u] = e
                if u in targets:
                    found = u
                    break
                nxt.append(u)
            if found is not None:
                break
        frontier = nxt
    if found is None:
        return None
    path = []
    at = found
    while at in prev:
        e = prev[at]
        path.append(e)
        at = network.tails[e]
    path.reverse()
    return path


@dataclass(frozen=True)
class ContractionResult:
    network: RoadNetwork
    scope: ScopeMapping
    expansion: tuple[tuple[int, ...], ...]
    vertex_map: tuple[int, ...]

    def expand_walk(self, walk: Walk) -> Walk:
        """Map a walk in the contracted network back to original edge ids."""
        edges: list[int] = []
        for e in walk.edges:
            edges.extend(self.expansion[e])
        return Walk(self.vertex_map[walk.start], tuple(edges))


def contract_degree2_chains(network: RoadNetwork, scope: ScopeMapping) -> ContractionResult:
    """Merge maximal chains of pass-through vertices into single edges.

    A vertex is a pass-through when it either forwards exactly one one-way
    road (in-degree one, out-degree one, distinct neighbours) or sits on a
    two-way road pair (the two-in/two-out antiparallel pattern). Chain
    weights add up; the chain level is the minimum along the chain, which
    never grants admissibility the original chain lacked. The result keeps
    an expansion map from new edges to original edge sequences.
    """
    scope.validate(network)
    n = network.edge_count

    def partner(e: int) -> int | None:
        # Antiparallel twin with identical endpoints, if unique.
        u, v = network.tails[e], network.heads[e]
        twins = [f for f in network.out_edges(v) if network.heads[f] == u]
        return twins[0] if len(twins) == 1 else None

    passthrough = [False] * network.vertex_count
    for v in range(network.vertex_count):
        ins = network.in_edges(v)
        outs = network.out_edges(v)
        if len(ins) == 1 and len(outs) == 1:
            e_in, e_out = ins[0], outs[0]
            # No self-loops and no U-turn stubs (a -> v -> a).
            if (
                network.tails[e_in] != v
                and network.heads[e_out] != v
                and network.heads[e_out] != network.tails[e_in]
                and e_in != e_out
            ):
                passthrough[v] = True
        elif len(ins) == 2 and len(outs) == 2:
            # Two-way pattern: a <-> v <-> b with distinct a, b.
            pa = [partner(e) for e in outs]
            if None not in pa and set(pa) == set(ins):
                nbrs = {network.heads[e] for e in outs}
                if v not in nbrs and len(nbrs) == 2:
                    passthrough[v] = True

    consumed = [False] * n
    new_edges: list[tuple[int, int]] = []
    new_w: list[float] = []
    new_wstar: list[float] = []
    new_level: list[int] = []
    expansion: list[tuple[int, ...]] = []

    def emit_chain(e0: int) -> None:
        chain = [e0]
        consumed[e0] = True
        at = network.heads[e0]
        while passthrough[at]:
            nxt = [f for f in network.out_edges(at) if not consumed[f] and network.heads[f] != network.tails[chain[-1]]]
            if len(network.out_edges(at)) == 1:
                nxt = [f for f in network.out_edges(at) if not consumed[f]]
            if not nxt:
                break
            f = min(nxt)
            chain.append(f)
            consumed[f] = True
            at = network.heads[f]
            if at == network.tails[chain[0]] and passthrough[at]:
                break
        new_edges.append((network.tails[chain[0]], at))
        new_w.append(sum(network.weight[e] for e in chain))
        new_wstar.append(sum(network.weight_updated[e] for e in chain))
        new_level.append(min(scope.level[e] for e in chain))
        expansion.append(tuple(chain))

    # Chains start at edges leaving a non-pass-through vertex; leftover edges
    # (pure pass-through cycles) start at the smallest unconsumed edge id.
    for e in range(n):
        if not consumed[e] and not passthrough[network.tails[e]]:
            emit_chain(e)
    for e in range(n):
        if not consumed[e]:
            emit_chain(e)

    used = sorted({u for edge in new_edges for u in edge})
    remap = {v: i for i, v in enumerate(used)}
    vertex_map = tuple(used)
    contracted = build_network(
        len(used),
        [(remap[u], remap[v]) for u, v in new_edges],
        new_w,
        new_wstar,
    )
    return ContractionResult(
        contracted,
        ScopeMapping(tuple(new_level), scope.nu, scope.labels),
        tuple(expansion),
        vertex_map,
    )
