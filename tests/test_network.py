import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scoperoute.network
from scoperoute import (
    ClosureSet,
    NetworkError,
    RoadNetwork,
    ScopeMapping,
    Walk,
    balance_to_proper,
    bidirectional_s_dijkstra,
    build_network,
    contract_degree2_chains,
    derive_closures,
    dijkstra,
    generate_synthetic,
    is_proper,
    is_routing_connected,
    make_scope,
    qc_closure,
    s_draw,
)
from scoperoute.network import (
    _edge_pack,
    _pack,
    _scc_groups,
    _shortest_edge_path_between,
    scope_from_labels,
)

INF = math.inf


class TestBuildNetwork:
    def test_empty(self):
        net = build_network(0, [], [])
        assert net.vertex_count == 0
        assert net.edge_count == 0

    def test_n1_construction(self, n1):
        assert n1.edge_count == 4
        assert n1.edge(0) == (0, 1)
        assert n1.weight[3] == 20.0
        assert n1.weight_updated == n1.weight

    def test_parallel_edges_retained(self):
        net = build_network(3, [(1, 2), (1, 2)], [3, 7])
        assert net.edge_count == 2
        assert net.edge(0) == net.edge(1)
        assert net.weight[0] != net.weight[1]

    def test_negative_weight_rejected(self):
        with pytest.raises(NetworkError, match="edge 1"):
            build_network(2, [(0, 1), (1, 0)], [1, -2])

    def test_endpoint_out_of_range_rejected(self):
        with pytest.raises(NetworkError, match="out of range"):
            build_network(2, [(0, 5)], [1])

    def test_updated_weight_below_base_rejected(self, n1):
        with pytest.raises(NetworkError):
            n1.with_updated_weights({0: 1})

    # The checks run in bulk and name the first bad edge only once one
    # fails: every endpoint before any weight, and per edge NaN before
    # negative, in edge order.
    @pytest.mark.parametrize(
        "edges, weights, message",
        [
            pytest.param(
                [(0, 1)] * 5 + [(0, 9)] + [(1, 0)] * 2, [1, 1, -1, 1, 1, 1, 1, 1],
                r"^edge 5: endpoint out of range: \(0, 9\)$", id="endpoint-before-weight",
            ),
            pytest.param(
                [(0, 1)] * 3 + [(-1, 1), (0, 5)], [1] * 5,
                r"^edge 3: endpoint out of range: \(-1, 1\)$", id="first-of-two-endpoints",
            ),
            pytest.param(
                [(0, 1), (1, 0), (float("nan"), 1), (0, 1)], [1] * 4,
                r"^edge 2: endpoint out of range: \(nan, 1\)$", id="nan-endpoint",
            ),
            pytest.param(
                [(0, 1)] * 6, [1, 1, float("nan"), 1, -2, 1],
                r"^edge 2: weight is NaN$", id="nan-before-later-negative",
            ),
            pytest.param(
                [(0, 1)] * 6, [1, 1, -INF, 1, float("nan"), 1],
                r"^edge 2: negative weight -inf$", id="negative-before-later-nan",
            ),
            pytest.param(
                [(0, 1)] * 4, [1, 1, 1, -0.5], r"^edge 3: negative weight -0.5$", id="last-edge",
            ),
        ],
    )
    def test_first_bad_edge_named(self, edges, weights, message):
        with pytest.raises(NetworkError, match=message):
            build_network(2, edges, weights)

    def test_bad_arity_edge_after_good_ones_still_fails(self):
        with pytest.raises(ValueError):
            build_network(3, [(0, 1), (1, 2), (2, 0, 1)], [1, 1, 1])
        with pytest.raises(NetworkError, match="edge 0: endpoint"):
            build_network(3, [(0, 7), (2, 0, 1)], [1, 1])


class TestScopeChecks:
    def test_first_bad_level_named(self):
        with pytest.raises(NetworkError, match=r"^edge 3: level 5 out of range$"):
            ScopeMapping((0, 1, 0, 5, -1, 2), (5.0, INF), ("0", "inf"))
        with pytest.raises(NetworkError, match=r"^edge 2: level -1 out of range$"):
            make_scope([1, 0, -1, 0, 7], [5, 9, INF])

    def test_first_undeclared_label_named(self):
        labels = ["0", "inf", "0", "x", "inf", "y"]
        with pytest.raises(NetworkError, match=r"^edge uses undeclared level label 'x'$"):
            scope_from_labels(labels, {"0": 5.0, "inf": INF})


class TestReverse:
    def test_empty(self):
        assert build_network(0, [], []).reverse().edge_count == 0

    def test_n1_reversed_edges(self, n1):
        rev = n1.reverse()
        assert [rev.edge(e) for e in range(4)] == [(1, 0), (2, 1), (3, 2), (3, 1)]
        assert rev.weight == n1.weight

    def test_involution(self, n1):
        back = n1.reverse().reverse()
        assert back.tails == n1.tails
        assert back.heads == n1.heads
        assert back.weight == n1.weight


class TestSDraw:
    def test_empty_walk(self, n1, n1_scope5):
        assert s_draw(Walk(0), n1_scope5, n1) == (0.0, 0.0)

    def test_n1_main_walk(self, n1, n1_scope5):
        # Only the unbounded middle edge counts towards the level-0 draw.
        sigma = s_draw(Walk(0, (0, 1, 2)), n1_scope5, n1)
        assert sigma == (10.0, 0.0)

    def test_all_low_level_edges(self):
        net = build_network(4, [(0, 1), (1, 2), (2, 3)], [1, 2, 3])
        scope = make_scope([0, 0, 0], [4, INF])
        assert s_draw(Walk(0, (0, 1, 2)), scope, net) == (0.0, 0.0)

    def test_unknown_edge_rejected(self, n1, n1_scope5):
        with pytest.raises(NetworkError):
            s_draw(Walk(0, (9,)), n1_scope5, n1)

    def test_concatenation_additive(self, n1, n1_scope5):
        p = Walk(0, (0, 1))
        q = Walk(2, (2,))
        whole = s_draw(p.concat(q, n1), n1_scope5, n1)
        parts = tuple(
            a + b for a, b in zip(s_draw(p, n1_scope5, n1), s_draw(q, n1_scope5, n1))
        )
        assert whole == parts

    def test_monotone_in_level(self, n1e5, n1e5_scope5):
        sigma = s_draw(Walk(0, (0, 1, 2)), n1e5_scope5, n1e5)
        for a, b in zip(sigma, sigma[1:]):
            assert a >= b

    def test_reversal_preserves_draw(self, n1, n1_scope5):
        walk = Walk(0, (0, 1, 2))
        rev = n1.reverse()
        rev_walk = Walk(3, tuple(reversed(walk.edges)))
        assert s_draw(walk, n1_scope5, n1) == s_draw(rev_walk, n1_scope5, rev)


class TestRoutingConnected:
    def test_cycle(self):
        net = build_network(3, [(0, 1), (1, 2), (2, 0)], [1, 1, 1])
        assert is_routing_connected(net)

    def test_single_edge_no_return(self):
        assert not is_routing_connected(build_network(2, [(0, 1)], [1]))

    def test_n1_not_connected(self, n1):
        assert not is_routing_connected(n1)


class TestIsProper:
    def test_all_unbounded_on_cycle(self):
        net = build_network(3, [(0, 1), (1, 2), (2, 0)], [1, 1, 1])
        scope = make_scope([1, 1, 1], [5, INF])
        assert is_proper(net, scope)

    def test_two_unreachable_unbounded_cycles(self):
        # Two 2-cycles at the top level joined by level-0 links in both
        # directions: the whole graph is routing-connected but the top
        # subgraph splits.
        edges = [(0, 1), (1, 0), (2, 3), (3, 2), (1, 2), (3, 0)]
        net = build_network(4, edges, [1] * 6)
        scope = make_scope([1, 1, 1, 1, 0, 0], [9, INF])
        assert is_routing_connected(net)
        assert not is_proper(net, scope)

    def test_empty_unbounded_level_fails(self):
        net = build_network(3, [(0, 1), (1, 2), (2, 0)], [1, 1, 1])
        scope = make_scope([0, 0, 0], [5, INF])
        assert not is_proper(net, scope)


class TestBalanceToProper:
    def test_already_proper_unchanged(self):
        net = build_network(3, [(0, 1), (1, 2), (2, 0)], [1, 1, 1])
        scope = make_scope([1, 1, 1], [5, INF])
        assert balance_to_proper(net, scope) == scope

    def test_joining_edges_promoted(self):
        edges = [(0, 1), (1, 0), (2, 3), (3, 2), (1, 2), (3, 0)]
        net = build_network(4, edges, [1] * 6)
        scope = make_scope([1, 1, 1, 1, 0, 0], [9, INF])
        balanced = balance_to_proper(net, scope)
        assert is_proper(net, balanced)
        assert balanced.level[4] == 1 and balanced.level[5] == 1

    def test_never_lowers_levels_and_deterministic(self):
        rng = random.Random(4)
        for _ in range(30):
            n = rng.randint(3, 8)
            order = list(range(n))
            rng.shuffle(order)
            edges = [(order[i], order[(i + 1) % n]) for i in range(n)]
            edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, n))]
            net = build_network(n, edges, [rng.randint(1, 9) for _ in edges])
            scope = make_scope([rng.randrange(3) for _ in edges], [3, 11, INF])
            balanced = balance_to_proper(net, scope)
            assert is_proper(net, balanced)
            assert all(b >= a for a, b in zip(scope.level, balanced.level))
            assert balanced == balance_to_proper(net, scope)

    def test_not_routing_connected_rejected(self, n1, n1_scope5):
        with pytest.raises(NetworkError):
            balance_to_proper(n1, n1_scope5)


def _reference_connected(net, edge_ids) -> bool:
    """Routing-connectivity of an edge subgraph by its strongly connected
    components (Tarjan), apart from the reach passes it checks."""
    return len(_scc_groups(net, edge_ids)) <= 1


def _reference_is_proper(net, scope) -> bool:
    m = net.edge_count
    if not _reference_connected(net, range(m)):
        return False
    if m and scope.top not in set(scope.level):
        return False
    return all(
        _reference_connected(net, [e for e in range(m) if scope.level[e] >= lv])
        for lv in set(scope.level)
    )


def _reference_balance(net, scope):
    """``balance_to_proper`` with every subgraph tested by its components."""
    if not _reference_connected(net, range(net.edge_count)):
        raise NetworkError("network is not routing-connected; no proper scope mapping exists")
    if net.edge_count == 0:
        return scope
    level = list(scope.level)
    if scope.top not in set(level):
        cycle = _shortest_edge_path_between(net, [net.heads[0]], [net.tails[0]]) or []
        for e in [0] + cycle:
            level[e] = scope.top
    for lv in range(scope.top, 0, -1):
        if lv not in set(level):
            continue
        guard = 0
        while True:
            groups = _scc_groups(net, [e for e in range(net.edge_count) if level[e] >= lv])
            if len(groups) <= 1:
                break
            guard += 1
            if guard > net.vertex_count + 2:
                raise NetworkError("cannot balance scope mapping to proper")
            groups.sort(key=min)
            promoted = False
            for a, b in zip(groups, groups[1:] + groups[:1]):
                for e in _shortest_edge_path_between(net, a, b) or ():
                    if level[e] < lv:
                        level[e] = lv
                        promoted = True
            if not promoted:
                raise NetworkError("cannot balance scope mapping to proper")
    return make_scope(level, scope.nu, scope.labels)


def _balanced_or_error(balance, net, scope):
    try:
        return balance(net, scope)
    except NetworkError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(
    st.integers(1, 7).flatmap(
        lambda n: st.tuples(
            st.just(n),
            # Self-loops, parallel edges, vertices no edge touches and
            # infinite weights all occur.
            st.lists(
                st.tuples(
                    st.integers(0, n - 1), st.integers(0, n - 1),
                    st.sampled_from([1, 2, INF]), st.integers(0, 2),
                ),
                max_size=14,
            ),
        )
    )
)
def test_connectivity_proof_agrees_with_components_property(data):
    # is_routing_connected, is_proper and balance_to_proper prove
    # connectivity with reach passes; they agree with the components.
    n, edges = data
    net = build_network(n, [(u, v) for u, v, _, _ in edges], [w for _, _, w, _ in edges])
    scope = make_scope([lv for *_, lv in edges], [3, 11, INF])
    assert is_routing_connected(net) == _reference_connected(net, range(net.edge_count))
    assert is_proper(net, scope) == _reference_is_proper(net, scope)
    balanced = _balanced_or_error(balance_to_proper, net, scope)
    assert balanced == _balanced_or_error(_reference_balance, net, scope)
    if not isinstance(balanced, str):
        assert is_proper(net, balanced) and _reference_is_proper(net, balanced)


@pytest.mark.parametrize(
    "kind, size, levels, options",
    [
        pytest.param("grid", 6, 3, {}, id="grid"),
        pytest.param("grid", 7, 4, {"oneway": True}, id="grid-oneway"),
        pytest.param("grid", 5, 3, {"subdivisions": 2}, id="grid-subdivisions"),
        pytest.param("random", 25, 3, {}, id="random"),
        pytest.param("random", 40, 4, {}, id="random-four-levels"),
    ],
)
def test_balance_gives_the_reference_scopes_on_synthetic_networks(kind, size, levels, options):
    for seed in range(40):
        nf = generate_synthetic(kind, size, levels, seed, **options)
        balanced = balance_to_proper(nf.network, nf.scope)
        assert balanced == _reference_balance(nf.network, nf.scope), seed
        assert _reference_is_proper(nf.network, balanced)


@pytest.mark.parametrize(
    "kind, size, options",
    [("grid", 6, {}), ("grid", 7, {"oneway": True}), ("grid", 5, {"subdivisions": 2}), ("random", 25, {})],
)
def test_generated_networks_list_each_row_in_edge_id_order(kind, size, options):
    # _shortest_edge_path_between follows each out-edge row as it stands, so
    # it visits a vertex's edges in id order, as its walks assume, only if
    # every row lists them in increasing id order: build_network appends
    # them in that order, and a reversal, a weight variant and a
    # contraction share or build their rows the same way.
    def increasing(rows):
        return all(a < b for row in rows for a, b in zip(row, row[1:]))

    for seed in range(10):
        nf = generate_synthetic(kind, size, 3, seed, **options)
        closed = nf.network.with_updated_weights({0: INF})
        contracted = contract_degree2_chains(nf.network, nf.scope).network
        for net in (nf.network, closed, closed.reverse(), contracted, contracted.reverse()):
            assert increasing(net._out) and increasing(net._in), seed


class TestContraction:
    def test_path_contracts_to_single_edge(self):
        net = build_network(4, [(0, 1), (1, 2), (2, 3)], [1, 2, 3])
        scope = make_scope([1, 1, 1], [5, INF])
        result = contract_degree2_chains(net, scope)
        assert result.network.edge_count == 1
        assert result.network.weight[0] == 6.0
        expanded = result.expand_walk(Walk(0, (0,)))
        assert expanded.edges == (0, 1, 2)

    def test_no_chain_unchanged(self):
        # Two-way K4: every vertex has three neighbours, nothing contracts.
        pairs = [(a, b) for a in range(4) for b in range(4) if a != b]
        net = build_network(4, pairs, [1] * len(pairs))
        scope = make_scope([0] * len(pairs), [5, INF])
        result = contract_degree2_chains(net, scope)
        assert result.network.edge_count == len(pairs)

    def test_mixed_levels_take_minimum(self):
        net = build_network(4, [(0, 1), (1, 2), (2, 3)], [1, 2, 3])
        scope = make_scope([1, 0, 1], [5, INF])
        result = contract_degree2_chains(net, scope)
        assert result.scope.level == (0,)

    def test_two_way_pair_contracts(self):
        edges = [(0, 1), (1, 0), (1, 2), (2, 1)]
        net = build_network(3, edges, [2, 2, 3, 3])
        scope = make_scope([0, 0, 0, 0], [5, INF])
        result = contract_degree2_chains(net, scope)
        assert result.network.edge_count == 2
        assert sorted(result.network.weight) == [5.0, 5.0]

    def test_preserves_shortest_distances(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randint(4, 30)
            edges = []
            # chain-heavy construction: a long path plus random chords
            for i in range(n - 1):
                edges.append((i, i + 1))
            for _ in range(rng.randint(1, 6)):
                edges.append((rng.randrange(n), rng.randrange(n)))
            edges = [e for e in edges if e[0] != e[1]][: min(len(edges), 200)]
            weights = [rng.randint(1, 9) for _ in edges]
            net = build_network(n, edges, weights)
            scope = make_scope([rng.randrange(2) for _ in edges], [7, INF])
            result = contract_degree2_chains(net, scope)
            kept = result.vertex_map
            for u_new, u_old in enumerate(kept):
                before = dijkstra(net, "base", u_old)
                after = dijkstra(result.network, "base", u_new)
                for v_new, v_old in enumerate(kept):
                    assert after.dist[v_new] == before.dist[v_old]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 9)),
                min_size=1,
                max_size=12,
            ),
        )
    )
)
def test_reverse_involution_property(data):
    n, triples = data
    net = build_network(n, [(u, v) for u, v, _ in triples], [w for _, _, w in triples])
    back = net.reverse().reverse()
    assert back.tails == net.tails and back.heads == net.heads
    assert back.weight == net.weight and back.weight_updated == net.weight_updated


def _full_pass_closures(net):
    """The raised edges, the hard ones and their tags, read off every weight."""
    raised = {e for e in range(net.edge_count) if net.weight_updated[e] > net.weight[e]}
    hard = {e for e in raised if net.weight_updated[e] == INF}
    return raised, hard, {e: "hard" if e in hard else "soft" for e in raised}


def _closures(net):
    cs = derive_closures(net)
    return set(cs.edges), set(cs.hard), cs.kind


_RAISES = st.sampled_from([0, 0, 0.5, 3, INF])


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from([0, 1, 2.5, 7, INF])),
            min_size=1,
            max_size=8,
        ).flatmap(
            lambda edges: st.tuples(
                st.just(n),
                st.just(edges),
                st.lists(
                    st.tuples(
                        st.dictionaries(st.integers(0, len(edges) - 1), _RAISES, max_size=len(edges)),
                        st.booleans(),
                    ),
                    max_size=5,
                ),
            )
        )
    )
)
def test_raised_edges_recorded_as_the_weights_are_written(data):
    # Each network keeps the edges above their base weight as its weights
    # are written, so derive_closures reads only those; it gives what a
    # pass over all the weights gives: after chained updates, raises and
    # updates back down to the base weight among them, through reversals,
    # from build_network's updated weights, and for a network built
    # directly. The list is left out of equality and repr.
    n, edges, steps = data
    base = [w for _, _, w in edges]
    net = build_network(n, [(u, v) for u, v, _ in edges], base)
    assert _closures(net) == _full_pass_closures(net) == (set(), set(), {})
    for raises, reverse in steps:
        net = net.with_updated_weights({e: base[e] + r for e, r in raises.items()})
        if reverse:
            net = net.reverse()
        assert _closures(net) == _full_pass_closures(net)
    pairs = [(net.tails[e], net.heads[e]) for e in range(net.edge_count)]
    built = build_network(n, pairs, net.weight, net.weight_updated)
    direct = RoadNetwork(
        n, net.tails, net.heads, net.weight, net.weight_updated, net._out, net._in
    )
    for copy in (built, direct, direct.reverse()):
        assert _closures(copy) == _full_pass_closures(net)
    assert built == direct == net and repr(built) == repr(net)
    assert "_raised" not in repr(net)
    assert net.reverse()._raised is net._raised  # passed on, not found again



def _reference_qc_closure(net, s, t):
    """The quasi-closure of no closures from ``s`` to ``t`` read off two
    ``dijkstra`` runs on the base weights, apart from the reach passes and
    the strong-connectivity proof it checks."""
    reaches_t = dijkstra(net.reverse(), "base", t).dist
    from_s = dijkstra(net, "base", s).dist
    kind = {}
    for e in range(net.edge_count):
        if net.weight[e] == INF:
            continue
        if reaches_t[net.heads[e]] == INF:
            kind[e] = "quasi-t"
        elif from_s[net.tails[e]] == INF:
            kind[e] = "quasi-s"
    return ClosureSet(frozenset(kind), frozenset(), kind, 2 if kind else 1)


_NOT_STRONG = {
    # vertex count, edges, base weights, levels
    "empty": (0, [], [], []),
    "one-vertex": (1, [], [], []),
    "isolated-vertex": (3, [(0, 1), (1, 0)], [1, 1], [1, 1]),
    "infinite-needed-edge": (3, [(0, 1), (1, 2), (2, 0)], [1, 1, INF], [0, 1, 0]),
}


@pytest.mark.parametrize("first", ["balance", "qc"])
@pytest.mark.parametrize("case", sorted(_NOT_STRONG))
def test_strong_connectivity_first_then_routing_connectivity(case, first):
    # balance_to_proper first tries strong connectivity over the edges of
    # finite base weight and caches the answer for qc_closure. Where there
    # are no vertices, or the network is routing-connected but not strongly
    # connected, the results stay those of the references, in either order.
    n, edges, weights, levels = _NOT_STRONG[case]
    net = build_network(n, edges, weights)
    scope = make_scope(levels, [3, INF])
    queries = [(s, t) for s in range(n) for t in range(n)]
    if first == "qc":
        found = [qc_closure(net, scope, None, s, t) for s, t in queries]
    balanced = balance_to_proper(net, scope)
    if first == "balance":
        found = [qc_closure(net, scope, None, s, t) for s, t in queries]
    assert balanced == _reference_balance(net, scope)
    assert (balanced is scope) == (case != "infinite-needed-edge")
    assert is_proper(net, scope) == _reference_is_proper(net, scope)
    assert is_proper(net, balanced) and _reference_is_proper(net, balanced)
    assert net._aux["strongly connected"] == (n < 2)
    assert found == [_reference_qc_closure(net, s, t) for s, t in queries]
    assert any(closure.edges for closure in found) == (n > 1)
    with pytest.raises(NetworkError, match="^unknown source vertex 3$"):
        qc_closure(net, scope, None, 3, 0)


def test_promoting_balance_leaves_its_packs_for_the_searches(monkeypatch):
    # A mapping that balance_to_proper must promote gets its two edge packs
    # built once, in balance, and cached under the returned level tuple with
    # the promoted edges' rows rebuilt: the first search builds none, and
    # the cached packs are those a fresh build gives.
    built = []

    def counting(network, level):
        built.append(level)
        return _pack(network, level)

    monkeypatch.setattr(scoperoute.network, "_pack", counting)
    nf = generate_synthetic("grid", 50, 3, 42, oneway=True)
    net = nf.network
    balanced = balance_to_proper(net, nf.scope)
    assert balanced != nf.scope and len(built) == 2
    del built[:]
    bidirectional_s_dijkstra(net, balanced, 0, net.vertex_count - 1)
    assert built == []
    for graph in (net, net.reverse()):
        assert _edge_pack(graph, balanced) == _pack(graph, balanced.level)
