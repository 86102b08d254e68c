import math
import random
import time

import pytest

from scoperoute import (
    NetworkError,
    Walk,
    bidirectional_s_dijkstra,
    brute_force_optimal_admissible,
    build_network,
    dijkstra,
    is_saturated,
    make_scope,
    oracle_settled_labels,
    s_dijkstra,
    validate_s_admissible,
    validate_split_admissible,
)
from scoperoute.netio import generate_synthetic
from scoperoute.search import _edge_pack

from conftest import random_network

INF = math.inf


class TestDijkstra:
    def test_source_is_target(self, n1):
        res = dijkstra(n1, "base", 0, 0)
        assert res.dist[0] == 0.0
        assert res.walk_to(0) == Walk(0)

    def test_n1_shortest(self, n1):
        res = dijkstra(n1, "base", 0)
        assert res.dist == [0.0, 2.0, 12.0, 14.0]
        assert res.walk_to(3).edges == (0, 1, 2)

    def test_n1_closed_middle(self, n1):
        closed = n1.with_updated_weights({1: INF})
        res = dijkstra(closed, "updated", 0)
        assert res.dist[3] == 22.0
        assert res.walk_to(3).edges == (0, 3)

    def test_unknown_source(self, n1):
        with pytest.raises(NetworkError):
            dijkstra(n1, "base", 99)


class TestSDijkstra:
    def test_degenerate_scope_equals_dijkstra(self, n1):
        scope = make_scope([1, 1, 1, 1], [5, INF])
        assert s_dijkstra(n1, scope, 0).dist == dijkstra(n1, "base", 0).dist

    def test_n1_tight_budget(self, n1, n1_scope5):
        res = s_dijkstra(n1, n1_scope5, 0)
        # level-0 exit edge gated at b: draw 10 exceeds budget 5
        assert res.dist[3] == 22.0
        assert res.sigma[2] == (10.0, 0.0)

    def test_n1_loose_budget(self, n1, n1_scope15):
        res = s_dijkstra(n1, n1_scope15, 0)
        assert res.dist[3] == 14.0

    def test_scanned_once(self, n1, n1_scope5):
        res = s_dijkstra(n1, n1_scope5, 0)
        assert res.scanned_count <= n1.vertex_count


class TestBidirectional:
    def test_n1_split(self, n1, n1_scope5):
        res = bidirectional_s_dijkstra(n1, n1_scope5, 0, 3)
        assert res.cost == 14.0
        assert res.walk.edges == (0, 1, 2)
        # prefix is start-admissible, the last edge only target-admissible
        assert not validate_s_admissible(res.walk, n1, n1_scope5, 0)
        assert validate_split_admissible(res.walk, n1, n1_scope5, 0, 3)

    def test_source_is_target(self, n1, n1_scope5):
        res = bidirectional_s_dijkstra(n1, n1_scope5, 1, 1)
        assert res.cost == 0.0
        assert res.walk == Walk(1)

    def test_unreachable_mid_edge_beyond_both_budgets(self):
        # 3-edge line whose middle edge is level 0 while both halves carry
        # more unbounded weight than the budget allows.
        net = build_network(4, [(0, 1), (1, 2), (2, 3)], [10, 2, 10])
        scope = make_scope([1, 0, 1], [5, INF])
        res = bidirectional_s_dijkstra(net, scope, 0, 3)
        assert res.walk is None
        assert res.cost == INF

    def test_matches_split_minimum_of_unidirectional_runs(self):
        rng = random.Random(31)
        for _ in range(120):
            net, scope = random_network(rng)
            s = rng.randrange(net.vertex_count)
            t = rng.randrange(net.vertex_count)
            bid = bidirectional_s_dijkstra(net, scope, s, t)
            fwd = s_dijkstra(net, scope, s)
            bwd = s_dijkstra(net.reverse(), scope, t)
            expected = min(
                (fwd.dist[v] + bwd.dist[v] for v in range(net.vertex_count)), default=INF
            )
            assert bid.cost == expected
            if bid.walk is not None:
                assert bid.walk.cost(net) == bid.cost
                assert validate_split_admissible(bid.walk, net, scope, s, t)


class TestValidateAdmissible:
    def test_empty_walk(self, n1, n1_scope5):
        assert validate_s_admissible(Walk(0), n1, n1_scope5, 0)

    def test_n1_walk_budgets(self, n1, n1_scope5, n1_scope15):
        walk = Walk(0, (0, 1, 2))
        assert not validate_s_admissible(walk, n1, n1_scope5, 0)
        assert validate_s_admissible(walk, n1, n1_scope15, 0)

    def test_wrong_start(self, n1, n1_scope5):
        assert not validate_s_admissible(Walk(0, (0,)), n1, n1_scope5, 1)

    def test_invalid_walk_rejected(self, n1, n1_scope5):
        with pytest.raises(NetworkError):
            validate_s_admissible(Walk(0, (2,)), n1, n1_scope5, 0)


class TestOracle:
    def test_n1_agrees_with_searches(self, n1, n1_scope15, n1_scope5):
        cost, _ = brute_force_optimal_admissible(n1, n1_scope15, 0, 3, hop_bound=6)
        assert cost == 14.0
        uni, _ = brute_force_optimal_admissible(n1, n1_scope5, 0, 3, split=False)
        assert uni == s_dijkstra(n1, n1_scope5, 0).dist[3] == 22.0

    def test_unreachable(self):
        net = build_network(3, [(0, 1)], [1])
        scope = make_scope([1], [5, INF])
        cost, meeting = brute_force_optimal_admissible(net, scope, 0, 2)
        assert cost == INF and meeting is None

    def test_degenerate_scope_agrees_with_dijkstra(self):
        rng = random.Random(8)
        for _ in range(40):
            net, scope = random_network(rng, max_vertices=8)
            top_scope = make_scope([scope.top] * net.edge_count, scope.nu)
            s = rng.randrange(net.vertex_count)
            labels = oracle_settled_labels(net, top_scope, s)
            assert labels.dist == dijkstra(net, "base", s).dist


class TestSaturation:
    def test_zero_vector_not_saturated(self, n1_scope5):
        assert not is_saturated((0.0, 0.0), n1_scope5)

    def test_just_over_budget(self, n1_scope5):
        assert is_saturated((6.0, 0.0), n1_scope5)

    def test_n1_vertex_b(self, n1, n1_scope5):
        res = s_dijkstra(n1, n1_scope5, 0)
        assert is_saturated(res.sigma[2], n1_scope5)


class TestProperties:
    def test_monotone_budget(self):
        rng = random.Random(77)
        for _ in range(80):
            net, scope = random_network(rng, max_levels=2)
            s = rng.randrange(net.vertex_count)
            t = rng.randrange(net.vertex_count)
            lo = s_dijkstra(net, scope, s).dist[t]
            raised = make_scope(scope.level, (scope.nu[0] + 7,) + scope.nu[1:])
            hi = s_dijkstra(net, raised, s).dist[t]
            assert hi <= lo

    def test_runtime_scales_near_linearly_in_edges(self):
        # Coarse smoke check; generous slack keeps it stable on busy boxes.
        times = []
        for size in (16, 36, 50):
            nf = generate_synthetic("grid", size, 3, seed=5)
            start = time.perf_counter()
            for src in (0, nf.network.vertex_count // 2):
                s_dijkstra(nf.network, nf.scope, src)
            times.append((nf.network.edge_count, time.perf_counter() - start))
        (e0, t0), _, (e2, t2) = times
        assert t2 / t0 < 25 * (e2 / e0)


def test_edge_pack_follows_the_scope_levels(n1):
    # One network read under two scope mappings gets a pack for each level
    # tuple; an equal tuple that is another object reuses the cached pack.
    first = make_scope([0, 1, 0, 1], [5, INF])
    again = make_scope([0, 1, 0, 1], [5, INF])
    other = make_scope([1, 1, 0, 0], [5, INF])
    assert first.level is not again.level
    pack = _edge_pack(n1, first)
    assert _edge_pack(n1, again) is pack
    for scope in (other, first):
        levels = {e: lv for row in _edge_pack(n1, scope) for e, _head, lv in row}
        assert levels == dict(enumerate(scope.level))
