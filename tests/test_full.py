import math
import random

import pytest

from scoperoute import (
    Decomposition,
    NetworkError,
    Walk,
    bidirectional_s_dijkstra,
    brute_force_full_optimum,
    build_network,
    make_scope,
    validate_full_detour,
    validate_split_admissible,
)
from scoperoute.search import s_dijkstra

from conftest import bypass_network, random_network

INF = math.inf


def random_walk(rng, net, max_hops=6):
    start = rng.randrange(net.vertex_count)
    at = start
    edges = []
    for _ in range(rng.randint(0, max_hops)):
        outs = net.out_edges(at)
        if not outs:
            break
        e = rng.choice(outs)
        edges.append(e)
        at = net.heads[e]
    return Walk(start, tuple(edges)), start, at


class TestValidateFullDetour:
    def test_plain_admissible_walk_empty_decomposition(self, n1, n1_scope15):
        closed = n1.with_updated_weights({3: INF})
        verdict = validate_full_detour(Walk(0, (0, 1, 2)), closed, n1_scope15, None, 0, 3)
        assert verdict.accepted
        assert verdict.witness.forward_anchors == (0,)
        assert verdict.witness.reverse_anchors == (3,)

    def test_closure_traversing_walk_rejected(self, permit_fixture):
        net, scope = permit_fixture
        verdict = validate_full_detour(Walk(0, (0, 1, 2)), net, scope, None, 0, 3)
        assert verdict.accepted is False

    def test_permit_walk_accepted_with_anchor(self, permit_fixture):
        net, scope = permit_fixture
        verdict = validate_full_detour(Walk(0, (0, 3, 2)), net, scope, None, 0, 3)
        assert verdict.accepted
        anchors = verdict.witness.forward_anchors + verdict.witness.reverse_anchors
        assert len(anchors) > 2

    def test_witness_reruns_against_direct_evaluation(self, permit_fixture):
        # The returned decomposition must justify every restricted edge by a
        # seeded witness search from one of its anchors, each run afresh.
        net, scope = permit_fixture
        cases = [(Walk(0, (0, 3, 2)), net, scope, 0, 3)]
        for seed in range(150):
            net, scope, s, t = bypass_network(random.Random(seed))
            walk, _cost = brute_force_full_optimum(net, scope, None, s, t)
            if walk is not None:
                cases.append((walk, net, scope, s, t))
        anchored = 0
        for walk, net, scope, s, t in cases:
            w = validate_full_detour(walk, net, scope, None, s, t).witness
            zero = (0.0,) * scope.level_count
            assert w.pi_forward[0] == zero and w.pi_reverse[0] == zero
            anchored += len(w.forward_anchors) + len(w.reverse_anchors) > 2
            vertices = walk.vertices(net)
            rnet = net.reverse()
            for m, e in enumerate(walk.edges):
                lv = scope.level[e]
                if lv >= scope.top:
                    continue
                ok = False
                for i, a in enumerate(w.forward_anchors):
                    if a > m or any(a <= x <= m for x in w.breakpoints):
                        continue
                    lbl = s_dijkstra(net, scope, vertices[a], "base", seed_sigma=w.pi_forward[i])
                    u = vertices[m]
                    if lbl.dist[u] < INF and lbl.sigma[u][lv] <= scope.nu[lv]:
                        ok = True
                for j, c in enumerate(w.reverse_anchors):
                    if c < m + 1 or any(m + 1 <= x <= c for x in w.breakpoints):
                        continue
                    lbl = s_dijkstra(rnet, scope, vertices[c], "base", seed_sigma=w.pi_reverse[j])
                    v = vertices[m + 1]
                    if lbl.dist[v] < INF and lbl.sigma[v][lv] <= scope.nu[lv]:
                        ok = True
                assert ok
        assert anchored > 10

    def test_walk_over_infinite_edge_rejected(self):
        # Edge 0 is closed by its weight but not named in the closure set;
        # the walk over it costs inf and the optimum goes round it.
        net = build_network(3, [(0, 1), (1, 2), (0, 2)], [1, 1, 5]).with_updated_weights({0: INF})
        scope = make_scope([1, 1, 1], [5, INF])
        assert validate_full_detour(Walk(0, (0, 1)), net, scope, frozenset(), 0, 2).accepted is False
        walk, cost = brute_force_full_optimum(net, scope, frozenset(), 0, 2)
        assert walk.edges == (2,) and cost == 5.0
        assert validate_full_detour(walk, net, scope, frozenset(), 0, 2).accepted

    def test_breakpoint_between_reverse_anchors(self):
        # Two closed unbounded roads, 2 = (2, 3) and 5 = (5, 6), each with a
        # level-0 bypass. The walk 0-7-3-4-5-2-6 is accepted with forward
        # anchors at positions 0 and 4 and reverse anchors at 6 and 2: the
        # forward anchor 4 sits between the reverse ones, and so does the
        # breakpoint 5 of its slot. The reverse chain from 6 to 2 therefore
        # probes position 2 with the most restrictive charge, not with the
        # draw of the seeded run from t; with that draw the chain (6, 2)
        # fails and the witness needs a third reverse anchor.
        edges = [
            (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 7),
            (7, 3), (3, 8), (8, 6), (0, 7), (2, 6), (5, 2),
        ]
        weights = [8, 5, 8, 2, 9, 4, 1, 3, 5, 1, 8, 4, 5]
        net = build_network(9, edges, weights).with_updated_weights({2: INF, 5: INF})
        scope = make_scope([2, 2, 2, 2, 2, 2, 0, 0, 0, 0, 2, 1, 0], [2, 4, INF])
        verdict = validate_full_detour(Walk(0, (10, 7, 3, 4, 12, 11)), net, scope, None, 0, 6)
        zero = (0.0, 0.0, 0.0)
        assert verdict.accepted
        assert verdict.witness == Decomposition((0, 4), (6, 2), (0, 5), (zero, zero), (zero, zero))

    def test_zero_closure_reduction(self):
        rng = random.Random(92)
        agree = 0
        for _ in range(150):
            net, scope = random_network(rng, max_vertices=6, max_edges=14)
            walk, s, t = random_walk(rng, net)
            full = validate_full_detour(walk, net, scope, frozenset(), s, t)
            split = validate_split_admissible(walk, net, scope, s, t)
            assert full.accepted == split
            agree += 1
        assert agree == 150


class TestBruteForceFullOptimum:
    def test_no_closures_matches_bidirectional(self, n1, n1_scope15):
        walk, cost = brute_force_full_optimum(n1, n1_scope15, frozenset(), 0, 3)
        res = bidirectional_s_dijkstra(n1, n1_scope15, 0, 3)
        assert cost == res.cost
        assert walk.cost(n1, "updated") == cost

    def test_permit_fixture_optimum(self, permit_fixture):
        net, scope = permit_fixture
        walk, cost = brute_force_full_optimum(net, scope, None, 0, 3)
        assert cost == 24.0
        assert walk.edges == (0, 3, 2)

    @pytest.mark.parametrize("ends, message", [
        ((-1, 3), "unknown source vertex -1"), ((4, 3), "unknown source vertex 4"),
        ((0, -1), "unknown target vertex -1"), ((0, 4), "unknown target vertex 4"),
    ])
    def test_unknown_endpoint_rejected(self, n1, n1_scope15, ends, message):
        with pytest.raises(NetworkError, match=message):
            brute_force_full_optimum(n1, n1_scope15, None, *ends)

    def test_unreachable(self):
        net = build_network(3, [(0, 1), (1, 2)], [1, 1]).with_updated_weights({1: INF})
        scope = make_scope([1, 1], [5, INF])
        walk, cost = brute_force_full_optimum(net, scope, None, 0, 2)
        assert walk is None and cost == INF

    def test_containment_experiment(self, capsys):
        # Walks accepted by the simple validator are usually accepted by the
        # full relation too; disagreements are findings, not failures.
        from scoperoute import build_detour_context, validate_simple_detour

        rng = random.Random(41)
        agree = checked = 0
        findings = []
        while checked < 40:
            net, scope = random_network(rng, max_vertices=6, max_edges=12)
            s = rng.randrange(net.vertex_count)
            t = rng.randrange(net.vertex_count)
            pool = list(range(net.edge_count))
            closures = frozenset(rng.sample(pool, rng.randint(1, 2)))
            closed = net.with_updated_weights({e: INF for e in closures})
            walk, s2, t2 = random_walk(rng, closed)
            if s2 != s or t2 != t or set(walk.edges) & closures:
                s, t = s2, t2
            if set(walk.edges) & closures:
                continue
            ctx = build_detour_context(closed, scope, closures, s, t)
            if not validate_simple_detour(walk, closed, scope, closures, s, t, ctx):
                continue
            checked += 1
            verdict = validate_full_detour(walk, closed, scope, closures, s, t)
            if verdict.accepted:
                agree += 1
            elif verdict.accepted is False:
                findings.append((walk, sorted(closures), s, t))
        print(f"\ncontainment experiment: {agree}/{checked} simple-accepted walks "
              f"also fully accepted; findings: {len(findings)}")
        assert checked == 40

    def test_secondary_closure_outcome_recorded(self):
        # A closure on the natural detour itself: the full relation may or
        # may not admit a deeper detour; we only require a sound verdict and
        # a validating witness when one is returned.
        edges = [
            (0, 1),  # s->a unbounded
            (1, 2),  # a->b unbounded CLOSED
            (2, 3),  # b->t unbounded
            (1, 4),  # a->x level0 (primary detour start)
            (4, 2),  # x->b level0 CLOSED (secondary closure)
            (4, 3),  # x->t level0 (detour on the detour)
        ]
        net = build_network(5, edges, [10, 10, 10, 4, 4, 9])
        net = net.with_updated_weights({1: INF, 4: INF})
        scope = make_scope([1, 1, 1, 0, 0, 0], [5, INF])
        walk, cost = brute_force_full_optimum(net, scope, None, 0, 3)
        if walk is not None:
            assert not {1, 4} & set(walk.edges)
            assert validate_full_detour(walk, net, scope, None, 0, 3).accepted
        else:
            assert cost == INF
