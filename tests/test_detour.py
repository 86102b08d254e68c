import gc
import math
import random
import weakref

import pytest

import scoperoute.detour
from scoperoute import (
    Walk,
    bidirectional_s_dijkstra,
    build_detour_context,
    build_network,
    derive_closures,
    enhanced_detour_route,
    find_obstructed,
    make_scope,
    qc_closure,
    simple_detour_route,
    validate_simple_detour,
)

from conftest import random_network

INF = math.inf


class TestDeriveClosures:
    def test_no_increase(self, n1):
        cs = derive_closures(n1)
        assert not cs.edges

    def test_single_hard(self, n1):
        cs = derive_closures(n1.with_updated_weights({1: INF}))
        assert cs.edges == frozenset({1})
        assert cs.hard == frozenset({1})

    def test_soft_and_hard(self, n1):
        cs = derive_closures(n1.with_updated_weights({1: INF, 3: 25}))
        assert cs.edges == frozenset({1, 3})
        assert cs.hard == frozenset({1})
        assert cs.kind == {1: "hard", 3: "soft"}


class TestFindObstructed:
    def test_no_closures_no_records(self, n1, n1_scope5):
        assert find_obstructed(n1, n1_scope5, frozenset(), 0, 3) == []

    def test_permit_fixture_records(self, permit_fixture):
        net, scope = permit_fixture
        records = {(r.vertex, r.side): r for r in find_obstructed(net, scope, None, 0, 3)}
        blocked_tail = records[(1, "t")]
        assert blocked_tail.state == (0.0, 0.0)
        assert blocked_tail.level == 0
        assert blocked_tail.closure_ref == 1
        blocked_head = records[(2, "s")]
        assert blocked_head.state == (0.0, 0.0)
        assert blocked_head.level == 0

    def test_far_obstruction_gets_no_permit(self):
        # Two unbounded edges of total weight 7 before the closure: the
        # obstruction state exceeds the budget at every finite level.
        net = build_network(
            5, [(0, 1), (1, 2), (2, 3), (3, 4)], [3, 4, 2, 2]
        ).with_updated_weights({2: INF})
        scope = make_scope([1, 1, 1, 1], [5, INF])
        records = [r for r in find_obstructed(net, scope, None, 0, 4) if r.vertex == 0]
        fort = [r for r in records if r.side == "t" and r.omega is None]
        assert fort and fort[0].state == (7.0, 0.0)
        assert fort[0].level == scope.top

    def test_n1e5_closure_tail_record(self, n1e5, n1e5_scope5):
        closed = n1e5.with_updated_weights({1: INF})
        records = find_obstructed(closed, n1e5_scope5, None, 0, 3)
        rec = [r for r in records if r.vertex == 1 and r.side == "t"]
        assert rec and rec[0].state == (0.0, 0.0) and rec[0].level == 0


class TestSimpleDetour:
    def test_closure_off_route_is_static(self, n1, n1_scope15):
        closed = n1.with_updated_weights({3: INF})
        res = simple_detour_route(closed, n1_scope15, 0, 3)
        assert res.klass == "static"
        assert res.cost_updated == 14.0
        assert res.walk.edges == (0, 1, 2)

    def test_static_early_exit_matches_bidirectional(self):
        rng = random.Random(13)
        checked = 0
        for _ in range(60):
            net, scope = random_network(rng, max_vertices=9)
            s = rng.randrange(net.vertex_count)
            t = rng.randrange(net.vertex_count)
            static = bidirectional_s_dijkstra(net, scope, s, t, "base")
            if static.walk is None:
                continue
            off_route = [e for e in range(net.edge_count) if e not in set(static.walk.edges)]
            if not off_route:
                continue
            closed = net.with_updated_weights({rng.choice(off_route): INF})
            res = simple_detour_route(closed, scope, s, t)
            if res.klass == "static" and res.static_cost_base == res.static_cost_updated:
                checked += 1
                assert res.walk.edges == static.walk.edges
                assert res.cost_updated == static.cost
        assert checked >= 20

    def test_permit_fixture_detour(self, permit_fixture):
        net, scope = permit_fixture
        res = simple_detour_route(net, scope, 0, 3)
        assert res.klass == "simple-detour"
        assert res.cost_updated == 24.0
        assert res.walk.edges == (0, 3, 2)
        assert res.permit_edges == (3,)
        assert res.static_cost_base == 30.0
        assert res.static_cost_updated == INF

    def test_n1e5_shortcut_already_static(self, n1e5, n1e5_scope5):
        # The level-0 shortcut keeps the static optimum open, so the closure
        # on the unbounded middle edge never forces a detour.
        closed = n1e5.with_updated_weights({1: INF})
        res = simple_detour_route(closed, n1e5_scope5, 0, 3)
        assert res.klass == "static"
        assert res.cost_updated == 8.0
        assert res.walk.edges == (0, 4, 2)

    def test_unreachable(self):
        net = build_network(3, [(0, 1), (1, 2)], [1, 1]).with_updated_weights({1: INF})
        scope = make_scope([1, 1], [5, INF])
        res = simple_detour_route(net, scope, 0, 2)
        assert res.klass == "unreachable"
        assert res.walk is None


class TestValidator:
    def test_plain_admissible_walk_accepted(self, n1, n1_scope15):
        closed = n1.with_updated_weights({3: INF})
        assert validate_simple_detour(Walk(0, (0, 1, 2)), closed, n1_scope15, None, 0, 3)

    def test_closure_edge_rejected(self, permit_fixture):
        net, scope = permit_fixture
        assert not validate_simple_detour(Walk(0, (0, 1, 2)), net, scope, None, 0, 3)

    def test_permit_walk_accepted(self, permit_fixture):
        net, scope = permit_fixture
        assert validate_simple_detour(Walk(0, (0, 3, 2)), net, scope, None, 0, 3)

    def test_without_closures_same_walk_accepted_plainly(self, n1e5, n1e5_scope5):
        # All edges on the shortcut walk are within budget, so the walk
        # stands on plain admissibility alone.
        walk = Walk(0, (0, 4, 2))
        assert validate_simple_detour(walk, n1e5, n1e5_scope5, frozenset(), 0, 3)

    def test_permit_expires_at_open_higher_level_departure(self):
        # s=0 -> a=1 (unbounded, closed beyond), bypass a->x->y->t on level 0;
        # an open unbounded edge leaving x ends the permitted stretch, so the
        # x->y edge needs its own justification and the walk is rejected.
        edges = [
            (0, 1),  # e0 s->a unbounded w10
            (1, 2),  # e1 a->b unbounded, closed
            (2, 5),  # e2 b->t unbounded
            (1, 3),  # e3 a->x level0 w4 (permitted from a)
            (3, 4),  # e4 x->y level0 w4 (beyond the expiry point)
            (4, 5),  # e5 y->t unbounded w10
            (3, 6),  # e6 x->z unbounded (open: expires the permit)
        ]
        weights = [10, 10, 10, 4, 4, 10, 1]
        levels = [1, 1, 1, 0, 0, 1, 1]
        net = build_network(7, edges, weights).with_updated_weights({1: INF})
        scope = make_scope(levels, [5, INF])
        walk = Walk(0, (0, 3, 4, 5))
        assert not validate_simple_detour(walk, net, scope, None, 0, 5)
        # Closing the expiring edge keeps the permit alive: only an open
        # higher-level departure ends the stretch.
        net2 = build_network(7, edges, weights).with_updated_weights({1: INF, 6: INF})
        assert validate_simple_detour(walk, net2, scope, None, 0, 5)

    def test_detour_results_validate(self):
        rng = random.Random(3)
        for _ in range(40):
            net, scope = random_network(rng, max_vertices=9)
            s = rng.randrange(net.vertex_count)
            t = rng.randrange(net.vertex_count)
            static = bidirectional_s_dijkstra(net, scope, s, t, "base")
            if static.walk is None or not static.walk.edges:
                continue
            closed_edges = set(rng.sample(static.walk.edges, 1))
            closed = net.with_updated_weights({e: INF for e in closed_edges})
            res = simple_detour_route(closed, scope, s, t)
            if res.walk is not None and res.klass == "simple-detour":
                assert not set(res.walk.edges) & closed_edges
                assert validate_simple_detour(res.walk, closed, scope, None, s, t)


class TestQcClosure:
    def test_empty_closures_fixed_point(self, n1, n1_scope5):
        qc = qc_closure(n1, n1_scope5, frozenset(), 0, 3)
        assert qc.edges == frozenset()
        assert qc.iterations == 1

    def test_dead_end_line(self):
        # s->x->y->t with the last edge closed and an open alternative x->t:
        # the segment into the dead end becomes quasi-closed in one round.
        net = build_network(4, [(0, 1), (1, 2), (2, 3), (1, 3)], [1, 1, 1, 5])
        net = net.with_updated_weights({2: INF})
        scope = make_scope([1, 1, 1, 1], [5, INF])
        qc = qc_closure(net, scope, None, 0, 3)
        assert qc.edges == frozenset({1, 2})
        assert qc.kind[1] == "quasi-t"
        assert qc.iterations == 2

    def test_open_alternative_no_additions(self):
        # Closing x->y leaves every remaining edge on some live route, so the
        # first round already is the fixed point.
        net = build_network(
            4, [(0, 1), (1, 2), (2, 3), (1, 3), (0, 2)], [1, 1, 1, 5, 2]
        ).with_updated_weights({1: INF})
        scope = make_scope([1, 1, 1, 1, 1], [5, INF])
        qc = qc_closure(net, scope, None, 0, 3)
        assert qc.edges == frozenset({1})
        assert qc.iterations == 1

    def test_closure_operator_laws(self):
        rng = random.Random(21)
        for _ in range(60):
            net, scope = random_network(rng, max_vertices=9)
            s = rng.randrange(net.vertex_count)
            t = rng.randrange(net.vertex_count)
            pool = list(range(net.edge_count))
            small = frozenset(rng.sample(pool, rng.randint(0, min(3, len(pool)))))
            big = small | frozenset(rng.sample(pool, rng.randint(0, min(3, len(pool)))))
            qc1 = qc_closure(net, scope, small, s, t)
            assert small <= qc1.edges
            assert qc_closure(net, scope, qc1, s, t).edges == qc1.edges
            assert qc1.edges <= qc_closure(net, scope, big, s, t).edges


    def test_single_pass_matches_fixed_point_loop(self):
        def reach(net, start, blocked, forward):
            seen = {start}
            stack = [start]
            while stack:
                v = stack.pop()
                for e in net.out_edges(v) if forward else net.in_edges(v):
                    u = net.heads[e] if forward else net.tails[e]
                    if e not in blocked and u not in seen:
                        seen.add(u)
                        stack.append(u)
            return seen

        def fixed_point(net, closed, s, t):
            closed = set(closed) | {e for e in range(net.edge_count) if net.weight_updated[e] == INF}
            rounds = 0
            while True:
                rounds += 1
                from_s = reach(net, s, closed, True)
                to_t = reach(net, t, closed, False)
                added = {
                    e for e in range(net.edge_count)
                    if e not in closed and (net.heads[e] not in to_t or net.tails[e] not in from_s)
                }
                if not added:
                    return closed, rounds
                closed |= added

        rng = random.Random(33)
        for _ in range(300):
            net, scope = random_network(rng, max_vertices=10)
            pool = list(range(net.edge_count))
            hard = rng.sample(pool, rng.randint(0, min(4, len(pool))))
            net = net.with_updated_weights({e: INF for e in hard})
            s, t = rng.randrange(net.vertex_count), rng.randrange(net.vertex_count)
            qc = qc_closure(net, scope, None, s, t)
            expected, rounds = fixed_point(net, hard, s, t)
            assert qc.edges == frozenset(expected)
            assert qc.iterations == rounds


class TestEnhancedDetour:
    def test_equal_fixed_point_matches_simple(self, permit_fixture):
        net, scope = permit_fixture
        simple = simple_detour_route(net, scope, 0, 3)
        enhanced = enhanced_detour_route(net, scope, 0, 3)
        assert enhanced.qc_added == 0
        assert enhanced.cost_updated == simple.cost_updated
        assert enhanced.walk.edges == simple.walk.edges

    def test_enhanced_succeeds_where_simple_dead_ends(self):
        # Proper two-level network: the main road a->b->c->t is closed at
        # b->c and the a->b segment dead-ends. The bypass a->m->w->t starts
        # on level-0 edges that are inadmissible from both endpoints, so only
        # the quasi-closure of a->b anchors a usable permit at a.
        edges = [
            (0, 1),  # 0: s->a unbounded
            (1, 2),  # 1: a->b unbounded (becomes quasi-closed)
            (2, 3),  # 2: b->c unbounded, CLOSED
            (3, 4),  # 3: c->t unbounded (quasi-closed for the start)
            (1, 5),  # 4: a->m level0 bypass
            (5, 6),  # 5: m->w level0 bypass
            (6, 4),  # 6: w->t unbounded rejoin
            (4, 0),  # 7: t->s unbounded return
        ]
        weights = [1, 1, 1, 1, 2, 2, 1, 9]
        levels = [1, 1, 1, 1, 0, 0, 1, 1]
        net = build_network(7, edges, weights).with_updated_weights({2: INF})
        scope = make_scope(levels, [0.5, INF])
        simple = simple_detour_route(net, scope, 0, 4)
        assert simple.klass == "unreachable"
        enhanced = enhanced_detour_route(net, scope, 0, 4)
        assert enhanced.klass == "enhanced-detour"
        assert enhanced.cost_updated == 6.0
        assert enhanced.walk.edges == (0, 4, 5, 6)
        assert enhanced.qc_iterations == 2
        assert enhanced.qc_added == 2
        assert set(enhanced.permit_edges) == {4, 5}
        qc = qc_closure(net, scope, None, 0, 4)
        assert validate_simple_detour(enhanced.walk, net, scope, qc, 0, 4)

    def test_results_never_cross_active_closures(self):
        rng = random.Random(17)
        for _ in range(40):
            net, scope = random_network(rng, max_vertices=9)
            s = rng.randrange(net.vertex_count)
            t = rng.randrange(net.vertex_count)
            pool = list(range(net.edge_count))
            closed_edges = set(rng.sample(pool, rng.randint(1, min(3, len(pool)))))
            closed = net.with_updated_weights({e: INF for e in closed_edges})
            res = enhanced_detour_route(closed, scope, s, t)
            if res.walk is not None and res.klass == "enhanced-detour":
                qc = qc_closure(closed, scope, None, s, t)
                assert not set(res.walk.edges) & qc.edges
                assert validate_simple_detour(res.walk, closed, scope, qc, s, t)


class TestSoftIncreases:
    def test_soft_increase_flows_through_costs(self, n1, n1_scope15):
        softened = n1.with_updated_weights({1: 14})
        res = simple_detour_route(softened, n1_scope15, 0, 3)
        # No hard closure: the walk via the raised edge now costs 18,
        # still better than the unbounded alternative at 22.
        assert res.klass in ("static", "simple-detour")
        assert res.cost_updated == 18.0

    def test_soft_increase_can_switch_route(self, n1, n1_scope15):
        softened = n1.with_updated_weights({1: 30})
        res = simple_detour_route(softened, n1_scope15, 0, 3)
        assert res.cost_updated == 22.0
        assert res.walk.edges == (0, 3)


def test_context_is_built_fresh_per_call(permit_fixture):
    # No context is kept on the network between calls; a rebuild agrees.
    net, scope = permit_fixture
    a = build_detour_context(net, scope, None, 0, 3)
    b = build_detour_context(net, scope, None, 0, 3)
    assert a is not b
    assert a.records == b.records
    assert (a.s_usable, a.t_usable) == (b.s_usable, b.t_usable)


@pytest.mark.parametrize("route", [simple_detour_route, enhanced_detour_route])
def test_static_exit_runs_only_the_record_searches(n1, n1_scope15, monkeypatch, route):
    # The early exit needs the two record runs; the gate runs and the rest
    # of the context are built only when the detour search follows.
    calls = []
    real = scoperoute.detour.s_dijkstra

    def counting(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(scoperoute.detour, "s_dijkstra", counting)
    res = route(n1.with_updated_weights({3: INF}), n1_scope15, 0, 3)
    assert res.klass == "static"
    assert calls == [0, 3]


def test_closed_copy_freed_by_reference_counting(permit_fixture):
    # No cycle holds a closed copy (its reversal does not point back), so
    # it goes as soon as it is dropped, without the cyclic collector.
    net, scope = permit_fixture
    closed = net.with_updated_weights({})
    alive = weakref.ref(closed)
    gc.disable()
    try:
        simple = simple_detour_route(closed, scope, 0, 3)
        enhanced = enhanced_detour_route(closed, scope, 0, 3)
        del closed
        assert alive() is None
    finally:
        gc.enable()
    assert (simple.klass, enhanced.klass) == ("simple-detour", "enhanced-detour")
