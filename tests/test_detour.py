import gc
import math
import operator
import random
import sys
import weakref

import pytest

import scoperoute.detour
import scoperoute.network
import scoperoute.search
from scoperoute import (
    NetworkError,
    RoadNetwork,
    Walk,
    balance_to_proper,
    bidirectional_s_dijkstra,
    build_detour_context,
    build_network,
    derive_closures,
    dijkstra,
    enhanced_detour_route,
    find_obstructed,
    generate_synthetic,
    make_scope,
    place_random_closures,
    qc_closure,
    s_dijkstra,
    simple_detour_route,
    validate_full_detour,
    validate_simple_detour,
    validate_split_admissible,
)

from scoperoute.network import add_draw, zero_vector
from conftest import bypass_network, full_split_minimum, random_network

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

    def test_nested_crossing_amends_from_the_outer_closure(self):
        # The forward record run crosses closure 1 = (1, 2), then closure
        # 3 = (3, 4); the backward run reaches 4 and 5 only, below the inner
        # crossing. The outer crossing's subtree still meets it, so the
        # chain before closure 1 gets amended "t" records measured from 1,
        # whose draw from 0 or 1 is smaller than the one from 3.
        net = build_network(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], [2, 10, 2, 1, 10])
        scope = make_scope([1, 0, 1, 0, 1], [5, INF])
        closed = net.with_updated_weights({1: INF, 3: INF})
        records = find_obstructed(closed, scope, None, 0, 5)
        assert [
            (r.vertex, r.level, r.state, r.closure_ref, r.omega)
            for r in records if r.side == "t" and r.vertex < 2
        ] == [(0, 0, (2.0, 0.0), 1, (0.0, 0.0)), (1, 0, (0.0, 0.0), 1, (2.0, 0.0))]

    def test_draw_equal_to_the_budget_is_within_it(self):
        # The permit fixture with its last road at weight 5: the forward
        # record run crosses the closure into b, and t's draw from b is 5
        # at level 0, exactly the level-0 budget. A budget bounds the draw
        # inclusively, so t's record is at level 0 and grants its bit.
        net = build_network(4, [(0, 1), (1, 2), (2, 3), (1, 2)], [10, 10, 5, 4])
        closed = net.with_updated_weights({1: INF})
        scope = make_scope([1, 1, 1, 0], [5, INF])
        records = {(r.vertex, r.side): r for r in find_obstructed(closed, scope, None, 0, 3)}
        assert (records[(3, "s")].state, records[(3, "s")].level) == ((5.0, 0.0), 0)
        assert build_detour_context(closed, scope, None, 0, 3).backward.grant == [0, 0, 1, 1]

    def test_n1e5_closure_tail_record(self, n1e5, n1e5_scope5):
        closed = n1e5.with_updated_weights({1: INF})
        records = find_obstructed(closed, n1e5_scope5, None, 0, 3)
        rec = [r for r in records if r.vertex == 1 and r.side == "t"]
        assert rec and rec[0].state == (0.0, 0.0) and rec[0].level == 0


def _closed_random_case(seed: int, fractional: bool = False):
    """A small random network with hard and soft closures, and a query on it;
    ``fractional`` draws its weights and raises as fractions, zeros among them."""
    rng = random.Random(seed)
    net, scope = random_network(rng)
    if fractional:
        weights = [rng.choice([0.0, 0.1, 0.3, 1 / 3, 0.7, 2.5, w / 7]) for w in net.weight]
        net = build_network(net.vertex_count, [net.edge(e) for e in range(net.edge_count)], weights)
    def raised() -> float:
        return rng.choice([0.1, 0.2, 1 / 3, 4.5]) if fractional else rng.randint(1, 15)

    updates = {
        e: INF if rng.random() < 0.7 else net.weight[e] + raised()
        for e in rng.sample(range(net.edge_count), rng.randint(1, net.edge_count // 4 + 1))
    }
    closed = net.with_updated_weights(updates)
    return closed, scope, rng.randrange(net.vertex_count), rng.randrange(net.vertex_count)


def _tight_detour_case(seed: int):
    """A random two-way network with budgets below 6, one edge of the
    static optimum and three random edges closed, and the query; ``None``
    when no static walk leaves the start. Its failed exits often need a
    permit, on gate runs that stop short of draining."""
    rng = random.Random(seed)
    n = rng.randint(8, 40)
    edges = []
    for v in range(n):
        for _ in range(2):
            u = rng.randrange(n)
            edges += [(v, u), (u, v)]
    net = build_network(n, edges, [rng.randint(1, 9) for _ in edges])
    scope = make_scope([rng.randrange(3) for _ in edges], sorted(rng.sample(range(1, 6), 2)) + [INF])
    s, t = rng.randrange(n), rng.randrange(n)
    walk = bidirectional_s_dijkstra(net, scope, s, t).walk
    if walk is None or not walk.edges:
        return None
    closures = rng.sample(walk.edges, 1) + rng.sample(range(len(edges)), 3)
    return net.with_updated_weights({e: INF for e in closures}), scope, s, t


def _assert_context_masks(closed, scope, s, t):
    ctx = build_detour_context(closed, scope, None, s, t)
    n = closed.vertex_count
    # The grant masks are the finite-level records' bits, per side.
    ored = {"t": [0] * n, "s": [0] * n}
    for r in ctx.records:
        ored[r.side][r.vertex] |= 1 << r.level
    assert (ctx.forward.grant, ctx.backward.grant) == (ored["t"], ored["s"])
    # The usable flag read off the gate run at an edge's near end matches the
    # gate label of an own run on the open weighting.
    hard = derive_closures(closed).hard
    weights = [INF if e in hard else w for e, w in enumerate(closed.weight_updated)]
    sides = ((ctx.forward, closed, s, closed.tails), (ctx.backward, closed.reverse(), t, closed.heads))
    for direction, network, endpoint, near in sides:
        run = s_dijkstra(network, scope, endpoint, weights)
        for e in range(closed.edge_count):
            lv, x = scope.level[e], near[e]
            expected = weights[e] != INF and run.dist[x] < INF and run.sigma[x][lv] <= scope.nu[lv]
            usable = scoperoute.search._usable(direction.gate, scope.nu, x, lv)
            assert (weights[e] != INF and usable) == expected


class TestContextMasks:
    def test_random_networks_with_hard_and_soft_closures(self):
        for seed in range(3000):
            _assert_context_masks(*_closed_random_case(seed))

    def test_fixture_queries(self, n1, n1_scope5, n1_scope15, n1e5, n1e5_scope5, permit_fixture):
        cases = [(*permit_fixture, 0, 3), (*permit_fixture, 3, 0)]
        for net, scope in ((n1, n1_scope5), (n1, n1_scope15), (n1e5, n1e5_scope5)):
            for update in ({}, {1: INF}, {3: INF}, {1: 25}, {1: INF, 3: 25}):
                closed = net.with_updated_weights(update)
                cases += [(closed, scope, s, t) for s in range(4) for t in range(4)]
        for case in cases:
            _assert_context_masks(*case)


def _record_cases(seeds: int):
    """Each record of the random closed cases, with the record run that
    offered it, that run's network and the record weighting."""
    for seed in range(seeds):
        for closed, scope, s, t in (_closed_random_case(seed), _closed_random_case(seed, True)):
            ctx = build_detour_context(closed, scope, None, s, t)
            base = closed.weight
            weights = [base[e] if e in ctx.active else w for e, w in enumerate(closed.weight_updated)]
            fwd, bwd = ctx.record_runs
            for r in scoperoute.detour._records_from_runs(scope, ctx.active, fwd, bwd):
                # Plain "s" and amended "t" records come from the forward run.
                if (r.side == "s") == (r.omega is None):
                    yield seed, scope, weights, fwd, closed, r
                else:
                    yield seed, scope, weights, bwd, closed.reverse(), r


def _tree_path(run, network, upper: int, lower: int) -> tuple[int, ...]:
    """The edges of the run's tree walk from ``upper`` down to ``lower``."""
    walk = run.walk_to(lower)
    return walk.edges[walk.vertices(network).index(upper):]


def _path_draw(scope, weights, edges) -> tuple[float, ...]:
    """The draw of ``edges``, summed edge by edge in the order given."""
    sigma = zero_vector(scope)
    for e in edges:
        sigma = add_draw(sigma, scope.level[e], weights[e])
    return sigma


def test_plain_record_states_are_tree_walk_draws():
    # A plain record's state is the draw of the record run's tree walk from
    # its anchor, the head of its closure edge in the run's network, down to
    # its vertex, summed edge by edge and compared exactly.
    nonzero = 0
    for seed, scope, weights, run, network, r in _record_cases(1000):
        if r.omega is not None:  # amended
            continue
        anchor = network.heads[r.closure_ref]
        if r.vertex == anchor:  # also a closure end the run does not reach
            assert not any(r.state)
            continue
        state = _path_draw(scope, weights, _tree_path(run, network, anchor, r.vertex))
        assert r.state == state, (seed, r)
        nonzero += any(state)
    assert nonzero > 500


def test_amended_record_states_are_tree_walk_draws():
    # An amended record's state is the draw of the record run's tree walk
    # from its vertex down to the tail of its closure edge in the run's
    # network, summed edge by edge from that tail back up, and compared
    # exactly; its omega is the vertex's settled draw in that run.
    nonzero = amended = 0
    for seed, scope, weights, run, network, r in _record_cases(3000):
        if r.omega is None:
            continue
        path = _tree_path(run, network, r.vertex, network.tails[r.closure_ref])
        state = _path_draw(scope, weights, reversed(path))
        assert r.state == state, (seed, r)
        assert r.omega == run.sigma[r.vertex], (seed, r)
        amended += 1
        nonzero += any(state)
    assert amended > 1000 and nonzero > 600, (amended, nonzero)


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
        # Each half takes the bypass on a permit once: forwards from a,
        # backwards from b.
        assert res.permits_issued == 2
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


def test_permit_edges_follow_the_gates():
    # An edge of a returned detour whose level passes the gate at its tail
    # (forward) and at its head (backward) is plain whichever half takes
    # it; one that passes neither needs a permit whichever half takes it.
    # Gates are read off a fresh context with the route's closure set.
    usable = scoperoute.search._usable
    plain = licensed = 0
    for seed in range(3000):
        for closed, scope, s, t in (_closed_random_case(seed), _closed_random_case(seed, True)):
            for route in (simple_detour_route, enhanced_detour_route):
                res = route(closed, scope, s, t)
                if res.walk is None or res.klass == "static":
                    continue
                closures = qc_closure(closed, scope, None, s, t) if route is enhanced_detour_route else None
                ctx = build_detour_context(closed, scope, closures, s, t)
                for e in res.walk.edges:
                    lv = scope.level[e]
                    forward = usable(ctx.forward.gate, scope.nu, closed.tails[e], lv)
                    backward = usable(ctx.backward.gate, scope.nu, closed.heads[e], lv)
                    if forward and backward:
                        assert e not in res.permit_edges, (seed, route.__name__, e)
                        plain += 1
                    elif not (forward or backward):
                        assert e in res.permit_edges, (seed, route.__name__, e)
                        licensed += 1
    assert plain >= 1000 and licensed >= 5, (plain, licensed)


def test_state_search_licenses_exactly_where_the_gate_fails():
    # Every edge a half of the permit-state search keeps in a label takes a
    # permit exactly when _usable fails at its tail, read off that half's
    # gate run. An unreached tail's draw passes the top level, so a search
    # that skipped the reach check would take top-level edges plainly there.
    checked = 0
    for seed in range(3000):
        for closed, scope, s, t in (_closed_random_case(seed), _closed_random_case(seed, True)):
            ctx = build_detour_context(closed, scope, None, s, t)
            vshift = 2 * max(scope.top, 1)
            for half in scoperoute.detour._state_search_halves(ctx)[:2]:
                for _cost, _perms, parent, e, licensed in half.label.values():
                    if parent is None:
                        continue
                    tail, lv = parent >> vshift, scope.level[e]
                    usable = scoperoute.search._usable(half.own.gate, scope.nu, tail, lv)
                    assert licensed == (not usable), (seed, s, t, e)
                    checked += 1
    assert checked > 10000, checked


@pytest.mark.parametrize("table", [True, False], ids=["table", "no-table"])
def test_lazy_gate_bits_are_the_drained_runs(monkeypatch, request, table):
    # With positive integer open weights, with the landmark table or
    # without it, the routes step each gate run only as far as its half of
    # the state search reads it. At every vertex a half settles, the gate
    # bits read off that run equal _usable on a drained run over the open
    # weighting. Fractional seeds (zeros among the weights) keep drained
    # gate runs. The routes answer most integer failed exits without the
    # state search (a certificate, or no open walk at all), so each failed
    # exit also runs the permit path on fresh lazy gate runs, as a route
    # does after a failed certificate.
    if table:
        request.getfixturevalue("landmarks_at_once")
    usable = scoperoute.search._usable
    real = scoperoute.detour._state_search_halves
    searched = []

    def keeping(ctx):
        fwd, bwd, meeting = real(ctx)
        searched.append((ctx, fwd, bwd))
        return fwd, bwd, meeting

    monkeypatch.setattr(scoperoute.detour, "_state_search_halves", keeping)
    runs = {(fractional, lazy): 0 for fractional in (False, True) for lazy in (False, True)}
    stopped_short = checked = 0
    for seed in range(3000):
        for fractional in (False, True):
            closed, scope, s, t = _closed_random_case(seed, fractional)
            del searched[:]
            for route in (simple_detour_route, enhanced_detour_route):
                if _failed_exit(route(closed, scope, s, t)):
                    _permit_path(closed, scope, s, t, route is enhanced_detour_route)
            assert ("landmarks" in closed._aux) == table
            for ctx, fwd, bwd in searched:
                sides = ((fwd, closed, s), (bwd, closed.reverse(), t))
                for half, network, endpoint in sides:
                    own = half.own
                    lazy = own.steps is not None
                    runs[fractional, lazy] += 1
                    drained = s_dijkstra(network, scope, endpoint, ctx.weights)
                    if lazy:
                        stopped_short += len(own.gate.order) < len(drained.order)
                    for v in half.settled:
                        assert not lazy or own.gate.final[v], (seed, fractional, v)
                        for lv in range(scope.level_count):
                            got = usable(own.gate, scope.nu, v, lv)
                            assert got == usable(drained, scope.nu, v, lv), (seed, fractional, v, lv)
                            checked += 1
    assert runs[False, False] == 0 and runs[False, True] > 1000, runs
    assert stopped_short > 3000, stopped_short
    assert runs[True, True] == 0 and runs[True, False] > 1000, runs
    assert checked > 15000, checked


def _permit_path(closed, scope, s, t, enhanced: bool, closures=None):
    """The permit-state search of a failed exit from ``s`` to ``t`` as a
    route runs it, with the route's closure set, but with no certificate
    first: on directions fresh from ``_directions``."""
    derived = derive_closures(closed)
    if enhanced:
        active = qc_closure(closed, scope, closures, s, t).edges
    else:
        active = scoperoute.detour._active_set(closed, closures)
    weightings = scoperoute.detour._weightings(closed, active, derived.edges)
    potentials = scoperoute.detour._potentials(closed, weightings, s, t)
    directions = scoperoute.detour._directions(closed, scope, weightings, s, t, potentials)
    ctx = scoperoute.detour._context(closed, scope, weightings, s, t, directions)
    return scoperoute.detour._state_search_halves(ctx)


def _permit_result(closed, scope, s, t, enhanced: bool, closures=None):
    """Class and cost of a route from ``s`` to ``t`` that always takes the
    permit-state search after a failed static exit (``_permit_path``): the
    detour's if cheaper than the static walk's updated cost, else the
    static walk's, else none."""
    static = bidirectional_s_dijkstra(closed, scope, s, t)
    static_cost = INF if static.walk is None else static.walk.cost(closed, "updated")
    if static.walk is not None and static_cost == static.cost:
        return "static", static_cost
    meeting = _permit_path(closed, scope, s, t, enhanced, closures)[2]
    cost = INF if meeting is None else meeting[0][0]
    if cost < static_cost:
        return ("enhanced-detour" if enhanced else "simple-detour"), cost
    return ("static", static_cost) if static_cost < INF else ("unreachable", INF)


def _count_state_searches(monkeypatch) -> list:
    """Log each permit-state search's context, with the gate runs' final
    marks and settle orders as the search receives them."""
    real = scoperoute.detour._state_search_halves
    searched = []

    def logging(ctx):
        directions = (ctx.forward, ctx.backward)
        entry = [(bytes(d.gate.final), set(d.gate.order)) for d in directions]
        searched.append((ctx, entry))
        return real(ctx)

    monkeypatch.setattr(scoperoute.detour, "_state_search_halves", logging)
    return searched


def _failed_exit(res) -> bool:
    return res.static_walk is None or res.static_cost_updated != res.static_cost_base


def test_certificate_gives_the_costs_of_the_permit_search(landmarks_at_once, monkeypatch):
    # A route with the landmark table (where the certificate may answer)
    # and the permit-state search with no certificate first, on a copy
    # without the table (``_permit_result``), give the same class and cost,
    # on acceptance-grid queries with the criterion-7 closure placement and
    # on bypass networks. A certified walk passes the validator on a fresh
    # context with the route's closure set. Some bypass detours still take
    # a permit, so the permit path stays reached. A fractional raise on an
    # edge the route leaves open keeps every failed exit off the certificate.
    searched = _count_state_searches(monkeypatch)
    routes = ((simple_detour_route, False), (enhanced_detour_route, True))
    tally = {"certified": 0, "searched": 0, "permits": 0, "fractional": 0}

    def compare(table, plain, scope, s, t, updates, fractional=None):
        for route, enhanced in routes:
            del searched[:]
            closed = table.with_updated_weights(updates)
            res = route(closed, scope, s, t)
            certified = _failed_exit(res) and not searched
            if fractional is not None:
                qc = qc_closure(closed, scope, None, s, t)
                if fractional not in (qc.edges if enhanced else qc.hard):
                    assert not certified, (s, t, fractional)
                    tally["fractional"] += _failed_exit(res)
            expected = _permit_result(plain.with_updated_weights(updates), scope, s, t, enhanced)
            assert (res.klass, res.cost_updated) == expected, (s, t)
            tally["certified"] += certified
            tally["searched"] += bool(searched)
            tally["permits"] += bool(res.permit_edges)
            if certified and res.klass != "static":
                fresh = table.with_updated_weights(updates)
                assert scoperoute.detour._recheck_detour(res.walk, fresh, scope, enhanced, s, t)
                assert res.scanned_detour == res.scanned_detour_vertices > 0

    nf = generate_synthetic("grid", 50, 3, seed=42)
    scope = balance_to_proper(nf.network, nf.scope)
    table, plain = nf.network, generate_synthetic("grid", 50, 3, seed=42).network
    plain._aux["landmarks"] = None  # as for weights with no table
    rng = random.Random(18)
    queries = 0
    while queries < 20:
        s, t = rng.randrange(table.vertex_count), rng.randrange(table.vertex_count)
        static = bidirectional_s_dijkstra(table, scope, s, t)
        if static.walk is None or len(static.walk.edges) < 40:
            continue
        updates, _ = place_random_closures(table, scope, static.walk, 50, seed=queries)
        compare(table, plain, scope, s, t, updates)
        queries += 1
    assert table._aux["landmarks"] is not None and tally["certified"] >= 30, tally
    grid_permits = tally["permits"]
    for seed in range(1500):
        table, scope, s, t = bypass_network(random.Random(seed))
        plain = bypass_network(random.Random(seed))[0]
        plain._aux["landmarks"] = None
        compare(table, plain, scope, s, t, {})
        # A fractional soft raise on another edge.
        raised = rng.choice([e for e in range(table.edge_count) if table.weight_updated[e] < INF])
        compare(table, plain, scope, s, t, {raised: table.weight[raised] + 0.5}, raised)
    assert tally["certified"] >= 500 and tally["searched"] >= 500, tally
    assert tally["fractional"] >= 500, tally
    assert tally["permits"] - grid_permits >= 100, tally


def test_a_route_evaluates_each_landmark_bound_once(landmarks_at_once, monkeypatch):
    # One route ranks the table's terms once and evaluates each vertex's
    # landmark bound at most once per direction: the static search's two
    # potentials and bound lists go on to the d_open run, the gate runs and
    # the permit-state halves, which read exactly those lists. A route with
    # no permit-state search builds no corridor-clean mask.
    real_potentials = scoperoute.search._landmark_potentials
    evaluated, ranked = [], []

    def counting(network, source, target):
        ranked.append((source, target))
        to_target, to_source = real_potentials(network, source, target)
        if to_target is None:
            return to_target, to_source
        return (
            lambda v: evaluated.append(("t", v)) or to_target(v),
            lambda v: evaluated.append(("s", v)) or to_source(v),
        )

    real_static = scoperoute.detour._bidirectional_search
    real_certificate = scoperoute.detour._certificate
    real_clean = scoperoute.detour._clean_masks
    static_bounds, certified_bounds, cleaned = [], [], []

    def static(*args, **kwargs):
        result, potentials = real_static(*args, **kwargs)
        static_bounds.append(potentials and potentials[2])
        return result, potentials

    def certificate(network, scope, closed, source, target, potentials):
        certified_bounds.append(potentials[2])
        return real_certificate(network, scope, closed, source, target, potentials)

    def clean(*args, **kwargs):
        cleaned.append(args)
        return real_clean(*args, **kwargs)

    monkeypatch.setattr(scoperoute.search, "_landmark_potentials", counting)
    monkeypatch.setattr(scoperoute.detour, "_landmark_potentials", counting)
    monkeypatch.setattr(scoperoute.detour, "_bidirectional_search", static)
    monkeypatch.setattr(scoperoute.detour, "_certificate", certificate)
    monkeypatch.setattr(scoperoute.detour, "_clean_masks", clean)
    searched = _count_state_searches(monkeypatch)
    tally = {"certificates": 0, "searches": 0, "no certificate": 0, "evaluated": 0}
    rng = random.Random(19)
    cases = [bypass_network(random.Random(seed)) for seed in range(600)]
    cases += [_closed_random_case(seed) for seed in range(600)]
    for net, scope, s, t in cases[:]:
        # A fractional raise on an open edge leaves the gate runs drained
        # and the certificate untried.
        raised = rng.choice([e for e in range(net.edge_count) if net.weight_updated[e] < INF])
        cases.append((net.with_updated_weights({raised: net.weight_updated[raised] + 0.5}), scope, s, t))
    nf = generate_synthetic("grid", 50, 3, seed=42)
    grid, grid_scope = nf.network, balance_to_proper(nf.network, nf.scope)
    while len(cases) < 2410:
        s, t = rng.randrange(grid.vertex_count), rng.randrange(grid.vertex_count)
        walk = bidirectional_s_dijkstra(grid, grid_scope, s, t).walk
        if walk is not None and len(walk.edges) >= 40:
            updates, _ = place_random_closures(grid, grid_scope, walk, 50, seed=len(cases))
            cases.append((grid.with_updated_weights(updates), grid_scope, s, t))
    for closed, scope, s, t in cases:
        for route in (simple_detour_route, enhanced_detour_route):
            del evaluated[:], ranked[:], static_bounds[:], certified_bounds[:], cleaned[:], searched[:]
            res = route(closed, scope, s, t)
            assert ranked == [(s, t)], (s, t)
            assert len(evaluated) == len(set(evaluated)), (s, t)
            tally["evaluated"] += len(evaluated)
            (bounds,) = static_bounds
            assert bounds is not None
            if certified_bounds:
                tally["certificates"] += 1
                assert all(map(operator.is_, certified_bounds[0], bounds))
            elif _failed_exit(res):
                tally["no certificate"] += 1
            if searched:
                tally["searches"] += 1
                ctx = searched[0][0]
                assert all(map(operator.is_, (ctx.forward.bounds, ctx.backward.bounds), bounds))
                assert len(cleaned) == 2
            else:
                assert not cleaned
    assert min(tally.values()) >= 100 and tally["certificates"] >= 1000, tally


def test_no_open_walk_returns_without_records(landmarks_at_once, monkeypatch):
    # When no walk from s to t avoids the closed edges (d_open is inf), the
    # routes return the static walk or nothing, as the permit-state search
    # with no certificate first on a copy without the table does
    # (``_permit_result``), with no record run and no permit-state search;
    # they count no settled state or vertex. Closing every raised edge, soft
    # ones too, leaves a static walk over soft raises with a finite cost.
    drained, searched = [], _count_state_searches(monkeypatch)
    real = scoperoute.detour._drained_runs

    def draining(*args):
        drained.append(args)
        return real(*args)

    monkeypatch.setattr(scoperoute.detour, "_drained_runs", draining)
    answered = {"static": 0, "unreachable": 0}
    for seed in range(3000):
        closed, scope, s, t = _closed_random_case(seed)
        plain = _closed_random_case(seed)[0]
        plain._aux["landmarks"] = None  # as for weights with no table
        raised = derive_closures(closed).edges
        for closures, active in ((None, derive_closures(closed).hard), (raised, raised)):
            opened = [INF if e in active else w for e, w in enumerate(closed.weight_updated)]
            for route, enhanced in ((simple_detour_route, False), (enhanced_detour_route, True)):
                del drained[:], searched[:]
                res = route(closed, scope, s, t, closures)
                if not _failed_exit(res) or dijkstra(closed, opened, s).dist[t] < INF:
                    continue
                assert (drained, searched) == ([], []), seed
                counts = (res.scanned_detour, res.scanned_detour_vertices, res.permits_issued)
                assert counts == (0, 0, 0), seed
                expected = _permit_result(plain, scope, s, t, enhanced, closures)
                assert drained and searched, seed
                assert (res.klass, res.cost_updated) == expected, seed
                assert res.walk == (res.static_walk if res.klass == "static" else None), seed
                answered[res.klass] += 1
    assert min(answered.values()) >= 100, answered


def test_handed_off_gate_runs_read_as_the_drained_runs(landmarks_at_once, monkeypatch):
    # A failed certificate leaves its stepped gate runs to the permit-state
    # search: each run has marked final every vertex it settled and the head
    # it has yielded but not settled. Every label final there, before the
    # search and after it, is the drained gate run's of a fresh context with
    # the route's closure set; runs still stop short of draining. Most
    # that do are those of the tight cases: on bypass networks a permit
    # leads the search past the gate run's reach, which drains it.
    searched = _count_state_searches(monkeypatch)
    stepped = short = checked = 0
    cases = [bypass_network(random.Random(seed)) for seed in range(1500)]
    cases += [_closed_random_case(seed) for seed in range(1500)]
    cases += filter(None, map(_tight_detour_case, range(2000)))
    for net, scope, s, t in cases:
        for route in (simple_detour_route, enhanced_detour_route):
            del searched[:]
            route(net, scope, s, t)
            for ctx, entry in searched:
                closures = qc_closure(net, scope, None, s, t) if route is enhanced_detour_route else None
                fresh = build_detour_context(net, scope, closures, s, t)
                drained = (fresh.forward.gate, fresh.backward.gate)
                for direction, run, (marks, order) in zip((ctx.forward, ctx.backward), drained, entry):
                    gate = direction.gate
                    final = gate.final
                    marked = {v for v, mark in enumerate(marks) if mark}
                    if len(marked) < len(marks):  # a run that ended is final everywhere
                        assert order <= marked and len(marked - order) == (1 if order else 0)
                    stepped += bool(order)
                    short += len(gate.order) < len(run.order)
                    for v in range(net.vertex_count):
                        if final[v]:
                            assert (gate.dist[v], gate.sigma[v]) == (run.dist[v], run.sigma[v])
                            checked += 1
    assert stepped >= 500 and short >= 500 and checked >= 10000, (stepped, short, checked)


def test_certificate_stops_at_its_first_d_open_meeting(landmarks_at_once, monkeypatch):
    # The certificate's gate runs stop at their first meeting of sum d_open,
    # which no meeting can undercut: a certified route leaves a gate head
    # with a key of at most d_open, where the runs once stepped on until
    # both keys passed it, and its walk passes the validator on a fresh
    # context with the route's closure set. A failed certificate still
    # steps both runs past d_open before it hands them on. The own-draw
    # check on the d_open run's walk rejects here, so that every
    # certificate steps its gate runs.
    real_meeting = scoperoute.detour._goal_directed_meeting
    real_certificate = scoperoute.detour._certificate
    meetings, certified = [], []

    def meeting(runs, steps, cap=INF, low=-INF):
        heads = real_meeting(runs, steps, cap, low)
        meetings.append((low, heads))
        return heads

    def certificate(*args):
        result = real_certificate(*args)
        certified.append(result[0])
        return result

    monkeypatch.setattr(scoperoute.detour, "_own_draw_split", lambda *args: False)
    monkeypatch.setattr(scoperoute.detour, "_goal_directed_meeting", meeting)
    monkeypatch.setattr(scoperoute.detour, "_certificate", certificate)
    cases = [("tight", case) for case in filter(None, map(_tight_detour_case, range(600)))]
    nf = generate_synthetic("grid", 50, 3, seed=42)
    grid, grid_scope = nf.network, balance_to_proper(nf.network, nf.scope)
    rng = random.Random(20)
    for query in range(20):
        walk = None
        while walk is None or len(walk.edges) < 40:
            s, t = rng.randrange(grid.vertex_count), rng.randrange(grid.vertex_count)
            walk = bidirectional_s_dijkstra(grid, grid_scope, s, t).walk
        updates, _ = place_random_closures(grid, grid_scope, walk, 50, seed=query)
        cases.append(("grid", (grid.with_updated_weights(updates), grid_scope, s, t)))
    tally = {}
    for name, (net, scope, s, t) in cases:
        for route, enhanced in ((simple_detour_route, False), (enhanced_detour_route, True)):
            del meetings[:], certified[:]
            res = route(net, scope, s, t)
            if not meetings:  # the static exit, or d_open is inf
                continue
            ((d_open, heads),) = meetings
            keys = [head[0] for head in heads if head is not None]
            (result,) = certified
            if result is None:
                assert all(key > d_open for key in keys), (s, t)
                tally[name, "failed"] = tally.get((name, "failed"), 0) + 1
                continue
            assert result.cost == d_open and min(keys) <= d_open, (s, t)
            if res.klass != "static":
                assert scoperoute.detour._recheck_detour(res.walk, net, scope, enhanced, s, t)
            tally[name, "stopped"] = tally.get((name, "stopped"), 0) + 1
    assert tally.get(("grid", "stopped"), 0) >= 35, tally
    assert tally.get(("tight", "stopped"), 0) >= 600 and tally.get(("tight", "failed"), 0) >= 100, tally


def test_certificate_scan_agrees_with_a_full_scan_of_its_gate_runs(landmarks_at_once, monkeypatch):
    # The certificate scans its split minimum over the vertices its gate
    # runs settled and their pending heads only. A scan of the runs' labels
    # over all n vertices, as they stand when it returns, decides the same:
    # a certified route costs the full scan's minimum, met at a vertex whose
    # labels sum to it, and a failed certificate's full scan stays above
    # d_open. The meeting vertex may differ among those of equal sum. The
    # own-draw check on the d_open run's walk rejects here, so that every
    # certificate with a finite d_open steps its gate runs.
    real_open = scoperoute.detour._open_distance
    real_certificate = scoperoute.detour._certificate
    d_opens = []
    tally = {"certified": 0, "failed": 0, "no open walk": 0}

    def open_distance(*args):
        d_opens.append(real_open(*args))
        return d_opens[-1]

    def certificate(network, scope, closed, source, target, potentials):
        del d_opens[:]
        result, scanned, directions = real_certificate(
            network, scope, closed, source, target, potentials
        )
        ((d_open, _run),) = d_opens
        if directions is None:
            # No gate run was made: the full scan is the drained runs'.
            assert result.walk is None
            gates = (
                s_dijkstra(network, scope, source, closed.open),
                s_dijkstra(network.reverse(), scope, target, closed.open),
            )
        else:
            gates = tuple(direction.gate for direction in directions)
        full = full_split_minimum(*gates)
        if result is None:
            assert full.cost > d_open
            tally["failed"] += 1
        elif result.walk is None:
            assert result.cost == full.cost == d_open == INF
            tally["no open walk"] += 1
        else:
            meeting = result.meeting
            assert result.cost == full.cost == d_open
            assert gates[0].dist[meeting] + gates[1].dist[meeting] == d_open
            tally["certified"] += 1
        return result, scanned, directions

    monkeypatch.setattr(scoperoute.detour, "_own_draw_split", lambda *args: False)
    monkeypatch.setattr(scoperoute.detour, "_open_distance", open_distance)
    monkeypatch.setattr(scoperoute.detour, "_certificate", certificate)
    cases = [bypass_network(random.Random(seed)) for seed in range(1500)]
    cases += [_closed_random_case(seed) for seed in range(1500)]
    for net, scope, s, t in cases:
        for route in (simple_detour_route, enhanced_detour_route):
            route(net, scope, s, t)
    assert tally["certified"] >= 700 and min(tally.values()) >= 400, tally


def test_own_draw_check_certifies_split_admissible_walks(landmarks_at_once, monkeypatch):
    # The certificate first checks P, the d_open run's tree walk, on its
    # own running draws (``_own_draw_split``). Wherever the check accepts
    # P, P passes the split validator on drained runs on the open
    # weighting, the route returns P (or the static walk, no dearer), a
    # returned P passes the validator on a fresh context with the route's
    # closure set, and the route's cost and class are those of a route
    # whose check rejects every walk. Where the check rejects P, the gate
    # runs still certify some walks and fail on others.
    real_check = scoperoute.detour._own_draw_split
    real_certificate = scoperoute.detour._certificate
    checked, certified = [], []
    disabled = [False]

    def check(walk, scope, weights):
        accepted = not disabled[0] and real_check(walk, scope, weights)
        checked.append((walk, weights, accepted))
        return accepted

    def certificate(*args):
        result = real_certificate(*args)
        certified.append(result[0])
        return result

    monkeypatch.setattr(scoperoute.detour, "_own_draw_split", check)
    monkeypatch.setattr(scoperoute.detour, "_certificate", certificate)
    cases = [("bypass", bypass_network(random.Random(seed))) for seed in range(1500)]
    cases += [("random", _closed_random_case(seed)) for seed in range(1500)]
    cases += [("tight", case) for case in filter(None, map(_tight_detour_case, range(2000)))]
    nf = generate_synthetic("grid", 50, 3, seed=42)
    grid, grid_scope = nf.network, balance_to_proper(nf.network, nf.scope)
    rng = random.Random(27)
    for query in range(20):
        walk = None
        while walk is None or len(walk.edges) < 40:
            s, t = rng.randrange(grid.vertex_count), rng.randrange(grid.vertex_count)
            walk = bidirectional_s_dijkstra(grid, grid_scope, s, t).walk
        updates, _ = place_random_closures(grid, grid_scope, walk, 50, seed=query)
        cases.append(("grid", (grid.with_updated_weights(updates), grid_scope, s, t)))
    tally = {}
    for name, (net, scope, s, t) in cases:
        for route, enhanced in ((simple_detour_route, False), (enhanced_detour_route, True)):
            disabled[0] = False
            del checked[:], certified[:]
            res = route(net, scope, s, t)
            if not checked:  # the static exit, no certificate, or d_open is inf
                continue
            ((walk, weights, accepted),) = checked
            (result,) = certified
            disabled[0] = True
            plain = route(net, scope, s, t)
            assert (res.klass, res.cost_updated) == (plain.klass, plain.cost_updated), (name, s, t)
            if accepted:
                forward = s_dijkstra(net, scope, s, weights)
                backward = s_dijkstra(net.reverse(), scope, t, weights)
                assert validate_split_admissible(walk, net, scope, s, t, weights, forward, backward)
                assert result.walk == walk and result.cost == walk.cost(net, "updated")
                if res.klass != "static":
                    assert res.walk == walk, (name, s, t)
                    assert scoperoute.detour._recheck_detour(walk, net, scope, enhanced, s, t)
                outcome = "P"
            else:
                outcome = "gate runs" if result is not None else "neither"
            tally[name, outcome] = tally.get((name, outcome), 0) + 1
    assert tally.get(("grid", "P"), 0) >= 35 and tally.get(("random", "P"), 0) >= 200, tally
    assert min(tally.get((name, "P"), 0) for name in ("bypass", "tight")) >= 500, tally
    assert tally.get(("tight", "gate runs"), 0) >= 50, tally
    assert min(tally.get((name, "neither"), 0) for name in ("bypass", "tight")) >= 100, tally


def _grid_detour_cases(seed, count: int) -> list:
    """``count`` queries at least 40 edges long on the acceptance grid, each
    on a copy with 50 closures placed as criterion 7 places them."""
    nf = generate_synthetic("grid", 50, 3, seed=42)
    grid, scope = nf.network, balance_to_proper(nf.network, nf.scope)
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        s, t = rng.randrange(grid.vertex_count), rng.randrange(grid.vertex_count)
        walk = bidirectional_s_dijkstra(grid, scope, s, t).walk
        if walk is not None and len(walk.edges) >= 40:
            updates, _ = place_random_closures(grid, scope, walk, 50, seed=len(cases))
            cases.append((grid.with_updated_weights(updates), scope, s, t))
    return cases


def test_gate_runs_are_made_only_when_p_fails(landmarks_at_once, monkeypatch):
    # A failed exit whose certificate P answers makes no gate run and no
    # grant list (no _direction call) and one fresh run, the d_open run; one
    # where P fails makes exactly one pair of gate runs; one with no
    # certificate (fractional weights) a pair of drained ones. Cost and
    # class equal those of a route whose own-draw check rejects every walk,
    # and where the real check rejects P, so do the walk, the permit edges
    # and every count: the gate runs made later are stepped as before.
    real_direction, real_run = scoperoute.detour._direction, scoperoute.detour._scope_run
    real_check, real_certificate = scoperoute.detour._own_draw_split, scoperoute.detour._certificate
    made = {"gate runs": 0, "fresh runs": 0, "certificates": 0}
    checked, reject = [], [False]

    def direction(*args):
        made["gate runs"] += 1
        return real_direction(*args)

    def fresh_run(*args):
        made["fresh runs"] += 1
        return real_run(*args)

    def certificate(*args):
        made["certificates"] += 1
        return real_certificate(*args)

    def check(*args):
        accepted = not reject[0] and real_check(*args)
        checked.append(accepted)
        return accepted

    monkeypatch.setattr(scoperoute.detour, "_direction", direction)
    monkeypatch.setattr(scoperoute.detour, "_scope_run", fresh_run)
    monkeypatch.setattr(scoperoute.detour, "_certificate", certificate)
    monkeypatch.setattr(scoperoute.detour, "_own_draw_split", check)
    cases = [("grid", case) for case in _grid_detour_cases(30, 20)]
    cases += [("bypass", bypass_network(random.Random(seed))) for seed in range(600)]
    cases += [("random", _closed_random_case(seed)) for seed in range(1200)]
    cases += [("fractional", _closed_random_case(seed, True)) for seed in range(300)]
    fields = ("walk", "permit_edges", "scanned_static", "scanned_detour",
              "scanned_detour_vertices", "permits_issued", "qc_added", "qc_iterations")
    tally = {}
    for name, (net, scope, s, t) in cases:
        for route in (simple_detour_route, enhanced_detour_route):
            reject[0] = False
            for key in made:
                made[key] = 0
            del checked[:]
            res = route(net, scope, s, t)
            if not _failed_exit(res):
                assert made == {"gate runs": 0, "fresh runs": 0, "certificates": 0}
                continue
            counts, verdicts = dict(made), checked[:]
            reject[0] = True
            rejected = route(net, scope, s, t)
            assert (res.klass, res.cost_updated) == (rejected.klass, rejected.cost_updated)
            if not counts["certificates"]:
                outcome, gate_runs = "no certificate", 2
            elif not verdicts:
                outcome, gate_runs = "no open walk", 0
            elif verdicts == [True]:
                outcome, gate_runs = "P", 0
            else:
                outcome, gate_runs = "gate runs", 2
                assert [getattr(res, f) for f in fields] == [getattr(rejected, f) for f in fields]
            fresh_runs = 0 if outcome == "no certificate" else 1
            assert (counts["gate runs"], counts["fresh runs"]) == (gate_runs, fresh_runs), (name, s, t)
            tally[name, outcome] = tally.get((name, outcome), 0) + 1
    assert tally.get(("grid", "P"), 0) >= 30 and tally.get(("random", "P"), 0) >= 150, tally
    assert tally.get(("bypass", "P"), 0) >= 150 and tally.get(("bypass", "gate runs"), 0) >= 120, tally
    assert tally.get(("random", "no open walk"), 0) >= 500, tally
    assert tally.get(("fractional", "no certificate"), 0) >= 200, tally


def test_open_weighting_is_the_updated_tuple_when_every_closed_edge_is_infinite(monkeypatch):
    # A failed exit's open weighting is the network's own weight_updated
    # tuple exactly when every edge treated as closed is already infinite
    # there; an explicit closure of a finite edge gets a copy with it at
    # infinity. The tuple is never written, so routes on it succeed and
    # leave it as it was, and the record weighting is a fresh list.
    built = []
    real = scoperoute.detour._weightings

    def weightings(network, active, *args):
        built.append((network, active, real(network, active, *args)))
        return built[-1][2]

    monkeypatch.setattr(scoperoute.detour, "_weightings", weightings)
    tally = {"in place": 0, "copied": 0}
    for seed in range(400):
        net, scope, s, t = _closed_random_case(seed, seed % 2 == 1)
        saved = tuple(net.weight_updated)
        derived = derive_closures(net)
        for closures in (None, derived.edges, frozenset(derived.edges) - derived.hard):
            for route in (simple_detour_route, enhanced_detour_route):
                del built[:]
                route(net, scope, s, t, closures)
                for network, active, closed in built:
                    updated = network.weight_updated
                    in_place = all(updated[e] == INF for e in active)
                    assert (closed.open is updated) == in_place, seed
                    opened = [INF if e in active else w for e, w in enumerate(saved)]
                    assert list(closed.open) == opened, seed
                    record = scoperoute.detour._record_weighting(network, closed)
                    assert type(record) is list and record is not closed.open
                    assert list(closed.open) == opened, seed
                    tally["in place" if in_place else "copied"] += 1
                assert net.weight_updated == saved, seed
    assert min(tally.values()) >= 300, tally


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

    def test_infinite_edge_outside_explicit_closures_rejected(self):
        # Edge 3 is closed by its weight, but the explicit closure set leaves
        # it out; a record on the walk must not license it.
        net = build_network(4, [(0, 1), (1, 2), (2, 3), (1, 2)], [10, 10, 10, 4])
        scope = make_scope([1, 1, 1, 0], [5, INF])
        closed = net.with_updated_weights({1: INF, 3: INF})
        walk = Walk(0, (0, 3, 2))
        assert walk.cost(closed, "updated") == INF
        for closures in (None, frozenset({1})):
            assert not validate_simple_detour(walk, closed, scope, closures, 0, 3)
        assert simple_detour_route(closed, scope, 0, 3, frozenset({1})).klass == "unreachable"

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


_CLOSURE_CALLS = {
    "simple_detour_route": lambda net, scope, c: simple_detour_route(net, scope, 0, 2, c),
    "enhanced_detour_route": lambda net, scope, c: enhanced_detour_route(net, scope, 0, 2, c),
    "build_detour_context": lambda net, scope, c: build_detour_context(net, scope, c, 0, 2),
    "validate_simple_detour":
        lambda net, scope, c: validate_simple_detour(Walk(0, (2,)), net, scope, c, 0, 2),
    "find_obstructed": lambda net, scope, c: find_obstructed(net, scope, c, 0, 2),
    "qc_closure": lambda net, scope, c: qc_closure(net, scope, c, 0, 2),
    "validate_full_detour":
        lambda net, scope, c: validate_full_detour(Walk(0, (2,)), net, scope, c, 0, 2),
}


@pytest.mark.parametrize("edge", [99, -1])
@pytest.mark.parametrize("call", sorted(_CLOSURE_CALLS))
def test_unknown_closure_edge_rejected(call, edge):
    # Edge 1 is raised, so the static route fails the early exit and every
    # call reads the explicit closure set.
    net = build_network(3, [(0, 1), (1, 2), (0, 2)], [1, 1, 5]).with_updated_weights({1: 3})
    scope = make_scope([1, 1, 1], [5, INF])
    with pytest.raises(NetworkError, match=f"unknown edge id {edge}$"):
        _CLOSURE_CALLS[call](net, scope, {edge})


@pytest.mark.parametrize("edge", [99, -1])
@pytest.mark.parametrize("route", [simple_detour_route, enhanced_detour_route])
def test_unknown_closure_edge_rejected_before_the_static_exit(monkeypatch, route, edge):
    # Nothing raised, so the static route survives, and the routes still
    # reject an unknown id in the caller's closure set, before the static
    # search. Closures None scan no edges on the static exit.
    net = build_network(3, [(0, 1), (1, 2), (0, 2)], [1, 1, 5])
    scope = make_scope([1, 1, 1], [5, INF])

    def failing(*args, **kwargs):
        raise AssertionError("called")

    monkeypatch.setattr(scoperoute.detour, "derive_closures", failing)
    res = route(net, scope, 0, 2)
    assert (res.klass, res.cost_updated) == ("static", 2.0)
    assert route(net, scope, 0, 2, {2}).klass == "static"
    monkeypatch.setattr(scoperoute.detour, "_bidirectional_search", failing)
    with pytest.raises(NetworkError, match=f"unknown edge id {edge}$"):
        route(net, scope, 0, 2, {edge})


@pytest.mark.parametrize("route", [simple_detour_route, enhanced_detour_route])
def test_one_shot_closure_iterable_is_read_once(permit_fixture, route):
    # The routes check the caller's ids before the static search and read
    # them again after a failed exit; a generator must close the same edges
    # as the equivalent frozenset. Both edges of the static route 0-1-2 are
    # soft-raised; with them open the cheapest walk would take 3-1-2, with
    # them closed only the direct edge is left.
    edges = [(0, 1), (1, 2), (0, 3), (3, 1), (0, 2)]
    net = build_network(4, edges, [1, 1, 1, 1, 10]).with_updated_weights({0: 6, 1: 6})
    scope = make_scope([1] * 5, [5, INF])
    want = route(net, scope, 0, 2, frozenset({0, 1}))
    assert (want.walk.edges, want.cost_updated, want.static_cost_updated) == ((4,), 10.0, 12.0)
    assert route(net, scope, 0, 2, (e for e in [0, 1])) == want
    net, scope = permit_fixture
    want = route(net, scope, 0, 3, derive_closures(net).hard)
    assert (want.walk.edges, want.permit_edges) == ((0, 3, 2), (3,))
    assert route(net, scope, 0, 3, iter(derive_closures(net).hard)) == want
    failed = 0
    for seed in range(200):
        closed, scope, s, t = _closed_random_case(seed)
        ids = sorted(derive_closures(closed).edges)
        want = route(closed, scope, s, t, frozenset(ids))
        failed += want.static_cost_updated != want.static_cost_base
        assert route(closed, scope, s, t, iter(ids)) == want, seed
    assert failed > 10, failed


@pytest.mark.parametrize("source, target, role", [
    (-1, 3, "source"), (4, 3, "source"), (0, -1, "target"), (0, 4, "target"),
])
@pytest.mark.parametrize("call", [find_obstructed, build_detour_context])
def test_record_runs_name_the_unknown_endpoint(permit_fixture, call, source, target, role):
    net, scope = permit_fixture
    vertex = source if role == "source" else target
    with pytest.raises(NetworkError, match=f"unknown {role} vertex {vertex}$"):
        call(net, scope, None, source, target)


class TestQcClosure:
    def test_empty_closures_fixed_point(self, n1, n1_scope5):
        qc = qc_closure(n1, n1_scope5, frozenset(), 0, 3)
        assert qc.edges == frozenset()
        assert qc.iterations == 1

    @pytest.mark.parametrize("source, target, role", [
        (-1, 3, "source"), (4, 3, "source"), (0, -1, "target"), (0, 4, "target"),
    ])
    def test_unknown_endpoint_rejected(self, permit_fixture, source, target, role):
        net, scope = permit_fixture
        vertex = source if role == "source" else target
        with pytest.raises(NetworkError, match=f"unknown {role} vertex {vertex}"):
            qc_closure(net, scope, None, source, target)

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

    def test_route_counts_only_the_edges_it_adds(self):
        # The dead-end line's own quasi-closure, passed to the route, is
        # already a fixed point: the route adds no edge to it.
        net = build_network(4, [(0, 1), (1, 2), (2, 3), (1, 3)], [1, 1, 1, 5])
        net = net.with_updated_weights({2: INF})
        scope = make_scope([1, 1, 1, 1], [5, INF])
        res = enhanced_detour_route(net, scope, 0, 3, qc_closure(net, scope, None, 0, 3))
        assert (res.klass, res.walk, res.qc_iterations, res.qc_added) == (
            "enhanced-detour", Walk(0, (0, 3)), 1, 0
        )
        assert enhanced_detour_route(net, scope, 0, 3).qc_added == 1

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


    def test_single_pass_matches_fixed_point_loop(self, monkeypatch):
        # qc_closure's answer is the plain fixed-point loop's. It first tries
        # to prove that nothing is quasi-closed: the base graph strongly
        # connected, and an open bypass for every edge the open weighting
        # closes. The proof answers on strongly connected inputs: two-way
        # random networks, acceptance-grid closure sets, and an explicit
        # closure set that leaves out an infinite edge. The adding round
        # answers where a closure leaves a pocket, and on one-way networks
        # that are not strongly connected.
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

        proofs = []
        real = scoperoute.detour._bypassed

        def logging(*args):
            proofs.append(real(*args))
            return proofs[-1]

        monkeypatch.setattr(scoperoute.detour, "_bypassed", logging)
        tally = {}

        def check(name, net, scope, closures, s, t):
            del proofs[:]
            qc = qc_closure(net, scope, closures, s, t)
            expected, rounds = fixed_point(net, closures or (), s, t)
            # An infinite edge left out of an explicit set is closed, not listed.
            infinite = {e for e in range(net.edge_count) if net.weight_updated[e] == INF}
            expected -= infinite - (infinite if closures is None else closures)
            assert qc.edges == frozenset(expected)
            assert qc.iterations == rounds
            proved = proofs == [True]
            base = {e for e in range(net.edge_count) if net.weight[e] == INF}
            strong = all(
                len(reach(net, 0, base, forward)) == net.vertex_count for forward in (True, False)
            )
            assert not proved or (strong and rounds == 1), name
            key = (name, "proof" if proved else "round" if strong else "round, not strong")
            tally[key] = tally.get(key, 0) + 1

        rng = random.Random(33)
        for _ in range(300):
            net, scope = random_network(rng, max_vertices=10)
            pool = list(range(net.edge_count))
            hard = rng.sample(pool, rng.randint(0, min(4, len(pool))))
            net = net.with_updated_weights({e: INF for e in hard})
            s, t = rng.randrange(net.vertex_count), rng.randrange(net.vertex_count)
            check("one-way", net, scope, None, s, t)
        for net, scope, s, t in filter(None, map(_tight_detour_case, range(400))):
            check("two-way", net, scope, None, s, t)
        nf = generate_synthetic("grid", 50, 3, seed=42)
        grid, scope = nf.network, balance_to_proper(nf.network, nf.scope)
        for query in range(12):
            walk = None
            while walk is None or len(walk.edges) < 40:
                s, t = rng.randrange(grid.vertex_count), rng.randrange(grid.vertex_count)
                walk = bidirectional_s_dijkstra(grid, scope, s, t).walk
            updates, _ = place_random_closures(grid, scope, walk, 50, seed=query)
            closed = grid.with_updated_weights(updates)
            check("grid", closed, scope, None, s, t)
            # An explicit set that leaves out one infinite edge, which the
            # open weighting still closes.
            hard = sorted(e for e in updates if updates[e] == INF)
            check("explicit", closed, scope, frozenset(hard[1:]), s, t)
            # Every road out of a vertex closed: the roads into it lead to a
            # pocket.
            pocket = next(v for v in walk.vertices(grid)[5:] if v != t)
            check("pocket", closed, scope, frozenset(hard) | set(grid.out_edges(pocket)), s, t)
        for name, least in (("two-way", 100), ("grid", 10), ("explicit", 10)):
            assert tally.get((name, "proof"), 0) >= least, tally
        assert tally.get(("pocket", "round"), 0) == 12, tally
        assert tally.get(("one-way", "round, not strong"), 0) >= 200, tally


class TestEnhancedDetour:
    def test_equal_fixed_point_matches_simple(self, permit_fixture):
        net, scope = permit_fixture
        simple = simple_detour_route(net, scope, 0, 3)
        enhanced = enhanced_detour_route(net, scope, 0, 3)
        assert enhanced.qc_added == 0
        assert enhanced.cost_updated == simple.cost_updated
        assert enhanced.walk.edges == simple.walk.edges
        assert enhanced.permits_issued == simple.permits_issued == 2

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
    for name in ("grant", "gate", "clean"):
        masks = [getattr(d, name) for d in (a.forward, a.backward)]
        assert masks == [getattr(d, name) for d in (b.forward, b.backward)], name


def _log_searches(monkeypatch, closed):
    """Log the detour module's static and drained searches, in call order:
    ``("static", s, t)`` and ``(source, weights)``."""
    calls = []
    real_static = scoperoute.detour._bidirectional_search
    real_drained = scoperoute.detour.s_dijkstra

    def static(network, scope, source, target, *args, **kwargs):
        calls.append(("static", source, target))
        return real_static(network, scope, source, target, *args, **kwargs)

    def drained(network, scope, source, weighting="base", *args, **kwargs):
        w = closed.weights(weighting) if isinstance(weighting, str) else weighting
        calls.append((source, tuple(w)))
        return real_drained(network, scope, source, weighting, *args, **kwargs)

    monkeypatch.setattr(scoperoute.detour, "_bidirectional_search", static)
    monkeypatch.setattr(scoperoute.detour, "s_dijkstra", drained)
    return calls


@pytest.mark.parametrize("route", [simple_detour_route, enhanced_detour_route])
def test_static_exit_runs_one_bidirectional_search(n1, n1_scope15, monkeypatch, route):
    # A hard or a soft closure off the static walk: the bidirectional
    # search finds the surviving walk and no drained search runs.
    for update in ({3: INF}, {3: 25}):
        closed = n1.with_updated_weights(update)
        calls = _log_searches(monkeypatch, closed)
        res = route(closed, n1_scope15, 0, 3)
        assert res.klass == "static"
        assert res.walk == Walk(0, (0, 1, 2))
        assert calls == [("static", 0, 3)], update


def _failed_exit_searches(n1, scope, monkeypatch, route, update):
    """The logged searches of ``route`` from 0 to 3 on ``n1`` with ``update``
    raised, the static walk failing, the record and open weightings, and
    the result."""
    closed = n1.with_updated_weights(update)
    active = derive_closures(closed).hard
    if route is enhanced_detour_route:
        active = qc_closure(closed, scope, None, 0, 3).edges
    base = closed.weight
    record = tuple(base[e] if e in active else w for e, w in enumerate(closed.weight_updated))
    opened = tuple(INF if e in active else w for e, w in enumerate(closed.weight_updated))
    calls = _log_searches(monkeypatch, closed)
    res = route(closed, scope, 0, 3)
    assert res.walk != Walk(0, (0, 1, 2))
    return calls, record, opened, res


@pytest.mark.parametrize("route", [simple_detour_route, enhanced_detour_route])
def test_failed_exit_without_the_table_drains_as_with_it(
    n1, n1_scope15, permit_fixture, monkeypatch, route
):
    # No landmark table: a failed exit drains what it drains with the table
    # (see the next test). On n1 a hard or a soft closure of edge 1 leaves
    # the permit-free walk 0 -> 1 -> 3 at the open distance, so the
    # certificate returns it after the static search and nothing drains. A
    # fractional raise of edge 3 leaves the open weights fractional: no
    # certificate, and the two gate runs drain on the open weighting, then
    # the two record runs on the record weighting. On the permit fixture
    # the certificate fails on its stepped gate runs, and exactly the two
    # record runs drain.
    for update, drained in (({1: INF}, False), ({1: 30}, False), ({1: INF, 3: 20.5}, True)):
        calls, record, opened, res = _failed_exit_searches(n1, n1_scope15, monkeypatch, route, update)
        assert "landmarks" not in n1._aux
        runs = [(0, opened), (3, opened), (0, record), (3, record)] if drained else []
        assert calls == [("static", 0, 3)] + runs, update
        assert (res.walk, res.permit_edges) == (Walk(0, (0, 3)), ())
    net, scope = permit_fixture
    calls, record, _opened, res = _failed_exit_searches(net, scope, monkeypatch, route, {1: INF})
    assert "landmarks" not in net._aux
    assert calls == [("static", 0, 3), (0, record), (3, record)]
    assert (res.walk, res.permit_edges) == (Walk(0, (0, 3, 2)), (3,))


@pytest.mark.parametrize("route", [simple_detour_route, enhanced_detour_route])
def test_failed_exit_with_the_table_drains_only_the_record_runs(
    n1, n1_scope15, permit_fixture, monkeypatch, route, landmarks_at_once
):
    # With the landmark table and positive integer open weights the gate
    # runs are stepped, never drained. On n1 the walk 0 -> 1 -> 3 needs no
    # permit and costs the open distance, so the certificate returns it
    # after the static search and no drained run follows. A soft raise to a
    # fractional weight leaves the open weights fractional: no certificate,
    # and the gate runs drain after the record runs.
    for update, drained in (({1: INF}, False), ({1: 30}, False), ({1: 30.5}, True)):
        calls, record, opened, res = _failed_exit_searches(n1, n1_scope15, monkeypatch, route, update)
        assert n1._aux["landmarks"] is not None
        runs = [(0, record), (3, record), (0, opened), (3, opened)] if drained else []
        assert calls == [("static", 0, 3)] + runs, update
        assert (res.walk, res.cost_updated, res.permit_edges) == (Walk(0, (0, 3)), 22.0, ())
    # The permit fixture's only detour takes a permit: the certificate fails
    # on its stepped gate runs, and exactly the two record runs drain.
    net, scope = permit_fixture
    calls, record, _opened, res = _failed_exit_searches(net, scope, monkeypatch, route, {1: INF})
    assert net._aux["landmarks"] is not None
    assert calls == [("static", 0, 3), (0, record), (3, record)]
    assert (res.walk, res.permit_edges) == (Walk(0, (0, 3, 2)), (3,))


def _logged_weights(values, reads: set, passes: list, quiet: list):
    """``values`` as a tuple that, unless ``quiet[0]``, logs into ``reads``
    each edge read one by one and into ``passes`` the function that makes
    each whole pass over it."""

    class Logged(tuple):
        def __getitem__(self, e):
            if not quiet[0]:
                reads.add(e)
            return tuple.__getitem__(self, e)

        def __iter__(self):
            if not quiet[0]:
                passes.append(sys._getframe(1).f_code.co_name)
            return tuple.__iter__(self)

    return Logged(values)


@pytest.mark.parametrize("table", [True, False], ids=["table", "no-table"])
@pytest.mark.parametrize("route", [simple_detour_route, enhanced_detour_route])
def test_failed_exit_reads_the_weights_once(n1, n1_scope15, monkeypatch, request, route, table):
    # Outside the searches a failed static exit reads the weights whole only
    # to copy the updated weights into its open weighting (_weightings),
    # exactly once where a closed edge is finite there and never where every
    # closed edge is already infinite, which the open weighting then is
    # itself; then only the permit path copies them once, into the record
    # weighting (_record_weighting). One by one it reads no weight of an
    # unraised edge but those of the closed edges, the static walk (for its
    # updated cost) and the d_open run's walk (for its own-draw check), with
    # closures None or given: the closure set comes from the raised edges
    # the network recorded, and whether the gate runs may be goal-directed
    # from their weights and the bound build_network measured on the base
    # weights, with the landmark table or without it. A static exit reads
    # only the static walk's weights. The searches (scope-aware steps,
    # dijkstra runs, reach passes, the quasi-closure's round of them, the
    # permit-state search) read the weights of what they relax and are left
    # out.
    if table:
        request.getfixturevalue("landmarks_at_once")
        bidirectional_s_dijkstra(n1, n1_scope15, 0, 3)  # builds the table
    reads, passes, quiet, bounded, checked, contexts = set(), [], [0], [], set(), []

    def quieted(fn):
        def call(*args, **kwargs):
            quiet[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                quiet[0] -= 1

        return call

    real_steps = scoperoute.search._scope_steps

    def quiet_steps(*args, **kwargs):
        steps = real_steps(*args, **kwargs)
        while (head := quieted(next)(steps, None)) is not None:
            yield head

    for module, name in ((scoperoute.search, "dijkstra"), (scoperoute.detour, "dijkstra"),
                         (scoperoute.detour, "_reach"), (scoperoute.network, "_reach"),
                         (scoperoute.detour, "_quasi_closure"),
                         (scoperoute.detour, "_state_search_halves")):
        monkeypatch.setattr(module, name, quieted(getattr(module, name)))
    real_check, real_context = scoperoute.detour._own_draw_split, scoperoute.detour._context

    def check(walk, *args):
        checked.update(walk.edges)
        return real_check(walk, *args)

    def context(*args):
        contexts.append(args)
        return real_context(*args)

    monkeypatch.setattr(scoperoute.detour, "_own_draw_split", check)
    monkeypatch.setattr(scoperoute.detour, "_context", context)
    monkeypatch.setattr(scoperoute.search, "_scope_steps", quiet_steps)
    monkeypatch.setattr(scoperoute.detour, "_scope_steps", quiet_steps)
    real_bound = scoperoute.search._distance_bound

    def bound(weights, vertex_count):
        bounded.append(len(weights))
        return real_bound(weights, vertex_count)

    monkeypatch.setattr(scoperoute.search, "_distance_bound", bound)
    cases = [({3: INF}, None, 0), ({1: INF}, None, 1), ({1: 30}, None, 1), ({1: 30.5}, None, 1)]
    cases += [({1: 30}, frozenset({1}), 1), ({1: INF, 3: 25}, frozenset({1, 3}), 1)]
    tally = {}
    for update, closures, failed in cases:
        closed = n1.with_updated_weights(update)
        logged = RoadNetwork(
            closed.vertex_count, closed.tails, closed.heads,
            _logged_weights(closed.weight, reads, passes, quiet),
            _logged_weights(closed.weight_updated, reads, passes, quiet),
            closed._out, closed._in, closed._aux, closed._raised,
        )
        reads.clear()
        passes.clear()
        checked.clear()
        del contexts[:]
        res = route(logged, n1_scope15, 0, 3, closures)
        assert (res.klass == "static") == (not failed), update
        static_walk = set(res.static_walk.edges if res.static_walk else ())
        if not failed:
            assert (reads <= static_walk, passes) == (True, []), update
            continue
        # The closed sets _weightings is given: the route's, then the
        # quasi-closure's if it adds an edge.
        actives = [set(closures or derive_closures(closed).hard)]
        if route is enhanced_detour_route:
            qc = qc_closure(closed, n1_scope15, closures, 0, 3).edges
            actives += [qc] if qc != actives[0] else []
        closed_edges = set().union(*actives)
        assert reads <= set(update) | closed_edges | static_walk | checked, (update, reads)
        in_place = [all(closed.weight_updated[e] == INF for e in active) for active in actives]
        expected = ["_weightings"] * in_place.count(False)
        expected += ["_record_weighting"] if in_place[-1] and contexts else []
        assert passes == expected, (update, passes)
        tally[in_place[-1], bool(contexts)] = tally.get((in_place[-1], bool(contexts)), 0) + 1
    assert len(tally) == 3, tally
    assert ("landmarks" in n1._aux) == table
    assert bounded
    assert all(length < n1.edge_count for length in bounded), bounded


def test_landmark_potentials_give_the_routes_of_dijkstra_potentials(
    landmarks_at_once, monkeypatch
):
    # A failed exit's directions take their bounds from the landmark table
    # when the network has one, and from two open-network dijkstra runs
    # without it. Both are consistent lower bounds, so cost and class agree
    # (the walk may differ among equal-cost ones).
    real = scoperoute.detour.dijkstra
    potential_runs = []

    def counting(*args, **kwargs):
        potential_runs.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(scoperoute.detour, "dijkstra", counting)
    rng = random.Random(29)
    searched = {"hard": 0, "soft": 0}
    # With the table, a hard closure often leaves no open walk at all, which
    # the route answers without a search.
    for _ in range(700):
        net, scope = random_network(rng)
        s, t = rng.randrange(net.vertex_count), rng.randrange(net.vertex_count)
        static = bidirectional_s_dijkstra(net, scope, s, t)
        if not static.walk or not static.walk.edges:
            continue
        kind = rng.choice(["hard", "soft"])
        updates = {
            e: INF if kind == "hard" else net.weight[e] + rng.randint(1, 15)
            for e in {rng.choice(static.walk.edges), *rng.sample(range(net.edge_count), 2)}
        }
        results = []
        for table in (True, False):
            if not table:
                net._aux["landmarks"] = None  # as for weights with no table
            assert (net._aux["landmarks"] is not None) == table
            for route in (simple_detour_route, enhanced_detour_route):
                del potential_runs[:]
                res = route(net.with_updated_weights(updates), scope, s, t)
                results.append((res.klass, res.cost_updated))
                if res.scanned_detour:
                    assert len(potential_runs) == (0 if table else 2)
                    searched[kind] += table
        assert results[:2] == results[2:]
    assert min(searched.values()) >= 100, searched


def test_state_search_neither_counts_nor_builds_the_table(permit_fixture, landmarks_at_once):
    # The state search only reads a table that exists: on a network that
    # has served no static search it runs on the context's zero bounds, and
    # it leaves the count and the table alone.
    net, scope = permit_fixture
    ctx = build_detour_context(net, scope, None, 0, 3)
    fwd, bwd, meeting = scoperoute.detour._state_search_halves(ctx)
    assert meeting is not None
    assert "plain searches" not in net._aux and "landmarks" not in net._aux


@pytest.mark.parametrize("table", [True, False], ids=["table", "no-table"])
def test_detour_context_makes_no_bound_runs(permit_fixture, monkeypatch, request, table):
    # build_detour_context's readers (validate_simple_detour, _recheck_detour
    # and so the CLI's re-check) read no direction bound, so it makes no
    # dijkstra run for one, with the landmark table or without it. A route's
    # permit path without the table keeps its two exact-distance runs.
    runs = []
    real = scoperoute.detour.dijkstra

    def counting(*args, **kwargs):
        runs.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(scoperoute.detour, "dijkstra", counting)
    if table:
        request.getfixturevalue("landmarks_at_once")
    nf = generate_synthetic("grid", 12, 3, seed=3)
    grid, grid_scope = nf.network, balance_to_proper(nf.network, nf.scope)
    grid = grid.with_updated_weights({e: INF for e in range(0, grid.edge_count, 17)})
    for closed, scope, t in (permit_fixture + (3,), (grid, grid_scope, grid.vertex_count - 1)):
        if table:
            bidirectional_s_dijkstra(closed, scope, 0, t)  # builds the table
        assert ("landmarks" in closed._aux) == table
        res = simple_detour_route(closed, scope, 0, t)
        del runs[:]
        build_detour_context(closed, scope, None, 0, t)
        assert validate_simple_detour(res.walk, closed, scope, None, 0, t)
        assert scoperoute.detour._recheck_detour(res.walk, closed, scope, True, 0, t)
        assert runs == []
        _permit_path(closed, scope, 0, t, False)
        assert runs == ([] if table else [t, 0])


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


@pytest.mark.parametrize("route", [simple_detour_route, enhanced_detour_route])
@pytest.mark.parametrize("plain", [True, False], ids=["plain", "goal-directed"])
def test_copy_without_raised_edges_runs_no_drained_search(monkeypatch, route, plain):
    # Nothing raised: the static walk exits, found by the bidirectional
    # search alone (plain, or goal-directed once the landmark table is
    # built), and it is the walk the drained runs give.
    def failing(*args, **kwargs):
        raise AssertionError("drained s_dijkstra called")

    if not plain:
        monkeypatch.setattr(scoperoute.search, "_PLAIN_SEARCHES", 0)

    rng = random.Random(41)
    cases = []
    while len(cases) < 40:
        net, scope = random_network(rng, max_vertices=10)
        s, t = rng.randrange(net.vertex_count), rng.randrange(net.vertex_count)
        drained = full_split_minimum(s_dijkstra(net, scope, s), s_dijkstra(net.reverse(), scope, t))
        if drained.walk is not None:
            cases.append((net, scope, s, t, drained))
    monkeypatch.setattr(scoperoute.detour, "s_dijkstra", failing)
    for net, scope, s, t, drained in cases:
        res = route(net.with_updated_weights({}), scope, s, t)
        assert (res.klass, res.walk, res.cost_updated) == ("static", drained.walk, drained.cost)
        assert res.scanned_static == bidirectional_s_dijkstra(net, scope, s, t).scanned_count


def test_quasi_closure_only_after_the_static_exit(n1, n1_scope15, permit_fixture, monkeypatch):
    # The enhanced route grows the closure set only once the static walk has
    # failed, from the open weighting it has read; a static result reports
    # no quasi-closure work.
    calls = []
    real = scoperoute.detour._quasi_closure

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(scoperoute.detour, "_quasi_closure", counting)
    res = enhanced_detour_route(n1.with_updated_weights({3: INF}), n1_scope15, 0, 3)
    assert (res.klass, res.qc_iterations, res.qc_added, len(calls)) == ("static", 0, 0, 0)
    net, scope = permit_fixture
    res = enhanced_detour_route(net, scope, 0, 3)
    assert (res.klass, len(calls)) == ("enhanced-detour", 1)
    assert res.qc_iterations == qc_closure(net, scope, None, 0, 3).iterations
