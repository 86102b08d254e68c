import math
import operator
import random
import time

import pytest

import scoperoute.detour
import scoperoute.search
from scoperoute import (
    NetworkError,
    Walk,
    bidirectional_s_dijkstra,
    brute_force_optimal_admissible,
    build_network,
    dijkstra,
    enhanced_detour_route,
    is_saturated,
    make_scope,
    oracle_settled_labels,
    s_dijkstra,
    simple_detour_route,
    validate_s_admissible,
    validate_split_admissible,
)
from scoperoute.netio import generate_synthetic
from scoperoute.network import balance_to_proper
from scoperoute.search import _edge_pack, _goal_potentials, _landmark_rows

from conftest import full_split_minimum, random_network, strongly_connected_network

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


def _drained_split_minimum(net, scope, s, t, weighting="base"):
    return full_split_minimum(
        s_dijkstra(net, scope, s, weighting), s_dijkstra(net.reverse(), scope, t, weighting)
    )


def _reweighted(net, rng, kind):
    """``net`` with weights drawn afresh: small or large positive integers,
    positive fractions, or integers with zeros among them (edge 0's at
    least)."""
    draw = {
        "integer": lambda: rng.randint(1, 9),
        "large": lambda: rng.randint(4000, 6000),
        "fractional": lambda: rng.choice([0.1, 0.2, 0.3, 0.7, 1.1, 2.5, 1 / 3]),
        "zero": lambda: rng.choice([0, 0, 1, 2, 3]),
    }[kind]
    edges = [net.edge(e) for e in range(net.edge_count)]
    weights = [draw() for _ in edges]
    if kind == "zero":
        weights[0] = 0
    return build_network(net.vertex_count, edges, weights)


@pytest.mark.parametrize("kind", ["integer", "large", "fractional", "zero"])
def test_bidirectional_matches_drained_split_minimum(kind, landmarks_at_once):
    # Goal direction is on for positive integer weights only. With positive
    # weights the result is the drained runs' split minimum: cost, lowest
    # meeting vertex and walk. With zero weights the cost is, and the walk
    # is a split-admissible walk of that cost. Large integers put distances
    # past int16. Whatever the weights, the search scans only its settled
    # vertices (forwards when goal-directed, both sides when plain), and
    # that gives what a scan of its labels over all n gives, zero-weight
    # ties included.
    rng = random.Random(f"bidirectional/{kind}")
    integer = kind in ("integer", "large")
    for _ in range(300):
        net, scope = random_network(rng, max_vertices=14)
        net = _reweighted(net, rng, kind)
        s, t = rng.randrange(net.vertex_count), rng.randrange(net.vertex_count)
        runs = [(net, "base")]
        if integer:
            # Raised weights keep the base-weight bounds valid.
            e = rng.randrange(net.edge_count)
            runs.append((net.with_updated_weights({e: rng.choice([INF, net.weight[e] + 5])}), "updated"))
        for graph, weighting in runs:
            goal = _goal_potentials(graph, weighting, s, t)[0] is not None
            assert goal == integer
            bid = bidirectional_s_dijkstra(graph, scope, s, t, weighting)
            own = full_split_minimum(bid.forward, bid.backward)
            assert (bid.cost, bid.meeting, bid.walk) == (own.cost, own.meeting, own.walk)
            ref = _drained_split_minimum(graph, scope, s, t, weighting)
            assert bid.cost == ref.cost
            if kind != "zero":
                assert (bid.meeting, bid.walk) == (ref.meeting, ref.walk)
            elif bid.walk is not None:
                assert bid.walk.start == s and bid.walk.end(graph) == t
                assert bid.walk.cost(graph, weighting) == bid.cost
                assert validate_split_admissible(bid.walk, graph, scope, s, t, weighting)


def _assert_settle_order(run, tails, drained):
    """``run.order`` lists each settled vertex once, each after its tree
    parent (so the source first); a drained run settles every vertex it
    reaches."""
    settled = set()
    for v in run.order:
        e = run.parent_edge[v]
        assert v not in settled and (e is None) == (v == run.source)
        assert e is None or tails[e] in settled
        settled.add(v)
    assert run.scanned_count == len(run.order)
    reached = {v for v, d in enumerate(run.dist) if d < INF}
    assert settled == reached if drained else settled <= reached


@pytest.mark.parametrize("kind", ["integer", "fractional", "zero"])
def test_order_is_a_settle_order(kind, landmarks_at_once):
    # Drained runs and both sides of a bidirectional search, goal-directed
    # on integer weights. With zero weights, ties in distance do not tell
    # which vertex settled first.
    rng = random.Random(f"order/{kind}")
    for _ in range(200):
        net, scope = random_network(rng, max_vertices=14)
        net = _reweighted(net, rng, kind)
        rev = net.reverse()
        s, t = rng.randrange(net.vertex_count), rng.randrange(net.vertex_count)
        _assert_settle_order(s_dijkstra(net, scope, s), net.tails, drained=True)
        _assert_settle_order(s_dijkstra(rev, scope, t, "updated"), rev.tails, drained=True)
        bid = bidirectional_s_dijkstra(net, scope, s, t)
        _assert_settle_order(bid.forward, net.tails, drained=False)
        _assert_settle_order(bid.backward, rev.tails, drained=False)


@pytest.fixture(scope="module")
def acceptance_grid():
    nf = generate_synthetic("grid", 50, 3, seed=42)
    return nf.network, balance_to_proper(nf.network, nf.scope), nf.coordinates


def test_goal_directed_grid_search_settles_a_quarter(acceptance_grid, landmarks_at_once):
    # On long pairs of the acceptance grid the walks are the drained runs'
    # and the two searches settle under a quarter of the vertices they do.
    net, scope, coordinates = acceptance_grid
    rng = random.Random(7)
    vertices = sorted(coordinates)
    settled = drained = pairs = 0
    while pairs < 100:
        s, t = rng.choice(vertices), rng.choice(vertices)
        (xs, ys), (xt, yt) = coordinates[s], coordinates[t]
        if abs(xs - xt) + abs(ys - yt) < 40:
            continue
        pairs += 1
        bid = bidirectional_s_dijkstra(net, scope, s, t)
        ref = _drained_split_minimum(net, scope, s, t)
        assert (bid.cost, bid.meeting, bid.walk) == (ref.cost, ref.meeting, ref.walk)
        settled += bid.scanned_count
        drained += ref.scanned_count
    assert settled < drained / 4


def test_landmark_table_built_after_plain_searches():
    # A network and its weight variants share one count of static searches:
    # the first _PLAIN_SEARCHES run plain and build nothing, the next one
    # builds the table and settles fewer vertices for the same walk.
    nf = generate_synthetic("grid", 12, 3, seed=3)
    net, scope = nf.network, balance_to_proper(nf.network, nf.scope)
    s, t = 0, net.vertex_count - 1
    plain = scoperoute.search._PLAIN_SEARCHES
    first = bidirectional_s_dijkstra(net, scope, s, t)
    for i in range(1, plain):
        graph = net if i % 2 else net.with_updated_weights({})
        again = bidirectional_s_dijkstra(graph, scope, s, t)
        assert (again.walk, again.scanned_count) == (first.walk, first.scanned_count)
    assert "landmarks" not in net._aux
    goal = bidirectional_s_dijkstra(net.with_updated_weights({}), scope, s, t)
    assert net._aux["landmarks"] is not None
    assert goal.walk == first.walk and goal.scanned_count < first.scanned_count


def test_no_goal_direction_past_int32(landmarks_at_once):
    # Distances that can reach int32's largest value leave the table unbuilt
    # and the search plain.
    big = 2**30
    net = build_network(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [big, big, big, 3 * big + 1])
    scope = make_scope([1, 1, 1, 1], [5, INF])
    bid = bidirectional_s_dijkstra(net, scope, 0, 3)
    assert _landmark_rows(net) is None
    assert _goal_potentials(net, "base", 0, 3) == (None, None)
    ref = _drained_split_minimum(net, scope, 0, 3)
    assert (bid.cost, bid.meeting, bid.walk) == (ref.cost, ref.meeting, ref.walk) == (
        3 * big, 0, Walk(0, (0, 1, 2))
    )


def _landmark_terms(net, columns):
    """The table's terms recomputed from ``dijkstra`` distances, in table
    order: ``d(L, y) - d(L, x)`` for each landmark ``L``, then
    ``d(x, L) - d(y, L)``, then 0, each as a function of ``(x, y)``, with
    int32's largest value for an unreachable distance. Landmark ``L`` is the
    one vertex whose entry ``d(L, L)`` is 0 in its column (the weights are
    positive)."""
    far = scoperoute.search._FAR
    n = net.vertex_count
    k = min(scoperoute.search._LANDMARKS, n)
    landmarks = [[v for v in range(n) if columns[i][v] == 0] for i in range(k)]
    assert all(len(found) == 1 for found in landmarks)
    landmarks = [found[0] for found in landmarks]
    assert len(set(landmarks)) == k and len(columns) == 2 * k + 1
    rev = net.reverse()
    out = [[far if d == INF else int(d) for d in dijkstra(net, "base", L).dist] for L in landmarks]
    back = [[far if d == INF else int(d) for d in dijkstra(rev, "base", L).dist] for L in landmarks]
    terms = [lambda x, y, d=d: d[y] - d[x] for d in out]
    terms += [lambda x, y, d=d: d[x] - d[y] for d in back]
    return terms + [lambda x, y: 0], out + back


def _table_from_dijkstra(net):
    """The landmark table rebuilt from ``dijkstra`` runs: farthest-point
    landmarks (the first the farthest reached from vertex 0, each next one
    the largest smallest round trip to those chosen, the lowest vertex on
    ties), one column of ``d(L, v)`` per landmark, then one of
    ``-d(v, L)``, then a column of zeros, with int32's largest value for an
    unreachable distance."""
    far = scoperoute.search._FAR
    n = net.vertex_count
    rev = net.reverse()
    first = dijkstra(net, "base", 0).dist
    landmark = max(range(n), key=lambda v: (first[v] < INF, first[v], -v))
    round_trip = [INF] * n
    out, back = [], []
    for _ in range(min(scoperoute.search._LANDMARKS, n)):
        to, fro = dijkstra(net, "base", landmark).dist, dijkstra(rev, "base", landmark).dist
        out.append(tuple(far if d == INF else int(d) for d in to))
        back.append(tuple(-far if d == INF else -int(d) for d in fro))
        round_trip = [min(r, x + y) for r, x, y in zip(round_trip, to, fro)]
        landmark = max(range(n), key=lambda v: (round_trip[v], -v))
    return out + back + [(0,) * n]


def test_landmark_columns_are_those_of_dijkstra_distances(acceptance_grid, landmarks_at_once):
    # The table is one tuple per term, landmark distances out, then negated
    # distances back, then zeros, equal to the one rebuilt here from
    # dijkstra runs, on the acceptance grid and on random networks with
    # unreachable pairs; equal entries are one int object.
    far = scoperoute.search._FAR
    rng = random.Random("landmark columns")
    nets = [acceptance_grid[0]]
    nets += [random_network(rng, max_vertices=30, max_edges=45)[0] for _ in range(60)]
    unreachable = 0
    for net in nets:
        scoperoute.search._landmarks_now(net)
        table = _landmark_rows(net)
        assert len(table) == 2 * min(scoperoute.search._LANDMARKS, net.vertex_count) + 1
        assert isinstance(table[0], tuple) and len(table[0]) == net.vertex_count
        assert table == _table_from_dijkstra(net)
        values = {x for column in table for x in column}
        assert len({id(x) for column in table for x in column}) == len(values)
        unreachable += far in values
    assert unreachable >= 20, unreachable


def _selected(terms, s, t):
    """The indices of the _TERMS terms largest on ``(s, t)``, the earlier
    one in table order on ties, padded with the 0 term."""
    count = scoperoute.search._TERMS
    ranked = sorted(range(len(terms)), key=lambda i: (-terms[i](s, t), i))[:count]
    return ranked + [len(terms) - 1] * (count - len(ranked))


def test_landmark_bounds_are_those_of_dijkstra_distances(landmarks_at_once):
    # Every bound _landmark_potentials gives on (s, t) equals the one
    # recomputed from dijkstra distances to and from the table's landmarks:
    # on d(x, y), the largest of 0 and the _TERMS terms d(L, y) - d(L, x)
    # and d(x, L) - d(y, L) that are largest on (s, t) itself, so at the
    # start vertex of either side it is the bound of all the terms, and
    # everywhere at most that bound. On a one-way ring every landmark is
    # behind a vertex's successor, so the bound on that step back round the
    # ring is floored.
    far = scoperoute.search._FAR
    rng = random.Random("landmark bounds")
    unreachable = floored = checked = 0
    for i in range(200):
        net, scope = random_network(rng, max_vertices=30, max_edges=60)
        n = net.vertex_count
        if i % 2:
            ring = [(v, (v + 1) % n) for v in range(n)]
            net = build_network(n, ring, [rng.randint(1, 20) for _ in ring])
            scope = make_scope([1] * n, [5, INF])
        bidirectional_s_dijkstra(net, scope, 0, n - 1)  # builds the table
        terms, columns = _landmark_terms(net, _landmark_rows(net))
        for _ in range(3):
            s, t = rng.randrange(n), rng.randrange(n)
            chosen = _selected(terms, s, t)
            # The kept terms (padding left out) are the largest on (s, t).
            kept = sorted((terms[j](s, t) for j in chosen[: len(terms)]), reverse=True)
            values = sorted((term(s, t) for term in terms), reverse=True)
            assert kept == values[: len(kept)]
            toward_target, toward_source = scoperoute.search._landmark_potentials(net, s, t)
            assert toward_target(s) == toward_source(t) == max(values)
            for v in range(n):
                for (x, y), got in (((v, t), toward_target(v)), ((s, v), toward_source(v))):
                    gaps = [terms[j](x, y) for j in chosen]
                    assert got == max(0, *gaps), (x, y)
                    assert got <= max(term(x, y) for term in terms), (x, y)
                    unreachable += any(d[x] == far or d[y] == far for d in columns)
                    floored += max(gaps) < 0
                    checked += 1
                    # A lower bound on the base-weight distance wherever it is finite.
                    d_xy = dijkstra(net, "base", x).dist[y]
                    assert d_xy == INF or got <= d_xy
    assert checked > 5000 and unreachable > 1000 and floored > 500, (checked, unreachable, floored)


def test_landmark_bounds_pad_a_small_table_with_the_zero_term(landmarks_at_once):
    # A network of 3 vertices has 3 landmarks and 7 terms, fewer than
    # _TERMS: every term is kept and the 0 term pads the rest, so each bound
    # is that of all the terms, and the search still finds the drained
    # runs' walk.
    net = build_network(3, [(0, 1), (1, 2), (2, 0), (0, 2)], [2, 3, 4, 9])
    scope = make_scope([1, 1, 1, 1], [5, INF])
    bid = bidirectional_s_dijkstra(net, scope, 0, 2)  # builds the table
    columns = _landmark_rows(net)
    assert len(columns) == 7 < scoperoute.search._TERMS
    terms, _ = _landmark_terms(net, columns)
    for s in range(3):
        for t in range(3):
            toward_target, toward_source = scoperoute.search._landmark_potentials(net, s, t)
            for v in range(3):
                assert toward_target(v) == max(term(v, t) for term in terms)
                assert toward_source(v) == max(term(s, v) for term in terms)
    ref = _drained_split_minimum(net, scope, 0, 2)
    assert (bid.cost, bid.meeting, bid.walk) == (ref.cost, ref.meeting, ref.walk) == (5, 0, Walk(0, (0, 1)))


def _all_terms_potentials(network, source, target):
    """Bounds of every term of the landmark table, the largest of them and 0."""
    columns = network._aux.get("landmarks")
    if columns is None:
        return None, None
    at_t, at_s = [col[target] for col in columns], [col[source] for col in columns]

    def toward_target(v):
        return max(map(operator.sub, at_t, [col[v] for col in columns]))

    def toward_source(v):
        return max(map(operator.sub, [col[v] for col in columns], at_s))

    return toward_target, toward_source


def test_selected_terms_give_the_results_of_all_terms(acceptance_grid, landmarks_at_once, monkeypatch):
    # The search's cost, meeting vertex and walk do not depend on the
    # potential: the _TERMS selected terms give those of every term of the
    # table, on integer random networks (raised copies included) and on
    # long pairs of the acceptance grid, where they settle more vertices.
    def both(graph, scope, s, t, weighting="base"):
        selected = bidirectional_s_dijkstra(graph, scope, s, t, weighting)
        with monkeypatch.context() as patched:
            patched.setattr(scoperoute.search, "_landmark_potentials", _all_terms_potentials)
            every = bidirectional_s_dijkstra(graph, scope, s, t, weighting)
        assert (selected.cost, selected.meeting, selected.walk) == (every.cost, every.meeting, every.walk)
        return selected.scanned_count, every.scanned_count

    rng = random.Random("selected terms")
    for _ in range(300):
        net, scope = random_network(rng, max_vertices=40, max_edges=90)
        net = _reweighted(net, rng, rng.choice(["integer", "large"]))
        s, t = rng.randrange(net.vertex_count), rng.randrange(net.vertex_count)
        both(net, scope, s, t)
        e = rng.randrange(net.edge_count)
        raised = net.with_updated_weights({e: rng.choice([INF, net.weight[e] + 5])})
        both(raised, scope, s, t, "updated")
        assert net._aux["landmarks"] is not None
    net, scope, coordinates = acceptance_grid
    vertices = sorted(coordinates)
    settled = [0, 0]
    pairs = 0
    while pairs < 40:
        s, t = rng.choice(vertices), rng.choice(vertices)
        (xs, ys), (xt, yt) = coordinates[s], coordinates[t]
        if abs(xs - xt) + abs(ys - yt) < 40:
            continue
        pairs += 1
        settled = list(map(operator.add, settled, both(net, scope, s, t)))
    assert settled[1] < settled[0], settled


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

    def test_split_rejects_walk_over_infinite_edge(self):
        # Edge 0 is closed under the updated weights; its tail still passes
        # the gate, but the walk costs inf and the optimum goes round it.
        net = build_network(3, [(0, 1), (1, 2), (0, 2)], [1, 1, 5]).with_updated_weights({0: INF})
        scope = make_scope([1, 1, 1], [5, INF])
        assert brute_force_optimal_admissible(net, scope, 0, 2, weighting="updated") == (5.0, 0)
        assert not validate_split_admissible(Walk(0, (0, 1)), net, scope, 0, 2, "updated")
        assert validate_split_admissible(Walk(0, (0, 1)), net, scope, 0, 2, "base")
        assert validate_split_admissible(Walk(0, (2,)), net, scope, 0, 2, "updated")


class TestOracle:
    def test_n1_agrees_with_searches(self, n1, n1_scope15, n1_scope5):
        cost, _ = brute_force_optimal_admissible(n1, n1_scope15, 0, 3, hop_bound=6)
        assert cost == 14.0
        uni, _ = brute_force_optimal_admissible(n1, n1_scope5, 0, 3, split=False)
        assert uni == s_dijkstra(n1, n1_scope5, 0).dist[3] == 22.0

    @pytest.mark.parametrize("vertex", [-1, 4])
    def test_unknown_source_rejected(self, n1, n1_scope15, vertex):
        with pytest.raises(NetworkError, match=f"unknown source vertex {vertex}"):
            oracle_settled_labels(n1, n1_scope15, vertex)

    @pytest.mark.parametrize("split", [True, False])
    @pytest.mark.parametrize("ends, message", [
        ((-1, 3), "unknown source vertex -1"), ((4, 3), "unknown source vertex 4"),
        ((0, -1), "unknown target vertex -1"), ((0, 4), "unknown target vertex 4"),
    ])
    def test_unknown_endpoint_rejected(self, n1, n1_scope15, ends, message, split):
        with pytest.raises(NetworkError, match=message):
            brute_force_optimal_admissible(n1, n1_scope15, *ends, split=split)

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


def _marking_runs(monkeypatch, modules):
    """Wrap ``_scope_search`` as ``modules`` import it so that each run it
    starts checks its own ``final`` marks against a drained run of the same
    labels: at each yield the marks are exactly ``order`` and the pending
    head, each marked vertex has the drained run's ``dist`` and ``sigma``,
    and a run whose queue empties marks every vertex. Returns a log with
    one ``[module name, steps, ended]`` entry per run, filled as the run
    goes."""
    real = scoperoute.search._scope_search
    log = []

    def checked(res, steps, drained, entry):
        def agree(marked):
            for v in marked:
                assert (res.dist[v], res.sigma[v]) == (drained.dist[v], drained.sigma[v]), v

        head = None
        try:
            for head in steps:
                marked = {v for v, mark in enumerate(res.final) if mark}
                assert marked == set(res.order) | {head[-1]}
                agree(marked)
                entry[1] += 1
                yield head
            entry[2] = True
            assert all(res.final)
            agree(range(len(res.final)))
        finally:
            steps.close()
            if not entry[2]:
                marked = {v for v, mark in enumerate(res.final) if mark}
                assert set(res.order) <= marked <= set(res.order) | {head[-1]}

    def wrapped(name):
        def search(network, scope, source, weighting, seed_sigma=None, potential=None, bounds=None):
            res, steps = real(network, scope, source, weighting, seed_sigma, potential, bounds)
            drained, rest = real(network, scope, source, weighting, seed_sigma)
            for _ in rest:
                pass
            entry = [name, 0, False]
            log.append(entry)
            return res, checked(res, steps, drained, entry)

        return search

    for module in modules:
        monkeypatch.setattr(module, "_scope_search", wrapped(module.__name__))
    return log


@pytest.mark.parametrize("table", [False, True], ids=["plain", "goal-directed"])
def test_static_runs_mark_their_final_labels(table, request, monkeypatch):
    # The plain static search, and with the landmark table the
    # goal-directed one, leave both runs short of draining, each marking
    # what it settled and its pending head; drained runs mark everything.
    if table:
        request.getfixturevalue("landmarks_at_once")
    else:
        monkeypatch.setattr(scoperoute.search, "_PLAIN_SEARCHES", 10**9)
    log = _marking_runs(monkeypatch, [scoperoute.search])
    rng = random.Random(f"marks/{table}")
    for _ in range(300):
        net, scope = random_network(rng, max_vertices=14)
        s, t = rng.randrange(net.vertex_count), rng.randrange(net.vertex_count)
        bidirectional_s_dijkstra(net, scope, s, t)
        s_dijkstra(net, scope, s)
        assert ("landmarks" in net._aux) == table
    stepped = sum(steps for _, steps, _ in log)
    short = sum(1 for _, steps, ended in log if steps and not ended)
    ended = sum(1 for *_, ended in log if ended)
    assert stepped > 2500 and short > 200 and ended > 400, (stepped, short, ended)


def test_closing_an_edge_can_lower_a_scoped_distance():
    # Scoped labels are not monotone in the weights. Edge 0 (0 -> 1) is the
    # cheapest way to 1, but at level 1 it draws 1 from the level-0 budget
    # of 0.5, so 1 cannot take its level-0 edge to 2, and 2 is reached only
    # through 4, at 100. Closing edge 0 leaves 0 -> 3 -> 1 the cheapest way
    # to 1, at no draw, and 2 is reached at 6.
    net = build_network(5, [(0, 1), (0, 3), (3, 1), (1, 2), (0, 4), (4, 2)], [1, 2, 3, 1, 50, 50])
    scope = make_scope([1, 0, 0, 0, 0, 0], [0.5, INF])
    assert s_dijkstra(net, scope, 0).dist[2] == 100
    closed = net.with_updated_weights({0: INF})
    assert s_dijkstra(closed, scope, 0, "updated").dist[2] == 6


def test_certificate_gate_runs_mark_their_final_labels(monkeypatch):
    # The detour routes step their gate runs lazily, first in the
    # certificate, then where the permit-state search reads them; each run
    # marks its final labels as it goes, whoever steps it. The own-draw
    # check on the d_open run's walk rejects here, so that every
    # certificate steps its gate runs.
    log = _marking_runs(monkeypatch, [scoperoute.search, scoperoute.detour])
    certified = []
    real_certificate = scoperoute.detour._certificate

    def certificate(*args):
        result = real_certificate(*args)
        certified.append(result[0])
        return result

    monkeypatch.setattr(scoperoute.detour, "_own_draw_split", lambda *args: False)
    monkeypatch.setattr(scoperoute.detour, "_certificate", certificate)
    rng = random.Random("marks/certificate")
    for _ in range(600):
        net, scope = strongly_connected_network(rng, max_vertices=14)
        # Budgets below 6 make failed certificates, whose runs the
        # permit-state search steps on, common.
        nu = sorted(rng.sample(range(1, 6), scope.top)) + [INF]
        scope = make_scope(scope.level, nu)
        s, t = rng.randrange(net.vertex_count), rng.randrange(net.vertex_count)
        static = bidirectional_s_dijkstra(net, scope, s, t)
        if not static.walk or not static.walk.edges:
            continue
        closed_edges = {rng.choice(static.walk.edges)} | {rng.randrange(net.edge_count)}
        closed = net.with_updated_weights({e: INF for e in closed_edges})
        simple_detour_route(closed, scope, s, t)
        enhanced_detour_route(closed, scope, s, t)
    failed = sum(1 for c in certified if c is None)
    # The detour module starts only the lazy gate runs.
    short = sum(1 for name, steps, ended in log if name == "scoperoute.detour" and steps and not ended)
    assert len(certified) > 600 and failed > 30 and short > 250, (len(certified), failed, short)
