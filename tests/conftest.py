import math
import random
from types import SimpleNamespace

import pytest

import scoperoute.search
from scoperoute import Walk, build_network, make_scope

INF = math.inf


def full_split_minimum(forward, backward):
    """The split minimum of two runs' labels scanned over all n vertices,
    the lowest vertex on ties, and its stitched walk: forward tree walk to
    the meeting vertex, then the reversed backward tree walk. Written here,
    apart from ``search._split_minimum``, whose scans over fewer vertices
    it checks."""
    cost, meeting = INF, None
    for v in range(len(forward.dist)):
        total = forward.dist[v] + backward.dist[v]
        if total < cost:
            cost, meeting = total, v
    walk = None
    if meeting is not None:
        prefix, suffix = forward.walk_to(meeting).edges, backward.walk_to(meeting).edges
        walk = Walk(forward.source, prefix + suffix[::-1])
    scanned = forward.scanned_count + backward.scanned_count
    return SimpleNamespace(cost=cost, meeting=meeting, walk=walk, scanned_count=scanned)


@pytest.fixture
def landmarks_at_once(monkeypatch):
    """Every network builds its landmark table on its first static search."""
    monkeypatch.setattr(scoperoute.search, "_PLAIN_SEARCHES", 0)


@pytest.fixture
def n1():
    """Four-vertex micro-network: s=0, a=1, b=2, t=3.

    e0=(s,a,2) level 0, e1=(a,b,10) unbounded, e2=(b,t,2) level 0,
    e3=(a,t,20) unbounded.
    """
    return build_network(4, [(0, 1), (1, 2), (2, 3), (1, 3)], [2, 10, 2, 20])


@pytest.fixture
def n1_scope5():
    return make_scope([0, 1, 0, 1], [5, INF])


@pytest.fixture
def n1_scope15():
    return make_scope([0, 1, 0, 1], [15, INF])


@pytest.fixture
def n1e5():
    """n1 plus a parallel level-0 shortcut e4=(a,b,4)."""
    return build_network(4, [(0, 1), (1, 2), (2, 3), (1, 3), (1, 2)], [2, 10, 2, 20, 4])


@pytest.fixture
def n1e5_scope5():
    return make_scope([0, 1, 0, 1, 0], [5, INF])


@pytest.fixture
def permit_fixture():
    """Line with an unbounded closure bypassable only on a level-0 road.

    s=0, a=1, b=2, t=3; e0=(s,a,10,inf), e1=(a,b,10,inf) to be closed,
    e2=(b,t,10,inf), e3=(a,b,4, level 0); budget 5 at level 0, so e3 is
    inadmissible from either end and needs a detour permit.
    """
    net = build_network(4, [(0, 1), (1, 2), (2, 3), (1, 2)], [10, 10, 10, 4])
    scope = make_scope([1, 1, 1, 0], [5, INF])
    return net.with_updated_weights({1: INF}), scope


def random_network(rng: random.Random, max_vertices=12, max_edges=30, max_levels=3, max_weight=20):
    n = rng.randint(3, max_vertices)
    m = rng.randint(n, min(max_edges, 3 * n))
    edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
    weights = [rng.randint(1, max_weight) for _ in range(m)]
    net = build_network(n, edges, weights)
    levels_used = rng.randint(2, max_levels)
    lv = [rng.randrange(levels_used) for _ in range(m)]
    nu_vals = sorted(rng.sample(range(0, 50), levels_used - 1)) + [INF]
    scope = make_scope(lv, nu_vals)
    return net, scope


def strongly_connected_network(rng: random.Random, max_vertices=10, max_levels=3):
    n = rng.randint(4, max_vertices)
    order = list(range(n))
    rng.shuffle(order)
    edges = [(order[i], order[(i + 1) % n]) for i in range(n)]
    for _ in range(rng.randint(1, n)):
        edges.append((rng.randrange(n), rng.randrange(n)))
    weights = [rng.randint(1, 9) for _ in edges]
    net = build_network(n, edges, weights)
    levels_used = rng.randint(2, max_levels)
    lv = [rng.randrange(levels_used) for _ in edges]
    nu_vals = sorted(rng.sample(range(1, 30), levels_used - 1)) + [INF]
    return net, make_scope(lv, nu_vals)


def bypass_network(rng: random.Random):
    """A chain of unbounded roads from 0 to t with one closed, a level-0 or
    level-1 bypass around the closed road, and 0-3 random roads.

    Returns ``(net, scope, 0, t)``, the closed road at infinite updated
    weight. The bypass runs through its own vertex t + 1; with budgets drawn
    below 6 it often needs a permit, so about one optimal walk in seven has
    an anchored witness.
    """
    t = rng.randint(3, 6)
    n = t + 2
    closed = rng.randint(1, t - 2)
    a, b = rng.randint(0, closed), rng.randint(closed + 1, t)
    edges = [(i, i + 1) for i in range(t)] + [(a, t + 1), (t + 1, b)]
    levels = [2] * t + [rng.randint(0, 1)] * 2
    for _ in range(rng.randint(0, 3)):
        edges.append((rng.randrange(n), rng.randrange(n)))
        levels.append(rng.randrange(3))
    weights = [rng.randint(1, 9) for _ in edges]
    net = build_network(n, edges, weights).with_updated_weights({closed: INF})
    return net, make_scope(levels, sorted(rng.sample(range(1, 6), 2)) + [INF]), 0, t
