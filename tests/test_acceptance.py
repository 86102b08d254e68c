"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line with the measured quantities. Run with ``pytest -v -s
tests/test_acceptance.py`` to see the report lines.
"""

import math
import random
import statistics

import pytest

from scoperoute import (
    BenchConfig,
    Walk,
    balance_to_proper,
    bidirectional_s_dijkstra,
    brute_force_optimal_admissible,
    build_detour_context,
    build_network,
    contract_degree2_chains,
    dijkstra,
    enhanced_detour_route,
    generate_synthetic,
    is_proper,
    make_scope,
    qc_closure,
    run_benchmark,
    s_dijkstra,
    simple_detour_route,
    validate_full_detour,
    validate_simple_detour,
    validate_split_admissible,
)
from scoperoute.cli import main

from conftest import bypass_network, random_network, strongly_connected_network

INF = math.inf


def report(line: str) -> None:
    print(f"\n[acceptance] {line}")


class TestCriterion1OracleEquivalence:
    def test_search_costs_match_enumeration_oracle(self):
        rng = random.Random(20260810)
        checked = 0
        for _ in range(500):
            net, scope = random_network(rng, max_vertices=12, max_edges=30, max_levels=3)
            s = rng.randrange(net.vertex_count)
            t = rng.randrange(net.vertex_count)
            uni = s_dijkstra(net, scope, s)
            uni_oracle, _ = brute_force_optimal_admissible(
                net, scope, s, t, hop_bound=net.vertex_count + 2, split=False
            )
            assert uni.dist[t] == uni_oracle
            bid = bidirectional_s_dijkstra(net, scope, s, t)
            split_oracle, _ = brute_force_optimal_admissible(
                net, scope, s, t, hop_bound=net.vertex_count + 2
            )
            assert bid.cost == split_oracle
            checked += 1
        report(f"criterion 1 (oracle equivalence on {checked} random networks): PASS")


class TestCriterion2DegenerateReduction:
    def test_unbounded_scope_equals_classical_dijkstra(self):
        rng = random.Random(2)
        for _ in range(100):
            net, scope = random_network(rng)
            top_scope = make_scope([scope.top] * net.edge_count, scope.nu)
            s = rng.randrange(net.vertex_count)
            assert s_dijkstra(net, top_scope, s).dist == dijkstra(net, "base", s).dist
        report("criterion 2 (degenerate scope reduces to classical search, 100 instances): PASS")


def _brute_min_detour(net, scope, active, s, t, hop_bound, ctx):
    best = INF
    stack = [(s, 0.0, ())]
    while stack:
        at, cost, edges = stack.pop()
        if at == t and cost < best:
            if validate_simple_detour(Walk(s, edges), net, scope, active, s, t, ctx):
                best = cost
        if len(edges) >= hop_bound:
            continue
        for e in net.out_edges(at):
            if e in active or net.weight_updated[e] == INF:
                continue
            w = net.weight_updated[e]
            if cost + w >= best:
                continue
            stack.append((net.heads[e], cost + w, edges + (e,)))
    return best


class TestCriterion3SimpleDetourOptimality:
    def test_route_cost_matches_validated_brute_force(self):
        rng = random.Random(99)
        checked = 0
        while checked < 300:
            net, scope = random_network(rng, max_vertices=12)
            s = rng.randrange(net.vertex_count)
            t = rng.randrange(net.vertex_count)
            static = bidirectional_s_dijkstra(net, scope, s, t, "base")
            if static.walk is None or not static.walk.edges:
                continue
            pool = list(static.walk.edges)
            chosen = set(rng.sample(pool, min(len(pool), rng.randint(1, 3))))
            extra = [e for e in range(net.edge_count) if e not in chosen]
            if extra and rng.random() < 0.5:
                chosen.update(rng.sample(extra, min(len(extra), rng.randint(0, 2))))
            closed = net.with_updated_weights({e: INF for e in chosen})
            res = simple_detour_route(closed, scope, s, t)
            ctx = build_detour_context(closed, scope, None, s, t)
            brute = _brute_min_detour(
                closed, scope, frozenset(chosen), s, t, closed.vertex_count + 4, ctx
            )
            expected = brute
            if res.static_walk is not None:
                expected = min(expected, res.static_walk.cost(closed, "updated"))
            got = res.cost_updated if res.walk is not None else INF
            assert got == expected
            checked += 1
        report(f"criterion 3 (simple-detour optimality on {checked} seeded instances): PASS")

    def test_route_cost_matches_validated_brute_force_on_bypass_networks(self):
        # The same comparison on the failed static exits of the bypass
        # networks, for both routes; the enhanced one is checked against its
        # own closure set, the quasi-closure. (A static walk that survives
        # is returned by the early exit, even where a detour would be
        # cheaper; criterion 3 closes an edge of it, so it never survives.)
        failed = permitted = 0
        for seed in range(3000):
            net, scope, s, t = bypass_network(random.Random(seed))
            for route in (simple_detour_route, enhanced_detour_route):
                res = route(net, scope, s, t)
                if res.static_walk is not None and res.static_cost_updated == res.static_cost_base:
                    continue
                failed += 1
                closures = qc_closure(net, scope, None, s, t) if route is enhanced_detour_route else None
                ctx = build_detour_context(net, scope, closures, s, t)
                expected = _brute_min_detour(net, scope, ctx.active, s, t, net.vertex_count + 4, ctx)
                if res.static_walk is not None:
                    expected = min(expected, res.static_walk.cost(net, "updated"))
                got = res.cost_updated if res.walk is not None else INF
                assert got == expected, (seed, route.__name__)
                permitted += bool(res.permit_edges)
        assert failed > 2000 and permitted > 500, (failed, permitted)
        report(f"criterion 3 (both routes on 3000 bypass networks, {failed} failed exits): PASS")


class TestCriterion4QcClosureLaws:
    def test_fixed_point_laws(self):
        rng = random.Random(7)
        for _ in range(200):
            net, scope = random_network(rng, max_vertices=10)
            s = rng.randrange(net.vertex_count)
            t = rng.randrange(net.vertex_count)
            pool = list(range(net.edge_count))
            small = frozenset(rng.sample(pool, rng.randint(0, min(3, len(pool)))))
            big = small | frozenset(rng.sample(pool, rng.randint(0, min(3, len(pool)))))
            qc_small = qc_closure(net, scope, small, s, t)
            assert small <= qc_small.edges
            assert qc_closure(net, scope, qc_small, s, t).edges == qc_small.edges
            assert qc_small.edges <= qc_closure(net, scope, big, s, t).edges
        report("criterion 4 (qc-closure containment/idempotence/monotonicity, 200 instances): PASS")

    def test_dead_end_fixture(self):
        net = build_network(4, [(0, 1), (1, 2), (2, 3), (1, 3)], [1, 1, 1, 5])
        net = net.with_updated_weights({2: INF})
        scope = make_scope([1, 1, 1, 1], [5, INF])
        qc = qc_closure(net, scope, None, 0, 3)
        assert qc.edges == frozenset({1, 2})
        assert qc.iterations == 2
        report("criterion 4 fixture (dead-end line yields both edges in 2 iterations): PASS")


class TestCriterion5EnhancedExistence:
    def test_proper_scope_with_avoiding_walk_never_unreachable(self):
        rng = random.Random(5)
        done = 0
        while done < 200:
            net, scope = strongly_connected_network(rng)
            try:
                scope = balance_to_proper(net, scope)
            except Exception:
                continue
            if not is_proper(net, scope):
                continue
            s, t = rng.randrange(net.vertex_count), rng.randrange(net.vertex_count)
            if s == t:
                continue
            chosen = set(rng.sample(range(net.edge_count), rng.randint(1, 3)))
            reach = {s}
            frontier = [s]
            while frontier:
                nxt = []
                for v in frontier:
                    for e in net.out_edges(v):
                        if e in chosen:
                            continue
                        u = net.heads[e]
                        if u not in reach:
                            reach.add(u)
                            nxt.append(u)
                frontier = nxt
            if t not in reach:
                continue
            closed = net.with_updated_weights({e: INF for e in chosen})
            res = enhanced_detour_route(closed, scope, s, t)
            assert res.walk is not None, (
                f"enhanced unreachable with a closure-avoiding walk present: "
                f"edges={list(zip(net.tails, net.heads))} levels={scope.level} "
                f"nu={scope.nu} s={s} t={t} closed={sorted(chosen)}"
            )
            done += 1
        report(f"criterion 5 (enhanced existence on {done} proper instances): PASS")


class TestCriterion6FullValidatorConsistency:
    def test_zero_closure_agreement_with_split_validator(self):
        rng = random.Random(6)
        samples = 0
        while samples < 1000:
            net, scope = random_network(rng, max_vertices=7, max_edges=16)
            start = rng.randrange(net.vertex_count)
            at = start
            edges = []
            for _ in range(rng.randint(0, 6)):
                outs = net.out_edges(at)
                if not outs:
                    break
                e = rng.choice(outs)
                edges.append(e)
                at = net.heads[e]
            walk = Walk(start, tuple(edges))
            full = validate_full_detour(walk, net, scope, frozenset(), start, at)
            split = validate_split_admissible(walk, net, scope, start, at)
            assert full.accepted == split
            samples += 1
        report(f"criterion 6 (full validator matches split validator on {samples} samples, no closures): PASS")

    def test_admissible_closure_avoiding_walks_accepted_plainly(self):
        rng = random.Random(66)
        accepted = 0
        while accepted < 60:
            net, scope = random_network(rng, max_vertices=8)
            s = rng.randrange(net.vertex_count)
            t = rng.randrange(net.vertex_count)
            res = bidirectional_s_dijkstra(net, scope, s, t)
            if res.walk is None or not res.walk.edges:
                continue
            pool = [e for e in range(net.edge_count) if e not in set(res.walk.edges)]
            closures = frozenset(rng.sample(pool, min(len(pool), 2))) if pool else frozenset()
            closed = net.with_updated_weights({e: INF for e in closures})
            verdict = validate_full_detour(res.walk, closed, scope, closures, s, t)
            assert verdict.accepted
            assert verdict.witness.forward_anchors == (0,)
            assert verdict.witness.reverse_anchors == (len(res.walk.edges),)
            accepted += 1
        report("criterion 6 addendum (ordinary admissible walks accepted with empty decomposition): PASS")


@pytest.fixture(scope="module")
def paper_scale_bench():
    nf = generate_synthetic("grid", 50, 3, seed=42)
    scope = balance_to_proper(nf.network, nf.scope)
    assert is_proper(nf.network, scope)
    config = BenchConfig(query_count=500, closure_count=50, seed=20260810)
    return run_benchmark(nf.network, scope, config)


class TestCriterion7PaperScale:
    def test_a_wall_time(self, paper_scale_bench):
        records = [r for r in paper_scale_bench.records if r.ms_simple is not None]
        assert len(records) >= 450
        mean_simple = statistics.mean(r.ms_simple for r in records)
        mean_enhanced = statistics.mean(r.ms_enhanced for r in records)
        assert mean_simple < 100.0
        assert mean_enhanced < 100.0
        report(
            "criterion 7a (mean wall time/query on ~10k-edge network): PASS "
            f"(simple {mean_simple:.1f} ms, enhanced {mean_enhanced:.1f} ms)"
        )

    def test_b_qc_iterations(self, paper_scale_bench):
        worst = max(r.qc_iters for r in paper_scale_bench.records)
        assert worst <= 5
        report(f"criterion 7b (max qc iterations {worst} <= 5): PASS")

    def test_c_scanned_overhead(self, paper_scale_bench):
        rows = [r for r in paper_scale_bench.records if r.scanned_static]
        overhead = statistics.mean(
            r.scanned_simple / r.scanned_static - 1.0 for r in rows
        )
        assert overhead < 0.5
        report(f"criterion 7c (mean scanned-vertex overhead {overhead:.1%} < 50%): PASS")

    def test_d_contraction_reduces_quasi_closures(self):
        nf = generate_synthetic("grid", 12, 3, seed=15, subdivisions=2, oneway=True)
        scope = balance_to_proper(nf.network, nf.scope)
        config = BenchConfig(query_count=40, closure_count=10, seed=8, measure_time=False)
        pre = run_benchmark(nf.network, scope, config)
        contracted = contract_degree2_chains(nf.network, scope)
        cscope = balance_to_proper(contracted.network, contracted.scope)
        post = run_benchmark(contracted.network, cscope, config)
        mean_pre = statistics.mean(r.qc_edges for r in pre.records)
        mean_post = statistics.mean(r.qc_edges for r in post.records)
        assert mean_post < mean_pre
        report(
            "criterion 7d (degree-2 contraction cuts quasi-closures "
            f"{mean_pre:.1f} -> {mean_post:.1f} per query): PASS"
        )

    def test_all_results_validated(self, paper_scale_bench):
        assert all(r.validator_ok for r in paper_scale_bench.records)
        assert not paper_scale_bench.findings


class TestCriterion8Determinism:
    def test_subcommands_byte_reproducible(self, tmp_path, capsys):
        net_path = tmp_path / "net.txt"
        closure_path = tmp_path / "closures.txt"
        walk_path = tmp_path / "walk.txt"

        def run(args):
            code = main(args)
            out = capsys.readouterr().out
            assert code in (0, 2)
            return out.encode()

        gen_args = ["gen", "--kind", "grid", "--size", "10", "--levels", "3",
                    "--seed", "77", "--balance", "--out", str(net_path)]
        assert main(gen_args) == 0
        first_net = net_path.read_bytes()
        assert main(gen_args) == 0
        assert net_path.read_bytes() == first_net

        route_args = ["route", "--network", str(net_path), "--source", "0",
                      "--target", "99", "--format", "csv"]
        route_out = run(route_args)
        assert run(route_args) == route_out
        edges = [line.split(",")[0] for line in route_out.decode().splitlines()[1:]]
        closure_path.write_text(edges[len(edges) // 2] + "\n")
        walk_path.write_text("\n".join(edges) + "\n")

        for args in (
            ["detour", "--network", str(net_path), "--closures", str(closure_path),
             "--source", "0", "--target", "99", "--mode", "simple"],
            ["detour", "--network", str(net_path), "--closures", str(closure_path),
             "--source", "0", "--target", "99", "--mode", "enhanced"],
            ["qc", "--network", str(net_path), "--closures", str(closure_path),
             "--source", "0", "--target", "99"],
            ["validate", "--network", str(net_path), "--closures", str(closure_path),
             "--def", "5", "--walk", str(walk_path), "--source", "0", "--target", "99"],
            ["bench", "--network", str(net_path), "--queries", "5",
             "--closure-count", "6", "--seed", "3", "--no-timing"],
        ):
            assert run(args) == run(args)
        report("criterion 8 (subcommands and benchmark byte-reproducible): PASS")
