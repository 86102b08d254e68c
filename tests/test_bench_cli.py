import itertools
import math

import pytest

from scoperoute import (
    BenchConfig,
    NetworkError,
    balance_to_proper,
    bidirectional_s_dijkstra,
    generate_synthetic,
    place_random_closures,
    run_benchmark,
)
from scoperoute.bench import CSV_HEADER
from scoperoute.cli import main

INF = math.inf


@pytest.fixture(scope="module")
def small_grid():
    nf = generate_synthetic("grid", 8, 3, seed=6)
    scope = balance_to_proper(nf.network, nf.scope)
    return nf.network, scope


class TestClosurePlacement:
    def test_count_one_hits_midpoint(self, small_grid):
        net, scope = small_grid
        static = bidirectional_s_dijkstra(net, scope, 0, net.vertex_count - 1, "base")
        updates, warnings = place_random_closures(net, scope, static.walk, 1, seed=5)
        assert len(updates) == 1
        assert not warnings
        (edge,) = updates
        assert edge in static.walk.edges

    def test_count_below_one_rejected(self, small_grid):
        net, scope = small_grid
        static = bidirectional_s_dijkstra(net, scope, 0, net.vertex_count - 1, "base")
        for count in (0, -1):
            with pytest.raises(NetworkError, match=f"closure count must be at least 1, got {count}"):
                place_random_closures(net, scope, static.walk, count, seed=5)
        with pytest.raises(NetworkError, match="closure count must be at least 1"):
            run_benchmark(net, scope, BenchConfig(query_count=2, closure_count=0))

    def test_deterministic(self, small_grid):
        net, scope = small_grid
        static = bidirectional_s_dijkstra(net, scope, 0, net.vertex_count - 1, "base")
        a, _ = place_random_closures(net, scope, static.walk, 10, seed=5)
        b, _ = place_random_closures(net, scope, static.walk, 10, seed=5)
        assert a == b

    def test_warning_when_unbounded_edges_scarce(self):
        nf = generate_synthetic("random", 6, 2, seed=7)
        net, scope = nf.network, nf.scope
        static = None
        for t in range(1, net.vertex_count):
            static = bidirectional_s_dijkstra(net, scope, 0, t, "base")
            if static.walk is not None and static.walk.edges:
                break
        updates, warnings = place_random_closures(net, scope, static.walk, 10_000, seed=1)
        assert warnings
        assert len(updates) <= net.edge_count


class TestRunBenchmark:
    def test_empty_config(self, small_grid):
        net, scope = small_grid
        report = run_benchmark(net, scope, BenchConfig(query_count=0, closure_count=3, seed=1))
        assert report.records == []
        assert report.csv_body() == CSV_HEADER + "\n"

    def test_negative_query_count_rejected(self, small_grid):
        net, scope = small_grid
        with pytest.raises(NetworkError, match="query count must not be negative, got -3"):
            run_benchmark(net, scope, BenchConfig(query_count=-3, closure_count=3, seed=1))

    def test_small_batch_consistency(self, small_grid):
        net, scope = small_grid
        cfg = BenchConfig(query_count=6, closure_count=5, seed=2, measure_time=False)
        report = run_benchmark(net, scope, cfg)
        assert len(report.records) == 6
        for r in report.records:
            assert r.validator_ok
            assert r.static_w < INF
            if r.simple_wstar < INF and r.enhanced_wstar < INF:
                assert r.enhanced_wstar <= r.simple_wstar
        assert report.csv_body() == run_benchmark(net, scope, cfg).csv_body()
        assert "queries: 6" in report.summary()

    def test_counts_do_not_depend_on_earlier_searches(self):
        # A batch too small to pass the plain-search count on its own gives
        # the same count columns on a fresh network as on one that has
        # served many searches.
        nf = generate_synthetic("grid", 8, 3, seed=6)
        net, scope = nf.network, balance_to_proper(nf.network, nf.scope)
        cfg = BenchConfig(query_count=2, closure_count=3, seed=5, measure_time=False)
        fresh = run_benchmark(net, scope, cfg).csv_body()
        assert "landmarks" in net._aux
        assert fresh == run_benchmark(net, scope, cfg).csv_body()

    def test_timing_columns_blank_without_measurement(self, small_grid):
        net, scope = small_grid
        cfg = BenchConfig(query_count=2, closure_count=3, seed=4, measure_time=False)
        body = run_benchmark(net, scope, cfg).csv_body()
        for line in body.splitlines()[1:]:
            assert line.endswith(",,")


class TestCli:
    @pytest.fixture()
    def net_file(self, tmp_path):
        path = tmp_path / "net.txt"
        main(["gen", "--kind", "grid", "--size", "6", "--levels", "3", "--seed", "3",
              "--balance", "--out", str(path)])
        return path

    def test_gen_deterministic(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        assert main(["gen", "--kind", "grid", "--size", "5", "--seed", "9", "--out", str(a)]) == 0
        assert main(["gen", "--kind", "grid", "--size", "5", "--seed", "9", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_route_and_formats(self, net_file, tmp_path, capsys):
        assert main(["route", "--network", str(net_file), "--source", "0", "--target", "35"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("cost ")
        geo = tmp_path / "route.geojson"
        assert main(["route", "--network", str(net_file), "--source", "0", "--target", "35",
                     "--format", "geojson", "--out", str(geo)]) == 0
        assert '"FeatureCollection"' in geo.read_text()

    def test_route_source_equals_target(self, net_file, capsys):
        assert main(["route", "--network", str(net_file), "--source", "4", "--target", "4"]) == 0
        assert "cost 0" in capsys.readouterr().out

    def test_unreachable_exit_code(self, tmp_path, capsys):
        path = tmp_path / "line.txt"
        path.write_text("V 3\nL 0:5 inf:inf\nE 0 1 1 inf\nE 1 2 1 inf\n")
        closures = tmp_path / "closures.txt"
        closures.write_text("1\n")
        code = main(["detour", "--network", str(path), "--closures", str(closures),
                     "--source", "0", "--target", "2", "--mode", "simple"])
        assert code == 2

    def test_detour_modes_and_qc(self, net_file, tmp_path, capsys):
        closures = tmp_path / "closures.txt"
        # close one arterial edge near the middle of the default route
        assert main(["route", "--network", str(net_file), "--source", "0", "--target", "35",
                     "--format", "csv"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        mid_edge = rows[len(rows) // 2].split(",")[0]
        closures.write_text(mid_edge + "\n")
        for mode in ("simple", "enhanced"):
            code = main(["detour", "--network", str(net_file), "--closures", str(closures),
                         "--source", "0", "--target", "35", "--mode", mode])
            assert code == 0
            out = capsys.readouterr().out
            assert "class" in out and "cost" in out
        assert main(["qc", "--network", str(net_file), "--closures", str(closures),
                     "--source", "0", "--target", "35"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("iterations ")

    def test_validate_definitions(self, net_file, tmp_path, capsys):
        walk_file = tmp_path / "walk.txt"
        assert main(["route", "--network", str(net_file), "--source", "0", "--target", "35",
                     "--format", "csv"]) == 0
        edges = [line.split(",")[0] for line in capsys.readouterr().out.splitlines()[1:]]
        walk_file.write_text("\n".join(edges) + "\n")
        hard = tmp_path / "closures.txt"
        hard.write_text(edges[len(edges) // 2] + "\n")
        # A soft closure (a raised, finite weight) on the walk too.
        soft = tmp_path / "soft.txt"
        soft.write_text(f"{edges[len(edges) // 2]}\n{edges[0]} 1e6\n")
        for closures, definition in itertools.product((hard, soft), ("3", "5", "7", "9")):
            code = main(["validate", "--network", str(net_file), "--closures", str(closures),
                         "--def", definition, "--walk", str(walk_file),
                         "--source", "0", "--target", "35"])
            assert code == 0
            verdict = capsys.readouterr().out.strip()
            if definition == "3":
                assert verdict == "true"  # plain admissibility ignores closures
            else:
                assert verdict == "false"  # walk traverses the closed edge

    def test_bench_subcommand_reproducible(self, net_file, tmp_path):
        out1 = tmp_path / "r1.csv"
        out2 = tmp_path / "r2.csv"
        args = ["bench", "--network", str(net_file), "--queries", "4",
                "--closure-count", "5", "--seed", "11", "--no-timing"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_geojson_fallback_ends_in_one_newline(self, tmp_path, capsys):
        path = tmp_path / "line.txt"
        path.write_text("V 3\nL 0:5 inf:inf\nE 0 1 1 inf\nE 1 2 1 inf\n")
        for command in ("route", "detour"):
            assert main([command, "--network", str(path), "--source", "0", "--target", "2",
                         "--format", "geojson"]) == 0
            out = capsys.readouterr().out
            assert out.startswith("# warning: coordinates missing, falling back to csv\n")
            assert out.endswith("1,1,2,1,inf,0\n")

    def test_bad_walk_file_exits_with_line_number(self, net_file, tmp_path, capsys):
        walk_file = tmp_path / "walk.txt"
        for text, message in (("0\nabc\n", "line 2: bad edge id 'abc'"),
                              ("016\n", "line 1: bad edge id '016'")):
            walk_file.write_text(text)
            assert main(["validate", "--network", str(net_file), "--def", "3",
                         "--walk", str(walk_file), "--source", "0", "--target", "35"]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_closure_listed_twice_exits_with_line_number(self, net_file, tmp_path, capsys):
        closures = tmp_path / "closures.txt"
        closures.write_text("0\n# again\n0\n")
        assert main(["detour", "--network", str(net_file), "--closures", str(closures),
                     "--source", "0", "--target", "35"]) == 1
        assert capsys.readouterr().err == "error: line 3: edge 0 already listed on line 1\n"

    def test_bench_without_closures_rejected(self, net_file, capsys):
        assert main(["bench", "--network", str(net_file), "--queries", "2",
                     "--closure-count", "0", "--no-timing"]) == 1
        assert capsys.readouterr().err == "error: closure count must be at least 1, got 0\n"

    @pytest.mark.parametrize("flag, vertex", [
        ("--source", "-1"), ("--source", "36"), ("--target", "-1"), ("--target", "36"),
    ])
    def test_qc_unknown_endpoint_exits_with_error(self, net_file, capsys, flag, vertex):
        ends = {"--source": "0", "--target": "35", flag: vertex}
        args = [part for pair in ends.items() for part in pair]
        assert main(["qc", "--network", str(net_file), *args]) == 1
        role = flag.removeprefix("--")
        assert capsys.readouterr().err == f"error: unknown {role} vertex {vertex}\n"

    @pytest.mark.parametrize("command, message", [
        (["gen", "--size", "3", "--subdivide", "-1"], "subdivisions must be >= 0, got -1"),
        (["gen", "--size", "3", "--subdivide", "-2"], "subdivisions must be >= 0, got -2"),
        (["bench", "--queries", "-3", "--no-timing"], "query count must not be negative, got -3"),
    ])
    def test_negative_count_exits_with_error(self, net_file, tmp_path, capsys, command, message):
        if command[0] == "bench":
            command = [*command, "--network", str(net_file)]
        assert main([*command, "--out", str(tmp_path / "out.txt")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out.txt").exists()

    def test_gen_random_with_subdivide_exits_with_error(self, tmp_path, capsys):
        out = tmp_path / "out.txt"
        args = ["gen", "--kind", "random", "--size", "20", "--levels", "2", "--seed", "3"]
        assert main([*args, "--subdivide", "3", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: option subdivisions applies only to kind 'grid'\n"
        assert not out.exists()
        assert main([*args, "--out", str(out)]) == 0

    def test_error_exit_code(self, tmp_path):
        assert main(["route", "--network", str(tmp_path / "missing.txt"),
                     "--source", "0", "--target", "1"]) == 1
