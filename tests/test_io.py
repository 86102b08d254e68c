import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scoperoute import (
    NetworkError,
    NetworkFile,
    ParseError,
    Walk,
    assign_scope_from_categories,
    balance_to_proper,
    build_network,
    dump_network,
    export_route,
    generate_synthetic,
    is_proper,
    is_routing_connected,
    make_scope,
    parse_closures,
    parse_network,
)

INF = math.inf

N1_TEXT = """# micro network
V 4
L 0:5 inf:inf
E 0 1 2 0
E 1 2 10 inf
E 2 3 2 0
E 1 3 20 inf
"""


class TestParseNetwork:
    def test_n1_roundtrip(self):
        nf = parse_network(N1_TEXT)
        assert nf.network.edge_count == 4
        assert nf.scope.nu == (5.0, INF)
        assert nf.scope.level == (0, 1, 0, 1)
        dumped = dump_network(nf)
        again = parse_network(dumped)
        assert dump_network(again) == dumped
        assert again.network.tails == nf.network.tails
        assert again.scope == nf.scope

    def test_monotone_nu_accepted(self):
        nf = parse_network("V 2\nL 0:0 1:5 inf:inf\nE 0 1 1 1\n")
        assert nf.scope.nu == (0.0, 5.0, INF)

    def test_non_monotone_nu_rejected(self):
        with pytest.raises(ParseError, match="strictly increasing"):
            parse_network("V 2\nL 0:0 1:5 2:5 inf:inf\nE 0 1 1 0\n")

    def test_dangling_vertex_rejected(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_network("V 2\nL 0:5 inf:inf\nE 0 7 1 0\n")

    def test_undeclared_level_rejected(self):
        with pytest.raises(ParseError):
            parse_network("V 2\nL 0:5 inf:inf\nE 0 1 1 3\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param(
                "V 2\nL 0:5 inf:inf\nE 0 1 1 0\nC 7 0 0\n",
                "line 4: vertex out of range: 7", id="out-of-range",
            ),
            pytest.param(
                "C 0 0 0\nV 2\nL 0:5 inf:inf\nE 0 1 1 0\n",
                "line 1: C line before V line", id="before-v",
            ),
            pytest.param(
                "V 2\nL 0:5 inf:inf\nC -1 0 0\n", "line 3: expected: C", id="negative",
            ),
            pytest.param(
                "V 2\nL 0:5 inf:inf\nC x 0 0\n", "line 3: expected: C", id="not-a-vertex",
            ),
            pytest.param(
                "V 2\nL 0:5 inf:inf\nC \u00b2 0 0\n", "line 3: expected: C", id="superscript",
            ),
            pytest.param("V \u00b2\nL 0:5 inf:inf\n", "line 1: expected: V", id="v-superscript"),
        ],
    )
    def test_bad_vertex_number_rejected(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_network(text)

    def test_coordinates_and_categories(self):
        text = "V 2\nL 0:5 inf:inf\nE 0 1 1 inf motorway\nC 0 1.5 2.5\nC 1 2 3\n"
        nf = parse_network(text)
        assert nf.categories == ["motorway"]
        assert nf.coordinates[0] == (1.5, 2.5)
        assert "motorway" in dump_network(nf)


_finite = st.floats(-1e9, 1e9, allow_nan=False, allow_infinity=False)


@st.composite
def network_files(draw):
    n = draw(st.integers(1, 6))
    nu = sorted(draw(st.lists(st.floats(0, 1e6), min_size=1, max_size=3, unique=True)))
    nu.append(INF)
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=10))
    m = len(edges)
    weights = draw(st.lists(st.floats(0, 1e6), min_size=m, max_size=m))
    levels = draw(st.lists(st.integers(0, len(nu) - 1), min_size=m, max_size=m))
    categories = draw(
        st.lists(st.none() | st.text("abxyz_", min_size=1, max_size=6), min_size=m, max_size=m)
    )
    coordinates = draw(st.dictionaries(st.integers(0, n - 1), st.tuples(_finite, _finite)))
    return NetworkFile(
        build_network(n, edges, weights), make_scope(levels, nu), categories, coordinates
    )


@settings(max_examples=80, deadline=None)
@given(network_files())
def test_dump_parse_roundtrip_property(nf):
    again = parse_network(dump_network(nf))
    assert again.network == nf.network
    assert again.scope == nf.scope
    assert again.categories == nf.categories
    assert again.coordinates == nf.coordinates


class TestCategories:
    def test_lookup(self):
        scope = assign_scope_from_categories(
            ["motorway", "local", "motorway"],
            {"motorway": "inf", "local": "0"},
            {"0": 5.0, "inf": INF},
        )
        assert scope.level == (1, 0, 1)

    def test_unmapped_category_listed(self):
        with pytest.raises(NetworkError, match="byway"):
            assign_scope_from_categories(
                ["motorway", "byway"], {"motorway": "inf"}, {"0": 5.0, "inf": INF}
            )

    def test_constant_mapping_needs_declared_extremes(self):
        scope = assign_scope_from_categories(
            ["local", "local"], {"local": "0"}, {"0": 5.0, "inf": INF}
        )
        assert scope.level == (0, 0)
        with pytest.raises(NetworkError):
            assign_scope_from_categories(["local"], {"local": "0"}, {"0": 5.0})

    def test_five_level_table(self):
        table = {"motorway": "inf", "primary": "3", "secondary": "2", "tertiary": "1", "local": "0"}
        nu = {"0": 5.0, "1": 20.0, "2": 60.0, "3": 200.0, "inf": INF}
        scope = assign_scope_from_categories(list(table), table, nu)
        assert scope.level_count == 5
        assert sorted(set(scope.level)) == [0, 1, 2, 3, 4]


class TestSynthetic:
    def test_deterministic(self):
        a = generate_synthetic("grid", 8, 3, seed=9)
        b = generate_synthetic("grid", 8, 3, seed=9)
        assert a.network == b.network
        assert a.scope == b.scope

    def test_grid_scale_near_ten_thousand_edges(self):
        nf = generate_synthetic("grid", 50, 3, seed=1)
        assert 9000 <= nf.network.edge_count <= 11000

    def test_grid_connected_and_balanceable(self):
        nf = generate_synthetic("grid", 10, 3, seed=2)
        assert is_routing_connected(nf.network)
        balanced = balance_to_proper(nf.network, nf.scope)
        assert is_proper(nf.network, balanced)

    def test_random_kind_two_levels(self):
        nf = generate_synthetic("random", 30, 2, seed=3)
        assert nf.scope.level_count == 2
        assert is_routing_connected(nf.network)

    def test_subdivided_grid_has_chains(self):
        plain = generate_synthetic("grid", 6, 3, seed=4)
        sub = generate_synthetic("grid", 6, 3, seed=4, subdivisions=2)
        assert sub.network.vertex_count > plain.network.vertex_count
        assert sub.network.edge_count > plain.network.edge_count


class TestExport:
    def test_empty_walk(self, n1, n1_scope5):
        fmt, payload = export_route(Walk(0), n1, n1_scope5, "geojson", {0: (0.0, 0.0)})
        assert fmt == "geojson"
        assert '"features": []' in payload

    def test_permit_flag(self, permit_fixture):
        net, scope = permit_fixture
        coords = {v: (float(v), 0.0) for v in range(net.vertex_count)}
        fmt, payload = export_route(
            Walk(0, (0, 3, 2)), net, scope, "geojson", coords, permit_edges=(3,)
        )
        assert fmt == "geojson"
        assert payload.count('"permit": true') == 1
        assert payload.count('"permit": false') == 2

    def test_missing_coordinates_fall_back_to_csv(self, n1, n1_scope5):
        fmt, payload = export_route(Walk(0, (0,)), n1, n1_scope5, "geojson", {})
        assert fmt == "csv"
        assert payload.startswith("# warning")
        assert "edge_id,tail,head,weight,level,permit" in payload

    def test_repeated_vertex_walk(self):
        net = parse_network("V 2\nL 0:5 inf:inf\nE 0 1 1 inf\nE 1 0 1 inf\n").network
        scope = parse_network("V 2\nL 0:5 inf:inf\nE 0 1 1 inf\nE 1 0 1 inf\n").scope
        walk = Walk(0, (0, 1, 0, 1))
        fmt, payload = export_route(walk, net, scope, "csv")
        assert payload.count("\n") == 5


class TestClosureFiles:
    def test_edge_id_forms(self, n1):
        updates = parse_closures("1\n3 25\n", n1)
        assert updates == {1: INF, 3: 25.0}

    def test_endpoint_ordinal_form(self, n1e5):
        updates = parse_closures("1,2,1 inf\n", n1e5)
        assert updates == {4: INF}

    def test_bad_edge_rejected(self, n1):
        with pytest.raises(ParseError, match="line 1"):
            parse_closures("17\n", n1)


NAN = float("nan")


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(
            lambda n1: build_network(2, [(0, 1)], [NAN]),
            NetworkError, "edge 0: weight is NaN", id="base-weight",
        ),
        pytest.param(
            lambda n1: build_network(2, [(0, 1)], [1], updated_weights=[NAN]),
            NetworkError, "edge 0: updated weight is NaN", id="updated-weight",
        ),
        pytest.param(
            lambda n1: n1.with_updated_weights({1: NAN}),
            NetworkError, "edge 1: updated weight is NaN", id="weight-update",
        ),
        pytest.param(
            lambda n1: parse_closures("2\n0 nan\n", n1),
            ParseError, "line 2: bad number 'nan'", id="closure-line",
        ),
        pytest.param(
            lambda n1: make_scope([0], [NAN, INF]),
            NetworkError, r"nu\[0\] is NaN", id="scope-budget",
        ),
        pytest.param(
            lambda n1: parse_network(N1_TEXT.replace("E 2 3 2 0", "E 2 3 nan 0")),
            ParseError, "line 6: bad number 'nan'", id="edge-line",
        ),
        pytest.param(
            lambda n1: parse_network(N1_TEXT.replace("0:5", "0:nan")),
            ParseError, "line 3: bad number 'nan'", id="scope-line",
        ),
    ],
)
def test_nan_weight_or_budget_rejected(n1, call, error, message):
    with pytest.raises(error, match=message):
        call(n1)
