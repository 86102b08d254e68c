import math
import re

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
    parse_walk,
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
        with pytest.raises(ParseError, match="line 3"):
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
            pytest.param(
                "V 20\nL 0:5 inf:inf\nE 0 1_0 1 0\n", "line 3: bad endpoint", id="e-underscore",
            ),
            pytest.param(
                "V 2\nL 0:5 inf:inf\nE \u00b2 1 1 0\n", "line 3: bad endpoint", id="e-superscript",
            ),
            pytest.param(
                "V 4\nL 0:5 inf:inf\nE \u0663 1 2 inf\n", "line 3: bad endpoint", id="e-arabic-digit",
            ),
            pytest.param(
                "V 4\nL 0:5 inf:inf\nE 3 01 2 inf\n", "line 3: bad endpoint", id="e-leading-zero",
            ),
            pytest.param("V 4\nL 0:5 inf:inf\nE -0 1 2 0\n", "line 3: bad endpoint", id="e-minus-zero"),
            pytest.param("V 4\nL 0:5 inf:inf\nC 02 0 0\n", "line 3: expected: C", id="c-leading-zero"),
            pytest.param(
                "V 4\nL 0:5 inf:inf\nC \u0662 0 0\n", "line 3: expected: C", id="c-arabic-digit",
            ),
            pytest.param("V 04\nL 0:5 inf:inf\n", "line 1: expected: V", id="v-leading-zero"),
            pytest.param("V -0\nL 0:5 inf:inf\n", "line 1: expected: V", id="v-minus-zero"),
        ],
    )
    def test_bad_vertex_number_rejected(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_network(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param(
                "V 2\nL 0:5 0:7 inf:inf\nE 0 1 1 0\n",
                "line 2: level label '0' declared twice", id="repeated-label",
            ),
            pytest.param(
                "V 2\nL 0:5 inf:inf\nV 3\nE 0 1 1 0\n", "line 3: second V line", id="second-v",
            ),
            pytest.param(
                "V 2\nL 0:5 inf:inf\nE 0 1 1 0\nL 0:7 inf:inf\n",
                "line 4: second L line", id="second-l",
            ),
            pytest.param(
                "V 2\nL a:5 inf:inf\nE 0 1 1 a\n", "line 2: bad level label 'a'", id="word-label",
            ),
            pytest.param(
                "V 2\nL 0:5 inf:inf\nE 0 1 1 0\nE 1 0 1 x\n",
                "line 4: undeclared level label 'x'", id="undeclared-label",
            ),
            pytest.param(
                # Budgets rise as written but fall in label order.
                "V 2\nL 1:5 0:7 inf:inf\nE 0 1 1 0\n",
                "line 2: scope values must be strictly increasing", id="label-order",
            ),
        ],
    )
    def test_bad_declaration_rejected(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_network(text)

    # A vertex token accepted on an earlier line is read back without its
    # checks; a similar token on a later line must still take them and fail
    # there. Number tokens are checked on every line.
    @pytest.mark.parametrize(
        "line, message",
        [
            pytest.param("E 07 1 2 0", "line 6: bad endpoint", id="leading-zero"),
            pytest.param("E 1 -0 2 0", "line 6: bad endpoint", id="minus-zero"),
            pytest.param("E \u0667 1 2 0", "line 6: bad endpoint", id="arabic-seven"),
            pytest.param("E 1 \uff17 2 0", "line 6: bad endpoint", id="fullwidth-seven"),
            pytest.param("E 7 10 2 0", r"line 6: endpoint out of range: \(7, 10\)", id="head-at-v"),
            pytest.param("E 12 0 2 0", r"line 6: endpoint out of range: \(12, 0\)", id="tail-past-v"),
            pytest.param("E 7 1 nan 0", "line 6: bad number 'nan'", id="nan"),
            pytest.param("E 7 1 NaN 0", "line 6: bad number 'NaN'", id="nan-spelled"),
            pytest.param("E 7 1 -2 0", "line 6: negative weight -2.0", id="negative"),
            pytest.param("E 7 1 -3 0", "line 6: negative weight -3.0", id="negative-as-coordinate"),
            pytest.param("E 7 1 -inf 0", "line 6: bad number '-inf'", id="minus-inf"),
            pytest.param("C 07 1 1", "line 6: expected: C <vertex> <lon> <lat>", id="c-leading-zero"),
            pytest.param("C 10 1 1", "line 6: vertex out of range: 10", id="c-at-v"),
            pytest.param("C 1 inf 1", "line 6: coordinates must be finite, got inf 1.0", id="c-inf"),
            pytest.param("C 1 2 nan", "line 6: bad number 'nan'", id="c-nan"),
        ],
    )
    def test_later_bad_token_rejected_at_its_line(self, line, message):
        accepted = "V 10\nL 0:5 inf:inf\nE 7 1 2 0\nE 0 1 inf 0\nC 0 -3 1\n"
        parse_network(accepted)
        with pytest.raises(ParseError, match=f"^{message}$"):
            parse_network(accepted + line + "\nE 1 7 2 0\n")

    def test_comments_tabs_and_categories_read_as_dumped(self):
        text = (
            "# a small file\nV 5\n\tL 0:5 1:12.5 inf:inf  # budgets\n"
            "E 0\t1 2 0 local\nE 1 2 2.5 1 # a comment\n\nE 2 0 inf inf motorway\n"
            "E 0 1 2 0\nE\t3 4 7 1\tprimary\nC 0 1.5 -2\nC 4\t0 0\n"
        )
        nf = parse_network(text)
        assert nf.network == build_network(
            5, [(0, 1), (1, 2), (2, 0), (0, 1), (3, 4)], [2, 2.5, INF, 2, 7]
        )
        assert nf.scope == make_scope([0, 1, 2, 0, 1], [5, 12.5, INF], ("0", "1", "inf"))
        assert nf.categories == ["local", None, "motorway", None, "primary"]
        assert nf.coordinates == {0: (1.5, -2.0), 4: (0.0, 0.0)}
        again = parse_network(dump_network(nf))
        assert (again.network, again.scope) == (nf.network, nf.scope)
        assert (again.categories, again.coordinates) == (nf.categories, nf.coordinates)

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


def _spelled(draw, value: int) -> str:
    """``value`` as written, or now and then a non-canonical spelling."""
    if draw(st.integers(0, 7)):
        return str(value)
    return draw(st.sampled_from([f"0{value}", f"-{value}", f"+{value}", "1_0", "\u00b2", "\u0663"]))


@st.composite
def near_valid_network_texts(draw):
    """Network files whose V, E and C lines spell their vertex numbers in
    assorted ways; the rest of each line is well formed."""
    lines = ["V " + _spelled(draw, 4), "L 0:5 inf:inf"]
    vertex = st.integers(0, 3)
    for _ in range(draw(st.integers(0, 4))):
        tail, head = _spelled(draw, draw(vertex)), _spelled(draw, draw(vertex))
        lines.append(f"E {tail} {head} {draw(st.sampled_from(['1', '2.5', 'inf']))} 0")
    for _ in range(draw(st.integers(0, 2))):
        lines.append(f"C {_spelled(draw, draw(vertex))} 1 2")
    return "\n".join(lines) + "\n"


def _vertex_numbers(text):
    """The vertex count, the edges' endpoints in order and the coordinate
    vertices of a network file, as spelled."""
    spelled = {"V": [], "E": [], "C": set()}
    for line in text.splitlines():
        words = line.split()
        if words[0] == "V":
            spelled["V"].append(words[1])
        elif words[0] == "E":
            spelled["E"].append((words[1], words[2]))
        elif words[0] == "C":
            spelled["C"].add(words[1])
    return spelled


@settings(max_examples=300, deadline=None)
@given(near_valid_network_texts())
def test_accepted_file_round_trips_byte_stably_property(text):
    # A file is accepted only when dumping it writes every vertex number as
    # it was read, and dumping is then a fixed point.
    try:
        nf = parse_network(text)
    except ParseError:
        return
    dumped = dump_network(nf)
    assert _vertex_numbers(dumped) == _vertex_numbers(text)
    assert dump_network(parse_network(dumped)) == dumped


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

    def test_negative_subdivisions_rejected(self):
        for subdivisions in (-1, -2):
            with pytest.raises(NetworkError, match=f"subdivisions must be >= 0, got {subdivisions}"):
                generate_synthetic("grid", 3, 3, seed=4, subdivisions=subdivisions)

    @pytest.mark.parametrize("options, option", [
        ({"subdivisions": 3}, "subdivisions"), ({"oneway": True}, "oneway"),
        ({"subdivisions": 3, "oneway": True}, "subdivisions"),
    ])
    def test_random_kind_rejects_grid_options(self, options, option):
        with pytest.raises(NetworkError, match=f"option {option} applies only to kind 'grid'"):
            generate_synthetic("random", 20, 2, 3, **options)

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

    def test_non_finite_coordinates_rejected(self, n1, n1_scope5):
        coords = {0: (INF, 0.0), 1: (1.0, 0.0)}
        with pytest.raises(ValueError, match="not JSON compliant"):
            export_route(Walk(0, (0,)), n1, n1_scope5, "geojson", coords)

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

    @pytest.mark.parametrize("text", ["1 inf\n1 30\n", "1\n1,2,0 30\n"], ids=["id", "selector"])
    def test_edge_listed_twice_rejected(self, n1, text):
        # The second line would otherwise reopen the closed road.
        with pytest.raises(ParseError, match="^line 2: edge 1 already listed on line 1$"):
            parse_closures(text, n1)

    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param("1,2,-1\n", "line 1: no edge 1,2 ordinal -1", id="ordinal-minus-one"),
            pytest.param("3\n1,2,-3\n", "line 2: no edge 1,2 ordinal -3", id="ordinal-below"),
            # -4 would index vertex 0, whose edge 0 runs to 1.
            pytest.param("-4,1,0\n", "line 1: no edge -4,1 ordinal 0", id="tail-negative"),
            pytest.param("0\n4,1,0\n", "line 2: no edge 4,1 ordinal 0", id="tail-past-last-vertex"),
            # Edges 1 and 4 run from 1 to 2.
            pytest.param("# comment\n1,2,2\n", "line 2: no edge 1,2 ordinal 2", id="ordinal-past-last"),
            pytest.param(
                "0 1.5\n", "line 1: edge 0: updated weight 1.5 below base weight 2.0",
                id="weight-below-base",
            ),
            pytest.param(
                "# comment\n1,2,1 3\n", "line 2: edge 4: updated weight 3.0 below base weight 4.0",
                id="ordinal-weight-below-base",
            ),
            pytest.param("0_1\n", "line 1: bad edge id '0_1'", id="id-underscore"),
            pytest.param("01\n", "line 1: bad edge id '01'", id="id-leading-zero"),
            pytest.param("# comment\n1,2,0_1\n", "line 2: bad edge selector", id="ordinal-underscore"),
            pytest.param("1,+2,0\n", "line 1: bad edge selector", id="head-plus"),
        ],
    )
    def test_bad_selector_or_weight_rejected(self, n1e5, text, message):
        with pytest.raises(ParseError, match=message):
            parse_closures(text, n1e5)


class TestWalkFiles:
    def test_ids_comments_and_blank_lines(self, n1):
        walk = parse_walk("# route\n0\n\n1  # middle\n2\n", n1, 0)
        assert walk == Walk(0, (0, 1, 2))

    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param("0\n016\n", "line 2: bad edge id '016'", id="leading-zero"),
            pytest.param("1_0\n", "line 1: bad edge id '1_0'", id="underscore"),
            pytest.param("0\n\u0661\n", "line 2: bad edge id '\u0661'", id="non-ascii-digit"),
            pytest.param("# x\nabc\n", "line 2: bad edge id 'abc'", id="word"),
            pytest.param("0\n1 2\n", "line 2: bad edge id '1 2'", id="two-ids"),
            pytest.param("0\n4\n", "line 2: unknown edge id 4", id="unknown"),
        ],
    )
    def test_bad_edge_id_rejected_with_line(self, n1, text, message):
        with pytest.raises(ParseError, match=message):
            parse_walk(text, n1, 0)


# Tokens of the network and closure formats, good and bad; numbers come from
# a small set, so no example declares a large network.
_TOKENS = ["0", "1", "2", "3", "-1", "-3", "0.5", "inf", "nan", "1_0", "\u00b2", "V", "L", "E", "C"]
_SELECTORS = ["1,2,0", "1,2,1", "1,2,-1", "1,2,-3", "a,b,c", "0,1", "1,2,0_1", "01,2,0", "+1", "-0"]
_PAIRS = st.builds(
    "{}:{}".format,
    st.sampled_from(["0", "1", "inf", "a", "1_0", "\u00b2", ""]),
    st.sampled_from(["0", "5", "inf", "nan", "-1"]),
)
_WORDS = st.sampled_from(_TOKENS + _SELECTORS) | _PAIRS


def _lines(first, rest_size):
    line = st.tuples(first, st.lists(_WORDS, max_size=rest_size))
    return st.lists(line.map(lambda t: " ".join((t[0], *t[1]))), max_size=6).map("\n".join)


_PARALLEL = build_network(4, [(0, 1), (1, 2), (2, 3), (1, 3), (1, 2)], [2, 10, 2, 20, 4])


@settings(max_examples=500, deadline=None)
@given(_lines(st.sampled_from("VLEC#"), 5), _lines(_WORDS, 2))
def test_bad_input_raises_only_parse_errors_property(network_text, closure_text):
    try:
        parse_network(network_text)
    except ParseError:
        pass
    try:
        parse_closures(closure_text, _PARALLEL)
    except ParseError:
        return
    # An accepted closure file spells each integer of its selectors canonically.
    for line in closure_text.splitlines():
        words = line.split("#", 1)[0].split()
        if words:
            assert all(str(int(part)) == part for part in words[0].split(","))


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
            lambda n1: build_network(2, [(0, 1), (1, 0)], [1, 2], updated_weights=[1, 1.5]),
            NetworkError, "edge 1: updated weight 1.5 below base weight 2.0", id="updated-below-base",
        ),
        pytest.param(
            lambda n1: build_network(2, [(0, 1)], [1], updated_weights=[1, 2]),
            NetworkError, "updated_weights length mismatch", id="updated-length",
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
        pytest.param(
            lambda n1: parse_network(N1_TEXT + "C 0 inf 0\n"),
            ParseError, "line 8: coordinates must be finite, got inf 0.0", id="coordinate-line",
        ),
    ],
)
def test_nan_weight_or_budget_rejected(n1, call, error, message):
    with pytest.raises(error, match=message):
        call(n1)


@pytest.mark.parametrize("token", ["1e400", "-1e400", "Infinity", "infinity", "+inf", "-inf", "INF"])
@pytest.mark.parametrize(
    "place, line_no",
    [("edge", 6), ("scope", 3), ("coordinate", 8), ("closure", 2)],
)
def test_only_the_token_inf_reads_as_infinite(n1, token, place, line_no):
    # float() reads each of these tokens as infinite, so a weight written
    # as finite would close its edge and dump back as "inf". Only the token
    # "inf" is infinite; every other infinite reading is a bad number at its
    # line, on edge, scope, coordinate and closure lines alike.
    if place == "closure":
        call = lambda: parse_closures(f"2\n0 {token}\n", n1)  # noqa: E731
    elif place == "edge":
        call = lambda: parse_network(N1_TEXT.replace("E 2 3 2 0", f"E 2 3 {token} 0"))  # noqa: E731
    elif place == "scope":
        call = lambda: parse_network(N1_TEXT.replace("0:5", f"0:{token}"))  # noqa: E731
    else:
        call = lambda: parse_network(N1_TEXT + f"C 0 {token} 0\n")  # noqa: E731
    with pytest.raises(ParseError, match="^" + re.escape(f"line {line_no}: bad number {token!r}") + "$"):
        call()


def test_the_token_inf_still_closes_an_edge(n1):
    # The one infinite spelling still reads as infinite on edge and closure
    # lines, and round-trips.
    nf = parse_network(N1_TEXT.replace("E 2 3 2 0", "E 2 3 inf 0"))
    assert nf.network.weight[2] == INF
    assert parse_network(dump_network(nf)).network == nf.network
    assert parse_closures("2\n0 inf\n", n1) == {2: INF, 0: INF}
