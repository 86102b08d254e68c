"""Network file format, category-based scope assignment, synthetic networks, route export.

The network file is line-oriented ASCII:

    # comment
    V <vertex_count>
    L <label>:<nu> <label>:<nu> ...      (one line; last label must be inf)
    E <tail> <head> <weight> <level-label> [category]
    C <vertex> <lon> <lat>               (optional coordinates)

``V`` and ``L`` appear once each; a level label is ``inf`` or an integer
and is declared once; the vertex count and vertex numbers are non-negative
integers. Every integer is spelled as ``str`` spells it (ASCII digits, no
leading zero, sign or underscore). Edge ids follow the
order of E lines. Loading and saving round-trip byte-stably up to comment
lines.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

from .network import (
    INF,
    NetworkError,
    RoadNetwork,
    ScopeMapping,
    Walk,
    build_network,
    scope_from_labels,
)


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass
class NetworkFile:
    network: RoadNetwork
    scope: ScopeMapping
    categories: list[str | None] = field(default_factory=list)
    coordinates: dict[int, tuple[float, float]] = field(default_factory=dict)


def _parse_number(token: str, line_no: int) -> float:
    """``token`` as a float. Only the token ``inf`` reads as infinite: any
    other spelling that ``float`` reads as infinite (``Infinity``, ``+inf``,
    ``-inf``, or one too large, such as ``1e400``) is a bad number, as NaN
    is, so that a weight written as finite never closes an edge and every
    value read writes back as it was read."""
    if token == "inf":
        return INF
    try:
        value = float(token)
    except ValueError:
        raise ParseError(line_no, f"bad number {token!r}") from None
    if not math.isfinite(value):
        raise ParseError(line_no, f"bad number {token!r}")
    return value


def _canonical_int(token: str) -> int | None:
    """``token`` as an int if it is spelled as ``str`` spells that int, else None."""
    digits = token.removeprefix("-")
    if digits.isdecimal() and digits.isascii() and (digits[0] != "0" or token == "0"):
        return int(token)
    return None


def load_network(path: str) -> NetworkFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_network(fh.read())


def parse_network(text: str) -> NetworkFile:
    """Parse the network file format; the first bad line raises ``ParseError``.

    A vertex token is checked once: a token that passed is kept with its
    vertex, so a later line with the same token reads the vertex back, and
    only a token not seen before runs the checks. On a routing-connected
    network every endpoint is on at least two E lines, so each vertex token
    repeats. Number tokens take their checks on every line.
    """
    vertex_count: int | None = None
    label_nu: dict[str, float] | None = None
    edges: list[tuple[int, int]] = []
    weights: list[float] = []
    edge_labels: list[str] = []
    first_use: dict[str, int] = {}  # level label -> line of its first E line
    categories: list[str | None] = []
    coordinates: dict[int, tuple[float, float]] = {}
    vertex_of: dict[str, int] = {}  # token -> vertex, for tokens in 0..V-1
    for line_no, raw in enumerate(text.splitlines(), start=1):
        parts = raw.partition("#")[0].split()
        if not parts:
            continue
        tag = parts[0]
        if tag == "E":
            if vertex_count is None:
                raise ParseError(line_no, "E line before V line")
            if len(parts) not in (5, 6):
                raise ParseError(line_no, "expected: E <tail> <head> <weight> <level> [category]")
            u, v = vertex_of.get(parts[1]), vertex_of.get(parts[2])
            if u is None or v is None:
                u, v = _canonical_int(parts[1]), _canonical_int(parts[2])
                if u is None or v is None or u < 0 or v < 0:
                    raise ParseError(line_no, "bad endpoint")
                if u >= vertex_count or v >= vertex_count:
                    raise ParseError(line_no, f"endpoint out of range: ({u}, {v})")
                vertex_of[parts[1]], vertex_of[parts[2]] = u, v
            weight = _parse_number(parts[3], line_no)
            if weight < 0:
                raise ParseError(line_no, f"negative weight {weight}")
            edges.append((u, v))
            weights.append(weight)
            edge_labels.append(parts[4])
            first_use.setdefault(parts[4], line_no)
            categories.append(parts[5] if len(parts) == 6 else None)
        elif tag == "C":
            if vertex_count is None:
                raise ParseError(line_no, "C line before V line")
            if len(parts) != 4:
                raise ParseError(line_no, "expected: C <vertex> <lon> <lat>")
            vertex = vertex_of.get(parts[1])
            if vertex is None:
                vertex = _canonical_int(parts[1])
                if vertex is None or vertex < 0:
                    raise ParseError(line_no, "expected: C <vertex> <lon> <lat>")
                if vertex >= vertex_count:
                    raise ParseError(line_no, f"vertex out of range: {vertex}")
                vertex_of[parts[1]] = vertex
            lon, lat = _parse_number(parts[2], line_no), _parse_number(parts[3], line_no)
            if not (math.isfinite(lon) and math.isfinite(lat)):
                raise ParseError(line_no, f"coordinates must be finite, got {lon} {lat}")
            coordinates[vertex] = (lon, lat)
        elif tag == "V":
            if vertex_count is not None:
                raise ParseError(line_no, "second V line")
            vertex_count = _canonical_int(parts[1]) if len(parts) == 2 else None
            if vertex_count is None or vertex_count < 0:
                raise ParseError(line_no, "expected: V <vertex_count>")
        elif tag == "L":
            if label_nu is not None:
                raise ParseError(line_no, "second L line")
            scope_line = line_no
            label_nu = {}
            previous = -1.0
            for item in parts[1:]:
                if ":" not in item:
                    raise ParseError(line_no, f"expected <label>:<nu>, got {item!r}")
                lbl, nu_text = item.split(":", 1)
                if lbl != "inf" and _canonical_int(lbl) is None:
                    raise ParseError(line_no, f"bad level label {lbl!r}")
                if lbl in label_nu:
                    raise ParseError(line_no, f"level label {lbl!r} declared twice")
                value = _parse_number(nu_text, line_no)
                if value <= previous:
                    raise ParseError(line_no, "scope values must be strictly increasing")
                previous = value
                label_nu[lbl] = value
            if not label_nu or "inf" not in label_nu or label_nu["inf"] != INF:
                raise ParseError(line_no, "scope declaration must end with inf:inf")
        else:
            raise ParseError(line_no, f"unknown record {tag!r}")
    if vertex_count is None:
        raise ParseError(0, "missing V line")
    if label_nu is None:
        raise ParseError(0, "missing L line")
    for label, line_no in first_use.items():
        if label not in label_nu:
            raise ParseError(line_no, f"undeclared level label {label!r}")
    try:
        # Levels are ordered by label, not as written: budgets may still fall.
        scope = scope_from_labels(edge_labels, label_nu)
    except NetworkError as exc:
        raise ParseError(scope_line, str(exc)) from exc
    try:
        network = build_network(vertex_count, edges, weights)
        scope.validate(network)
    except NetworkError as exc:
        raise ParseError(0, str(exc)) from exc
    return NetworkFile(network, scope, categories, coordinates)


def _format_number(x: float) -> str:
    if x == INF:
        return "inf"
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def save_network(nf: NetworkFile, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_network(nf))


def dump_network(nf: NetworkFile) -> str:
    lines = [f"V {nf.network.vertex_count}"]
    lines.append(
        "L "
        + " ".join(
            f"{lbl}:{_format_number(nu)}" for lbl, nu in zip(nf.scope.labels, nf.scope.nu)
        )
    )
    for e in range(nf.network.edge_count):
        label = nf.scope.labels[nf.scope.level[e]]
        row = (
            f"E {nf.network.tails[e]} {nf.network.heads[e]} "
            f"{_format_number(nf.network.weight[e])} {label}"
        )
        category = nf.categories[e] if e < len(nf.categories) else None
        if category:
            row += f" {category}"
        lines.append(row)
    for v in sorted(nf.coordinates):
        lon, lat = nf.coordinates[v]
        lines.append(f"C {v} {_format_number(lon)} {_format_number(lat)}")
    return "\n".join(lines) + "\n"


DEFAULT_CATEGORY_LEVELS = {
    "motorway": "inf",
    "trunk": "inf",
    "primary": "2",
    "secondary": "1",
    "tertiary": "1",
    "residential": "0",
    "unclassified": "0",
    "local": "0",
}


def assign_scope_from_categories(
    categories: list[str],
    table: dict[str, str],
    label_nu: dict[str, float],
) -> ScopeMapping:
    """Deterministic level assignment from per-edge category tags.

    Every category must be mapped; the level labels produced must all be
    declared in ``label_nu``.
    """
    missing = sorted({c for c in categories if c not in table})
    if missing:
        raise NetworkError(f"unmapped categories: {', '.join(missing)}")
    return scope_from_labels([table[c] for c in categories], label_nu)


def generate_synthetic(
    kind: str,
    size: int,
    level_count: int,
    seed: int,
    subdivisions: int = 0,
    oneway: bool = False,
) -> NetworkFile:
    """Deterministic synthetic road network with a scope mapping.

    ``grid`` builds a two-way city grid with arterial rows and columns at
    the higher levels (urban-like); ``random`` builds a strongly connected
    sparse network with a few high-level corridors (rural-like). With
    ``subdivisions`` each grid road is split into extra degree-2 segments,
    which is useful for studying chain contraction; ``oneway`` turns the
    interior grid streets into an alternating one-way system (the border
    ring stays two-way so the network remains routing-connected). Both
    options apply to grids only; kind ``random`` rejects them.
    """
    if size < 1:
        raise NetworkError("size must be >= 1")
    if level_count < 2:
        raise NetworkError("need at least two levels")
    if subdivisions < 0:
        raise NetworkError(f"subdivisions must be >= 0, got {subdivisions}")
    rng = random.Random(seed)
    if kind == "grid":
        return _generate_grid(size, level_count, rng, subdivisions, oneway)
    if kind == "random":
        for option, value in (("subdivisions", subdivisions), ("oneway", oneway)):
            if value:
                raise NetworkError(f"option {option} applies only to kind 'grid'")
        return _generate_random(size, level_count, rng)
    raise NetworkError(f"unknown synthetic kind {kind!r}")


def _grid_nu(level_count: int) -> dict[str, float]:
    label_nu: dict[str, float] = {}
    value = 30.0
    for lv in range(level_count - 1):
        label_nu[str(lv)] = value
        value *= 3.5
    label_nu["inf"] = INF
    return label_nu


def _generate_grid(
    size: int, level_count: int, rng: random.Random, subdivisions: int, oneway: bool
) -> NetworkFile:
    arterial_every = max(3, size // 7)
    coords: dict[int, tuple[float, float]] = {}
    vid: dict[tuple[int, int], int] = {}
    for r in range(size):
        for c in range(size):
            v = r * size + c
            vid[(r, c)] = v
            coords[v] = (float(c), float(r))
    next_vertex = size * size
    edges: list[tuple[int, int]] = []
    weights: list[float] = []
    labels: list[str] = []

    def level_for(r: int, c: int, horizontal: bool) -> str:
        on_art = (r % arterial_every == 0) if horizontal else (c % arterial_every == 0)
        if on_art:
            major = (r % (2 * arterial_every) == 0) if horizontal else (c % (2 * arterial_every) == 0)
            return "inf" if major else str(level_count - 2)
        return str(rng.randrange(max(1, level_count - 2)))

    def add_segments(a: int, b: int, weight: float, label: str) -> None:
        nonlocal next_vertex
        chain = [a]
        for _ in range(subdivisions):
            chain.append(next_vertex)
            next_vertex += 1
        chain.append(b)
        part = max(1.0, round(weight / (subdivisions + 1))) if subdivisions else weight
        for x, y in zip(chain, chain[1:]):
            edges.append((x, y))
            weights.append(part)
            labels.append(label)

    def add_road(a, b, weight, label, r, c, horizontal):
        border = r in (0, size - 1) if horizontal else c in (0, size - 1)
        if oneway and not border:
            flip = (r % 2 == 1) if horizontal else (c % 2 == 1)
            if flip:
                a, b = b, a
            add_segments(a, b, weight, label)
        else:
            add_segments(a, b, weight, label)
            add_segments(b, a, weight, label)

    for r in range(size):
        for c in range(size):
            if c + 1 < size:
                add_road(
                    vid[(r, c)], vid[(r, c + 1)], float(rng.randint(2, 9)),
                    level_for(r, c, True), r, c, True,
                )
            if r + 1 < size:
                add_road(
                    vid[(r, c)], vid[(r + 1, c)], float(rng.randint(2, 9)),
                    level_for(r, c, False), r, c, False,
                )
    network = build_network(next_vertex, edges, weights)
    scope = scope_from_labels(labels, _grid_nu(level_count))
    return NetworkFile(network, scope, [None] * len(edges), coords)


def _generate_random(size: int, level_count: int, rng: random.Random) -> NetworkFile:
    n = max(size, 3)
    order = list(range(n))
    rng.shuffle(order)
    edges: list[tuple[int, int]] = []
    weights: list[float] = []
    labels: list[str] = []
    # A spanning cycle keeps the network routing-connected.
    for i in range(n):
        edges.append((order[i], order[(i + 1) % n]))
        weights.append(float(rng.randint(2, 12)))
        labels.append("inf" if i % 3 == 0 else str(rng.randrange(level_count - 1)))
    extra = 2 * n
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        edges.append((u, v))
        weights.append(float(rng.randint(2, 12)))
        labels.append(str(rng.randrange(level_count - 1)) if rng.random() < 0.7 else "inf")
    network = build_network(n, edges, weights)
    nu: dict[str, float] = {}
    value = 20.0
    for lv in range(level_count - 1):
        nu[str(lv)] = value
        value *= 3.0
    nu["inf"] = INF
    scope = scope_from_labels(labels, nu)
    return NetworkFile(network, scope, [None] * len(edges), {})


def export_route(
    walk: Walk,
    network: RoadNetwork,
    scope: ScopeMapping,
    fmt: str,
    coordinates: dict[int, tuple[float, float]] | None = None,
    permit_edges: tuple[int, ...] = (),
) -> tuple[str, str]:
    """Serialise a walk; returns (format_used, payload).

    GeoJSON needs vertex coordinates and falls back to CSV with a warning
    comment when they are missing; the CSV format is
    ``edge_id,tail,head,weight,level,permit``.
    """
    if fmt not in ("geojson", "csv"):
        raise NetworkError(f"unknown export format {fmt!r}")
    permits = set(permit_edges)
    if fmt == "geojson":
        coords = coordinates or {}
        have_all = all(
            network.tails[e] in coords and network.heads[e] in coords for e in walk.edges
        )
        if have_all:
            features = []
            for e in walk.edges:
                u, v = network.tails[e], network.heads[e]
                features.append(
                    {
                        "type": "Feature",
                        "geometry": {
                            "type": "LineString",
                            "coordinates": [list(coords[u]), list(coords[v])],
                        },
                        "properties": {
                            "edge_id": e,
                            "level": scope.labels[scope.level[e]],
                            "weight": network.weight[e],
                            "permit": e in permits,
                        },
                    }
                )
            payload = json.dumps(
                {"type": "FeatureCollection", "features": features},
                indent=2, sort_keys=True, allow_nan=False,
            )
            return "geojson", payload
        fmt = "csv"
        prefix = "# warning: coordinates missing, falling back to csv\n"
    else:
        prefix = ""
    rows = ["edge_id,tail,head,weight,level,permit"]
    for e in walk.edges:
        rows.append(
            f"{e},{network.tails[e]},{network.heads[e]},{_format_number(network.weight[e])},"
            f"{scope.labels[scope.level[e]]},{1 if e in permits else 0}"
        )
    return "csv", prefix + "\n".join(rows) + "\n"


def _edge_id(token: str, network: RoadNetwork, line_no: int) -> int:
    edge = _canonical_int(token)
    if edge is None:
        raise ParseError(line_no, f"bad edge id {token!r}")
    if not (0 <= edge < network.edge_count):
        raise ParseError(line_no, f"unknown edge id {edge}")
    return edge


def parse_walk(text: str, network: RoadNetwork, source: int) -> Walk:
    """Parse a walk file from ``source``: one edge id per line, in walk
    order, written in canonical decimal spelling as in closure files."""
    edges = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        token = raw.partition("#")[0].strip()
        if token:
            edges.append(_edge_id(token, network, line_no))
    return Walk(source, tuple(edges))


def parse_closures(text: str, network: RoadNetwork) -> dict[int, float]:
    """Parse a closure file into edge-id -> new-weight updates.

    Accepts one record per line: an edge id, or ``tail,head,ordinal``
    selecting the ordinal-th parallel edge (counting from 0), optionally
    followed by the new weight (default ``inf``), which may not be below the
    edge's base weight. Integers must be written in canonical decimal
    spelling, as level labels are. Each edge may be listed once.
    """
    updates: dict[int, float] = {}
    listed: dict[int, int] = {}  # edge -> line of its listing
    for line_no, raw in enumerate(text.splitlines(), start=1):
        parts = raw.partition("#")[0].split()
        if not parts:
            continue
        selector = parts[0]
        if len(parts) > 2:
            raise ParseError(line_no, "expected: <edge> [weight]")
        weight = _parse_number(parts[1], line_no) if len(parts) == 2 else INF
        if "," in selector:
            bits = selector.split(",")
            if len(bits) != 3:
                raise ParseError(line_no, "expected tail,head,ordinal")
            tail, head, ordinal = map(_canonical_int, bits)
            if tail is None or head is None or ordinal is None:
                raise ParseError(line_no, "bad edge selector")
            matching = []
            if 0 <= tail < network.vertex_count:
                matching = [e for e in network.out_edges(tail) if network.heads[e] == head]
            if not (0 <= ordinal < len(matching)):
                raise ParseError(line_no, f"no edge {tail},{head} ordinal {ordinal}")
            edge = matching[ordinal]
        else:
            edge = _edge_id(selector, network, line_no)
        if edge in listed:
            raise ParseError(line_no, f"edge {edge} already listed on line {listed[edge]}")
        listed[edge] = line_no
        base = network.weight[edge]
        if weight < base:
            raise ParseError(line_no, f"edge {edge}: updated weight {weight} below base weight {base}")
        updates[edge] = weight
    return updates
