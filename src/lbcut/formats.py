"""Line-oriented text formats for instances, cuts, and witnesses.

Instance files (1-indexed vertex ids, whitespace separated):

    p lbc <n> <m>
    s <id>
    t <id>
    b <beta>
    l <lambda>
    e <u> <v>
    i <id> <start> <end>     interval line; rationals as decimals or p/q,
                             <m>e-<k> past Python's int-string limit
    c <free text>            comment, except for three generator records:
    c param <key> <value>    a parameter of the construction
    c role <id> <tag>        an anchor vertex and its tag (no '@')
    c path <tag> <u> <first> <last> <v>
                             a subdivided path u, first..last, v, its
                             interior the consecutive ids first..last

Cut files are `e <u> <v>` lines, FVS witnesses `v <id>` lines, and path
decompositions one `B <id> <id> ...` line per bag (written in increasing
id order, read in any order into a sorted tuple).  Serialization is
deterministic, and parse(serialize(x)) round-trips exactly.

Integer fields (ids, counts, beta, lambda) are plain ASCII `-?[0-9]+`;
rationals hold neither `_` nor a non-ASCII character, although Python's
int() and Fraction() would read `1_2` or fullwidth digits.
`parse_instance` reads a file in one pass: well-formed `e` records go
inline into flat integer lists, with no tuple per edge, and everything else
goes through the per-record helpers.  Instance files are written straight
from `Graph.adj`.

A malformed record raises InputError naming its line, with ids 1-based as
in the file: a bad field, an id outside 1..n, a negative p-line count, a
self-loop or repeated edge, a cut edge the instance lacks, a vertex given
twice in an FVS or in one bag, a role, param or path record with too few
or too many fields, or a repeated p, s, t, b, l, i, role, param or path
record.  `load_reduction_output` also names the line of a path
record that does not match the graph.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from operator import length_hint

from .errors import InputError
from .gadgets import ReductionOutput
from .graph import Graph, Instance, edge
from .intervals import IntervalModel, _show
from .witnesses import PathDecomposition


def _valuation(d: int, p: int) -> tuple[int, int]:
    """(e, d // p**e) for the largest e with p**e dividing d."""
    e = 0
    while d % p == 0:
        power, step = p, 1
        while d % power == 0:
            d //= power
            e += step
            power, step = power * power, step * 2
    return e, d


def _fmt_rational(x: Fraction, v: int) -> str:
    """Exact decimal when the denominator is 2^a 5^b, else p/q.

    A decimal whose digit string would pass Python's int-string limit is
    written `<mantissa>e-<digits>` instead; where the limit leaves no
    readable form, InputError names vertex v (0-based).
    """
    twos, rest = _valuation(x.denominator, 2)
    fives, rest = _valuation(rest, 5)
    try:
        if rest != 1:
            return f"{x.numerator}/{x.denominator}"
        digits = max(twos, fives)
        mantissa = str(x.numerator * 2 ** (digits - twos) * 5 ** (digits - fives))
    except ValueError:
        raise InputError(
            f"vertex {v + 1}: coordinate exceeds Python's int-string limit"
        ) from None
    if digits == 0:
        return mantissa
    sign = "-" if mantissa.startswith("-") else ""
    body = mantissa.lstrip("-")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if limit and max(len(body), digits + 1) > limit:
        return f"{mantissa}e-{digits}"
    body = body.rjust(digits + 1, "0")
    return f"{sign}{body[:-digits]}.{body[-digits:]}"


def _records(text: str):
    """(line number, record kind, fields) for every non-blank line.

    The kind is the first whitespace-separated token; kind "c" is a comment.
    """
    for ln, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if tokens:
            yield ln, tokens[0], tokens[1:]


_INT = re.compile(r"-?[0-9]+")


def plain_int(token: str) -> int:
    """int(token) for a plain ASCII integer `-?[0-9]+`, else ValueError.

    int() alone would also take `1_2`, `+1` and non-ASCII digits."""
    if not _INT.fullmatch(token):
        raise ValueError(token)
    return int(token)  # ValueError past Python's int-string limit


def _parse_int(token: str, ln: int, what: str = "integer") -> int:
    """plain_int(token); InputError naming line `ln` where it refuses."""
    try:
        return plain_int(token)
    except ValueError:
        raise InputError(f"line {ln}: bad {what} {token!r}") from None


def _vertex_id(token: str, ln: int, n: int | None) -> int:
    """The 0-based id of a 1-based vertex token, checked against 1..n."""
    v = _parse_int(token, ln, "vertex id")
    if n is None:
        raise InputError(f"line {ln}: vertex id before the p-line")
    if not 1 <= v <= n:
        raise InputError(f"line {ln}: vertex id {v} out of range 1..{n}")
    return v - 1


def _p_line(kind: str, rest: list[str], ln: int, n: int | None) -> tuple[int, int]:
    """(n, m) of a `p <kind> <n> <m>` record; `n` is the count read so far."""
    if n is not None:
        raise InputError(f"line {ln}: duplicate p-line")
    if len(rest) != 3 or rest[0] != kind:
        raise InputError(f"line {ln}: expected `p {kind} <n> <m>`")
    n, m = _parse_int(rest[1], ln, "vertex count"), _parse_int(rest[2], ln, "edge count")
    for count, what in ((n, "vertex"), (m, "edge")):
        if count < 0:
            raise InputError(f"line {ln}: negative {what} count {count}")
    return n, m


def _edge_record(rest: list[str], ln: int, n: int | None) -> tuple[int, int]:
    """(u, v) of an `e <u> <v>` record, ids 0-based."""
    if len(rest) != 2:
        raise InputError(f"line {ln}: expected `e <u> <v>`")
    return _vertex_id(rest[0], ln, n), _vertex_id(rest[1], ln, n)


def _graph(n: int, eu: list[int], ev: list[int], lines: list[int]) -> Graph:
    """Graph(n, zip(eu, ev)) over pairs in file order, pair i read on lines[i].

    The ids are already checked against 1..n, so Graph can only reject the
    pair it was reading as a self-loop or a repeat.  Graph reads no pair
    past that one, so what is left of `ends` tells which pair it was, and
    the error names its line and its 1-based ids.
    """
    ends = iter(eu)
    try:
        return Graph(n, zip(ends, ev))
    except InputError:
        i = len(eu) - length_hint(ends) - 1
        u, v = eu[i] + 1, ev[i] + 1
        what = f"self-loop at vertex {u}" if u == v else f"duplicate edge {edge(u, v)}"
        raise InputError(f"line {lines[i]}: {what}") from None


_PLAIN_RATIONAL = re.compile(r"-?[0-9]+(\.[0-9]+)?")


def _parse_rational(token: str, ln: int) -> Fraction:
    """Fraction(token); InputError naming line `ln` where Fraction refuses.

    Plain decimals and integers (ASCII digits, an optional minus sign) are
    built from their digits; past Python's int-string limit both refuse.
    Tokens holding `_` or a non-ASCII character are refused too, although
    Fraction would read `1_0` and non-ASCII digits."""
    try:
        if not token.isascii() or "_" in token:
            raise ValueError(token)
        if _PLAIN_RATIONAL.fullmatch(token):
            whole, _, digits = token.partition(".")
            if not digits:
                return Fraction(int(whole))
            return Fraction(int(whole + digits), 10 ** len(digits))
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"line {ln}: bad rational {token!r}") from None


@dataclass
class ParsedInstance:
    """An instance with its model and generator records; ids are 0-based.

    roles maps each `c role` vertex to its tag, and paths each `c path` tag
    to (line, u, first, last, v).  param_lines holds the line of each param.
    """

    instance: Instance
    model: IntervalModel | None
    roles: dict[int, str] = field(default_factory=dict)
    params: dict[str, str] = field(default_factory=dict)
    paths: dict[str, tuple[int, int, int, int, int]] = field(default_factory=dict)
    param_lines: dict[str, int] = field(default_factory=dict)

    @property
    def warnings(self) -> tuple[str, ...]:
        """The beta and lambda clamps, as `Instance` recorded them."""
        return self.instance.notes


_SCALARS = {"s": "s <id>", "t": "t <id>", "b": "b <beta>", "l": "l <lambda>"}


def parse_instance(text: str) -> ParsedInstance:
    """Parse an instance file; malformed lines raise InputError with location.

    One pass over the lines.  Well-formed `e` records are read inline into
    flat lists; every other record, and any fault in an `e` record, goes
    through the per-record helpers, which name it.
    """
    n = m = None
    top = 0  # ids 1..top are read inline; 0 until the p-line
    scalars: dict[str, int] = {}
    eu: list[int] = []  # 0-based edge ends, and the line of each pair
    ev: list[int] = []
    lines: list[int] = []
    intervals: dict[int, tuple[Fraction, Fraction]] = {}
    roles: dict[int, str] = {}
    carrier: dict[str, int] = {}  # the vertex of each role tag
    params: dict[str, str] = {}
    param_lines: dict[str, int] = {}
    paths: dict[str, tuple[int, int, int, int, int]] = {}

    for ln, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens:
            continue
        kind = tokens[0]
        if kind == "e":
            u = v = -1
            if len(tokens) == 3 and raw.isascii() and tokens[1].isdigit() and tokens[2].isdigit():
                try:
                    u, v = int(tokens[1]) - 1, int(tokens[2]) - 1
                except ValueError:  # past Python's int-string limit
                    pass
            if not (0 <= u < top and 0 <= v < top):
                u, v = _edge_record(tokens[1:], ln, n)
            eu.append(u)
            ev.append(v)
            lines.append(ln)
        elif kind == "c":
            record = tokens[1] if len(tokens) > 1 else None
            if record == "role":
                if len(tokens) != 4:
                    raise InputError(f"line {ln}: expected `c role <id> <tag>`")
                v, tag = _vertex_id(tokens[2], ln, n), tokens[3]
                if v in roles:
                    raise InputError(f"line {ln}: role of vertex {v + 1} given twice")
                if "@" in tag:  # paths are `c path` records, not per-vertex roles
                    raise InputError(f"line {ln}: role tag {tag!r} holds '@'")
                if tag in carrier:
                    raise InputError(
                        f"line {ln}: role {tag!r} is already carried by vertex {carrier[tag] + 1}"
                    )
                roles[v] = tag
                carrier[tag] = v
            elif record == "param":
                if len(tokens) < 4:
                    raise InputError(f"line {ln}: expected `c param <key> <value>`")
                if tokens[2] in params:
                    raise InputError(f"line {ln}: param {tokens[2]!r} given twice")
                params[tokens[2]] = " ".join(tokens[3:])  # values may hold spaces
                param_lines[tokens[2]] = ln
            elif record == "path":
                if len(tokens) != 7:
                    raise InputError(f"line {ln}: expected `c path <tag> <u> <first> <last> <v>`")
                tag = tokens[2]
                if tag in paths:
                    raise InputError(f"line {ln}: path {tag!r} given twice")
                u, first, last, v = (_vertex_id(x, ln, n) for x in tokens[3:])
                if first > last:
                    raise InputError(
                        f"line {ln}: path {tag!r}: first interior {first + 1} after last {last + 1}"
                    )
                paths[tag] = ln, u, first, last, v
        elif kind == "p":
            n, m = _p_line("lbc", tokens[1:], ln, n)
            top = n
        elif kind in _SCALARS:
            if kind in scalars:
                raise InputError(f"line {ln}: {kind!r} record given twice")
            if len(tokens) != 2:
                raise InputError(f"line {ln}: expected `{_SCALARS[kind]}`")
            value = tokens[1]
            scalars[kind] = _vertex_id(value, ln, n) if kind in "st" else _parse_int(value, ln)
        elif kind == "i":
            if len(tokens) != 4:
                raise InputError(f"line {ln}: expected `i <id> <start> <end>`")
            v = _vertex_id(tokens[1], ln, n)
            if v in intervals:
                raise InputError(f"line {ln}: interval of vertex {v + 1} given twice")
            a, b = _parse_rational(tokens[2], ln), _parse_rational(tokens[3], ln)
            if a > b:
                raise InputError(
                    f"line {ln}: vertex {v + 1}: empty interval [{_show(a)}, {_show(b)}]"
                )
            intervals[v] = a, b
        else:
            raise InputError(f"line {ln}: unknown record type {kind!r}")

    if n is None:
        raise InputError("missing 'p' record")
    for name in _SCALARS:
        if name not in scalars:
            raise InputError(f"missing {name!r} record")
    graph = _graph(n, eu, ev, lines)
    if m != graph.m:
        raise InputError(f"p-line promises {m} edges, file has {len(eu)}")
    inst = Instance(graph, scalars["s"], scalars["t"], scalars["b"], scalars["l"])
    model = None
    if intervals:
        missing = [v for v in range(n) if v not in intervals]
        if missing:
            raise InputError(f"interval lines missing for vertices {missing[:5]}")
        model = IntervalModel(
            tuple(intervals[v][0] for v in range(n)),
            tuple(intervals[v][1] for v in range(n)),
        )
    return ParsedInstance(inst, model, roles, params, paths, param_lines)


def serialize_instance(inst: Instance, model: IntervalModel | None = None) -> str:
    g = inst.graph
    lines = [f"p lbc {g.n} {g.m}"]
    lines.append(f"s {inst.s + 1}")
    lines.append(f"t {inst.t + 1}")
    lines.append(f"b {inst.beta}")
    lines.append(f"l {inst.lam}")
    lines += _edge_lines(g)
    if model is not None:
        for v in range(g.n):
            lines.append(
                f"i {v + 1} {_fmt_rational(model.starts[v], v)} "
                f"{_fmt_rational(model.ends[v], v)}"
            )
    return "\n".join(lines) + "\n"


def _edge_lines(g: Graph) -> list[str]:
    """`e <u> <v>` for each edge in `edge_list()` order, read off `g.adj`."""
    return [f"e {u + 1} {w + 1}" for u, a in enumerate(g.adj) for w in a if u < w]


def serialize_reduction_output(out: ReductionOutput) -> str:
    """The instance, then `c param` records by key, `c role` records by id,
    and one `c path` record per path in registration order."""
    params = out.params
    lines = [serialize_instance(out.instance)]
    lines += [f"c param {key} {params[key]}\n" for key in sorted(params)]
    anchors = sorted((v, tag) for tag, v in out.vertex_by_role.items())
    lines += [f"c role {v + 1} {tag}\n" for v, tag in anchors]
    lines += [
        f"c path {tag} {seq[0] + 1} {seq[1] + 1} {seq[-2] + 1} {seq[-1] + 1}\n"
        for tag, seq in out.paths.items()
    ]
    return "".join(lines)


def load_reduction_output(text: str, source=None) -> ReductionOutput:
    """Rebuild a generated instance (anchors and path registry) from a file.

    The paths come straight from the `c path` records.  Each record is
    checked against the graph, and a fault names its line: an interior
    vertex that is an anchor or on another path, an endpoint that is not an
    anchor, or two consecutive vertices that are not adjacent.  Every vertex
    must be an anchor or a path interior.  A param value that looks like an
    integer is read as one.
    """
    parsed = parse_instance(text)
    g, roles = parsed.instance.graph, parsed.roles
    params: dict[str, int | str] = {}
    for key, value in parsed.params.items():
        if value.lstrip("-").isdigit():  # also true for non-ASCII digits
            value = _parse_int(value, parsed.param_lines[key])
        params[key] = value

    taken = bytearray(g.n)  # 1 for an anchor, 2 for a path interior
    for v in roles:
        taken[v] = 1
    adj = g.adj
    paths: dict[str, tuple[int, ...]] = {}
    for tag, (ln, u, first, last, v) in parsed.paths.items():
        span = taken[first:last + 1]
        if any(span):
            x = first + next(i for i, mark in enumerate(span) if mark)
            what = "an anchor" if taken[x] == 1 else "on another path"
            raise InputError(f"line {ln}: path {tag!r}: vertex {x + 1} is already {what}")
        taken[first:last + 1] = b"\2" * len(span)
        for end in (u, v):
            if end not in roles:
                raise InputError(f"line {ln}: path {tag!r}: endpoint {end + 1} is not an anchor")
        seq = (u, *range(first, last + 1), v)
        for a, b in zip(seq, seq[1:]):
            if b not in adj[a]:
                raise InputError(f"line {ln}: path {tag!r}: ({a + 1}, {b + 1}) is not an edge")
        paths[tag] = seq
    if 0 in taken:
        raise InputError(f"vertex {taken.index(0) + 1} is neither an anchor nor on a path")

    return ReductionOutput(
        instance=parsed.instance,
        paths=paths,
        vertex_by_role={tag: v for v, tag in roles.items()},
        params=params,
        source=source,
    )


# --------------------------------------------------------------------------
# auxiliary formats


def parse_source_graph(text: str) -> Graph:
    """`p graph <n> <m>` header plus `e <u> <v>` lines (1-indexed)."""
    n = m = None
    eu: list[int] = []
    ev: list[int] = []
    lines: list[int] = []
    for ln, kind, rest in _records(text):
        if kind == "c":
            continue
        if kind == "p":
            n, m = _p_line("graph", rest, ln, n)
        elif kind == "e":
            u, v = _edge_record(rest, ln, n)
            eu.append(u)
            ev.append(v)
            lines.append(ln)
        else:
            raise InputError(f"line {ln}: unknown record type {kind!r}")
    if n is None:
        raise InputError("missing `p graph` record")
    g = _graph(n, eu, ev, lines)
    if m != g.m:
        raise InputError(f"p-line promises {m} edges, file has {len(eu)}")
    return g


def serialize_source_graph(g: Graph) -> str:
    return "\n".join([f"p graph {g.n} {g.m}", *_edge_lines(g)]) + "\n"


def parse_cut(text: str, g: Graph) -> frozenset:
    cut = set()
    for ln, kind, rest in _records(text):
        if kind == "c":
            continue
        if kind != "e":
            raise InputError(f"line {ln}: expected `e <u> <v>`")
        u, v = _edge_record(rest, ln, g.n)
        if u == v:
            raise InputError(f"line {ln}: self-loop at vertex {u + 1}")
        e = edge(u, v)
        if not g.has_edge(*e):
            raise InputError(f"line {ln}: {edge(u + 1, v + 1)} is not an edge of the instance")
        if e in cut:
            raise InputError(f"line {ln}: duplicate edge {edge(u + 1, v + 1)}")
        cut.add(e)
    return frozenset(cut)


def serialize_cut(cut) -> str:
    return "".join(f"e {u + 1} {v + 1}\n" for u, v in sorted(cut))


def parse_fvs(text: str, g: Graph) -> frozenset:
    vertices = set()
    for ln, kind, rest in _records(text):
        if kind == "c":
            continue
        if kind != "v" or len(rest) != 1:
            raise InputError(f"line {ln}: expected `v <id>`")
        v = _vertex_id(rest[0], ln, g.n)
        if v in vertices:
            raise InputError(f"line {ln}: vertex {v + 1} given twice")
        vertices.add(v)
    return frozenset(vertices)


def serialize_fvs(vertices) -> str:
    return "".join(f"v {v + 1}\n" for v in sorted(vertices))


def parse_path_decomposition(text: str, g: Graph) -> PathDecomposition:
    bags = []
    for ln, kind, rest in _records(text):
        if kind == "c":
            continue
        if kind != "B":
            raise InputError(f"line {ln}: expected `B <id> <id> ...`")
        bag = set()
        for x in rest:
            v = _vertex_id(x, ln, g.n)
            if v in bag:
                raise InputError(f"line {ln}: vertex {v + 1} given twice in one bag")
            bag.add(v)
        bags.append(tuple(sorted(bag)))
    return PathDecomposition(tuple(bags))


def serialize_path_decomposition(pd: PathDecomposition) -> str:
    return "".join(
        "B " + " ".join(str(v + 1) for v in sorted(bag)) + "\n" for bag in pd.bags
    )
