"""Line-oriented text formats for instances, cuts, and witnesses.

Instance files (1-indexed vertex ids, whitespace separated):

    p lbc <n> <m>
    s <id>
    t <id>
    b <beta>
    l <lambda>
    e <u> <v>
    i <id> <start> <end>     interval line; rationals as decimals or p/q
    c <free text>            comment; `c param k 3` and `c role 5 u:1:0`
                             carry generator annotations

Cut files are `e <u> <v>` lines, FVS witnesses `v <id>` lines, and path
decompositions one `B <id> <id> ...` line per bag.  Serialization is
deterministic, and parse(serialize(x)) round-trips exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InputError
from .gadgets import ReductionOutput
from .graph import Graph, Instance, edge
from .intervals import IntervalModel
from .witnesses import PathDecomposition


def _fmt_rational(x: Fraction) -> str:
    """Exact decimal when the denominator is 2^a 5^b, else p/q."""
    d = x.denominator
    for p in (2, 5):
        while d % p == 0:
            d //= p
    if d != 1:
        return f"{x.numerator}/{x.denominator}"
    value, digits = x, 0
    while value.denominator != 1:
        value *= 10
        digits += 1
    s = str(value.numerator)
    if digits == 0:
        return s
    sign = "-" if s.startswith("-") else ""
    s = s.lstrip("-").rjust(digits + 1, "0")
    return f"{sign}{s[:-digits]}.{s[-digits:]}"


def _records(text: str):
    """(line number, record kind, fields) for every non-blank line.

    The kind is the first whitespace-separated token; kind "c" is a comment.
    """
    for ln, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if tokens:
            yield ln, tokens[0], tokens[1:]


def _parse_int(token: str, ln: int, what: str = "integer") -> int:
    try:
        return int(token)
    except ValueError:
        raise InputError(f"line {ln}: bad {what} {token!r}") from None


def _vertex_ids(tokens: list[str], ln: int) -> list[int]:
    """0-based vertex ids from 1-based tokens."""
    return [_parse_int(x, ln, "vertex id") - 1 for x in tokens]


def _single(rest: list[str], ln: int, usage: str) -> str:
    """The one value of a record that takes exactly one."""
    if len(rest) != 1:
        raise InputError(f"line {ln}: expected `{usage}`")
    return rest[0]


def _parse_rational(token: str, ln: int) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"line {ln}: bad rational {token!r}") from None


@dataclass
class ParsedInstance:
    instance: Instance
    model: IntervalModel | None
    roles: dict[int, str] = field(default_factory=dict)
    params: dict[str, str] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)


def parse_instance(text: str) -> ParsedInstance:
    """Parse an instance file; malformed lines raise InputError with location."""
    n = m = None
    s = t = beta = lam = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    intervals: dict[int, tuple[Fraction, Fraction]] = {}
    roles: dict[int, str] = {}
    params: dict[str, str] = {}
    warnings: list[str] = []

    def vid(token, ln):
        v = _parse_int(token, ln, "vertex id")
        if n is None:
            raise InputError(f"line {ln}: vertex id before the p-line")
        if not (1 <= v <= n):
            raise InputError(f"line {ln}: vertex id {v} out of range 1..{n}")
        return v - 1

    for ln, kind, rest in _records(text):
        if kind == "c":
            if len(rest) >= 3 and rest[0] == "param":
                if rest[1] in params:
                    raise InputError(f"line {ln}: param {rest[1]!r} given twice")
                params[rest[1]] = " ".join(rest[2:])  # values may hold spaces
            elif len(rest) >= 3 and rest[0] == "role":
                if len(rest) != 3:
                    raise InputError(f"line {ln}: expected `c role <id> <tag>`")
                roles[vid(rest[1], ln)] = rest[2]
            continue
        if kind == "p":
            if n is not None:
                raise InputError(f"line {ln}: duplicate p-line")
            if len(rest) != 3 or rest[0] != "lbc":
                raise InputError(f"line {ln}: expected `p lbc <n> <m>`")
            n = _parse_int(rest[1], ln, "vertex count")
            m = _parse_int(rest[2], ln, "edge count")
        elif kind == "s":
            s = vid(_single(rest, ln, "s <id>"), ln)
        elif kind == "t":
            t = vid(_single(rest, ln, "t <id>"), ln)
        elif kind == "b":
            beta = _parse_int(_single(rest, ln, "b <beta>"), ln)
        elif kind == "l":
            lam = _parse_int(_single(rest, ln, "l <lambda>"), ln)
        elif kind == "e":
            if len(rest) != 2:
                raise InputError(f"line {ln}: expected `e <u> <v>`")
            e = edge(vid(rest[0], ln), vid(rest[1], ln))
            if e in seen:
                raise InputError(f"line {ln}: duplicate edge {e}")
            seen.add(e)
            edges.append(e)
        elif kind == "i":
            if len(rest) != 3:
                raise InputError(f"line {ln}: expected `i <id> <start> <end>`")
            v = vid(rest[0], ln)
            intervals[v] = (
                _parse_rational(rest[1], ln),
                _parse_rational(rest[2], ln),
            )
        else:
            raise InputError(f"line {ln}: unknown record type {kind!r}")

    for name, value in (("p", n), ("s", s), ("t", t), ("b", beta), ("l", lam)):
        if value is None:
            raise InputError(f"missing {name!r} record")
    if m != len(edges):
        raise InputError(f"p-line promises {m} edges, file has {len(edges)}")
    if lam > n:
        warnings.append(f"lambda {lam} exceeds n={n}; clamped")
    if beta > m:
        warnings.append(f"beta {beta} exceeds m={m}; clamped")
    inst = Instance(Graph(n, edges), s, t, beta, lam)
    model = None
    if intervals:
        missing = [v for v in range(n) if v not in intervals]
        if missing:
            raise InputError(f"interval lines missing for vertices {missing[:5]}")
        model = IntervalModel(
            tuple(intervals[v][0] for v in range(n)),
            tuple(intervals[v][1] for v in range(n)),
        )
    return ParsedInstance(inst, model, roles, params, warnings)


def serialize_instance(
    inst: Instance,
    model: IntervalModel | None = None,
    roles=None,
    params: dict | None = None,
) -> str:
    g = inst.graph
    lines = [f"p lbc {g.n} {g.m}"]
    lines.append(f"s {inst.s + 1}")
    lines.append(f"t {inst.t + 1}")
    lines.append(f"b {inst.beta}")
    lines.append(f"l {inst.lam}")
    for u, v in g.edge_list():
        lines.append(f"e {u + 1} {v + 1}")
    if model is not None:
        for v in range(g.n):
            lines.append(
                f"i {v + 1} {_fmt_rational(model.starts[v])} "
                f"{_fmt_rational(model.ends[v])}"
            )
    if params:
        for key in sorted(params):
            lines.append(f"c param {key} {params[key]}")
    if roles:
        items = sorted(roles.items()) if isinstance(roles, dict) else enumerate(roles)
        for v, tag in items:
            lines.append(f"c role {v + 1} {tag}")
    return "\n".join(lines) + "\n"


def serialize_reduction_output(out: ReductionOutput) -> str:
    return serialize_instance(
        out.instance, model=None, roles=out.roles, params=out.params
    )


def load_reduction_output(text: str, source=None) -> ReductionOutput:
    """Rebuild a generated instance (role map and path registry) from a file.

    Interior path vertices carry `<path>@<pos>` roles; endpoints are
    recovered from adjacency, so decoders and witness builders work on
    reloaded instances exactly as on freshly generated ones.
    """
    parsed = parse_instance(text)
    inst, roles, raw_params = parsed.instance, parsed.roles, parsed.params
    if len(roles) != inst.graph.n:
        raise InputError("file lacks a complete role annotation")
    params: dict[str, int | str] = {}
    for key, value in raw_params.items():
        if value.lstrip("-").isdigit():  # also true for digits int() rejects
            try:
                value = int(value)
            except ValueError:
                raise InputError(f"param {key}: bad integer {value!r}") from None
        params[key] = value

    members: dict[str, dict[int, int]] = {}
    vertex_by_role: dict[str, int] = {}
    for v in range(inst.graph.n):
        tag = roles[v]
        if "@" in tag:
            base, pos = tag.rsplit("@", 1)
            try:
                position = int(pos)
            except ValueError:
                raise InputError(f"role of vertex {v + 1}: bad path position {pos!r}") from None
            slots, key = members.setdefault(base, {}), position
        else:
            slots, key = vertex_by_role, tag
        if key in slots:
            raise InputError(
                f"role of vertex {v + 1}: {tag!r} is already carried by vertex {slots[key] + 1}"
            )
        slots[key] = v

    g = inst.graph
    paths: dict[str, tuple[int, ...]] = {}
    for base, inner in members.items():
        seq = [inner[pos] for pos in sorted(inner)]
        if len(seq) == 1:
            # both endpoints neighbor the single interior vertex; orient by id
            ends = sorted(w for w in g.adj[seq[0]] if "@" not in roles[w])
            if len(ends) != 2:
                raise InputError(f"cannot recover endpoints of path {base!r}")
            paths[base] = (ends[0], seq[0], ends[1])
            continue
        anchors_first = [w for w in g.adj[seq[0]] if w != seq[1] and "@" not in roles[w]]
        anchors_last = [w for w in g.adj[seq[-1]] if w != seq[-2] and "@" not in roles[w]]
        if len(anchors_first) != 1 or len(anchors_last) != 1:
            raise InputError(f"cannot recover endpoints of path {base!r}")
        paths[base] = (anchors_first[0], *seq, anchors_last[0])

    return ReductionOutput(
        instance=inst,
        roles=tuple(roles[v] for v in range(g.n)),
        paths=paths,
        vertex_by_role=vertex_by_role,
        params=params,
        source=source,
    )


# --------------------------------------------------------------------------
# auxiliary formats


def parse_source_graph(text: str) -> Graph:
    """`p graph <n> <m>` header plus `e <u> <v>` lines (1-indexed)."""
    n = None
    edges = []
    for ln, kind, rest in _records(text):
        if kind == "c":
            continue
        if kind == "p":
            if n is not None:
                raise InputError(f"line {ln}: duplicate p-line")
            if len(rest) != 3 or rest[0] != "graph":
                raise InputError(f"line {ln}: expected `p graph <n> <m>`")
            n = _parse_int(rest[1], ln, "vertex count")
            m = _parse_int(rest[2], ln, "edge count")
        elif kind == "e":
            if n is None:
                raise InputError(f"line {ln}: edge before the p-line")
            if len(rest) != 2:
                raise InputError(f"line {ln}: expected `e <u> <v>`")
            u, v = _vertex_ids(rest, ln)
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"line {ln}: edge endpoint out of range")
            edges.append((u, v))
        else:
            raise InputError(f"line {ln}: unknown record type {kind!r}")
    if n is None:
        raise InputError("missing `p graph` record")
    if m != len(edges):
        raise InputError(f"p-line promises {m} edges, file has {len(edges)}")
    return Graph(n, edges)


def serialize_source_graph(g: Graph) -> str:
    lines = [f"p graph {g.n} {g.m}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edge_list())
    return "\n".join(lines) + "\n"


def parse_cut(text: str, g: Graph) -> frozenset:
    cut = set()
    for ln, kind, rest in _records(text):
        if kind == "c":
            continue
        if kind != "e" or len(rest) != 2:
            raise InputError(f"line {ln}: expected `e <u> <v>`")
        e = edge(*_vertex_ids(rest, ln))
        if e not in g.edges:
            raise InputError(f"line {ln}: {e} is not an edge of the instance")
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
        (v,) = _vertex_ids(rest, ln)
        if not (0 <= v < g.n):
            raise InputError(f"line {ln}: vertex id out of range")
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
        bag = frozenset(_vertex_ids(rest, ln))
        for v in bag:
            if not (0 <= v < g.n):
                raise InputError(f"line {ln}: vertex id out of range")
        bags.append(bag)
    return PathDecomposition(tuple(bags))


def serialize_path_decomposition(pd: PathDecomposition) -> str:
    return "".join(
        "B " + " ".join(str(v + 1) for v in sorted(bag)) + "\n" for bag in pd.bags
    )
