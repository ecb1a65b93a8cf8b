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
int() and Fraction() would read `1_2` or fullwidth digits.  An exponent of
10**6 or more in absolute value is a bad rational, and is never written.

`parse_instance` reads a file in one of two reads.  The bulk read takes
every run of canonical lines after the p-line, `e <u> <v>` and
`i <id> <dec> <dec>`: ids of at most 18 digits, <dec> being
`-?[0-9]{1,18}(.[0-9]{1,18})?` as written for a 2**a 5**b denominator,
one space each, every line ended by `\n`.  Runs are regex-checked, parsed
by numpy in slices of at most 4 KiB cut at line ends, and range-checked
per slice: the edges go into flat integer lists with no tuple per edge,
and interval endpoints become integer keys at one scale 10**k, the model
built from the keys with no Fraction per endpoint.  The records between
runs go through the per-record helpers.  The bulk read names no fault: on
any InputError the file is read again line by line, and that read's error,
naming the first faulty line, stands.  Instance files are written straight
from `Graph.adj`, their edges as one run.

A malformed record raises InputError naming its line, with ids 1-based as
in the file: a bad field, an id outside 1..n, a negative p-line count,
beta or lambda, a self-loop or repeated edge, a cut edge the instance
lacks, a vertex given twice in an FVS or in one bag, a role, param or path
record with too few or too many fields, or a repeated p, s, t, b, l, i,
role, param or path record.  `load_reduction_output` also names the line
of a path record that does not match the graph.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from operator import add, gt, mul

import numpy as np

from .errors import InputError
from .gadgets import ReductionOutput
from .graph import Graph, Instance
from .intervals import IntervalModel, _show, _check_model_size
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
        body = mantissa.lstrip("-")
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
        if digits and limit and max(len(body), digits + 1) > limit:
            if digits >= _EXPONENT_LIMIT:  # a token _parse_rational refuses
                raise ValueError(digits)
            return f"{mantissa}e-{digits}"
    except ValueError:
        raise InputError(
            f"vertex {v + 1}: coordinate exceeds Python's int-string limit"
        ) from None
    if digits == 0:
        return mantissa
    sign = "-" if mantissa.startswith("-") else ""
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


def _edge_record(rest: list[str], ln: int, n: int | None, seen: set) -> tuple[int, int]:
    """The edge (u, v), u < v, ids 0-based, of an `e <u> <v>` record; it
    joins `seen`, and a self-loop or an edge already in `seen` names line
    `ln` with 1-based ids."""
    if len(rest) != 2:
        raise InputError(f"line {ln}: expected `e <u> <v>`")
    u, v = _vertex_id(rest[0], ln, n), _vertex_id(rest[1], ln, n)
    if u == v:
        raise InputError(f"line {ln}: self-loop at vertex {u + 1}")
    e = (u, v) if u < v else (v, u)
    if e in seen:
        raise InputError(f"line {ln}: duplicate edge {(e[0] + 1, e[1] + 1)}")
    seen.add(e)
    return e


_PLAIN_RATIONAL = re.compile(r"-?[0-9]+(\.[0-9]+)?")
_EXPONENT = re.compile(r"[eE][-+]?([0-9]+)\Z")
# Fraction('1e<k>') builds 10**k, in time growing faster than k
_EXPONENT_LIMIT = 10**6


def _parse_rational(token: str, ln: int) -> Fraction:
    """Fraction(token); InputError naming line `ln` where Fraction refuses.

    Plain decimals and integers (ASCII digits, an optional minus sign) are
    built from their digits; past Python's int-string limit both refuse.
    Tokens holding `_` or a non-ASCII character are refused too, although
    Fraction would read `1_0` and non-ASCII digits, and so is an exponent
    of _EXPONENT_LIMIT or more in absolute value."""
    try:
        if not token.isascii() or "_" in token:
            raise ValueError(token)
        if _PLAIN_RATIONAL.fullmatch(token):
            whole, _, digits = token.partition(".")
            if not digits:
                return Fraction(int(whole))
            return Fraction(int(whole + digits), 10 ** len(digits))
        exponent = _EXPONENT.search(token)
        if exponent and int(exponent[1]) >= _EXPONENT_LIMIT:
            raise ValueError(token)
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"line {ln}: bad rational {token!r}") from None


# canonical edge lines: no other character, ids of at most 18 digits (below
# 2**63), each line ended by \n alone
_E_CANONICAL = r"e [0-9]{1,18} [0-9]{1,18}\n"
_E_RUN = re.compile(f"(?:{_E_CANONICAL})+")
_RUN_SLICE = 1 << 12  # characters of a run matched and read at once


def _read_edge_run(text, start, n, eu, ev) -> int:
    """Append the pairs of the run of canonical edge lines at text[start:]
    to eu and ev, ids 0-based; return where the run ends.  An id outside
    1..n raises a bare InputError.

    The run is matched and read in slices of at most _RUN_SLICE characters
    cut at line ends: re keeps state per repeat of a group, and one match
    over a long run would hold it for every line.
    """
    while True:
        run = _E_RUN.match(text, start, text.rfind("\n", start, start + _RUN_SLICE) + 1)
        if run is None:
            return start
        stop = run.end()
        ids = np.fromstring(text[start:stop].replace("e", " "), dtype=np.int64, sep=" ")
        if int(ids.min()) < 1 or int(ids.max()) > n:
            raise InputError
        ids -= 1
        eu += ids[0::2].tolist()
        ev += ids[1::2].tolist()
        start = stop


# canonical interval lines: an id as above, and endpoints as _fmt_rational
# writes them for a 2**a 5**b denominator, with at most 18 digits on each
# side of the point; the groups are the id, then the whole and fraction
# digits of each endpoint
_DECIMAL = r"(-?[0-9]{1,18})(?:\.([0-9]{1,18}))?"
_I_CANONICAL = rf"i ([0-9]{{1,18}}) {_DECIMAL} {_DECIMAL}\n"
_I_LINE = re.compile(r"(?m)^" + _I_CANONICAL)
_I_RUN = re.compile(f"(?:{_I_CANONICAL})+")
# the first line of the next run of either kind
_RUN_START = re.compile(f"(?m)^(?:{_E_CANONICAL}|{_I_CANONICAL})")


def _scaled(wholes, digits, k: int) -> list[int]:
    """int(whole + fraction digits padded to k) for each endpoint."""
    return [*map(int, map(add, wholes, map(str.ljust, digits, repeat(k), repeat("0"))))]


def _read_interval_run(text, start, n, ids, a, b, k) -> tuple[int, int]:
    """Append the ids, start keys and end keys of the run of canonical
    interval lines at text[start:] to ids (1-based, a numpy array per
    slice), a and b, whose keys are at scale 10**k; return where the run
    ends and the k of the keys then.  An id outside 1..n or an empty
    interval raises a bare InputError.

    Slices of at most _RUN_SLICE characters cut at line ends are read in
    turn, as in _read_edge_run.  An endpoint `<whole>.<digits>` becomes the
    integer key int(whole + digits padded to k), k the most fraction digits
    seen, and the keys read before are rescaled when k grows; no Fraction
    is built.
    """
    while True:
        end = text.rfind("\n", start, start + _RUN_SLICE) + 1
        rows = _I_LINE.findall(text, start, end)
        whole = len(rows) == text.count("\n", start, end)  # each line a run line
        if not whole:  # the run ends in this slice
            run = _I_RUN.match(text, start, end)
            end = run.end() if run else start
            rows = rows[:text.count("\n", start, end)]
        if not rows:
            return start, k
        vs, sw, sd, ew, ed = zip(*rows)
        vs = np.fromstring(" ".join(vs), dtype=np.int64, sep=" ")
        if int(vs.min()) < 1 or int(vs.max()) > n:
            raise InputError
        digits = max(k, *map(len, sd + ed))
        if digits > k:  # rescale the keys read so far
            scale, k = 10 ** (digits - k), digits
            a[:] = map(mul, a, repeat(scale))
            b[:] = map(mul, b, repeat(scale))
        sk, ek = _scaled(sw, sd, k), _scaled(ew, ed, k)
        if any(map(gt, sk, ek)):
            raise InputError
        ids.append(vs)
        a += sk
        b += ek
        start = end
        if not whole:
            return start, k


def _keyed_model(n, ids, a, b, k) -> IntervalModel:
    """The model of the ids and keys the `i` runs gave (see
    _read_interval_run); a bare InputError unless they give each of the n
    vertices one interval."""
    ids = np.concatenate(ids) - 1
    if not np.array_equal(ids, np.arange(n)):  # not in vertex order
        pick = np.argsort(ids)
        if not np.array_equal(ids[pick], np.arange(n)):  # a vertex missing or twice
            raise InputError
        pick = pick.tolist()
        a, b = [*map(a.__getitem__, pick)], [*map(b.__getitem__, pick)]
    return IntervalModel._from_keys(a, b, 10**k)


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


_SCALARS = {"s": "id", "t": "id", "b": "beta", "l": "lambda"}  # the field of each


def parse_instance(text: str) -> ParsedInstance:
    """Parse an instance file; malformed lines raise InputError with location.

    The bulk read comes first.  On any InputError the file is read again
    line by line, and that read names the fault.
    """
    try:
        return _read_instance(text, bulk=True)
    except InputError:
        return _read_instance(text, bulk=False)


def _read_instance(text: str, bulk: bool) -> ParsedInstance:
    """The bulk read (`bulk`) or the line read of an instance file.

    The bulk read takes every run of canonical `e` and `i` lines after the
    p-line with _read_edge_run and _read_interval_run, in any order, and
    the records between runs one by one.  A run before the p-line, an `i`
    record read alone next to an `i` run, and a faulty id, interval or pair
    in a run raise a bare InputError.  The line read names the first fault.
    """
    n = m = None
    scalars: dict[str, int] = {}
    eu, ev = [], []  # 0-based edge ends
    seen: set[tuple[int, int]] = set()  # the edges of `e` records read per record
    intervals: dict[int, tuple[Fraction, Fraction]] = {}  # read per record
    ids, a, b, k = [], [], [], 0  # of the `i` runs: ids per slice, keys at scale 10**k
    roles: dict[int, str] = {}
    carrier: dict[str, int] = {}  # the vertex of each role tag
    params: dict[str, str] = {}
    param_lines: dict[str, int] = {}
    paths: dict[str, tuple[int, int, int, int, int]] = {}

    def read(part: str, ln0: int) -> int:
        """Read the records of `part`, whose first line is line `ln0`;
        return the number of the line after it."""
        nonlocal n, m
        records = part.splitlines()
        for ln, raw in enumerate(records, start=ln0):
            tokens = raw.split()
            if not tokens:
                continue
            kind = tokens[0]
            if kind == "e":
                u, v = _edge_record(tokens[1:], ln, n, seen)
                eu.append(u)
                ev.append(v)
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
                            f"line {ln}: role {tag!r} is already carried by vertex "
                            f"{carrier[tag] + 1}"
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
                        raise InputError(
                            f"line {ln}: expected `c path <tag> <u> <first> <last> <v>`"
                        )
                    tag = tokens[2]
                    if tag in paths:
                        raise InputError(f"line {ln}: path {tag!r} given twice")
                    u, first, last, v = (_vertex_id(x, ln, n) for x in tokens[3:])
                    if first > last:
                        raise InputError(
                            f"line {ln}: path {tag!r}: first interior {first + 1} "
                            f"after last {last + 1}"
                        )
                    paths[tag] = ln, u, first, last, v
            elif kind == "p":
                n, m = _p_line("lbc", tokens[1:], ln, n)
            elif kind in _SCALARS:
                if kind in scalars:
                    raise InputError(f"line {ln}: {kind!r} record given twice")
                if len(tokens) != 2:
                    raise InputError(f"line {ln}: expected `{kind} <{_SCALARS[kind]}>`")
                value = tokens[1]
                x = _vertex_id(value, ln, n) if kind in "st" else _parse_int(value, ln)
                if x < 0:
                    raise InputError(f"line {ln}: negative {_SCALARS[kind]} {x}")
                scalars[kind] = x
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
        return ln0 + len(records)

    pos, ln = 0, 1  # read up to text[pos], which starts line ln
    while bulk and (run := _RUN_START.search(text, pos)):
        start = run.start()
        # read counts lines as splitlines does, not as count("\n"): \r,
        # \x0c, \x85, \u2028 ... end lines too
        ln = read(text[pos:start], ln)
        if n is None:  # a run before the p-line
            raise InputError
        if text[start] == "e":
            pos = _read_edge_run(text, start, n, eu, ev)
        else:
            pos, k = _read_interval_run(text, start, n, ids, a, b, k)
        if pos == start:  # a line longer than a slice
            raise InputError
        ln += text.count("\n", start, pos)
    read(text[pos:], ln)

    if n is None:
        raise InputError("missing 'p' record")
    for name in _SCALARS:
        if name not in scalars:
            raise InputError(f"missing {name!r} record")
    graph = Graph(n, zip(eu, ev))  # in a bulk read, a self-loop or repeat raises here
    if m != graph.m:
        raise InputError(f"p-line promises {m} edges, file has {len(eu)}")
    inst = Instance(graph, scalars["s"], scalars["t"], scalars["b"], scalars["l"])
    model = None
    if ids:
        if intervals:  # `i` records read per record next to an `i` run
            raise InputError
        model = _keyed_model(n, ids, a, b, k)
    elif intervals:
        missing = [v for v in range(n) if v not in intervals]
        if missing:
            raise InputError(f"interval lines missing for vertices {missing[:5]}")
        model = IntervalModel(*zip(*(intervals[v] for v in range(n))))
    return ParsedInstance(inst, model, roles, params, paths, param_lines)


def serialize_instance(inst: Instance, model: IntervalModel | None = None) -> str:
    """The instance file of `inst` and `model`; ModelError, before anything is
    written, for a model whose size is not the graph's."""
    g = inst.graph
    lines = [f"p lbc {g.n} {g.m}", f"s {inst.s + 1}", f"t {inst.t + 1}",
             f"b {inst.beta}", f"l {inst.lam}", *_edge_lines(g)]
    if model is not None:
        _check_model_size(g, model)
        lines += [f"i {v + 1} {_fmt_rational(a, v)} {_fmt_rational(b, v)}"
                  for v, (a, b) in enumerate(zip(model.starts, model.ends))]
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
    edges: set[tuple[int, int]] = set()
    for ln, kind, rest in _records(text):
        if kind == "c":
            continue
        if kind == "p":
            n, m = _p_line("graph", rest, ln, n)
        elif kind == "e":
            _edge_record(rest, ln, n, edges)
        else:
            raise InputError(f"line {ln}: unknown record type {kind!r}")
    if n is None:
        raise InputError("missing `p graph` record")
    if m != len(edges):
        raise InputError(f"p-line promises {m} edges, file has {len(edges)}")
    return Graph(n, edges)


def serialize_source_graph(g: Graph) -> str:
    return "\n".join([f"p graph {g.n} {g.m}", *_edge_lines(g)]) + "\n"


def parse_cut(text: str, g: Graph) -> frozenset:
    cut: set[tuple[int, int]] = set()
    for ln, kind, rest in _records(text):
        if kind == "c":
            continue
        if kind != "e":
            raise InputError(f"line {ln}: expected `e <u> <v>`")
        u, v = _edge_record(rest, ln, g.n, cut)
        if not g.has_edge(u, v):
            raise InputError(f"line {ln}: {(u + 1, v + 1)} is not an edge of the instance")
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
