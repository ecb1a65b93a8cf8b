"""Interval models for proper interval graphs and the normalization pipeline.

A model assigns each vertex a closed interval with rational endpoints.  We
validate models rather than recognize interval graphs: the adjacency of the
graph must coincide with interval intersection, and no interval may strictly
contain another.  Identical intervals are allowed (they are true twins).

Normalization needs the vertex order, not the coordinates.  A proper model
sorted by (start, -id) is an umbrella ordering of its graph: every closed
neighbourhood is a contiguous run of ranks (Roberts 1969; Looges & Olariu,
"Optimal greedy algorithms for indifference graphs", 1993).

A model's data are integer keys and one denominator: each endpoint times
the least common denominator of all of them.  Past a denominator of 2**64
the keys are the Fractions themselves (denominator 1), since a coordinate
like 1e-99999 would make every key 100,000 digits long; the code that reads
keys is the same either way.  The endpoints as Fractions (`starts`, `ends`)
are kept when the model is built from them, and otherwise built on first
read, for messages and serialization: `parse_instance` builds its models
from keys, and a solve reads only keys.  A solve sorts the keys once, in
one numpy pass that also finds the run lo[r]..hi[r] of ranks each interval
meets; every later stage reuses the order and the runs:
  check  - properness on consecutive vertices of the order; adjacency as
           whole arrays, each degree against its run's length and each
           neighbour's rank against its owner's hi, in O(n log n + m)
  rank   - the order is the ranking; when t is ranked before s the two
           terminal names swap (Length-Bounded Cut is symmetric in s and
           t), so s is the terminal ranked first
  trim   - keep v when (rank v >= rank s or v ~ s) and
           (rank v <= rank t or v ~ t): the ranks lo[rank s]..hi[rank t],
           since the closed neighbourhoods of s and t are runs that meet
           the ranks s..t
A solve validates its model once, on entry to `dp_solve`; the public
`normalize` validates its own input, and `induced_graph` sorts for itself.
This module is the only place that turns coordinates into an order: what
comes after normalization (the solver and cut reconstruction) reads ranks
alone, in the instance's own vertex ids.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from math import gcd, lcm
from operator import floordiv, gt

import numpy as np

from .errors import ModelError
from .graph import Graph, Instance

# Past this common denominator (a 1e-99999 coordinate, or many pairwise
# coprime denominators) every integer key would be as long as it, so the
# Fractions serve as keys instead.
KEY_DENOMINATOR_LIMIT = 2**64


def _endpoint_keys(values: tuple) -> tuple[tuple, int]:
    """(keys, denominator) for `values`: each value times one common
    denominator, an int, while that denominator stays within
    KEY_DENOMINATOR_LIMIT; otherwise the values themselves and 1.  Keys
    compare as their values do."""
    ratios = [x.as_integer_ratio() for x in values]
    den = 1
    for _, d in ratios:
        if den % d:
            den = lcm(den, d)
            if den > KEY_DENOMINATOR_LIMIT:
                return values, 1
    return tuple([p * (den // d) for p, d in ratios]), den


def _show(x) -> str:
    """An endpoint for a message: str(x), or about 2^k when its numerator or
    denominator is longer than 1000 bits (some 300 digits)."""
    p, q = x.as_integer_ratio()
    if max(abs(p), q).bit_length() <= 1000:
        return str(x)
    return f"~{'-' if p < 0 else ''}2^{abs(p).bit_length() - q.bit_length()}"


@dataclass(frozen=True, init=False)
class IntervalModel:
    """Per-vertex closed intervals [start, end] with rational endpoints.

    The data are exact stand-ins for the endpoints: vertex v spans
    [start_keys[v], end_keys[v]] / denominator (see `_endpoint_keys`), and
    two models are equal when their keys and denominators are.  The sweep
    and `validate_model` compare keys; messages print the endpoints
    themselves, `starts` and `ends`, which are built on first read unless
    the model was made from them.
    """

    start_keys: tuple
    end_keys: tuple
    denominator: int

    def __init__(self, starts, ends):
        starts, ends = tuple(starts), tuple(ends)
        n = len(starts)
        if len(ends) != n:
            raise ModelError("starts and ends differ in length")
        self.__dict__.update(starts=starts, ends=ends)  # the cached properties
        keys, den = _endpoint_keys((*starts, *ends))
        self._set_keys(keys[:n], keys[n:], den)

    @classmethod
    def _from_keys(cls, start_keys: list[int], end_keys: list[int], scale: int) -> IntervalModel:
        """The model with endpoints key / scale, for int keys and a scale
        within KEY_DENOMINATOR_LIMIT.  Keys and scale are divided by their
        gcd, so they equal what the constructor computes from the same
        endpoints."""
        g = gcd(scale, *start_keys, *end_keys)
        if g > 1:
            start_keys = map(floordiv, start_keys, repeat(g))
            end_keys = map(floordiv, end_keys, repeat(g))
        model = cls.__new__(cls)
        model._set_keys(tuple(start_keys), tuple(end_keys), scale // g)
        return model

    def _set_keys(self, a: tuple, b: tuple, den: int) -> None:
        object.__setattr__(self, "start_keys", a)
        object.__setattr__(self, "end_keys", b)
        object.__setattr__(self, "denominator", den)
        if any(map(gt, a, b)):
            v = next(v for v in range(len(a)) if a[v] > b[v])
            start, end = _show(self.starts[v]), _show(self.ends[v])
            raise ModelError(f"vertex {{0}}: empty interval [{start}, {end}]", v)

    @cached_property
    def starts(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(k, self.denominator) for k in self.start_keys)

    @cached_property
    def ends(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(k, self.denominator) for k in self.end_keys)

    @property
    def n(self) -> int:
        return len(self.start_keys)

    @staticmethod
    def unit(starts) -> "IntervalModel":
        """Unit-length intervals from start values."""
        ss = tuple(Fraction(a) for a in starts)
        return IntervalModel(ss, tuple(a + 1 for a in ss))

    def intersecting_pairs(self, order=None) -> list[tuple[int, int]]:
        """Every intersecting pair (u, v), u < v, in O(n log n + m).

        `order` lists the vertices by start (sorted here when omitted): the
        intervals meeting u that start no earlier than u are exactly the
        next ones in it whose start is <= end(u).
        """
        s, e = self.start_keys, self.end_keys
        if order is None:
            order = sorted(range(self.n), key=s.__getitem__)
        sorted_starts = [s[v] for v in order]
        pairs = []
        for i, u in enumerate(order):
            for v in order[i + 1 : bisect_right(sorted_starts, e[u])]:
                pairs.append((u, v) if u < v else (v, u))
        return pairs

    def induced_graph(self) -> Graph:
        return Graph(self.n, self.intersecting_pairs())


def _check_model_size(g: Graph, model: IntervalModel) -> None:
    """Raise ModelError unless `model` has one interval per vertex of `g`."""
    if model.n != g.n:
        raise ModelError(f"model has {model.n} intervals, graph has {g.n} vertices")


def validate_model(g: Graph, model: IntervalModel) -> list[int]:
    """Return the umbrella order of `model`, every vertex by (start, -id);
    raise ModelError unless it is a proper interval model of `g`."""
    return _umbrella_runs(g, model)[0].tolist()


def _umbrella_runs(g: Graph, model: IntervalModel):
    """`validate_model` as arrays (order, rank, lo, hi): rank[v] is the rank
    of v, and lo[r]..hi[r] the run of ranks the interval of rank r meets.

    The keys are sorted once, stably, as int64 when they all fit and as
    objects otherwise.  Properness is checked on consecutive ranks: tied
    starts must have equal ends, otherwise both start and end must grow
    strictly.  lo[r] is then the first rank ending at or after the start of
    rank r, and hi[r] the last starting at or before its end, so rank r
    needs hi - lo neighbours, none ranked above hi.  None can then rank
    below lo either: it would have rank r above its own hi.  A mismatch
    names the smallest pair on which graph and model disagree.
    """
    _check_model_size(g, model)
    n, keys = g.n, model.start_keys + model.end_keys
    k = np.array(keys)
    if k.dtype != np.int64:  # ints past int64, Fractions or floats: compare exactly
        k = np.array(keys, dtype=object)
    order = n - 1 - np.argsort(k[n - 1 :: -1], kind="stable")  # ties by -id
    ss, es = k[order], k[n:][order]
    # along the order, ends never fall and grow exactly where starts do
    if not (es[:-1] <= es[1:]).all() or ((ss[:-1] < ss[1:]) != (es[:-1] < es[1:])).any():
        raise _containment_error(model, order.tolist())
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    lo, hi = es.searchsorted(ss), ss.searchsorted(es, side="right") - 1
    deg = np.fromiter(map(len, g.adj), np.int64, n)
    nbrs = np.fromiter(chain.from_iterable(g.adj), np.int64, 2 * g.m)
    if (deg[order] != hi - lo).any() or (rank[nbrs] > np.repeat(hi[rank], deg)).any():
        raise _mismatch_error(g, model, order.tolist())
    return order, rank, lo, hi


def _containment_error(model: IntervalModel, order) -> ModelError:
    """The error for the first consecutive pair of `order` that is not proper."""
    s, e = model.start_keys, model.end_keys
    for u, v in zip(order, order[1:]):
        if e[u] == e[v] if s[u] == s[v] else e[u] < e[v]:
            continue
        # s[u] <= s[v]: either the starts tie and one reaches further, or v
        # ends no later than u although it starts later
        outer, inner = (v, u) if s[u] == s[v] and e[v] > e[u] else (u, v)
        a, b = model.starts, model.ends
        return ModelError(
            f"interval of {{0}} [{_show(a[outer])},{_show(b[outer])}] strictly contains "
            f"interval of {{1}} [{_show(a[inner])},{_show(b[inner])}]",
            outer, inner,
        )


def _mismatch_error(g: Graph, model: IntervalModel, order) -> ModelError:
    """The error for the smallest pair on which `g` and `model` disagree."""
    u, v = min(set(model.intersecting_pairs(order)).symmetric_difference(g.edges))
    a, b = model.starts, model.ends
    return ModelError(
        f"adjacency mismatch at ({{0}}, {{1}}): intervals "
        f"[{_show(a[u])},{_show(b[u])}] vs [{_show(a[v])},{_show(b[v])}]",
        u, v,
    )


@dataclass(frozen=True)
class NormalizedInstance:
    """The instance's graph and terminals, ranked and trimmed by rank.

    s and t are the caller's terminals, swapped when the model ranks t
    first; beta and lam stay with the caller's instance.  ranked is the run
    of umbrella ranks the trim keeps, terminals included: every vertex of
    graph outside it is dropped from the solve.  order is ranked without s
    and t, so order[r] is the vertex of interior rank r, counting from 0.
    pos[v] is the interior rank of vertex v, or -1 for the terminals and
    the vertices outside ranked.  hi[r] is the last interior rank that
    interior rank r meets or r itself, the end of its run, from validation.

    The interior neighbours of s are a prefix of order, and those of t a
    suffix: s is ranked before t, every vertex of ranked before s meets s
    and every one after t meets t, and closed neighbourhoods are contiguous
    runs of ranks.  The solver and cut reconstruction read these ranks,
    never the interval coordinates.
    """

    graph: Graph
    s: int
    t: int
    order: tuple[int, ...]
    pos: tuple[int, ...]
    ranked: tuple[int, ...]
    hi: tuple[int, ...]


def normalize(inst: Instance, model: IntervalModel) -> NormalizedInstance:
    """Validate, then rank and trim, and package the result."""
    return _normalize_valid(inst, _umbrella_runs(inst.graph, model))


def _normalize_valid(inst: Instance, runs) -> NormalizedInstance:
    """`normalize` for a validated model; `runs` is what `_umbrella_runs`
    returned, and its order the ranking (see the module docstring)."""
    order, rank, lo, hi = runs
    g, s, t = inst.graph, inst.s, inst.t
    rs, rt = int(rank[s]), int(rank[t])
    if rs > rt:
        s, t, rs, rt = t, s, rt, rs
    # the trim keeps the ranks from s to t and the neighbours of s and t.
    # A neighbour of t ranked before s meets s too, and a neighbour of s
    # ranked after t meets t: the kept run is the run of s up to that of t
    first, last = int(lo[rs]), int(hi[rt])
    ranked = order[first : last + 1]
    inner = (ranked != s) & (ranked != t)
    interior = ranked[inner]
    pos = np.full(g.n, -1, dtype=np.int64)
    pos[interior] = np.arange(len(interior))
    # an interior run ends at the last interior rank up to its own end
    # within ranked: the ranks from first, less the terminals among them
    end = np.minimum(hi[first : last + 1][inner], last)
    fields = interior, pos, ranked, end - first - (end >= rs) - (end >= rt)
    return NormalizedInstance(g, s, t, *(tuple(a.tolist()) for a in fields))
