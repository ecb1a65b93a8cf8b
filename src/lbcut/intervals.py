"""Interval models for proper interval graphs and the normalization pipeline.

A model assigns each vertex a closed interval with rational endpoints.  We
validate models rather than recognize interval graphs: the adjacency of the
graph must coincide with interval intersection, and no interval may strictly
contain another.  Identical intervals are allowed (they are true twins).

Validation and `IntervalModel.induced_graph` share one sort-and-sweep over
the starts (`IntervalModel.intersecting_pairs`), so both run in
O(n log n + m).  A solve validates its model once, on entry to `dp_solve`;
the public `normalize`, `mirror_if_needed`, `canonicalize` and `trim`
validate their own input.

Normalization needs the vertex order, not the coordinates.  A proper model
sorted by (start, -id) is an umbrella ordering of its graph: every closed
neighbourhood is a contiguous run of ranks (Roberts 1969; Looges & Olariu,
"Optimal greedy algorithms for indifference graphs", 1993).  A solve reads
the coordinates once more after validation, in one sort (`_rank`):
  mirror - sort by (-end, -id) instead when start(s) > start(t), the
           (start, -id) order of the reflected model [-b, -a]
  twins  - tied starts are identical intervals; t goes last among its
           twins, so s is ranked before t
  trim   - keep v when (rank v >= rank s or v ~ s) and
           (rank v <= rank t or v ~ t)
No tie split runs on the solve path.  Where a model with distinct starts
is wanted (`NormalizedInstance.model`, `canonicalize` on tied starts), it
is the integer model of the ranking, built on demand (`_ordering_model`).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .errors import ModelError
from .graph import Graph, Instance


@dataclass(frozen=True)
class IntervalModel:
    """Per-vertex closed intervals [start, end] with rational endpoints."""

    starts: tuple[Fraction, ...]
    ends: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.starts) != len(self.ends):
            raise ModelError("starts and ends differ in length")
        for v, (a, b) in enumerate(zip(self.starts, self.ends)):
            if a > b:
                raise ModelError(f"vertex {v}: empty interval [{a}, {b}]")

    @property
    def n(self) -> int:
        return len(self.starts)

    @staticmethod
    def unit(starts) -> "IntervalModel":
        """Unit-length intervals from start values."""
        ss = tuple(Fraction(a) for a in starts)
        return IntervalModel(ss, tuple(a + 1 for a in ss))

    def intersects(self, u: int, v: int) -> bool:
        return self.starts[u] <= self.ends[v] and self.starts[v] <= self.ends[u]

    def intersecting_pairs(self) -> list[tuple[int, int]]:
        """Every intersecting pair (u, v), u < v, in O(n log n + m).

        After sorting by start, the intervals meeting u that start no
        earlier than u are exactly the next ones whose start is <= end(u).
        """
        order = sorted(range(self.n), key=self.starts.__getitem__)
        sorted_starts = [self.starts[v] for v in order]
        pairs = []
        for i, u in enumerate(order):
            for v in order[i + 1 : bisect_right(sorted_starts, self.ends[u])]:
                pairs.append((u, v) if u < v else (v, u))
        return pairs

    def induced_graph(self) -> Graph:
        return Graph(self.n, self.intersecting_pairs())


def validate_model(g: Graph, model: IntervalModel) -> None:
    """Raise ModelError unless `model` is a proper interval model of `g`.

    Properness is checked on the (start, end) order: consecutive intervals
    must be identical or grow strictly at both ends.  Adjacency is checked
    against the sweep's intersecting pairs; a mismatch names the smallest
    pair on which graph and model disagree.
    """
    if model.n != g.n:
        raise ModelError(f"model has {model.n} intervals, graph has {g.n} vertices")
    s, e = model.starts, model.ends
    by_interval = sorted(range(g.n), key=lambda v: (s[v], e[v]))
    for u, v in zip(by_interval, by_interval[1:]):
        if (s[u], e[u]) == (s[v], e[v]) or (s[u] < s[v] and e[u] < e[v]):
            continue
        # sorted, so either the starts tie and v reaches further, or v ends
        # no later than u although it starts later
        outer, inner = (v, u) if s[u] == s[v] else (u, v)
        raise ModelError(
            f"interval of {outer} [{s[outer]},{e[outer]}] strictly contains "
            f"interval of {inner} [{s[inner]},{e[inner]}]"
        )
    mismatch = set(model.intersecting_pairs()).symmetric_difference(g.edges)
    if mismatch:
        u, v = min(mismatch)
        raise ModelError(
            f"adjacency mismatch at ({u}, {v}): intervals "
            f"[{s[u]},{e[u]}] vs [{s[v]},{e[v]}]"
        )


def mirror_if_needed(inst: Instance, model: IntervalModel):
    """Reflect every interval [a,b] to [-b,-a] when start(s) > start(t).

    Adjacency is invariant under reflection, so the instance is unchanged.
    """
    validate_model(inst.graph, model)
    if model.starts[inst.s] <= model.starts[inst.t]:
        return inst, model
    mirrored = IntervalModel(
        tuple(-b for b in model.ends), tuple(-a for a in model.starts)
    )
    return inst, mirrored


def canonicalize(inst: Instance, model: IntervalModel):
    """Make all start values distinct and rank the interior vertices.

    A model whose starts are distinct is returned untouched.  With tied
    starts it is replaced by the integer ordering model of its ranking:
    distinct starts, proper, the same graph.

    Returns (instance, model, order) where order lists the vertices of
    V - {s,t} by increasing start value (the rank table v_1..v_{n-2}).
    Tied vertices are identical intervals (true twins), and among them a
    larger id gets an earlier rank.
    """
    if model.starts[inst.s] > model.starts[inst.t]:
        raise ModelError("canonicalize expects a mirrored model (start(s) <= start(t))")
    validate_model(inst.graph, model)
    ranked = _rank(inst, model)
    if len(set(model.starts)) != model.n:
        model = _ordering_model(inst.graph, ranked)
    return inst, model, tuple(v for v in ranked if v not in (inst.s, inst.t))


def trim(inst: Instance, model: IntervalModel):
    """Drop vertices entirely left of s or right of t; beta and lam stay.

    The rank rule of `normalize`, so a model with start(s) > start(t) is
    trimmed as its mirror image.

    Returns (instance, model, kept) where kept maps new vertex ids to the
    old ones (kept[new_id] == old_id).
    """
    norm = normalize(inst, model)
    kept = norm.kept
    if len(kept) < model.n:
        model = IntervalModel(
            tuple(model.starts[v] for v in kept), tuple(model.ends[v] for v in kept)
        )
    return norm.inst, model, kept


def _rank(inst: Instance, model: IntervalModel) -> list[int]:
    """Every vertex in umbrella order: the one read of coordinates in a solve
    after its validation.

    By (start, -id), or by (-end, -id) when start(s) > start(t).  Both sorts
    are stable over descending ids.  Twins share their key, and t moves to
    the back of its run of twins, so s is ranked before t.
    """
    n, s, t = model.n, inst.s, inst.t
    if model.starts[s] <= model.starts[t]:
        key = model.starts
        ranked = sorted(range(n - 1, -1, -1), key=key.__getitem__)
    else:
        key = model.ends
        ranked = sorted(range(n - 1, -1, -1), key=key.__getitem__, reverse=True)
    i = ranked.index(t)
    while i < n - 1 and key[ranked[i + 1]] == key[t]:
        ranked[i + 1], ranked[i] = t, ranked[i + 1]
        i += 1
    return ranked


def _ordering_model(g: Graph, ranked) -> IntervalModel:
    """Integer model of an umbrella ordering of g.

    The vertex of rank r gets [r(n+1), hi(r)(n+1) + r], hi(r) the last rank
    in its closed neighbourhood.  Ranks a < b meet exactly when b <= hi(a),
    which in an umbrella ordering is adjacency.  The starts are distinct and
    hi never decreases, so the ends grow strictly with the starts: the
    model is proper.
    """
    n = len(ranked)
    rank = [0] * n
    for r, v in enumerate(ranked):
        rank[v] = r
    starts, ends = [Fraction(0)] * n, [Fraction(0)] * n
    for r, v in enumerate(ranked):
        hi = max([r, *(rank[w] for w in g.adj[v])])
        starts[v] = Fraction(r * (n + 1))
        ends[v] = Fraction(hi * (n + 1) + r)
    return IntervalModel(tuple(starts), tuple(ends))


@dataclass(frozen=True)
class NormalizedInstance:
    """Mirrored, ranked, trimmed instance plus rank bookkeeping.

    ranked lists every vertex of inst, terminals included, in umbrella
    order; order is ranked without s and t, so order[r] is the vertex (in
    trimmed ids) of interior rank r, counting from 0.  pos[v] is the rank
    of vertex v, or -1 for the terminals.  kept maps trimmed ids back to
    the original instance.

    The interior neighbours of s are a prefix of order, and those of t a
    suffix: s is ranked before t, every kept vertex ranked before s meets
    s and every one ranked after t meets t, and closed neighbourhoods are
    contiguous runs of ranks.

    model is the integer ordering model of ranked, built when first read:
    distinct starts, start(s) < start(t), nothing outside the s..t span,
    proper and inducing inst's graph.  The solver never reads it.
    """

    inst: Instance
    order: tuple[int, ...]
    pos: tuple[int, ...]
    kept: tuple[int, ...]
    mirrored: bool
    ranked: tuple[int, ...]

    @cached_property
    def model(self) -> IntervalModel:
        return _ordering_model(self.inst.graph, self.ranked)


def normalize(inst: Instance, model: IntervalModel) -> NormalizedInstance:
    """Validate, then rank, mirror and trim, and package the result."""
    validate_model(inst.graph, model)
    return _normalize_valid(inst, model)


def _normalize_valid(inst: Instance, model: IntervalModel) -> NormalizedInstance:
    """`normalize` for a model the caller has already validated."""
    mirrored = model.starts[inst.s] > model.starts[inst.t]
    ranked = _rank(inst, model)
    # the trim rule keeps the ranks from s to t and the neighbours of s and
    # t: in an umbrella order a neighbour of s ranked after t meets t too,
    # and a neighbour of t ranked before s meets s
    g, s, t = inst.graph, inst.s, inst.t
    keep = set(ranked[ranked.index(s) : ranked.index(t) + 1]).union(g.adj[s], g.adj[t])
    kept = tuple(range(model.n))
    if len(keep) < model.n:
        g2, new_of_old = g.subgraph(keep)
        s, t = new_of_old[s], new_of_old[t]
        inst = Instance(g2, s, t, inst.beta, inst.lam, inst.notes)
        kept = tuple(new_of_old)
        ranked = [new_of_old[v] for v in ranked if v in new_of_old]
    order = tuple(v for v in ranked if v != s and v != t)
    pos = [-1] * len(ranked)
    for r, v in enumerate(order):
        pos[v] = r
    return NormalizedInstance(inst, order, tuple(pos), kept, mirrored, tuple(ranked))
