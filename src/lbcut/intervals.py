"""Interval models for proper interval graphs and the normalization pipeline.

A model assigns each vertex a closed interval with rational endpoints.  We
validate models rather than recognize interval graphs: the adjacency of the
graph must coincide with interval intersection, and no interval may strictly
contain another.  Identical intervals are allowed (they are true twins).

Normalization needs the vertex order, not the coordinates.  A proper model
sorted by (start, -id) is an umbrella ordering of its graph: every closed
neighbourhood is a contiguous run of ranks (Roberts 1969; Looges & Olariu,
"Optimal greedy algorithms for indifference graphs", 1993).  A solve sorts
the coordinates once, in `validate_model`, and reuses that order:
  check  - properness on consecutive vertices of the order, adjacency
           against its sweep (`IntervalModel.intersecting_pairs`), in
           O(n log n + m); `validate_model` returns the order it proved
  rank   - the order is the ranking; when t is ranked before s the two
           terminal names swap (Length-Bounded Cut is symmetric in s and
           t), so s is the terminal ranked first
  trim   - keep v when (rank v >= rank s or v ~ s) and
           (rank v <= rank t or v ~ t)
A solve validates its model once, on entry to `dp_solve`; the public
`normalize` validates its own input, and `induced_graph` sorts for itself.
This module is the only place that turns coordinates into an order: what
comes after normalization (the solver, cut reconstruction and
`monotonize_cut`) reads ranks alone.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
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

    def intersecting_pairs(self, order=None) -> list[tuple[int, int]]:
        """Every intersecting pair (u, v), u < v, in O(n log n + m).

        `order` lists the vertices by start (sorted here when omitted): the
        intervals meeting u that start no earlier than u are exactly the
        next ones in it whose start is <= end(u).
        """
        if order is None:
            order = sorted(range(self.n), key=self.starts.__getitem__)
        sorted_starts = [self.starts[v] for v in order]
        pairs = []
        for i, u in enumerate(order):
            for v in order[i + 1 : bisect_right(sorted_starts, self.ends[u])]:
                pairs.append((u, v) if u < v else (v, u))
        return pairs

    def induced_graph(self) -> Graph:
        return Graph(self.n, self.intersecting_pairs())


def validate_model(g: Graph, model: IntervalModel) -> list[int]:
    """Return the umbrella order of `model`; raise ModelError unless it is
    a proper interval model of `g`.

    Returns every vertex by (start, -id), from the one coordinate sort of a
    solve.  Properness is checked on consecutive vertices of that order:
    tied starts must have equal ends, otherwise both start and end must grow
    strictly.  Adjacency is checked against the sweep of the same order; a
    mismatch names the smallest pair on which graph and model disagree.
    """
    if model.n != g.n:
        raise ModelError(f"model has {model.n} intervals, graph has {g.n} vertices")
    s, e = model.starts, model.ends
    order = sorted(range(g.n - 1, -1, -1), key=s.__getitem__)  # stable: ties by -id
    for u, v in zip(order, order[1:]):
        if e[u] == e[v] if s[u] == s[v] else e[u] < e[v]:
            continue
        # s[u] <= s[v]: either the starts tie and one reaches further, or v
        # ends no later than u although it starts later
        outer, inner = (v, u) if s[u] == s[v] and e[v] > e[u] else (u, v)
        raise ModelError(
            f"interval of {outer} [{s[outer]},{e[outer]}] strictly contains "
            f"interval of {inner} [{s[inner]},{e[inner]}]"
        )
    mismatch = set(model.intersecting_pairs(order)).symmetric_difference(g.edges)
    if mismatch:
        u, v = min(mismatch)
        raise ModelError(
            f"adjacency mismatch at ({u}, {v}): intervals "
            f"[{s[u]},{e[u]}] vs [{s[v]},{e[v]}]"
        )
    return order


@dataclass(frozen=True)
class NormalizedInstance:
    """Trimmed graph and terminals, ranked, plus rank bookkeeping.

    s and t are the caller's terminals in trimmed ids, swapped when the
    model ranks t first; beta and lam stay with the caller's instance.
    ranked lists every vertex of graph, terminals included, in umbrella
    order; order is ranked without s and t, so order[r] is the vertex (in
    trimmed ids) of interior rank r, counting from 0.  pos[v] is the rank
    of vertex v, or -1 for the terminals.  kept maps trimmed ids back to
    the original instance.

    The interior neighbours of s are a prefix of order, and those of t a
    suffix: s is ranked before t, every kept vertex ranked before s meets
    s and every one ranked after t meets t, and closed neighbourhoods are
    contiguous runs of ranks.  Every consumer (`dp_solve`, `extract_cut`,
    `monotonize_cut`) reads these ranks, never the interval coordinates.
    """

    graph: Graph
    s: int
    t: int
    order: tuple[int, ...]
    pos: tuple[int, ...]
    kept: tuple[int, ...]
    ranked: tuple[int, ...]


def normalize(inst: Instance, model: IntervalModel) -> NormalizedInstance:
    """Validate, then rank and trim, and package the result."""
    return _normalize_valid(inst, validate_model(inst.graph, model))


def _normalize_valid(inst: Instance, order) -> NormalizedInstance:
    """`normalize` for a validated model; `order` is what `validate_model`
    returned, and the ranking (see the module docstring)."""
    g, s, t = inst.graph, inst.s, inst.t
    rs, rt = order.index(s), order.index(t)
    if rs > rt:
        s, t, rs, rt = t, s, rt, rs
    # the trim rule keeps the ranks from s to t and the neighbours of s and
    # t: in an umbrella order a neighbour of s ranked after t meets t too,
    # and a neighbour of t ranked before s meets s
    keep = set(order[rs : rt + 1]).union(g.adj[s], g.adj[t])
    kept, ranked = tuple(range(g.n)), order
    if len(keep) < g.n:
        g, new_of_old = g.subgraph(keep)
        s, t = new_of_old[s], new_of_old[t]
        kept = tuple(new_of_old)
        ranked = [new_of_old[v] for v in ranked if v in new_of_old]
    order = tuple(v for v in ranked if v != s and v != t)
    pos = [-1] * len(ranked)
    for r, v in enumerate(order):
        pos[v] = r
    return NormalizedInstance(g, s, t, order, tuple(pos), kept, tuple(ranked))
