"""Interval models for proper interval graphs and the normalization pipeline.

A model assigns each vertex a closed interval with rational endpoints.  We
validate models rather than recognize interval graphs: the adjacency of the
graph must coincide with interval intersection, and no interval may strictly
contain another.  Identical intervals are allowed (they are true twins).

Validation and `IntervalModel.induced_graph` share one sort-and-sweep over
the starts (`IntervalModel.intersecting_pairs`), so both run in
O(n log n + m).  A solve validates its model once, on entry to `dp_solve`;
the public `normalize` and `mirror_if_needed` validate their own input.

Normalization for the solver runs in three steps:
  mirror_if_needed  - reflect all intervals so start(s) <= start(t)
  canonicalize      - break start-value ties exactly, rank interior vertices
  trim              - drop vertices entirely left of s or right of t
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalCheckError, ModelError
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
    return _mirror(inst, model)


def _mirror(inst: Instance, model: IntervalModel):
    if model.starts[inst.s] <= model.starts[inst.t]:
        return inst, model
    mirrored = IntervalModel(
        tuple(-b for b in model.ends), tuple(-a for a in model.starts)
    )
    return inst, mirrored


def canonicalize(inst: Instance, model: IntervalModel):
    """Make all start values distinct and rank the interior vertices.

    Ties are broken by exact downward shifts of whole intervals.  A shift
    assignment is solved so that every exact-touching pair (start of one
    interval equal to the end of another) keeps intersecting: the right
    vertex of a touching pair must shift at least as much as the left one.
    The result provably has the same adjacency, which we re-verify.

    Returns (instance, model, order) where order lists the vertices of
    V - {s,t} by increasing start value (the rank table v_1..v_{n-2}).
    """
    if model.starts[inst.s] > model.starts[inst.t]:
        raise ModelError("canonicalize expects a mirrored model (start(s) <= start(t))")
    n = model.n
    starts, ends = model.starts, model.ends
    if len(set(starts)) != n:
        model = _split_ties(model)
        starts, ends = model.starts, model.ends
        try:
            validate_model(inst.graph, model)  # exact recheck of the perturbation
        except ModelError as exc:
            raise ModelError(
                "start-value ties cannot be split without changing adjacency "
                f"(degenerate intervals?): {exc}"
            ) from exc
    order = tuple(
        sorted((v for v in range(n) if v not in (inst.s, inst.t)), key=lambda v: starts[v])
    )
    return inst, model, order


def _split_ties(model: IntervalModel) -> IntervalModel:
    n = model.n
    starts, ends = model.starts, model.ends
    # integer shift levels: touching pairs force level(right) >= level(left),
    # tied vertices get strictly increasing levels in id order
    boundary = sorted({x for x in starts} | {x for x in ends})
    slack = min(
        (b - a for a, b in zip(boundary, boundary[1:]) if b > a), default=Fraction(1)
    )
    by_start: dict[Fraction, list[int]] = {}
    for v in sorted(range(n), key=lambda v: (starts[v], v)):
        by_start.setdefault(starts[v], []).append(v)
    end_at: dict[Fraction, list[int]] = {}
    for v in range(n):
        end_at.setdefault(ends[v], []).append(v)
    level = [0] * n
    for x in sorted(by_start):
        prev_tied = None
        for v in by_start[x]:
            c = 0
            for w in end_at.get(x, ()):  # w's end touches v's start: w left, v right
                if w != v:
                    c = max(c, level[w])
            if prev_tied is not None:
                c = max(c, level[prev_tied] + 1)
            level[v] = c
            prev_tied = v
    eps = slack / (2 * (max(level) + 1))
    new_starts = tuple(starts[v] - level[v] * eps for v in range(n))
    new_ends = [ends[v] - level[v] * eps for v in range(n)]
    for x, tied in by_start.items():
        # A proper model has nothing else meeting a point interval [x, x], so
        # tied point intervals are an isolated clique of twins: stretch them
        # to one common length so that their staggered copies still overlap.
        # Level 0 then ends at x + (len(tied)-1)*eps < x + slack/2.
        if len(tied) > 1 and ends[tied[0]] == x:
            for v in tied:
                new_ends[v] += (len(tied) - 1) * eps
    if len(set(new_starts)) != n:
        raise InternalCheckError("tie splitting failed to separate start values")
    return IntervalModel(new_starts, tuple(new_ends))


def trim(inst: Instance, model: IntervalModel):
    """Drop vertices entirely left of s or right of t; beta and lam stay.

    Returns (instance, model, kept) where kept maps new vertex ids to the
    old ones (kept[new_id] == old_id).
    """
    s, e = model.starts, model.ends
    ss, tt = inst.s, inst.t
    keep = [
        v
        for v in range(model.n)
        if not (e[v] < s[ss] or s[v] > e[tt])
    ]
    if len(keep) == model.n:
        return inst, model, tuple(range(model.n))
    g2, new_of_old = inst.graph.subgraph(keep)
    inst2 = Instance(g2, new_of_old[ss], new_of_old[tt], inst.beta, inst.lam, inst.notes)
    model2 = IntervalModel(
        tuple(s[v] for v in keep), tuple(e[v] for v in keep)
    )
    return inst2, model2, tuple(keep)


@dataclass(frozen=True)
class NormalizedInstance:
    """Mirrored, canonicalized, trimmed instance plus rank bookkeeping.

    order[r] is the vertex (in trimmed ids) of rank r, counting interior
    vertices from 0 in increasing start order.  pos[v] is the rank of
    vertex v, or -1 for the terminals.  kept maps trimmed ids back to the
    original instance.
    """

    inst: Instance
    model: IntervalModel
    order: tuple[int, ...]
    pos: tuple[int, ...]
    kept: tuple[int, ...]
    mirrored: bool


def normalize(inst: Instance, model: IntervalModel) -> NormalizedInstance:
    """Validate, then run mirror -> canonicalize -> trim and package the result."""
    validate_model(inst.graph, model)
    return _normalize_valid(inst, model)


def _normalize_valid(inst: Instance, model: IntervalModel) -> NormalizedInstance:
    """`normalize` for a model the caller has already validated."""
    mirrored = model.starts[inst.s] > model.starts[inst.t]
    inst, model = _mirror(inst, model)
    inst, model, order = canonicalize(inst, model)
    inst, model, kept = trim(inst, model)
    # trim keeps relative order, so the canonical ranks carry over
    new_of_old = {old: new for new, old in enumerate(kept)}
    order = tuple(new_of_old[v] for v in order if v in new_of_old)
    pos = [-1] * model.n
    for r, v in enumerate(order):
        pos[v] = r
    return NormalizedInstance(inst, model, order, tuple(pos), kept, mirrored)
