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

    Ties are split exactly by `_split_ties`, which provably keeps the
    adjacency and properness; the result is re-verified anyway.

    Returns (instance, model, order) where order lists the vertices of
    V - {s,t} by increasing start value (the rank table v_1..v_{n-2}).
    Tied vertices are identical intervals (true twins), and among them a
    larger id gets an earlier rank.
    """
    if model.starts[inst.s] > model.starts[inst.t]:
        raise ModelError("canonicalize expects a mirrored model (start(s) <= start(t))")
    n = model.n
    if len(set(model.starts)) != n:
        model = _split_ties(model)
        try:
            validate_model(inst.graph, model)  # exact recheck of the perturbation
        except ModelError as exc:
            raise ModelError(
                "start-value ties cannot be split without changing adjacency "
                f"(degenerate intervals?): {exc}"
            ) from exc
    starts = model.starts
    order = tuple(
        sorted((v for v in range(n) if v not in (inst.s, inst.t)), key=lambda v: starts[v])
    )
    return inst, model, order


def _split_ties(model: IntervalModel) -> IntervalModel:
    """Distinct starts, same intersections, still proper: widen, then stagger.

    Let slack be the smallest gap between two distinct endpoint values.
    Adding slack/2 to every end keeps the sign of every start-end
    comparison, now with a margin of at least slack/2 either way.  In a
    proper model tied starts mean identical intervals, so each tie group
    is a set of twins; its k members move down as a whole by 0, eps, ...,
    (k-1)*eps in id order, eps = slack/(2K) with K the largest group.  Every
    shift is below slack/2, so no start-end comparison flips, intervals
    with distinct starts keep their order at both ends, and the staggered
    twins grow strictly at both ends.
    """
    starts, ends = model.starts, model.ends
    boundary = sorted(set(starts) | set(ends))
    slack = min(
        (b - a for a, b in zip(boundary, boundary[1:])), default=Fraction(1)
    )
    groups: dict[Fraction, list[int]] = {}
    for v in range(model.n):
        groups.setdefault(starts[v], []).append(v)
    eps = slack / (2 * max(len(tied) for tied in groups.values()))
    shift = [Fraction(0)] * model.n
    for tied in groups.values():
        for level, v in enumerate(tied):
            shift[v] = level * eps
    new_starts = tuple(a - d for a, d in zip(starts, shift))
    if len(set(new_starts)) != model.n:
        raise InternalCheckError("tie splitting failed to separate start values")
    half = slack / 2
    return IntervalModel(new_starts, tuple(b + half - d for b, d in zip(ends, shift)))


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

    The interior neighbours of s are a prefix of order, and those of t a
    suffix: after trimming every vertex ends no earlier than s starts and
    starts no later than t ends, so it meets s exactly when it starts by
    end(s), and t exactly when it ends from start(t) on; with distinct
    starts a proper model orders the ends as the starts.
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
