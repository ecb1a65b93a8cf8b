"""Structural-parameter certificates: feedback vertex sets and path
decompositions for the generated hard instances, plus validators that work
on any claimed certificate.

The pathwidth witness keeps the 2k+2 hub vertices (terminals and ladder
ends) in every bag, lays a rolling 4-vertex window over each ladder and a
rolling 8-vertex window over each incidence gadget (advancing the c/d side
while the next cross-link target is ahead of it), and re-inserts each
subdivided path between its endpoints by bag doubling: the host bag is
repeated with consecutive path vertices added, costing at most two extra
slots.  Total width is (2k+2) + 9 = 2k + 11.

`verify_path_decomposition` checks any decomposition in flat numpy passes:
the bags are read once into one id array, per-vertex bag counts and first
and last bags come from `bincount` and `minimum.at`/`maximum.at` (fast from
numpy 1.25 on), and every edge of `g.adj` is tested for overlapping runs at
once.  It allocates no container per vertex, bag or edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import InputError, InternalCheckError
from .gadgets import ReductionOutput
from .graph import Graph


# ---------------------------------------------------------------------------
# feedback vertex sets


def verify_fvs(g: Graph, vertices) -> bool:
    """True iff deleting `vertices` leaves an acyclic graph (union-find)."""
    removed = set(vertices)
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in g.edge_list():
        if u in removed or v in removed:
            continue
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def build_fvs_witness(out: ReductionOutput) -> frozenset:
    """The 2k+2 hub vertices of a feedback-vertex-family instance."""
    if out.params.get("family") != "fvs":
        raise InputError("FVS witnesses exist only for gen_fvs outputs")
    k = int(out.params["k"])
    hubs = {out.anchor("s"), out.anchor("t")}
    for i in range(1, k + 1):
        hubs.add(out.anchor("u", i))
        hubs.add(out.anchor("l", i))
    return frozenset(hubs)


# ---------------------------------------------------------------------------
# path decompositions


@dataclass(frozen=True)
class PathDecomposition:
    bags: tuple[frozenset, ...]

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1


@dataclass(frozen=True)
class PdVerdict:
    ok: bool
    width: int | None = None
    kind: str | None = None
    witness: object = None

    def __bool__(self):
        return self.ok


def verify_path_decomposition(g: Graph, pd: PathDecomposition) -> PdVerdict:
    """Check vertex coverage, contiguity of occurrences and edge coverage.

    The first fault found is reported: an id outside 0..n-1 (the first in
    bag order), else the lowest vertex that is uncovered or whose bags are
    not one run, else the first uncovered edge in `edge_list()` order.
    """
    bags, n = pd.bags, g.n
    sizes = np.fromiter(map(len, bags), dtype=np.int64, count=len(bags))
    try:
        flat = np.fromiter(chain.from_iterable(bags), dtype=np.int64, count=int(sizes.sum()))
    except OverflowError:  # an id past int64, so some id lies outside 0..n-1
        flat = None
    if flat is None or (flat.size and (flat.min() < 0 or flat.max() >= n)):
        v = next(v for v in chain.from_iterable(bags) if not 0 <= v < n)
        return PdVerdict(False, kind="unknown-vertex", witness=v)
    # per vertex: how many bags hold it, and the first and last of them
    bag_of = np.repeat(np.arange(len(bags), dtype=np.int64), sizes)
    count = np.bincount(flat, minlength=n)
    first = np.full(n, len(bags), dtype=np.int64)
    np.minimum.at(first, flat, bag_of)
    last = np.full(n, -1, dtype=np.int64)
    np.maximum.at(last, flat, bag_of)
    faulty = (count == 0) | (count != last - first + 1)
    if faulty.any():
        v = int(faulty.argmax())
        return PdVerdict(False, kind="contiguity" if count[v] else "vertex-uncovered", witness=v)
    # the arcs u -> w of `g.adj` in order; those with u < w are `edge_list()`
    u = np.repeat(np.arange(n, dtype=np.int64),
                  np.fromiter(map(len, g.adj), dtype=np.int64, count=n))
    w = np.fromiter(chain.from_iterable(g.adj), dtype=np.int64, count=u.size)
    # with contiguity verified, occurrence runs overlap iff some bag holds
    # both endpoints
    uncovered = (u < w) & (np.maximum(first[u], first[w]) > np.minimum(last[u], last[w]))
    if uncovered.any():
        i = int(uncovered.argmax())
        return PdVerdict(False, kind="edge-uncovered", witness=(int(u[i]), int(w[i])))
    return PdVerdict(True, width=int(sizes.max(initial=0)) - 1)


def build_pw_witness(out: ReductionOutput) -> PathDecomposition:
    """Path decomposition of a pathwidth-family instance, width <= 2k+11."""
    if out.params.get("family") != "pw":
        raise InputError("pathwidth witnesses exist only for gen_pw outputs")
    k = int(out.params["k"])
    n = int(out.params["n"])
    m = int(out.params["m"])

    hubs = {out.anchor("s"), out.anchor("t")}
    for i in range(1, k + 1):
        hubs.add(out.anchor("u", i, n))
        hubs.add(out.anchor("l", i, n))

    skeleton: list[set] = [set()]  # one hub-only bag for hub-to-hub paths
    for j in range(1, k + 1):
        for p in range(1, n + 1):
            skeleton.append(
                {
                    out.anchor("u", j, p - 1),
                    out.anchor("l", j, p - 1),
                    out.anchor("u", j, p),
                    out.anchor("l", j, p),
                }
            )
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            skeleton.extend(_incidence_bags(out, i, j, n, m))

    # place every subdivided path at a bag containing both endpoints
    assignments: dict[int, list[tuple[int, ...]]] = {i: [] for i in range(len(skeleton))}
    for tag, seq in sorted(out.paths.items()):
        need = {seq[0], seq[-1]} - hubs
        host = next(
            (idx for idx, bag in enumerate(skeleton) if need <= bag), None
        )
        if host is None:
            raise InternalCheckError(f"no skeleton bag hosts path {tag!r}")
        assignments[host].append(seq)

    bags: list[frozenset] = []
    for idx, bag in enumerate(skeleton):
        base = frozenset(bag | hubs)
        bags.append(base)
        for seq in assignments[idx]:
            inner = seq[1:-1]  # at least one vertex: every path has length >= 2
            if len(inner) == 1:
                bags.append(base | {inner[0]})
            for a, b in zip(inner, inner[1:]):
                bags.append(base | {a, b})
            bags.append(base)
    return PathDecomposition(tuple(bags))


def _incidence_bags(out, i, j, n, m):
    """Rolling windows over the a/b and c/d rows of one incidence gadget.

    The c/d window advances while the cross-link target of the next a
    column lies ahead; the targets are non-decreasing, so every cross link
    sees a bag holding both its endpoints.
    """
    a = [out.anchor("a", i, j, p) for p in range(n + 1)]
    b = [out.anchor("b", i, j, p) for p in range(n + 1)]
    c = [out.anchor("c", i, j, p) for p in range(m + 1)]
    d = [out.anchor("d", i, j, p) for p in range(m + 1)]
    # the c column at which the cross link from each a column ends
    target = [c.index(out.path_seq("xac", i, j, x)[-1]) for x in range(n)]

    def window(p, q):
        return {a[p], b[p], a[p + 1], b[p + 1], c[q], d[q], c[q + 1], d[q + 1]}

    p = q = 0
    bags = [window(p, q)]
    while (p, q) != (n - 1, m - 1):
        if q < m - 1 and (p == n - 1 or q < target[p + 1]):
            q += 1
        elif p < n - 1:
            p += 1
        else:
            q += 1
        bags.append(window(p, q))
    return bags
