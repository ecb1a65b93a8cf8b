"""Hard-instance generator with bounded pathwidth and maximum degree.

From a clique-search instance (G, k) we emit a length-bounded cut instance
whose cheap cuts encode k-cliques of G: k vertex-selection ladders (upper
and lower rails with calibrated detours), one incidence-checking gadget
per ladder pair (a/b rows indexed by vertices, c/d rows indexed by edges,
coupled by cross links), and bundles of connectivity paths that pin the
distances between the ladder ends and the terminals.

All calibrated lengths are expressed in eta = 4m.  The budget is 2k^2 and
the length bound is 8*eta + 2n + 1, so a feasible cut must spend exactly
two edges per ladder and four per incidence gadget.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from .errors import InputError, InternalCheckError
from .gadgets import GadgetBuilder, LexEdges, ReductionOutput, role
from .graph import Graph, edge, edge_set


@dataclass(frozen=True)
class CliqueInstance(LexEdges):
    """Clique-search input: find k pairwise-adjacent vertices in graph.

    Vertices are identified with 1-based indices (index(v) = v + 1); edges
    are ordered lexicographically by their endpoint index pairs.  Callers
    must remove tree components first, which makes m >= n hold.
    """

    graph: Graph
    k: int

    def __post_init__(self):
        if self.k < 2:
            raise InputError("k must be at least 2")
        if self.graph.m < max(1, self.graph.n):
            raise InputError(
                "need m >= n >= 1; remove tree components before reducing"
            )

    def link_target(self, x: int) -> int:
        """Largest edge position whose lower endpoint index is <= x (0 if none).

        These values delimit the lexicographic edge blocks: positions
        link_target(x-1)+1 .. link_target(x) are exactly the edges whose
        lower endpoint is vertex x.  They are non-decreasing in x, which
        the incidence gadget's cross links and the bag schedule of the
        pathwidth witness both rely on.
        """
        return bisect_left(self.edges_lex, (x,))  # count of edges (a, _) with a < x


def gen_pw(cq: CliqueInstance) -> ReductionOutput:
    """Build the pathwidth-family instance for a clique-search input."""
    g, k = cq.graph, cq.k
    n, m = g.n, g.m
    eta = 4 * m
    lam = 8 * eta + 2 * n + 1
    beta = 2 * k * k

    b = GadgetBuilder()
    s = b.vertex("s")
    t = b.vertex("t")

    u = {}
    ell = {}
    for j in range(1, k + 1):
        for p in range(n + 1):
            u[j, p] = b.vertex(role("u", j, p))
            ell[j, p] = b.vertex(role("l", j, p))
        for p in range(1, n + 1):
            b.edge(u[j, p - 1], u[j, p])
            b.edge(ell[j, p - 1], ell[j, p])
            b.path(u[j, p - 1], u[j, p], 2 * eta + p, role("U", j, p))
            b.path(ell[j, p - 1], ell[j, p], 2 * eta - p, role("L", j, p))
        for p in range(n + 1):
            b.path(u[j, p], ell[j, p], 2 * eta, role("rung", j, p))
        for c in (1, 2):
            b.path(s, u[j, 0], 2, role("su", j, c))
            b.path(s, ell[j, 0], eta + 2, role("sl", j, c))

    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            _incidence_gadget(b, cq, eta, s, t, u, ell, i, j)

    for i in range(1, k + 1):
        for q in (1, 2, 3):
            b.path(u[i, n], t, lam - (n + 2), role("T", i, q))
            b.path(ell[i, n], t, lam - (eta + 2 + n), role("Tb", i, q))
        for j in range(1, k + 1):
            if j == i:
                continue
            for q in (1, 2, 3, 4, 5):
                b.path(s, u[i, n], lam - (4 * eta + n + 2), role("S", i, j, q))
                b.path(s, ell[i, n], lam - (3 * eta + n + 2), role("Sb", i, j, q))

    out = b.output(s, t, beta, lam, {"family": "pw", "k": k, "n": n, "m": m, "eta": eta}, cq)
    _check_degree_bound(b, cq, out.instance.graph, s, t)
    return out


def _check_degree_bound(b, cq, graph, s, t):
    """Generator postcondition: only s, t, and ladder ends exceed constant
    degree, and everything stays within the closed forms in k."""
    k, n = cq.k, cq.graph.n
    hubs = {s: 4 * k + 10 * k * (k - 1), t: 6 * k + 4 * k * (k - 1)}
    for i in range(1, k + 1):
        hubs[b.vertex_by_role[role("u", i, n)]] = 6 + 7 * (k - 1)
        hubs[b.vertex_by_role[role("l", i, n)]] = 6 + 7 * (k - 1)
    mult = max(Counter(cq.link_target(x) for x in range(n)).values())
    for v in range(graph.n):
        expected = hubs.get(v)
        if expected is not None:
            if graph.degree(v) != expected:
                raise InternalCheckError(
                    f"hub {v} has degree {graph.degree(v)}, expected {expected}"
                )
        elif graph.degree(v) > 7 + 2 * mult:
            raise InternalCheckError(f"inner vertex {v} has excessive degree")


def _incidence_gadget(b, cq, eta, s, t, u, ell, i, j):
    n, m = cq.graph.n, cq.graph.m
    a = [b.vertex(role("a", i, j, p)) for p in range(n + 1)]
    bb = [b.vertex(role("b", i, j, p)) for p in range(n + 1)]
    c = [b.vertex(role("c", i, j, p)) for p in range(m + 1)]
    d = [b.vertex(role("d", i, j, p)) for p in range(m + 1)]

    for p in range(1, n + 1):
        b.edge(a[p - 1], a[p])
        b.edge(bb[p - 1], bb[p])
        b.path(a[p - 1], a[p], 2 * eta - p, role("A", i, j, p))
        b.path(bb[p - 1], bb[p], 2 * eta + p, role("B", i, j, p))
    for p in range(n + 1):
        b.path(a[p], bb[p], 4 * eta, role("ab", i, j, p))
    for p in range(1, m + 1):
        b.edge(c[p - 1], c[p])
        b.edge(d[p - 1], d[p])
        wp = cq.edges_lex[p - 1][1] + 1  # index of the higher endpoint of e_p
        b.path(c[p - 1], c[p], 2 * eta - wp, role("C", i, j, p))
        b.path(d[p - 1], d[p], 2 * eta + wp, role("D", i, j, p))
    for p in range(m + 1):
        b.path(c[p], d[p], 2 * eta, role("cd", i, j, p))

    for copy in (1, 2):
        b.path(u[i, n], a[0], 4 * eta, role("ua", i, j, copy))
        b.path(ell[i, n], bb[0], 2, role("lb", i, j, copy))
        b.path(u[j, n], c[0], 3 * eta, role("uc", i, j, copy))
        b.path(ell[j, n], d[0], eta, role("ld", i, j, copy))
        b.path(a[n], t, 2, role("at", i, j, copy))
        b.path(bb[n], t, 3 * eta, role("bt", i, j, copy))
        b.path(c[m], t, eta + n - m + 2, role("ct", i, j, copy))
        b.path(d[m], t, 2 * eta + n - m + 2, role("dt", i, j, copy))

    for x in range(n):
        q = cq.link_target(x)
        b.path(a[x], c[q], 2 * eta, role("xac", i, j, x))
        b.path(a[x], d[q], 3 * eta, role("xad", i, j, x))
        b.path(bb[x], c[q], 3 * eta, role("xbc", i, j, x))
        b.path(bb[x], d[q], 2 * eta, role("xbd", i, j, x))


def _step(out: ReductionOutput, row: str, *key) -> tuple[int, int]:
    """The edge of rail (row, *key[:-1]) from position key[-1] - 1 to key[-1]."""
    *rail, x = key
    return edge(out.anchor(row, *rail, x - 1), out.anchor(row, *rail, x))


def forward_cut_pw(out: ReductionOutput, clique) -> frozenset:
    """The beta-sized cut encoding a k-clique, as an edge set of H."""
    cq = out.source_of("pw", CliqueInstance)
    members = cq.check_clique(clique)
    cut = set()
    for gadget, v in enumerate(members, start=1):
        for row in "ul":
            cut.add(_step(out, row, gadget, v + 1))
    for i, j in combinations(range(1, cq.k + 1), 2):
        xi = members[i - 1] + 1
        p = cq.edge_position(members[i - 1], members[j - 1])
        for row, x in (("a", xi), ("b", xi), ("c", p), ("d", p)):
            cut.add(_step(out, row, i, j, x))
    return frozenset(cut)


def decode_pw(out: ReductionOutput, f) -> tuple[int, ...] | None:
    """Read the selected k-clique back out of a cut, or None.

    A well-formed cut deletes exactly one rail edge on the upper and one on
    the lower path of every ladder; the upper positions name the vertices,
    which must form a k-clique of the source.
    """
    cq = out.source_of("pw", CliqueInstance)
    f = edge_set(f)
    n = cq.graph.n
    chosen = []
    for gadget in range(1, cq.k + 1):
        uppers = [x for x in range(1, n + 1) if _step(out, "u", gadget, x) in f]
        lowers = [x for x in range(1, n + 1) if _step(out, "l", gadget, x) in f]
        if len(uppers) != 1 or len(lowers) != 1:
            return None
        chosen.append(uppers[0] - 1)
    return cq.clique_or_none(chosen)
