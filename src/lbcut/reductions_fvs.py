"""Hard-instance generator with bounded feedback vertex number.

From a multicolored clique instance (k parts of nu vertices each) we emit
a length-bounded cut instance built around 2k hub vertices u_i, l_i.  Each
part contributes m parallel s-u_i, s-l_i, u_i-t, and l_i-t paths of every
length n+1 .. n+nu, tied together by shortcut edges pairing lengths j and
nu-j; every source edge contributes one gadget vertex ve adjacent to t,
joined to u_i by an eu path of length n+nu-idx(v) and to l_i by an el path
of length n+idx(v)-1 for each endpoint v in part i.  The budget forces a
cheap cut to pick one length threshold x per part (selecting the vertex of
index x).  An s-ve-t path through that part is then short unless
idx(v) = x, so the cut pays one ve-t edge for every source edge not inside
the selected clique.

beta = 2k(nu-1)m + m - C(k,2), lambda = nu + 2n, and {s, t, u_i, l_i} is a
feedback vertex set of size 2k + 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import InputError
from .gadgets import GadgetBuilder, LexEdges, ReductionOutput, role
from .graph import Graph, edge, edge_set


@dataclass(frozen=True)
class MulticoloredCliqueInstance(LexEdges):
    """k-partite clique-search input with equal part sizes.

    Vertex v (0-based) belongs to part v // nu + 1 (1-based) and has index
    v % nu + 1 within its part.  Every edge must join distinct parts.
    """

    graph: Graph
    k: int
    nu: int

    def __post_init__(self):
        if self.k < 2 or self.nu < 2:
            raise InputError("need k >= 2 and nu >= 2")
        if self.graph.n != self.k * self.nu:
            raise InputError(
                f"graph has {self.graph.n} vertices, expected k*nu = {self.k * self.nu}"
            )
        for u, v in self.graph.edge_list():
            if u // self.nu == v // self.nu:
                raise InputError(f"edge {edge(u, v)} stays inside one part")

    def part(self, v: int) -> int:
        return v // self.nu + 1

    def index(self, v: int) -> int:
        return v % self.nu + 1

    def vertex(self, part: int, index: int) -> int:
        return (part - 1) * self.nu + (index - 1)


def gen_fvs(mc: MulticoloredCliqueInstance) -> ReductionOutput:
    """Build the feedback-vertex-family instance for a multicolored input."""
    k, nu = mc.k, mc.nu
    n, m = mc.graph.n, mc.graph.m
    if m == 0:
        raise InputError("source graph needs at least one edge")
    lam = nu + 2 * n
    beta = 2 * k * (nu - 1) * m + m - k * (k - 1) // 2

    b = GadgetBuilder()
    s = b.vertex("s")
    t = b.vertex("t")
    u = {i: b.vertex(role("u", i)) for i in range(1, k + 1)}
    ell = {i: b.vertex(role("l", i)) for i in range(1, k + 1)}

    for i in range(1, k + 1):
        for j in range(1, nu + 1):
            for p in range(1, m + 1):
                b.path(s, u[i], n + j, role("S", i, j, p))
                b.path(s, ell[i], n + j, role("Sb", i, j, p))
                b.path(u[i], t, n + j, role("T", i, j, p))
                b.path(ell[i], t, n + j, role("Tb", i, j, p))
        for j in range(1, nu):
            for p in range(1, m + 1):
                # second vertex of S{j} to the second-last vertex of Sb{nu-j}
                b.edge(
                    b.paths[role("S", i, j, p)][1],
                    b.paths[role("Sb", i, nu - j, p)][-2],
                )
                # second vertex of Tb{nu-j} to the second-last vertex of T{j}
                b.edge(
                    b.paths[role("Tb", i, nu - j, p)][1],
                    b.paths[role("T", i, j, p)][-2],
                )

    for p, (x, y) in enumerate(mc.edges_lex, start=1):
        ve = b.vertex(role("ve", p))
        b.edge(ve, t)
        for v in (x, y):
            i = mc.part(v)
            b.path(u[i], ve, n + nu - mc.index(v), role("eu", p, i))
            b.path(ell[i], ve, n + mc.index(v) - 1, role("el", p, i))

    return b.output(s, t, beta, lam, {"family": "fvs", "k": k, "nu": nu, "n": n, "m": m}, mc)


def _selection(out: ReductionOutput, mc: MulticoloredCliqueInstance, i: int, x: int) -> set:
    """The threshold edges part i cuts when it selects index x.

    For every copy p: the first edges of the S and Tb paths of length n+j
    for j < x, and the last edges of the Sb and T paths of length n+j for
    j <= nu-x.  x = nu+1 and x = 0 give all first and all last edges, whose
    union is every threshold edge of part i.
    """
    s, t, li = out.anchor("s"), out.anchor("t"), out.anchor("l", i)
    cut = set()
    for p in range(1, mc.graph.m + 1):
        for j in range(1, x):
            cut.add(edge(s, out.path_seq("S", i, j, p)[1]))
            cut.add(edge(li, out.path_seq("Tb", i, j, p)[1]))
        for j in range(1, mc.nu - x + 1):
            cut.add(edge(out.path_seq("Sb", i, j, p)[-2], li))
            cut.add(edge(out.path_seq("T", i, j, p)[-2], t))
    return cut


def forward_cut_fvs(out: ReductionOutput, clique) -> frozenset:
    """The beta-sized cut encoding a multicolored clique."""
    mc = out.source_of("fvs", MulticoloredCliqueInstance)
    members = mc.check_clique(clique)
    if [mc.part(v) for v in members] != list(range(1, mc.k + 1)):
        raise InputError("clique must contain exactly one vertex per part")
    cut = set()
    for v in members:
        cut |= _selection(out, mc, mc.part(v), mc.index(v))
    t = out.anchor("t")
    inside = set(combinations(members, 2))
    for p, e in enumerate(mc.edges_lex, start=1):
        if e not in inside:
            cut.add(edge(out.anchor("ve", p), t))
    return frozenset(cut)


def decode_fvs(out: ReductionOutput, f) -> tuple[int, ...] | None:
    """The multicolored clique a cut selects, or None.

    Part i selects index x when f's threshold edges of part i are exactly
    `_selection(out, mc, i, x)`.  A part that matches no index, or a
    selection that is not a clique of the source, decodes to None.
    """
    mc = out.source_of("fvs", MulticoloredCliqueInstance)
    f = edge_set(f)
    chosen = []
    for i in range(1, mc.k + 1):
        firsts = _selection(out, mc, i, mc.nu + 1)
        seen = f & (firsts | _selection(out, mc, i, 0))
        x = len(seen & firsts) // (2 * mc.graph.m) + 1  # index x has 2m(x-1) first edges
        if x > mc.nu or _selection(out, mc, i, x) != seen:
            return None
        chosen.append(mc.vertex(i, x))
    return mc.clique_or_none(chosen)
