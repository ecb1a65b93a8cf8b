"""Hard-instance generator with bounded feedback vertex number.

From a multicolored clique instance (k parts of nu vertices each) we emit
a length-bounded cut instance built around 2k hub vertices u_i, l_i.  Each
part contributes m parallel s-u_i, s-l_i, u_i-t, and l_i-t paths of every
length n+1 .. n+nu, tied together by shortcut edges pairing lengths j and
nu-j; every source edge contributes one gadget vertex adjacent to t.  The
budget forces a cheap cut to pick one length threshold per part (selecting
a vertex) and to pay one edge for every source edge not inside the
selected clique.

beta = 2k(nu-1)m + m - C(k,2), lambda = nu + 2n, and {s, t, u_i, l_i} is a
feedback vertex set of size 2k + 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import InputError
from .gadgets import GadgetBuilder, ReductionOutput, role
from .graph import Graph, Instance, edge


@dataclass(frozen=True)
class MulticoloredCliqueInstance:
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
        for u, v in self.graph.edges:
            if u // self.nu == v // self.nu:
                raise InputError(f"edge {edge(u, v)} stays inside one part")

    def part(self, v: int) -> int:
        return v // self.nu + 1

    def index(self, v: int) -> int:
        return v % self.nu + 1

    def vertex(self, part: int, index: int) -> int:
        return (part - 1) * self.nu + (index - 1)

    @cached_property
    def edges_lex(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.graph.edges))

    def edge_position(self, u: int, v: int) -> int:
        e = edge(u, v)
        try:
            return self.edges_lex.index(e) + 1
        except ValueError:
            raise InputError(f"{e} is not an edge of the source graph") from None


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
            b.path(ell[i], ve, n + mc.index(v), role("el", p, i))

    graph = b.graph()
    inst = Instance(graph, s, t, beta, lam)
    params = {"family": "fvs", "k": k, "nu": nu, "n": n, "m": m}
    return ReductionOutput(
        instance=inst,
        roles=tuple(b.roles),
        paths=b.paths,
        vertex_by_role=b.vertex_by_role,
        params=params,
        source=mc,
    )


def _check_multicolored_clique(mc, clique) -> list[int]:
    members = sorted(set(clique))
    if len(members) != mc.k:
        raise InputError(f"expected {mc.k} distinct vertices")
    parts = [mc.part(v) for v in members]
    if parts != list(range(1, mc.k + 1)):
        raise InputError("clique must contain exactly one vertex per part")
    for x in range(len(members)):
        for y in range(x + 1, len(members)):
            if not mc.graph.has_edge(members[x], members[y]):
                raise InputError(
                    f"vertices {members[x]} and {members[y]} are not adjacent"
                )
    return members


def forward_cut_fvs(out: ReductionOutput, clique) -> frozenset:
    """The beta-sized cut encoding a multicolored clique."""
    mc = out.source
    if out.params.get("family") != "fvs" or not isinstance(
        mc, MulticoloredCliqueInstance
    ):
        raise InputError("output was not generated by gen_fvs")
    members = _check_multicolored_clique(mc, clique)
    s = out.anchor("s")
    t = out.anchor("t")
    m, nu = mc.graph.m, mc.nu
    cut = set()
    for i, v in enumerate(members, start=1):
        x = mc.index(v)
        li = out.anchor("l", i)
        for p in range(1, m + 1):
            for j in range(1, x):  # first edges of short s-u_i paths
                cut.add(edge(s, out.path_seq("S", i, j, p)[1]))
            for j in range(1, nu - x + 1):  # last edges of short s-l_i paths
                cut.add(edge(out.path_seq("Sb", i, j, p)[-2], li))
            for j in range(1, nu - x + 1):  # last edges of short u_i-t paths
                cut.add(edge(out.path_seq("T", i, j, p)[-2], t))
            for j in range(1, x):  # first edges of short l_i-t paths
                cut.add(edge(li, out.path_seq("Tb", i, j, p)[1]))
    clique_edges = {
        edge(members[x], members[y])
        for x in range(len(members))
        for y in range(x + 1, len(members))
    }
    for p, e in enumerate(mc.edges_lex, start=1):
        if e not in clique_edges:
            cut.add(edge(out.anchor("ve", p), t))
    return frozenset(cut)


def decode_fvs(out: ReductionOutput, f) -> tuple[int, ...] | None:
    """Recover the selected vertices from the per-part cut thresholds.

    Each part must cut, for every p, the first/last edges of exactly the
    path lengths below one threshold on all four families consistently;
    anything else decodes to None.
    """
    mc = out.source
    if out.params.get("family") != "fvs" or not isinstance(
        mc, MulticoloredCliqueInstance
    ):
        raise InputError("output was not generated by gen_fvs")
    f = frozenset(edge(u, v) for u, v in f)
    s = out.anchor("s")
    t = out.anchor("t")
    m, nu = mc.graph.m, mc.nu
    chosen = []
    for i in range(1, mc.k + 1):
        li = out.anchor("l", i)
        fam_su = _full_prefix(
            f, nu, m, lambda j, p: edge(s, out.path_seq("S", i, j, p)[1])
        )
        fam_sl = _full_prefix(
            f, nu, m, lambda j, p: edge(out.path_seq("Sb", i, j, p)[-2], li)
        )
        fam_ut = _full_prefix(
            f, nu, m, lambda j, p: edge(out.path_seq("T", i, j, p)[-2], t)
        )
        fam_lt = _full_prefix(
            f, nu, m, lambda j, p: edge(li, out.path_seq("Tb", i, j, p)[1])
        )
        if None in (fam_su, fam_sl, fam_ut, fam_lt):
            return None
        x = fam_su + 1
        if fam_lt != x - 1 or fam_sl != nu - x or fam_ut != nu - x:
            return None
        chosen.append(mc.vertex(i, x))
    return tuple(chosen)


def _full_prefix(f, nu, m, make_edge):
    """Largest a such that edges for all j <= a, p <= m are cut; None if ragged."""
    cut_js = []
    for j in range(1, nu + 1):
        hits = sum(1 for p in range(1, m + 1) if make_edge(j, p) in f)
        if hits == m:
            cut_js.append(j)
        elif hits != 0:
            return None
    a = len(cut_js)
    if cut_js != list(range(1, a + 1)):
        return None
    return a
