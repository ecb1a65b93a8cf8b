import itertools
from random import Random

import pytest

from lbcut.errors import InputError
from lbcut.graph import Graph, bfs_distances, edge, verify_cut
from lbcut.reductions_fvs import (
    MulticoloredCliqueInstance,
    decode_fvs,
    forward_cut_fvs,
    gen_fvs,
)
from lbcut.reductions_pw import CliqueInstance, decode_pw, forward_cut_pw, gen_pw


def planted_mc_instance(k, nu, extra, seed):
    """k-partite graph with a planted multicolored clique."""
    rng = Random(seed)
    clique = [part * nu + rng.randrange(nu) for part in range(k)]
    edges = set(tuple(sorted(p)) for p in itertools.combinations(clique, 2))
    candidates = [
        (u, v)
        for u in range(k * nu)
        for v in range(u + 1, k * nu)
        if u // nu != v // nu and (u, v) not in edges
    ]
    rng.shuffle(candidates)
    edges.update(candidates[:extra])
    return MulticoloredCliqueInstance(Graph(k * nu, edges), k, nu), tuple(sorted(clique))


def vertex_kinds(out):
    """The kind of every vertex: the first field of its anchor's tag, or of
    the tag of the path whose interior holds it."""
    kind = [None] * out.instance.graph.n
    for tag, v in out.vertex_by_role.items():
        kind[v] = tag.split(":")[0]
    for tag, seq in out.paths.items():
        for v in seq[1:-1]:
            kind[v] = tag.split(":")[0]
    return kind


def threshold_edges(out, mc, i, x):
    """Part i's threshold pattern for index x, spelled out from the path roles."""
    s, t, li = out.anchor("s"), out.anchor("t"), out.anchor("l", i)
    edges = set()
    for j in range(1, mc.nu + 1):
        for p in range(1, mc.graph.m + 1):
            if j < x:
                edges.add(edge(s, out.path_seq("S", i, j, p)[1]))
                edges.add(edge(li, out.path_seq("Tb", i, j, p)[1]))
            if j <= mc.nu - x:
                edges.add(edge(out.path_seq("Sb", i, j, p)[-2], li))
                edges.add(edge(out.path_seq("T", i, j, p)[-2], t))
    return edges


def selection_cut(out, mc, xs):
    """Every part's threshold pattern for the indices xs, plus the ve-t edge
    of every source edge not inside the selected vertices."""
    chosen = {mc.vertex(i, x) for i, x in enumerate(xs, start=1)}
    cut = set()
    for i, x in enumerate(xs, start=1):
        cut |= threshold_edges(out, mc, i, x)
    t = out.anchor("t")
    for p, (a, b) in enumerate(mc.edges_lex, start=1):
        if not {a, b} <= chosen:
            cut.add(edge(out.anchor("ve", p), t))
    return cut


def triangle_free_source():
    """k=3, nu=2 with edges 1-3, 3-5, 2-4, 4-6 (1-based): no triangle."""
    return MulticoloredCliqueInstance(Graph(6, [(0, 2), (2, 4), (1, 3), (3, 5)]), 3, 2)


CASES = [
    planted_mc_instance(2, 2, 1, seed=0),
    planted_mc_instance(2, 3, 3, seed=1),
    planted_mc_instance(3, 2, 3, seed=2),
    planted_mc_instance(3, 3, 4, seed=3),
    planted_mc_instance(2, 4, 4, seed=4),
]


class TestMulticoloredCliqueInstance:
    def test_rejects_intra_part_edge(self):
        with pytest.raises(InputError):
            MulticoloredCliqueInstance(Graph(4, [(0, 1)]), 2, 2)

    def test_rejects_size_mismatch(self):
        with pytest.raises(InputError):
            MulticoloredCliqueInstance(Graph(5, []), 2, 2)

    def test_part_index_round_trip(self):
        mc, _ = CASES[1]
        for v in range(mc.graph.n):
            assert mc.vertex(mc.part(v), mc.index(v)) == v


class TestGenFvs:
    def test_parameter_formulas(self):
        # k=2, nu=3, n=6, m=4 -> lambda=15, beta=35
        mc, clique = planted_mc_instance(2, 3, 3, seed=1)
        assert mc.graph.m == 4
        out = gen_fvs(mc)
        assert out.instance.lam == 3 + 12 == 15
        assert out.instance.beta == 2 * 2 * 2 * 4 + 4 - 1 == 35

    def test_vertex_count_matches_closed_form_tally(self):
        for mc, _ in CASES:
            out = gen_fvs(mc)
            k, nu, n, m = mc.k, mc.nu, mc.graph.n, mc.graph.m
            path_inner = 4 * k * m * (nu * (n - 1) + nu * (nu + 1) // 2)
            gadget_inner = m * (4 * n + 2 * nu - 6)
            expected = 2 + 2 * k + m + path_inner + gadget_inner
            assert out.instance.graph.n == expected

    def test_empty_cut_admits_short_path(self):
        for mc, _ in CASES:
            out = gen_fvs(mc)
            d = bfs_distances(out.instance.graph, out.instance.s)
            assert d[out.instance.t] <= out.instance.lam

    def test_shortcut_edges_exist(self):
        mc, _ = CASES[1]
        out = gen_fvs(mc)
        g = out.instance.graph
        for i in range(1, mc.k + 1):
            for j in range(1, mc.nu):
                for p in range(1, mc.graph.m + 1):
                    su = out.path_seq("S", i, j, p)[1]
                    sl = out.path_seq("Sb", i, mc.nu - j, p)[-2]
                    assert g.has_edge(su, sl)


class TestForwardCutFvs:
    def test_size_formula(self):
        for mc, clique in CASES:
            out = gen_fvs(mc)
            cut = forward_cut_fvs(out, clique)
            k, nu, m = mc.k, mc.nu, mc.graph.m
            assert len(cut) == 2 * k * (nu - 1) * m + m - k * (k - 1) // 2
            assert len(cut) == out.instance.beta

    def test_per_gadget_share(self):
        mc, clique = CASES[3]
        out = gen_fvs(mc)
        cut = forward_cut_fvs(out, clique)
        hubs = {out.anchor("s"), out.anchor("t")}
        for i in range(1, mc.k + 1):
            hubs.add(out.anchor("u", i))
            hubs.add(out.anchor("l", i))
        kind = vertex_kinds(out)
        gadget_edges = [
            e
            for e in cut
            if not any(kind[v] == "ve" for v in e)
        ]
        assert len(gadget_edges) == 2 * mc.k * (mc.nu - 1) * mc.graph.m

    def test_verify_accepts(self):
        for mc, clique in CASES:
            out = gen_fvs(mc)
            cut = forward_cut_fvs(out, clique)
            assert verify_cut(out.instance, cut).ok

    def test_rejects_incomplete_selection(self):
        mc, clique = CASES[2]
        out = gen_fvs(mc)
        bad = list(clique)
        bad[0] = bad[1]  # two from one part
        with pytest.raises(InputError):
            forward_cut_fvs(out, bad)


class TestDecodeFvs:
    def test_round_trip(self):
        for mc, clique in CASES:
            out = gen_fvs(mc)
            assert decode_fvs(out, forward_cut_fvs(out, clique)) == clique

    def test_malformed_cut_gives_none(self):
        mc, clique = CASES[1]
        out = gen_fvs(mc)
        cut = forward_cut_fvs(out, clique)
        some = next(iter(cut))
        assert decode_fvs(out, cut - {some}) is None

    def test_decoded_set_is_multicolored_clique(self):
        for mc, clique in CASES:
            out = gen_fvs(mc)
            decoded = decode_fvs(out, forward_cut_fvs(out, clique))
            assert sorted(mc.part(v) for v in decoded) == list(range(1, mc.k + 1))
            for a, b in itertools.combinations(decoded, 2):
                assert mc.graph.has_edge(a, b)


class TestSoundness:
    def test_uniform_threshold_cut_of_triangle_free_source_fails(self):
        # Every part at index 2 with no ve-t edge: 24 edges against beta = 25.
        # With an el path of length n + idx(v) this cut was feasible and
        # decoded to the non-clique 2,4,6.
        mc = triangle_free_source()
        out = gen_fvs(mc)
        assert out.instance.graph.n == 724
        assert out.instance.beta == 25
        cut = set().union(*(threshold_edges(out, mc, i, 2) for i in (1, 2, 3)))
        assert len(cut) == 24
        assert not verify_cut(out.instance, cut).ok
        assert decode_fvs(out, cut) is None

    def test_every_selection_cut_is_feasible_and_over_budget(self):
        # the threshold pattern plus one ve-t edge per source edge outside the
        # selection is always feasible; with no triangle it costs beta + 1 or more
        mc = triangle_free_source()
        out = gen_fvs(mc)
        for xs in itertools.product((1, 2), repeat=3):
            cut = selection_cut(out, mc, xs)
            assert verify_cut(out.instance, cut).ok
            assert len(cut) > out.instance.beta
            assert decode_fvs(out, cut) is None


class TestDecodeRandomSelections:
    def test_decodes_selection_iff_clique(self):
        rng = Random(16)
        for mc, _ in CASES:
            out = gen_fvs(mc)
            for _ in range(12):
                xs = [rng.randint(1, mc.nu) for _ in range(mc.k)]
                chosen = tuple(mc.vertex(i, x) for i, x in enumerate(xs, start=1))
                is_clique = all(
                    mc.graph.has_edge(a, b) for a, b in itertools.combinations(chosen, 2)
                )
                expected = chosen if is_clique else None
                assert decode_fvs(out, selection_cut(out, mc, xs)) == expected

    def test_perturbed_threshold_pattern_gives_none(self):
        rng = Random(17)
        for mc, clique in CASES:
            out = gen_fvs(mc)
            xs = [mc.index(v) for v in clique]
            cut = selection_cut(out, mc, xs)
            assert decode_fvs(out, cut) == clique
            for i, x in enumerate(xs, start=1):
                for e in threshold_edges(out, mc, i, x):
                    assert decode_fvs(out, cut - {e}) is None
                li, p = out.anchor("l", i), rng.randint(1, mc.graph.m)
                longest = {
                    fam: out.path_seq(fam, i, mc.nu, p) for fam in ("S", "Sb", "T", "Tb")
                }
                for extra in (
                    edge(out.anchor("s"), longest["S"][1]),
                    edge(li, longest["Tb"][1]),
                    edge(longest["Sb"][-2], li),
                    edge(longest["T"][-2], out.anchor("t")),
                ):
                    assert decode_fvs(out, cut | {extra}) is None


def test_each_family_rejects_the_other_familys_output():
    fvs_out = gen_fvs(CASES[0][0])
    pw_out = gen_pw(CliqueInstance(Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3), (1, 3)]), 2))
    for call, out, family in (
        (forward_cut_pw, fvs_out, "pw"),
        (decode_pw, fvs_out, "pw"),
        (forward_cut_fvs, pw_out, "fvs"),
        (decode_fvs, pw_out, "fvs"),
    ):
        with pytest.raises(InputError, match=f"^output was not generated by gen_{family}$"):
            call(out, ())
