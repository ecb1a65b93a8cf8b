import itertools
import math
from random import Random

import pytest

from lbcut.errors import InputError, InternalCheckError
from lbcut.gadgets import GadgetBuilder
from lbcut.graph import Graph, bfs_distances, edge, verify_cut
from lbcut.reductions_fvs import MulticoloredCliqueInstance, gen_fvs
from lbcut.reductions_pw import CliqueInstance, decode_pw, forward_cut_pw, gen_pw


def k3_with_padding():
    # triangle 0-1-2 plus a pendant cycle so that m >= n
    g = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3), (1, 3)])
    return CliqueInstance(g, 2)


def planted_clique_instance(n, k, extra_edges, seed):
    """Random graph with a planted k-clique, densified until m >= n."""
    rng = Random(seed)
    clique = rng.sample(range(n), k)
    edges = set(
        tuple(sorted(p)) for p in itertools.combinations(clique, 2)
    )
    candidates = [
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges
    ]
    rng.shuffle(candidates)
    for e in candidates:
        if len(edges) >= max(n, len(clique) * (len(clique) - 1) // 2 + extra_edges):
            break
        edges.add(e)
    g = Graph(n, edges)
    if g.m < g.n:
        raise AssertionError("padding failed")
    return CliqueInstance(g, k), tuple(sorted(clique))


CASES = [
    planted_clique_instance(4, 2, 2, seed=0),
    planted_clique_instance(5, 3, 2, seed=1),
    planted_clique_instance(5, 2, 3, seed=2),
    planted_clique_instance(6, 3, 4, seed=3),
]


class TestCliqueInstance:
    def test_rejects_sparse_graphs(self):
        with pytest.raises(InputError):
            CliqueInstance(Graph(3, [(0, 1), (1, 2)]), 2)

    def test_link_targets_are_block_boundaries(self):
        cq = k3_with_padding()
        # lex order: (0,1) (0,2) (1,2) (1,3) (2,3)
        assert cq.edges_lex == ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3))
        assert [cq.link_target(x) for x in range(5)] == [0, 2, 4, 5, 5]
        for x in range(1, cq.graph.n):
            lo, hi = cq.link_target(x - 1), cq.link_target(x)
            for p in range(lo + 1, hi + 1):
                assert cq.edges_lex[p - 1][0] + 1 == x

    def test_edge_positions_follow_lex_order(self):
        cq = k3_with_padding()
        for p, (u, v) in enumerate(cq.edges_lex, start=1):
            assert cq.edge_position(u, v) == cq.edge_position(v, u) == p
        for u, v in ((0, 3), (3, 4), (-1, 0), (2, 9)):
            with pytest.raises(InputError, match="is not an edge of the source graph"):
                cq.edge_position(u, v)

    def test_link_targets_monotone_even_with_sink_vertices(self):
        # vertex 4 has only lower-indexed neighbors
        g = Graph(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 5), (2, 5), (3, 4), (0, 4)])
        cq = CliqueInstance(g, 2)
        targets = [cq.link_target(x) for x in range(g.n)]
        assert targets == sorted(targets)


class TestGenPw:
    def test_parameter_formulas(self):
        # k=3, n=4, m=6 -> beta=18, eta=24, lambda=201
        g = Graph(4, itertools.combinations(range(4), 2))
        out = gen_pw(CliqueInstance(g, 3))
        assert out.instance.beta == 18
        assert out.params["eta"] == 24
        assert out.instance.lam == 8 * 24 + 2 * 4 + 1 == 201

    @pytest.mark.parametrize("family", ["pw", "fvs"])
    def test_anchors_and_interiors_partition_the_vertices(self, family):
        if family == "pw":
            out = gen_pw(k3_with_padding())
        else:
            mc = MulticoloredCliqueInstance(Graph(6, [(0, 3), (1, 4), (2, 5)]), 2, 3)
            out = gen_fvs(mc)
        anchors = set(out.vertex_by_role.values())
        owned = sorted(anchors)
        for seq in out.paths.values():
            assert seq[0] in anchors and seq[-1] in anchors
            owned += seq[1:-1]
        assert sorted(owned) == list(range(out.instance.graph.n))

    @pytest.mark.parametrize("pairs", [[(0, 1), (1, 0)], [(1, 1)]], ids=["repeat", "loop"])
    def test_builder_edge_faults_are_internal(self, pairs):
        b = GadgetBuilder()
        b.vertex("x")
        b.vertex("y")
        for u, v in pairs:
            b.edge(u, v)
        with pytest.raises(InternalCheckError):
            b.graph()

    def test_builder_refuses_a_length_one_path(self):
        # a length-1 path would be an edge with an empty interior
        b = GadgetBuilder()
        x, y = b.vertex("x"), b.vertex("y")
        with pytest.raises(InternalCheckError, match="needs length at least 2"):
            b.path(x, y, 1, "p")

    def test_empty_cut_admits_short_path(self):
        for cq, _ in CASES:
            out = gen_pw(cq)
            d = bfs_distances(out.instance.graph, out.instance.s)
            assert d[out.instance.t] <= out.instance.lam

    def test_upper_route_has_length_lambda(self):
        cq = k3_with_padding()
        out = gen_pw(cq)
        n = cq.graph.n
        # s -> u^1_0 (2 edges), rail to u^1_n (n edges), T-path to t
        d = bfs_distances(out.instance.graph, out.instance.s)
        assert d[out.anchor("u", 1, 0)] == 2
        assert d[out.anchor("u", 1, n)] == 2 + n

    def test_size_growth_bound(self):
        for cq, _ in CASES:
            out = gen_pw(cq)
            k, m = cq.k, cq.graph.m
            assert out.instance.graph.n <= 600 * k * k * m * m

    def test_max_degree_matches_closed_form(self):
        # only s, t, and the ladder ends exceed constant degree
        for cq, _ in CASES:
            out = gen_pw(cq)
            g = out.instance.graph
            k, n = cq.k, cq.graph.n
            assert g.degree(out.anchor("s")) == 4 * k + 10 * k * (k - 1)
            assert g.degree(out.anchor("t")) == 6 * k + 4 * k * (k - 1)
            ends = set()
            for i in range(1, k + 1):
                for v in (out.anchor("u", i, n), out.anchor("l", i, n)):
                    assert g.degree(v) == 6 + 7 * (k - 1)
                    ends.add(v)
            mult = max(
                sum(1 for x in range(n) if cq.link_target(x) == q)
                for q in range(cq.graph.m + 1)
            )
            hubs = ends | {out.anchor("s"), out.anchor("t")}
            for v in range(g.n):
                if v not in hubs:
                    assert g.degree(v) <= 7 + 2 * mult


class TestForwardCutPw:
    def test_size_is_two_k_squared(self):
        for cq, clique in CASES:
            out = gen_pw(cq)
            cut = forward_cut_pw(out, clique)
            assert len(cut) == 2 * cq.k * cq.k == out.instance.beta

    def test_verify_accepts(self):
        for cq, clique in CASES:
            out = gen_pw(cq)
            cut = forward_cut_pw(out, clique)
            assert verify_cut(out.instance, cut).ok

    def test_rejects_non_clique(self):
        cq, _ = CASES[1]
        non_adjacent = None
        for pair in itertools.combinations(range(cq.graph.n), 2):
            if not cq.graph.has_edge(*pair):
                non_adjacent = pair
                break
        if non_adjacent is None:
            pytest.skip("source graph is complete")
        out = gen_pw(cq)
        bad = list(non_adjacent)
        for v in range(cq.graph.n):
            if len(bad) == cq.k:
                break
            if v not in bad:
                bad.append(v)
        with pytest.raises(InputError):
            forward_cut_pw(out, bad)


class TestDecodePw:
    def test_round_trip(self):
        for cq, clique in CASES:
            out = gen_pw(cq)
            assert decode_pw(out, forward_cut_pw(out, clique)) == clique

    def test_missing_gadget_edge_gives_none(self):
        cq, clique = CASES[0]
        out = gen_pw(cq)
        cut = forward_cut_pw(out, clique)
        x = clique[0] + 1
        rail = (out.anchor("u", 1, x - 1), out.anchor("u", 1, x))
        assert decode_pw(out, cut - {rail}) is None

    def test_rail_pattern_of_non_clique_gives_none(self):
        cq = k3_with_padding()  # vertices 0 and 3 are not adjacent
        out = gen_pw(cq)
        for picks in ((0, 3), (1, 1)):
            cut = set()
            for gadget, v in enumerate(picks, start=1):
                for row in "ul":
                    cut.add(edge(out.anchor(row, gadget, v), out.anchor(row, gadget, v + 1)))
            assert decode_pw(out, cut) is None

    def test_decoded_set_is_a_clique(self):
        for cq, clique in CASES:
            out = gen_pw(cq)
            decoded = decode_pw(out, forward_cut_pw(out, clique))
            for a, b in itertools.combinations(decoded, 2):
                assert cq.graph.has_edge(a, b)
