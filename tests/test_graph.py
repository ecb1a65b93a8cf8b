import itertools
import math
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from lbcut.errors import InputError
from lbcut.graph import (
    Graph,
    Instance,
    bfs_distances,
    edge,
    min_st_cut,
    shortest_bounded_path,
    verify_cut,
)

INF = math.inf


def random_graph(n, p, seed):
    rng = Random(seed)
    return Graph(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


def floyd_warshall(g):
    d = [[0 if i == j else INF for j in range(g.n)] for i in range(g.n)]
    for u, v in g.edges:
        d[u][v] = d[v][u] = 1
    for k in range(g.n):
        for i in range(g.n):
            for j in range(g.n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return d


def all_paths_up_to(g, s, t, lam):
    """Every simple s-t path with at most lam edges, by DFS enumeration."""
    out = []

    def go(path):
        u = path[-1]
        if u == t:
            out.append(tuple(path))
            return
        if len(path) - 1 >= lam:
            return
        for w in g.adj[u]:
            if w not in path:
                path.append(w)
                go(path)
                path.pop()

    go([s])
    return out


class TestGraphBasics:
    def test_rejects_self_loop(self):
        with pytest.raises(InputError):
            Graph(3, [(1, 1)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(InputError):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            Graph(2, [(0, 2)])

    def test_has_edge_is_false_outside_the_vertex_range(self):
        g = Graph(3, [(0, 2)])
        assert g.has_edge(0, 2) and g.has_edge(2, 0) and not g.has_edge(0, 1)
        for u, v in ((-1, 0), (0, 3), (3, 4), (-1, 2), (2, -1)):
            assert not g.has_edge(u, v) and not g.has_edge(v, u)

    def test_has_edge_is_false_for_equal_ids(self):
        # a yes/no answer, as for any other pair that is not an edge
        g = Graph(3, [(0, 1), (0, 2), (1, 2)])
        for v in range(-1, 4):
            assert g.has_edge(v, v) is False

    @pytest.mark.parametrize(
        "pairs, message",
        [
            ([(0, 1), (2, 1), (1, 0)], "duplicate edge (0, 1)"),
            ([(0, 1), (2, 2)], "self-loop at vertex 2"),
            ([(5, 5)], "self-loop at vertex 5"),
            ([(0, 1), (5, 0)], "edge (0, 5) out of range for n=3"),
            ([(1, 2), (0, 5)], "edge (0, 5) out of range for n=3"),  # 0*3+5 == 1*3+2
            ([(0, -1)], "edge (-1, 0) out of range for n=3"),
        ],
        ids=["repeat", "self-loop", "self-loop-out-of-range", "out-of-range",
             "out-of-range-key-collision", "negative"],
    )
    def test_the_first_bad_pair_raises_and_nothing_after_it_is_read(self, pairs, message):
        read = []

        def then_more():  # the bad pair is the last of `pairs`; more follow
            for pair in [*pairs, (1, 0), (2, 2), (0, 7)]:
                read.append(pair)
                yield pair

        with pytest.raises(InputError) as err:
            Graph(3, then_more())
        assert str(err.value) == message and read == pairs

    def test_shuffled_edge_lists_give_equal_graphs(self):
        for seed in range(20):
            g = random_graph(10, 0.4, seed=seed)
            pairs = [(v, u) if i % 2 else (u, v) for i, (u, v) in enumerate(g.edge_list())]
            Random(seed).shuffle(pairs)
            h = Graph(g.n, pairs)
            assert h == g and hash(h) == hash(g)
        assert Graph(3, [(0, 1)]) != Graph(3, [(0, 2)])
        assert Graph(3, [(0, 1)]) != Graph(4, [(0, 1)])

    def test_edge_views_match_brute_force(self):
        for seed in range(40):
            rng = Random(seed)
            n = rng.randint(0, 14)
            brute = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.35}
            g = Graph(n, [(v, u) for u, v in brute])
            assert g.edges == brute and g.m == len(brute)
            assert g.edge_list() == sorted(brute)
            for u, v in itertools.permutations(range(-1, n + 1), 2):
                assert g.has_edge(u, v) == ((min(u, v), max(u, v)) in brute)


class TestBfsDistances:
    def test_single_vertex(self):
        assert bfs_distances(Graph(1), 0) == [0]

    def test_path_metric(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert bfs_distances(g, 0) == [0, 1, 2]

    def test_invalid_source(self):
        with pytest.raises(InputError):
            bfs_distances(Graph(2), 5)

    def test_matches_floyd_warshall_rows(self):
        g = random_graph(10, 0.4, seed=7)
        fw = floyd_warshall(g)
        for v in range(g.n):
            assert bfs_distances(g, v) == fw[v]

    @given(
        n=st.integers(min_value=2, max_value=10),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_edge_triangle_inequality(self, n, data):
        pairs = list(itertools.combinations(range(n), 2))
        picks = data.draw(st.lists(st.sampled_from(pairs), unique=True))
        g = Graph(n, picks)
        d = bfs_distances(g, 0)
        for u, v in g.edges:
            if d[u] != INF or d[v] != INF:
                assert abs(d[u] - d[v]) <= 1


class TestApplyCut:
    """A cut F is applied as the `removed` set: G - F is never built."""

    def test_triangle_leaves_two_path(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        assert bfs_distances(g, 0, frozenset([(0, 2)]))[2] == 2

    def test_isolating_a_k4_vertex(self):
        g = Graph(4, itertools.combinations(range(4), 2))
        assert bfs_distances(g, 0, frozenset([(0, 1), (0, 2), (0, 3)])) == [0, INF, INF, INF]
        assert bfs_distances(g, 1, frozenset([(0, 1), (0, 2), (0, 3)])) == [INF, 0, 1, 1]

    def test_non_edge_rejected(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(InputError):
            verify_cut(Instance(g, 0, 1, 1, 1), [(1, 2)])
        for pair in ((0, 3), (-1, 0)):
            with pytest.raises(InputError, match="cut contains non-edges"):
                verify_cut(Instance(g, 0, 1, 1, 1), [pair])
            with pytest.raises(InputError, match="cut contains non-edges"):
                verify_cut(Instance(g, 0, 1, 1, 1), [(0, 1), pair])
        with pytest.raises(InputError, match=r"non-edges: \[\(-1, 0\), \(0, 2\), \(1, 2\)\]$"):
            verify_cut(Instance(g, 0, 1, 1, 1), [(2, 1), (0, 1), (0, 2), (2, 3), (0, -1)])


class TestVerifyCut:
    def test_disconnected_is_valid(self):
        inst = Instance(Graph(4, [(0, 1), (2, 3)]), 0, 3, 2, 5)
        assert verify_cut(inst, frozenset()).ok

    def test_direct_edge_violates(self):
        inst = Instance(Graph(2, [(0, 1)]), 0, 1, 1, 1)
        verdict = verify_cut(inst, frozenset())
        assert not verdict.ok and verdict.witness == (0, 1)

    def test_matches_exhaustive_enumeration(self):
        for seed in range(30):
            g = random_graph(8, 0.35, seed=seed)
            inst = Instance(g, 0, 7, 3, 3)
            rng = Random(seed)
            f = frozenset(e for e in g.edge_list() if rng.random() < 0.3)
            survivors = [
                p
                for p in all_paths_up_to(g, 0, 7, 3)
                if all(edge(p[i], p[i + 1]) not in f for i in range(len(p) - 1))
            ]
            assert verify_cut(inst, f).ok == (not survivors)
            # the removed set stands for the graph without those edges
            h = Graph(g.n, g.edges - f)
            assert verify_cut(inst, f).witness == shortest_bounded_path(h, 0, 7, 3)
            assert bfs_distances(g, 0, f) == bfs_distances(h, 0)


class TestMinStCut:
    def test_disconnected(self):
        assert min_st_cut(Graph(2), 0, 1) == (0, frozenset())

    def test_single_edge(self):
        assert min_st_cut(Graph(2, [(0, 1)]), 0, 1) == (1, frozenset([(0, 1)]))

    def test_cut_edges_disconnect(self):
        for seed in range(20):
            g = random_graph(9, 0.5, seed=seed)
            size, cut = min_st_cut(g, 0, 8)
            assert len(cut) == size
            assert bfs_distances(g, 0, cut)[8] == INF

    def test_equals_max_edge_disjoint_path_packing(self):
        def max_packing(g, s, t, used):
            # brute force: count edge-disjoint paths via DFS over path choices
            best = 0
            for path in all_paths_up_to(g, s, t, g.n):
                es = {edge(path[i], path[i + 1]) for i in range(len(path) - 1)}
                if es & used:
                    continue
                best = max(best, 1 + max_packing(g, s, t, used | es))
            return best

        for seed in (0, 1, 2):
            g = random_graph(6, 0.5, seed=seed)
            size, _ = min_st_cut(g, 0, 5)
            assert size == max_packing(g, 0, 5, frozenset())

    @pytest.mark.parametrize("s, t", [(0, 5), (-1, 2), (2, 3)])
    def test_terminal_out_of_range(self, s, t):
        with pytest.raises(InputError):
            min_st_cut(Graph(3, [(0, 1), (1, 2)]), s, t)

    def test_returns_the_inclusion_minimal_min_cut(self):
        # brute force over every source side X (s in X, t not in X): the value
        # is the least |delta(X)|, and the cut is delta of the intersection of
        # all optimal X, whatever augmenting paths the flow took
        checked = 0
        for seed in range(60):
            rng = Random(seed)
            n = rng.randint(2, 9)
            g = random_graph(n, rng.choice([0.3, 0.5, 0.8]), seed=seed)
            s, t = rng.sample(range(n), 2)
            rest = [v for v in range(n) if v not in (s, t)]
            best, core = None, None
            for bits in range(1 << len(rest)):
                side = {s} | {v for i, v in enumerate(rest) if bits >> i & 1}
                size = sum((u in side) != (v in side) for u, v in g.edges)
                if best is None or size < best:
                    best, core = size, side
                elif size == best:
                    core = core & side
            delta = frozenset(e for e in g.edges if (e[0] in core) != (e[1] in core))
            assert min_st_cut(g, s, t) == (best, delta), f"seed {seed}"
            checked += best > 0
        assert checked >= 30

    def test_monotone_under_edge_deletion(self):
        g = random_graph(8, 0.6, seed=3)
        size, _ = min_st_cut(g, 0, 7)
        for e in g.edge_list():
            smaller, _ = min_st_cut(Graph(g.n, g.edges - {e}), 0, 7)
            assert smaller <= size


class TestShortestBoundedPath:
    def test_too_long_path_is_none(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert shortest_bounded_path(g, 0, 3, 2) is None

    def test_direct_edge(self):
        g = Graph(2, [(0, 1)])
        assert shortest_bounded_path(g, 0, 1, 1) == (0, 1)

    def test_grid_corners(self):
        # 3x3 grid, vertex r*3+c; opposite corners need 4 edges
        edges = []
        for r in range(3):
            for c in range(3):
                if c < 2:
                    edges.append((r * 3 + c, r * 3 + c + 1))
                if r < 2:
                    edges.append((r * 3 + c, (r + 1) * 3 + c))
        g = Graph(9, edges)
        path = shortest_bounded_path(g, 0, 8, 4)
        assert path is not None and len(path) == 5
        assert path in all_paths_up_to(g, 0, 8, 4)

    def test_respects_bound_exactly(self):
        for seed in range(15):
            g = random_graph(8, 0.3, seed=seed)
            for lam in range(0, 5):
                p = shortest_bounded_path(g, 0, 7, lam)
                enumerated = all_paths_up_to(g, 0, 7, lam)
                assert (p is not None) == bool(enumerated)
                if p is not None:
                    assert len(p) - 1 <= lam
                rng = Random(seed * 5 + lam)
                removed = frozenset(e for e in g.edge_list() if rng.random() < 0.3)
                h = Graph(g.n, g.edges - removed)
                assert shortest_bounded_path(g, 0, 7, lam, removed) == (
                    shortest_bounded_path(h, 0, 7, lam)
                )
                assert bfs_distances(g, 0, removed) == bfs_distances(h, 0)


class TestInstance:
    def test_terminal_validation(self):
        with pytest.raises(InputError):
            Instance(Graph(3, [(0, 1)]), 1, 1, 1, 1)

    def test_clamping_records_notes(self):
        inst = Instance(Graph(3, [(0, 1)]), 0, 1, beta=99, lam=99)
        assert inst.beta == 1 and inst.lam == 3
        assert any("beta" in n for n in inst.notes)
        assert any("lambda" in n for n in inst.notes)
