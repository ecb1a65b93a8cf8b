from random import Random

import pytest

from lbcut.errors import InputError
from lbcut.graph import Graph
from lbcut.reductions_fvs import gen_fvs
from lbcut.reductions_pw import CliqueInstance, forward_cut_pw, gen_pw
from lbcut.witnesses import (
    PathDecomposition,
    PdVerdict,
    build_fvs_witness,
    build_pw_witness,
    verify_fvs,
    verify_path_decomposition,
)
from test_reductions_fvs import CASES as FVS_CASES, vertex_kinds
from test_reductions_pw import CASES as PW_CASES


class TestVerifyFvs:
    def test_tree_needs_nothing(self):
        assert verify_fvs(Graph(4, [(0, 1), (1, 2), (1, 3)]), frozenset())

    def test_triangle_needs_something(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        assert not verify_fvs(g, frozenset())
        assert verify_fvs(g, frozenset([0]))


class TestFvsWitness:
    def test_size_is_2k_plus_2(self):
        for mc, _ in FVS_CASES:
            out = gen_fvs(mc)
            w = build_fvs_witness(out)
            assert len(w) == 2 * mc.k + 2
            assert verify_fvs(out.instance.graph, w)

    def test_component_shapes(self):
        # H - X components: edge gadgets, shortcut-joined path pairs, lone paths
        mc, _ = FVS_CASES[1]
        out = gen_fvs(mc)
        g = out.instance.graph
        w = build_fvs_witness(out)
        kind = vertex_kinds(out)
        comp_of = {}
        for v in range(g.n):
            if v in w or v in comp_of:
                continue
            stack, members = [v], set()
            while stack:
                x = stack.pop()
                if x in members:
                    continue
                members.add(x)
                stack.extend(y for y in g.adj[x] if y not in w and y not in members)
            kinds = set()
            for x in members:
                comp_of[x] = v
                kinds.add(kind[x])
            if "ve" in kinds or "eu" in kinds or "el" in kinds:
                assert kinds <= {"ve", "eu", "el"}
            else:
                assert kinds <= {"S", "Sb"} or kinds <= {"T", "Tb"}

    def test_wrong_family_rejected(self):
        out = gen_pw(PW_CASES[0][0])
        with pytest.raises(InputError):
            build_fvs_witness(out)


class TestVerifyPathDecomposition:
    def test_path_graph_width_one(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        pd = PathDecomposition(((0, 1), (1, 2), (2, 3)))
        verdict = verify_path_decomposition(g, pd)
        assert verdict.ok and verdict.width == 1

    def test_gap_in_run_detected(self):
        g = Graph(3, [(0, 1), (1, 2)])
        pd = PathDecomposition(((0, 1), (1, 2), (0, 1)))
        verdict = verify_path_decomposition(g, pd)
        assert not verdict.ok and verdict.kind == "contiguity" and verdict.witness == 0

    def test_uncovered_edge_detected(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        pd = PathDecomposition(((0, 1), (1, 2)))
        verdict = verify_path_decomposition(g, pd)
        assert not verdict.ok and verdict.kind == "edge-uncovered"


def reference_verify_path_decomposition(g, pd):
    """The per-vertex scan that `verify_path_decomposition` replaced, kept
    verbatim as the reference for its verdicts."""
    seen_in = {v: [] for v in range(g.n)}
    for idx, bag in enumerate(pd.bags):
        for v in bag:
            if not (0 <= v < g.n):
                return PdVerdict(False, kind="unknown-vertex", witness=v)
            seen_in[v].append(idx)
    span = {}
    for v in range(g.n):
        if not seen_in[v]:
            return PdVerdict(False, kind="vertex-uncovered", witness=v)
        lo, hi = seen_in[v][0], seen_in[v][-1]
        if len(seen_in[v]) != hi - lo + 1:
            return PdVerdict(False, kind="contiguity", witness=v)
        span[v] = (lo, hi)
    for e in g.edge_list():
        # with contiguity verified, occurrence runs overlap iff some bag
        # holds both endpoints
        (alo, ahi), (blo, bhi) = span[e[0]], span[e[1]]
        if max(alo, blo) > min(ahi, bhi):
            return PdVerdict(False, kind="edge-uncovered", witness=e)
    return PdVerdict(True, width=pd.width)


def verdict_fields(v):
    return v.ok, v.kind, v.witness, v.width


def ordering_decomposition(g, order):
    """The path decomposition of a vertex ordering: bag i holds order[i] and
    every earlier vertex with a neighbour at position i or later."""
    pos = {v: i for i, v in enumerate(order)}
    reach = {v: max([pos[v], *(pos[w] for w in g.adj[v])]) for v in order}
    return [{v for v in order[: i + 1] if reach[v] >= i} for i in range(g.n)]


def mutated_decompositions(g, rng):
    """A valid decomposition of `g` and faulty variants of it."""
    bags = ordering_decomposition(g, rng.sample(range(g.n), g.n))
    yield "valid", bags
    yield "empty", []
    v = rng.randrange(g.n)
    yield "vertex-dropped", [b - {v} for b in bags]
    runs = [i for i, b in enumerate(bags) if v in b]
    if len(runs) >= 3:
        mid = rng.choice(runs[1:-1])
        yield "occurrence-split", [b - {v} if i == mid else b for i, b in enumerate(bags)]
    i = rng.randrange(len(bags))
    yield "one-occurrence-removed", [b - {rng.choice(sorted(b))} if j == i else b
                                     for j, b in enumerate(bags)]
    bad = rng.choice([g.n, g.n + 7, -1, -(2**40), 2**70])
    yield "out-of-range", [b | {bad} if j == i else b for j, b in enumerate(bags)]
    yield "shuffled", rng.sample(bags, len(bags))
    # runs cut short at their last bag: several edges may lose their bag
    last = {v: max(i for i, b in enumerate(bags) if v in b) for v in range(g.n)}
    short = {v for v in range(g.n) if rng.random() < 0.5 and any(v in b for b in bags[:last[v]])}
    yield "runs-shortened", [b - {v for v in short if last[v] == i} for i, b in enumerate(bags)]
    # several vertex faults at once: the lowest faulty id decides
    a, b = rng.randrange(g.n), rng.randrange(g.n)
    split = [i for i, bag in enumerate(bags) if b in bag][1:-1]
    mid = rng.choice(split) if split else -1
    yield "dropped-and-split", [bag - {a} - ({b} if i == mid else set())
                                for i, bag in enumerate(bags)]
    yield "doubled", bags + bags[: rng.randrange(len(bags) + 1)]


class TestVerifyPathDecompositionReference:
    def test_random_graphs_match_the_reference_scan(self):
        kinds = set()
        for seed in range(300):
            rng = Random(seed)
            n = rng.randrange(1, 11)
            g = Graph(n, [(u, w) for u in range(n) for w in range(u + 1, n)
                          if rng.random() < rng.choice([0.2, 0.4, 0.7])])
            for name, bags in mutated_decompositions(g, rng):
                pd = PathDecomposition(tuple(tuple(sorted(b)) for b in bags))
                got = verify_path_decomposition(g, pd)
                assert verdict_fields(got) == verdict_fields(
                    reference_verify_path_decomposition(g, pd)), (seed, name)
                kinds.add(got.kind)
        assert kinds == {None, "unknown-vertex", "vertex-uncovered", "contiguity",
                         "edge-uncovered"}

    @pytest.mark.parametrize(
        "n, edges, bags, expected",
        [
            (3, [(0, 1)], [{0, 1}, {5}, {2, -1}], (False, "unknown-vertex", 5, None)),
            (3, [(0, 1)], [{0, 1}, {2, 2**70}], (False, "unknown-vertex", 2**70, None)),
            (3, [(0, 1)], [{0, 1}], (False, "vertex-uncovered", 2, None)),
            (2, [], [], (False, "vertex-uncovered", 0, None)),
            (0, [], [], (True, None, None, -1)),
            (0, [], [set()], (True, None, None, -1)),
            # a contiguity fault at vertex 5 comes before vertex 10 is uncovered
            (11, [], [set(range(10)), set(range(5)), {5}], (False, "contiguity", 5, None)),
            # and an uncovered vertex 3 before a contiguity fault at vertex 7
            (8, [], [{0, 1, 2, 4, 5, 6, 7}, {0}, {7}], (False, "vertex-uncovered", 3, None)),
            (4, [(0, 3), (1, 2), (0, 2)], [{0, 1, 2}, {1, 3}], (False, "edge-uncovered", (0, 3), None)),
            (4, [(1, 3), (0, 1), (0, 2)], [{0, 1}, {2, 3}], (False, "edge-uncovered", (0, 2), None)),
            (3, [(0, 1), (1, 2)], [{0, 1}, {1, 2}], (True, None, None, 1)),
        ],
        ids=["unknown-first-in-bag-order", "unknown-past-int64", "uncovered", "empty-pd",
             "empty-graph", "empty-bag", "contiguity-before-uncovered",
             "uncovered-before-contiguity", "one-uncovered-edge", "first-uncovered-edge", "valid"],
    )
    def test_fault_order(self, n, edges, bags, expected):
        g = Graph(n, edges)
        pd = PathDecomposition(tuple(tuple(sorted(b)) for b in bags))
        assert verdict_fields(verify_path_decomposition(g, pd)) == expected
        assert verdict_fields(reference_verify_path_decomposition(g, pd)) == expected


@pytest.mark.parametrize(
    "n, edges, bags, expected",
    [
        (2, [(0, 1)], [(0, 1), (0, 0, 1)], (False, "bag-order", 1, None)),
        (2, [(0, 1)], [(0, 1), (1, 0)], (False, "bag-order", 1, None)),
        # vertex 3 is uncovered, but the unordered bag 1 is reported first
        (4, [(0, 1)], [(0, 1), (2, 1), (0, 2)], (False, "bag-order", 1, None)),
        # an unknown id is still reported before an unordered bag
        (2, [(0, 1)], [(1, 0), (0, 1, 5)], (False, "unknown-vertex", 5, None)),
        (2, [(0, 1)], [(), (0, 1), (1,), ()], (True, None, None, 1)),
    ],
    ids=["repeated-id", "descending-pair", "before-coverage", "unknown-first",
         "boundaries-skipped"],
)
def test_bag_order(n, edges, bags, expected):
    pd = PathDecomposition(tuple(bags))
    assert verdict_fields(verify_path_decomposition(Graph(n, edges), pd)) == expected


class TestPwWitness:
    def test_valid_with_promised_width(self):
        for cq, _ in PW_CASES:
            out = gen_pw(cq)
            pd = build_pw_witness(out)
            verdict = verify_path_decomposition(out.instance.graph, pd)
            assert verdict.ok, verdict
            assert verdict.width <= 2 * cq.k + 11

    def test_ladder_windows_alone_have_width_five(self):
        # the gadget-local window (4 anchors + 2 inserted path vertices)
        cq, _ = PW_CASES[0]
        out = gen_pw(cq)
        pd = build_pw_witness(out)
        hubs = 2 * cq.k + 2
        kind = vertex_kinds(out)
        ladder_bags = [
            b
            for b in pd.bags
            if all(kind[v] in ("u", "l", "U", "L", "rung", "s", "t", "su", "sl") for v in b)
        ]
        assert ladder_bags and max(len(b) - hubs for b in ladder_bags) <= 6

    def test_wrong_family_rejected(self):
        out = gen_fvs(FVS_CASES[0][0])
        with pytest.raises(InputError):
            build_pw_witness(out)

    def test_sink_vertices_still_get_valid_witness(self):
        # vertex 4 has only lower-indexed neighbors, so naive cross-link
        # targets would be non-monotone; the block-boundary targets keep the
        # incidence window schedule sound
        g = Graph(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 5), (2, 5), (3, 4), (0, 4)])
        cq = CliqueInstance(g, 3)
        out = gen_pw(cq)
        cut = forward_cut_pw(out, (0, 1, 2))
        from lbcut.graph import verify_cut

        assert verify_cut(out.instance, cut).ok
        pd = build_pw_witness(out)
        verdict = verify_path_decomposition(out.instance.graph, pd)
        assert verdict.ok and verdict.width <= 2 * cq.k + 11

    def test_witness_from_reloaded_instance(self):
        from lbcut.formats import load_reduction_output, serialize_reduction_output

        cq, _ = PW_CASES[1]
        out = load_reduction_output(
            serialize_reduction_output(gen_pw(cq)), source=cq
        )
        pd = build_pw_witness(out)
        verdict = verify_path_decomposition(out.instance.graph, pd)
        assert verdict.ok and verdict.width <= 2 * cq.k + 11
