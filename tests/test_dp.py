from collections import Counter
from fractions import Fraction
from random import Random

import numpy as np
import pytest

from lbcut.dp import (
    BIG,
    _fill_tables,
    compute_crossing_counts,
    dp_solve,
    extract_cut,
    solve,
)
from lbcut.errors import BudgetExceeded, ModelError
from lbcut.formats import parse_instance, serialize_instance
from lbcut.graph import Graph, Instance, bfs_distances, edge, min_st_cut, verify_cut
from lbcut.intervals import IntervalModel, normalize
from lbcut.oracles import (
    OracleBudget,
    oracle_branch,
    oracle_subset,
    random_proper_interval_instance,
)
from test_intervals import kept_model, proper_instances, trimmed, twins


def unit_instance(starts, s, t, beta=3, lam=3):
    model = IntervalModel.unit(starts)
    return Instance(model.induced_graph(), s, t, beta, lam), model


class TestCrossingCounts:
    def naive(self, norm, h, j, i):
        count = 0
        pos = {v: r for r, v in enumerate(norm.order)}  # interior ranks
        for u, v in norm.graph.edges:
            ru, rv = pos.get(u, -1), pos.get(v, -1)
            if ru < 0 or rv < 0:
                continue
            lo, hi = min(ru, rv), max(ru, rv)
            if h <= lo < j and hi >= i:
                count += 1
        return count

    def test_empty_left_range_is_zero(self):
        inst, model = random_proper_interval_instance(8, seed=3)
        norm = normalize(inst, model)
        cc = compute_crossing_counts(norm)
        q = len(norm.order)
        for i in range(q):
            assert cc.count(i, i, max(i, 1)) == 0

    def test_three_path(self):
        inst, model = unit_instance([0, 1, 2, 3, 4], s=0, t=4)
        norm = normalize(inst, model)
        cc = compute_crossing_counts(norm)
        # interior ranks 0,1,2 form a path; no edge jumps over the middle
        assert cc.count(0, 1, 2) == 0

    def test_matches_naive_filter(self):
        cases = [random_proper_interval_instance(9, density=0.6, seed=seed) for seed in range(12)]
        cases += proper_instances(600)
        seen = set()
        for inst, model in cases:
            norm = normalize(inst, model)
            if len(set(model.starts)) < model.n:
                seen.add("tied starts")
            if norm.s != inst.s:
                seen.add("swapped terminals")
            if len(norm.ranked) < model.n:
                seen.add("trimmed")
            if twins(model, inst.s, inst.t):
                seen.add("twin terminals")
            cc = compute_crossing_counts(norm)
            q = len(norm.order)
            for h in range(q):
                for j in range(h, q):
                    for i in range(j, q):
                        assert cc.count(h, j, i) == self.naive(norm, h, j, i)
        assert seen == {"tied starts", "swapped terminals", "trimmed", "twin terminals"}

    def test_band_narrower_than_q(self):
        # the dp-long recipe at n=80: distinct starts 1..4 eighths apart,
        # terminals at start ranks 10% and 90%, lam = dist(s,t) + 1
        rng = Random(8)
        pos, starts = 0, []
        for _ in range(80):
            starts.append(Fraction(pos, 8))
            pos += rng.randint(1, 4)
        model = IntervalModel.unit(starts)
        g = model.induced_graph()
        ranked = sorted(range(80), key=starts.__getitem__)
        s, t = ranked[8], ranked[71]
        inst = Instance(g, s, t, g.m, int(bfs_distances(g, s)[t]) + 1)
        assert dp_solve(inst, model)[1].branch == "table"
        norm = normalize(inst, model)
        cc = compute_crossing_counts(norm)
        q, width = len(norm.order), cc.prefix.shape[1] - 1
        assert q >= 60 and 1 <= width <= q // 3
        pos = {v: r for r, v in enumerate(norm.order)}  # interior ranks
        pairs = np.array(
            [sorted((pos[u], pos[v])) for u, v in norm.graph.edges if u in pos and v in pos]
        )
        lo, hi = pairs[:, 0], pairs[:, 1]
        for i in range(q):
            ends = hi >= i
            for j in range(i + 1):
                below_j = ends & (lo < j)
                for h in range(j + 1):
                    naive = np.count_nonzero(below_j & (lo >= h))
                    assert cc.count(h, j, i) == naive, (h, j, i)


class TestDpSolveSmall:
    def test_disconnected(self):
        inst, model = unit_instance([0, 10], s=0, t=1, lam=4)
        assert dp_solve(inst, model)[0] == 0

    def test_triangle_costs_two(self):
        inst, model = unit_instance([0, Fraction(1, 2), 1], s=0, t=2, lam=2)
        cost, tables = dp_solve(inst, model)
        assert cost == 2 == oracle_subset(inst)
        cut = extract_cut(inst, model, tables)
        assert len(cut) == 2 and verify_cut(inst, cut).ok

    def test_invalid_model_rejected(self):
        inst, model = unit_instance([0, Fraction(1, 2), 1], s=0, t=2)
        bad = IntervalModel.unit([0, 5, 10])
        with pytest.raises(ModelError):
            dp_solve(inst, bad)

    def test_lambda_one_with_direct_edge(self):
        inst, model = unit_instance([0, Fraction(1, 2), 1], s=0, t=1, lam=1)
        cost, tables = dp_solve(inst, model)
        assert cost == 1
        cut = extract_cut(inst, model, tables)
        assert cut == frozenset([(0, 1)])

    def test_lambda_zero(self):
        inst, model = unit_instance([0, Fraction(1, 2)], s=0, t=1, lam=0)
        assert dp_solve(inst, model)[0] == 0

    @pytest.mark.parametrize(
        "starts, ends",
        [
            ([0, 0, 2, 4, 6], [0, 0, 3, 5, 7]),
            ([0, 0, 0, 2, 4], [0, 0, 0, 3, 5]),
        ],
    )
    def test_zero_length_twins(self, starts, ends):
        # tied point intervals [0,0] must stay adjacent through the tie split
        model = IntervalModel(
            tuple(Fraction(x) for x in starts), tuple(Fraction(x) for x in ends)
        )
        inst = Instance(model.induced_graph(), 0, 1, 1, 2)
        cost, cut, _ = solve(inst, model)
        assert cost == oracle_branch(inst) == len(cut)
        assert verify_cut(inst, cut).ok

    @pytest.mark.parametrize("lam, branch, cost", [(1, "no-short-path", 0), (4, "all-paths", 2)])
    def test_decision_at_beta_equal_to_cost(self, lam, branch, cost):
        """cost <= beta is a yes at equality too, on both fast paths: lam = 1
        is below dist(s, t) = 2, and lam = 4 >= n - 1 asks for the min cut."""
        starts = [0, Fraction(1, 2), 1, Fraction(3, 2)]
        tables = dp_solve(*unit_instance(starts, s=0, t=3, beta=cost, lam=lam))[1]
        assert (tables.branch, tables.cost, tables.decision) == (branch, cost, True)
        if cost:
            below = dp_solve(*unit_instance(starts, s=0, t=3, beta=cost - 1, lam=lam))[1]
            assert below.decision is False

    def test_lambda_covers_all_paths(self):
        inst, model = unit_instance(
            [0, Fraction(1, 2), 1, Fraction(3, 2)], s=0, t=3, lam=4
        )
        cost, tables = dp_solve(inst, model)
        assert cost == tables.flow_bound == oracle_subset(inst)


class TestDpAgainstOracle:
    def test_small_fuzz(self):
        checked = 0
        for seed in range(250):
            inst, model = random_proper_interval_instance(
                10, density=0.55, beta_range=(1, 8), lambda_range=(1, 5), seed=seed
            )
            if inst.graph.m > 14:
                continue
            cost, tables = dp_solve(inst, model)
            expected = oracle_subset(inst)
            assert cost == expected, f"seed={seed}: dp={cost} oracle={expected}"
            cut = extract_cut(inst, model, tables)
            assert len(cut) == cost and verify_cut(inst, cut).ok
            assert tables.decision == (cost <= inst.beta)
            checked += 1
        assert checked >= 120

    def test_denser_fuzz(self):
        checked = 0
        for seed in range(1000, 1100):
            inst, model = random_proper_interval_instance(
                8, density=0.9, beta_range=(1, 8), lambda_range=(2, 6), seed=seed
            )
            if inst.graph.m > 15:
                continue
            cost, tables = dp_solve(inst, model)
            assert cost == oracle_subset(inst), f"seed={seed}"
            extract_cut(inst, model, tables)
            checked += 1
        assert checked >= 20

    def test_branch_oracle_beyond_n40(self):
        # the benchmark's xval recipe at n=60: about 4 starts per unit
        # length, terminals at the 25%/75% ranks, lam = dist(s, t) + 1
        for seed in range(20):
            rng, pos, starts = Random(seed), 0, []
            for _ in range(60):
                starts.append(Fraction(pos, 16))
                pos += rng.randint(3, 5)
            model = IntervalModel.unit(starts)
            g = model.induced_graph()
            dist = bfs_distances(g, 15)[44]
            inst = Instance(g, 15, 44, g.m, int(dist) + 1)
            cost, cut, _ = solve(inst, model)
            assert len(cut) == cost and verify_cut(inst, cut).ok
            assert oracle_branch(inst) == cost, f"seed={seed}"


def dp_pool(name, seed):
    """The benchmark's DP pools: unit intervals with s and t at the 10% and
    90% start ranks, lam = dist(s, t) + 1 and beta = m."""
    instances = []
    for i in range(6 if name == "dp-dense-ties" else 3):
        rng = Random(f"{name}:{seed}:{i}")
        if name == "dp-dense-ties":  # ~20 starts per unit length, ~60% tied
            starts = [Fraction(rng.randint(0, 80), 8) for _ in range(200)]
        else:  # gaps of 1..4 eighths, all starts distinct
            pos, starts = 0, []
            for _ in range(600):
                starts.append(Fraction(pos, 8))
                pos += rng.randint(1, 4)
        model = IntervalModel.unit(starts)
        g = model.induced_graph()
        order = sorted(range(model.n), key=lambda v: (model.starts[v], v))
        s, t = order[round(0.1 * (model.n - 1))], order[round(0.9 * (model.n - 1))]
        dist = bfs_distances(g, s)[t]
        instances.append((Instance(g, s, t, g.m, int(dist) + 1), model))
    return instances


def xval_pool(seed):
    """The benchmark's xval pool: per item an n=30 and an n=8 unit-interval
    instance, starts 3..5 grid steps apart (1/16 and 1/8), lam = dist + 1."""
    for item in range(256):
        rng = Random(f"xval:{seed}:{item}")
        for n, grid, lo, hi in ((30, 16, 0.25, 0.75), (8, 8, 0.0, 1.0)):
            pos, starts = 0, []
            for _ in range(n):
                starts.append(Fraction(pos, grid))
                pos += rng.randint(3, 5)
            model = IntervalModel.unit(starts)
            g = model.induced_graph()
            order = sorted(range(n), key=lambda v: (model.starts[v], v))
            s, t = order[round(lo * (n - 1))], order[round(hi * (n - 1))]
            yield Instance(g, s, t, g.m, int(bfs_distances(g, s)[t]) + 1), model


def check_flow_bound(inst, model):
    """dp_solve's cost and branch against a full min_st_cut; returns the branch."""
    cost, tables = dp_solve(inst, model)
    flow, mincut = min_st_cut(inst.graph, inst.s, inst.t)
    cut = extract_cut(inst, model, tables)
    assert len(cut) == cost and verify_cut(inst, cut).ok
    if tables.table_cost is None:  # answered before any fill
        assert tables.branch in ("no-short-path", "all-paths")
        if tables.branch == "no-short-path":  # no flow was run
            assert (tables.flow_bound, tables.mincut_edges) == (0, None)
        else:
            assert (tables.flow_bound, tables.mincut_edges) == (flow, mincut)
        return tables.branch
    assert cost == min(tables.table_cost, flow)
    assert tables.branch == ("table" if tables.table_cost < flow else "min-cut")
    if tables.branch == "table":
        assert tables.flow_bound > tables.table_cost and tables.mincut_edges is None
    else:
        assert (tables.flow_bound, tables.mincut_edges) == (flow, mincut)
    return tables.branch


@pytest.mark.parametrize(
    "starts, branch, flow_bound, mincut_edges",
    [
        ([0, Fraction(1, 2), 1], "table", 2, None),  # a second path via 2
        ([0, Fraction(1, 2), 3], "min-cut", 1, frozenset([(0, 1)])),  # {s,t} only
    ],
)
def test_bounded_flow_at_lambda_one(starts, branch, flow_bound, mincut_edges):
    """dist = lam = 1: the edge {s,t} is the table's answer, and the flow
    decides the branch as it does after a fill."""
    inst, model = unit_instance(starts, s=0, t=1, lam=1)
    assert check_flow_bound(inst, model) == branch
    tables = dp_solve(inst, model)[1]
    assert (tables.cost, tables.table_cost, tables.norm) == (1, 1, None)
    assert (tables.flow_bound, tables.mincut_edges) == (flow_bound, mincut_edges)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", ["dp-dense-ties", "dp-long"])
def test_bounded_flow_on_dp_pools(name, seed):
    for inst, model in dp_pool(name, seed):
        assert check_flow_bound(inst, model) == "table"


def test_bounded_flow_fuzz():
    branches = Counter()
    for seed in range(1000):
        n = 9 + seed % 52
        inst, model = random_proper_interval_instance(n, density=1, seed=seed)
        g, s, t = inst.graph, inst.s, inst.t
        dist = bfs_distances(g, s)[t]
        if dist == float("inf"):
            continue
        # lam from dist(s, t) - 1 (no short path) to dist + 3, or n - 1
        lam = n - 1 if seed % 7 == 0 else min(n, max(0, int(dist) + seed % 5 - 1))
        inst = Instance(g, s, t, inst.beta, lam)
        branches[check_flow_bound(inst, model)] += 1
    assert branches["table"] >= 20 and branches["min-cut"] >= 20
    assert branches["no-short-path"] and branches["all-paths"]


def rectangle_cut(inst, tables):
    """Reference for the table branch's cut: the S walk from (best_rank,
    lam) re-collects the edge rectangles the recurrence charged, cell by
    cell, with the s-edges, the t-edges and {s,t} added apart."""
    if tables.norm is None:  # lam = 1 with an {s,t} edge
        return frozenset([edge(inst.s, inst.t)])
    norm = tables.norm
    g, s, t, order = norm.graph, norm.s, norm.t, norm.order
    pos = {v: r for r, v in enumerate(order)}  # interior ranks; -1 for the rest
    cut = {edge(s, t)} if tables.st_edge else set()
    best = tables.best_rank
    if best is None:  # no interior vertices survived trimming
        return frozenset(cut)
    cut.update(edge(t, w) for w in g.adj[t] if w != s and pos[w] < best)
    S, delta, z = tables.S, tables.delta.tolist(), tables.crossing.z
    i, d = best, inst.lam
    while d > delta[i]:  # the zero region cuts nothing
        if i == 0 or d == 2:
            # initialization cuts: s-edges to ranks >= i (all of them at rank 0)
            cut.update(edge(s, w) for w in g.adj[s] if w != t and pos[w] >= i)
            break
        j = int(S[i, d - delta[i] - 1])
        h = int(S[j, d - delta[j] - 2] if d - 1 > delta[j] else z[j])
        for vl in order[h:j]:
            cut.update(edge(vl, w) for w in g.adj[vl]
                       if w != s and w != t and pos.get(w, -1) >= i)
        i, d = j, d - 1
    return frozenset(cut)


def twin_proper_models(count):
    """(inst, model): seeded proper models with lengths 0..10 on an integer
    grid, about every third interval a twin of the one before, in shuffled
    ids, with terminals at finite distance and lam = dist .. dist + 4."""
    for seed in range(count):
        rng = Random(f"twins:{seed}")
        n = rng.randint(4, 50)
        pos = end = 0
        spans = []
        for k in range(n):
            if k == 0 or rng.random() >= 0.3:  # else a twin of the last interval
                pos += rng.randint(1, 3)
                end = max(end + 1, pos + rng.randint(0, 10))
            spans.append((Fraction(pos), Fraction(end)))
        rng.shuffle(spans)
        model = IntervalModel(*map(tuple, zip(*spans)))
        g = model.induced_graph()
        s, t = rng.sample(range(n), 2)
        dist = bfs_distances(g, s)[t]
        if dist != float("inf"):
            yield Instance(g, s, t, g.m, int(dist) + rng.randint(0, 4)), model


def test_labelling_cut_matches_rectangle_walk():
    """extract_cut reads the table branch's cut off its labelling; it is the
    same set as the rectangle walk's, on the benchmark pools (xval parsed
    from its files) and on non-unit models with twins."""
    xval = (parse_instance(serialize_instance(*case)) for case in xval_pool(0))
    sources = {
        "dp pools": [case for seed in range(3) for name in ("dp-dense-ties", "dp-long")
                     for case in dp_pool(name, seed)],
        "xval": ((parsed.instance, parsed.model) for parsed in xval),
        "twins": twin_proper_models(1500),
    }
    hits = Counter()
    for source, cases in sources.items():
        for inst, model in cases:
            tables = dp_solve(inst, model)[1]
            if tables.branch == "table":
                assert extract_cut(inst, model, tables) == rectangle_cut(inst, tables)
                hits[source] += 1
    assert hits["dp pools"] == 27 and hits["xval"] >= 200 and hits["twins"] >= 300, hits


def dense_fill(T, S, prefix, lam, delta=None, c=None):
    """Reference for the d >= 3 columns of the table: the full q x q
    reduction over q x (lam+1) tables, given column 2 and row 0.  With
    delta and c given it is the masked full fill: after each column the
    cells with d - delta(i) > c are set to BIG."""
    T, S = T.copy(), S.copy()
    q = T.shape[0]
    rows = np.arange(q)
    mask_lower = rows[:, None] > rows[None, :]  # j > i is forbidden
    for d in range(3, lam + 1):
        # M[j, i] = T[j, d-1] + C[S[j, d-1], j, i]
        M = T[:, d - 1][:, None] + prefix[:q] - prefix[S[:, d - 1], :]
        M[mask_lower] = BIG
        T[1:, d] = M[:, 1:].min(axis=0)
        S[1:, d] = M[:, 1:].argmin(axis=0)
        if delta is not None:
            T[d - delta > c, d] = BIG
    return T, S


def full_tables(norm, lam):
    """q x (lam+1) tables holding column 2 and row 0, the fill's start."""
    q = len(norm.order)
    g, s, t = norm.graph, norm.s, norm.t
    deg_s = g.degree(s) - g.has_edge(s, t)
    T = np.full((q, lam + 1), BIG, dtype=np.int64)
    S = np.zeros((q, lam + 1), dtype=np.int64)
    T[:, 2] = np.maximum(deg_s - np.arange(q), 0)
    if q:
        T[0, 3:] = deg_s
    return T, S


def table_cost(norm, column):
    """table_cost as dp_solve reads it from T's column lam."""
    g, s, t = norm.graph, norm.s, norm.t
    st_edge = g.has_edge(s, t)
    q = len(column)
    deg_t = g.degree(t) - st_edge
    return st_edge + int((column + np.maximum(0, np.arange(q) - (q - deg_t))).min())


def fill_cases():
    """(label, model, s, t): seeded unit intervals, often with tied starts,
    point twins holding the terminals, and a model without interior edges."""
    for seed in range(120):
        rng = Random(seed)
        n = rng.randint(5, 40)
        grid = rng.choice([1, 2, 4, 1000])  # coarse grids tie many starts
        span = max(1, n // rng.randint(1, 6))
        model = IntervalModel.unit(
            [Fraction(rng.randrange(span * grid + 1), grid) for _ in range(n)]
        )
        s, t = rng.sample(range(n), 2)
        yield "unit", model, s, t
    for k in (3, 4, 6):
        # k point twins at 0 (s and t among them), unit intervals to the right
        starts = [Fraction(0)] * k + [Fraction(x) for x in (2, 5, 6)]
        ends = [Fraction(0)] * k + [Fraction(x) for x in (3, 6, 7)]
        yield "twins", IntervalModel(tuple(starts), tuple(ends)), 0, 1
    # s-x2-t is the only short route; x1 and x3 meet only s and t
    model = IntervalModel.unit([0, 2, Fraction(-1, 2), 1, Fraction(5, 2)])
    yield "no-interior-edge", model, 0, 1


def test_banded_fill_matches_dense_reference():
    """The window fill against the masked full fill, and the masked fill
    against the full one, over lam = dist .. dist+6 (c = 1 .. 7)."""
    seen = set()
    tight = 0
    for label, model, s, t in fill_cases():
        g = model.induced_graph()
        dist = bfs_distances(g, s)[t]
        if dist == float("inf"):
            continue
        dist = int(dist)
        for lam in range(max(2, dist), dist + 7):
            norm = normalize(Instance(g, s, t, 1, lam), model)
            crossing = compute_crossing_counts(norm)
            c = lam + 1 - dist
            T, S, delta, last = _fill_tables(norm, crossing, lam, c)
            q = len(norm.order)
            assert T.shape == S.shape == (q, c)
            # delta is dist(s, .) in the trimmed G - t, capped at lam
            h, order, kept = norm.graph, norm.order, set(norm.ranked)
            near = bfs_distances(h, norm.s, frozenset(
                (u, w) for u, w in h.edge_list()
                if norm.t in (u, w) or u not in kept or w not in kept))
            assert delta.tolist() == [min(near[v], lam) for v in order]
            # the dense (q+1) x q matrix of P[x, i]; dense_fill reads x <= i only
            dense = np.array(
                [[crossing.count(0, x, i) if x <= i else 0 for i in range(q)]
                 for x in range(q + 1)],
                dtype=np.int64,
            ).reshape(q + 1, q)
            T0, S0 = full_tables(norm, lam)
            T_full, _ = dense_fill(T0, S0, dense, lam)
            T_ref, S_ref = dense_fill(T0, S0, dense, lam, delta, c)
            assert np.array_equal(last, T_ref[:, lam]), f"{label} lam={lam}: column lam"
            for i in range(q):
                di = int(delta[i])
                # the zero region: no deletion keeps ranks >= i that far out
                assert not T_full[i, 2:di + 1].any(), f"{label} lam={lam}: zero region"
                assert T_full[i, di + 1:].all(), f"{label} lam={lam}: zero region"
                for d in range(max(di + 1, 2), min(di + c, lam) + 1):
                    cell = i, d - di - 1
                    assert T[cell] == T_ref[i, d] == T_full[i, d], f"{label} lam={lam}: T[{i},{d}]"
                    assert S[cell] == S_ref[i, d], f"{label} lam={lam}: S[{i},{d}]"
                    j = S[cell]
                    if d >= 3 and d - 1 <= delta[j]:
                        seen.add("zero-region predecessor")
            # from the first unmasked rank on, a column does not grow with
            # the rank, which the fill's free rows rely on
            for d in range(2, lam + 1):
                col = T_ref[:, d][T_ref[:, d] < BIG]
                assert (np.diff(col) <= 0).all(), f"{label} lam={lam}: column {d}"
            if q and c >= 2:
                narrow, _ = dense_fill(T0, S0, dense, lam, delta, c - 1)
                tight += table_cost(norm, narrow[:, lam]) != table_cost(norm, T_ref[:, lam])
            if label == "unit" and len(set(model.starts)) < model.n and q > 1:
                seen.add("tied starts")
            if label == "no-interior-edge" and q and not crossing.prefix.any() and lam >= 3:
                seen.add("empty band")
            if c > 2 and q:
                seen.add("c > 2")
            seen.add(label)
    assert seen == {"unit", "tied starts", "twins", "no-interior-edge", "empty band",
                    "c > 2", "zero-region predecessor"}
    assert tight > 0, "masking at c - 1 never changed table_cost"


def test_window_solve_against_oracles():
    """2,000 random proper models, lam = dist + 0..8: solve's cost equals
    whichever oracle answers, and its cut verifies."""
    answered, table, wide = 0, 0, 0
    budget = OracleBudget(max_branch_nodes=5_000)
    seed = 0
    for _ in range(2000):
        while True:
            rng = Random(f"window:{seed}")
            seed += 1
            n = rng.randint(4, 12)
            grid = rng.choice([1, 2, 4, 1000])
            span = max(1, n // rng.randint(1, 4))
            model = IntervalModel.unit(
                [Fraction(rng.randrange(span * grid + 1), grid) for _ in range(n)]
            )
            g = model.induced_graph()
            s, t = rng.sample(range(n), 2)
            dist = bfs_distances(g, s)[t]
            if dist != float("inf"):
                break
        inst = Instance(g, s, t, g.m, int(dist) + rng.randint(0, 8))
        cost, cut, tables = solve(inst, model)
        assert len(cut) == cost and verify_cut(inst, cut).ok
        oracle = oracle_subset if g.m <= 16 else oracle_branch
        try:
            expected = oracle(inst, budget)
        except BudgetExceeded:
            continue
        assert cost == expected, f"seed={seed - 1}: dp={cost} {oracle.__name__}={expected}"
        answered += 1
        table += tables.branch == "table"
        wide += tables.norm is not None and inst.lam - dist >= 2  # a fill with c > 2
    assert answered >= 1900 and table >= 150 and wide >= 500, (answered, table, wide)


class TestTrimEquivalence:
    def test_optimum_preserved(self):
        found = 0
        for seed in range(400):
            inst, model = random_proper_interval_instance(
                8, density=0.35, beta_range=(1, 6), lambda_range=(2, 5), seed=seed
            )
            if inst.graph.m > 14:
                continue
            s, e = model.starts, model.ends
            outside = [
                v
                for v in range(model.n)
                if e[v] < s[inst.s] or s[v] > e[inst.t]
            ]
            if not outside:
                continue
            full = oracle_subset(inst)
            norm = normalize(inst, model)
            trim = trimmed(norm)[0]
            trimmed_inst = Instance(trim.graph, trim.s, trim.t, inst.beta, inst.lam)
            if trimmed_inst.graph.m <= 14:
                assert oracle_subset(trimmed_inst) == full, f"seed={seed}"
                found += 1
        assert found >= 40

    def test_table_cut_matches_the_relabeled_trimmed_instance(self):
        """A table answer in the instance's own ids is the table answer of
        the trimmed subgraph as an instance of its own, mapped back."""
        compared = 0
        cases = [random_proper_interval_instance(9 + seed % 32, density=1, seed=seed)
                 for seed in range(1000)]
        for inst, model in [*cases, *proper_instances(1500)]:  # the latter with ties
            dist = bfs_distances(inst.graph, inst.s)[inst.t]
            if dist == float("inf"):
                continue
            for lam in range(max(2, int(dist)), int(dist) + 3):
                inst = Instance(inst.graph, inst.s, inst.t, inst.beta, lam)
                cost, cut, tables = solve(inst, model)
                if tables.branch != "table" or len(tables.norm.ranked) == model.n:
                    continue
                trim, kept = trimmed(tables.norm)
                small = Instance(trim.graph, trim.s, trim.t, inst.beta, lam)
                small_cost, small_cut, small_tables = solve(small, kept_model(model, kept))
                assert small_cost == cost
                if small_tables.branch == "table":
                    assert small_tables.best_rank == tables.best_rank
                    assert np.array_equal(small_tables.T, tables.T)
                    assert {tuple(sorted((kept[u], kept[w]))) for u, w in small_cut} == cut
                    compared += 1
        assert compared >= 100, compared


class TestSolveWrapper:
    def test_returns_verified_cut(self):
        inst, model = random_proper_interval_instance(12, density=0.6, seed=5)
        cost, cut, tables = solve(inst, model)
        assert len(cut) == cost and verify_cut(inst, cut).ok
