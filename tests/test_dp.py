from fractions import Fraction

import pytest

from lbcut.dp import compute_crossing_counts, dp_solve, extract_cut, solve
from lbcut.errors import ModelError
from lbcut.graph import Graph, Instance, verify_cut
from lbcut.intervals import IntervalModel, normalize
from lbcut.oracles import oracle_branch, oracle_subset, random_proper_interval_instance


def unit_instance(starts, s, t, beta=3, lam=3):
    model = IntervalModel.unit(starts)
    return Instance(model.induced_graph(), s, t, beta, lam), model


class TestCrossingCounts:
    def naive(self, norm, h, j, i):
        count = 0
        pos = norm.pos
        for u, v in norm.inst.graph.edges:
            ru, rv = pos[u], pos[v]
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
        for seed in range(12):
            inst, model = random_proper_interval_instance(9, density=0.6, seed=seed)
            norm = normalize(inst, model)
            cc = compute_crossing_counts(norm)
            q = len(norm.order)
            for h in range(q):
                for j in range(h, q):
                    for i in range(j, q):
                        assert cc.count(h, j, i) == self.naive(norm, h, j, i)


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

    def test_lambda_covers_all_paths(self):
        inst, model = unit_instance(
            [0, Fraction(1, 2), 1, Fraction(3, 2)], s=0, t=3, lam=4
        )
        cost, tables = dp_solve(inst, model)
        assert cost == tables.mincut_size == oracle_subset(inst)


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
            trimmed_inst = norm.inst
            if trimmed_inst.graph.m <= 14:
                assert oracle_subset(trimmed_inst) == full, f"seed={seed}"
                found += 1
        assert found >= 40


class TestSolveWrapper:
    def test_returns_verified_cut(self):
        inst, model = random_proper_interval_instance(12, density=0.6, seed=5)
        cost, cut, tables = solve(inst, model)
        assert len(cut) == cost and verify_cut(inst, cut).ok
