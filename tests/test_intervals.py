import itertools
import re
from fractions import Fraction
from random import Random

import pytest

from lbcut.errors import ModelError
from lbcut.graph import Graph, Instance
from lbcut.intervals import (
    IntervalModel,
    canonicalize,
    mirror_if_needed,
    normalize,
    trim,
    validate_model,
)
from lbcut.oracles import random_proper_interval_instance


def unit_instance(starts, s, t, beta=3, lam=3):
    model = IntervalModel.unit(starts)
    return Instance(model.induced_graph(), s, t, beta, lam), model


class TestValidation:
    def test_adjacency_mismatch_rejected(self):
        model = IntervalModel.unit([0, Fraction(1, 2)])
        with pytest.raises(ModelError):
            validate_model(Graph(2), model)  # intervals overlap, graph has no edge

    def test_strict_containment_rejected(self):
        model = IntervalModel(
            (Fraction(0), Fraction(1)), (Fraction(3), Fraction(2))
        )
        with pytest.raises(ModelError):
            validate_model(model.induced_graph(), model)

    def test_equal_intervals_are_fine(self):
        model = IntervalModel.unit([0, 0, 2])
        validate_model(model.induced_graph(), model)

    @pytest.mark.parametrize(
        "starts, ends, outer, inner",
        [
            ((0, 1), (3, 2), 0, 1),  # later start, earlier end
            ((1, 0), (2, 3), 1, 0),
            ((0, 0), (1, 2), 1, 0),  # same start, longer interval
            ((0, 0), (2, 1), 0, 1),
            ((0, 1), (2, 2), 0, 1),  # same end, later start
        ],
    )
    def test_containment_names_the_containing_vertex(self, starts, ends, outer, inner):
        model = IntervalModel(
            tuple(Fraction(a) for a in starts), tuple(Fraction(b) for b in ends)
        )
        expected = (
            f"interval of {outer} [{starts[outer]},{ends[outer]}] strictly contains "
            f"interval of {inner} [{starts[inner]},{ends[inner]}]"
        )
        with pytest.raises(ModelError, match=re.escape(expected)):
            validate_model(model.induced_graph(), model)


def brute_pairs(model):
    """O(n^2) reference for IntervalModel.intersecting_pairs."""
    return {
        (u, v)
        for u, v in itertools.combinations(range(model.n), 2)
        if model.intersects(u, v)
    }


def strictly_contains(model, u, v):
    s, e = model.starts, model.ends
    return s[u] <= s[v] and e[v] <= e[u] and (s[u], e[u]) != (s[v], e[v])


def brute_fault(g, model):
    """O(n^2) reference for validate_model.

    Returns ("contains",) for a strict containment, else the smallest pair
    whose adjacency disagrees with the model, else None.
    """
    if any(
        strictly_contains(model, u, v)
        for u, v in itertools.permutations(range(model.n), 2)
    ):
        return ("contains",)
    mismatch = sorted(brute_pairs(model) ^ g.edges)
    return mismatch[0] if mismatch else None


def random_model(rng):
    """Small integer coordinates, so tied starts and touching ends are common;
    mixed lengths give strict containment, same-start/different-end included."""
    n = rng.randint(1, 9)
    starts = [rng.randint(0, 6) for _ in range(n)]
    if rng.random() < 0.5:
        lengths = [rng.randint(0, 2)] * n  # equal lengths: always proper
    else:
        lengths = [rng.randint(0, 3) for _ in range(n)]
    return IntervalModel(
        tuple(Fraction(a) for a in starts),
        tuple(Fraction(a + b) for a, b in zip(starts, lengths)),
    )


class TestSweepAgainstBruteForce:
    def test_intersecting_pairs_and_validation(self):
        seen = set()
        for seed in range(800):
            rng = Random(seed)
            model = random_model(rng)
            pairs = brute_pairs(model)
            swept = model.intersecting_pairs()
            assert sorted(swept) == sorted(pairs)  # no duplicates either
            assert model.induced_graph() == Graph(model.n, pairs)

            edges = set(pairs)
            non_edges = set(itertools.combinations(range(model.n), 2)) - edges
            change = rng.choice(["none", "add", "remove"])
            if change == "add" and non_edges:
                edges.add(rng.choice(sorted(non_edges)))
                seen.add("edge added")
            elif change == "remove" and edges:
                edges.remove(rng.choice(sorted(edges)))
                seen.add("edge removed")
            g = Graph(model.n, edges)

            s, e = model.starts, model.ends
            ordered_pairs = list(itertools.permutations(range(model.n), 2))
            if len(set(s)) < model.n:
                seen.add("tied starts")
            if any(s[u] == e[v] for u, v in ordered_pairs):
                seen.add("touching endpoints")
            if any(s[u] == s[v] and e[u] != e[v] for u, v in ordered_pairs):
                seen.add("same start, different end")

            fault = brute_fault(g, model)
            if fault is None:
                validate_model(g, model)
                continue
            with pytest.raises(ModelError) as info:
                validate_model(g, model)
            message = str(info.value)
            if fault == ("contains",):
                seen.add("strict containment")
                named = re.match(r"interval of (\d+) .* interval of (\d+) ", message)
                outer, inner = map(int, named.groups())
                assert strictly_contains(model, outer, inner), message
            else:
                assert message.startswith(f"adjacency mismatch at {fault}"), message
        assert seen == {
            "tied starts",
            "touching endpoints",
            "edge added",
            "edge removed",
            "strict containment",
            "same start, different end",
        }


class TestMirror:
    def test_identity_when_ordered(self):
        inst, model = unit_instance([0, 1, 2], s=0, t=2)
        _, out = mirror_if_needed(inst, model)
        assert out == model

    def test_definition(self):
        inst, model = unit_instance([5, 0, 2.5], s=0, t=1)
        _, out = mirror_if_needed(inst, model)
        assert out.starts[0] == -6 and out.ends[0] == -5
        assert out.starts[1] == -1 and out.ends[1] == 0

    def test_edge_set_preserved(self):
        for seed in range(20):
            inst, model = random_proper_interval_instance(9, seed=seed)
            flipped = Instance(inst.graph, inst.t, inst.s, inst.beta, inst.lam)
            _, out = mirror_if_needed(flipped, model)
            assert out.induced_graph() == inst.graph


class TestCanonicalize:
    def test_distinct_starts_keep_coordinates(self):
        inst, model = unit_instance([0, 1, 2], s=0, t=2)
        _, out, order = canonicalize(inst, model)
        assert out == model and order == (1,)

    def test_identical_intervals_keep_neighborhoods(self):
        inst, model = unit_instance([0, 0, Fraction(1, 2)], s=0, t=2)
        _, out, _ = canonicalize(inst, model)
        assert len(set(out.starts)) == 3
        assert out.induced_graph() == inst.graph

    def test_touching_pairs_survive_tie_split(self):
        # two twins at 0, touched from below at -1 and above at +1
        inst, model = unit_instance([-1, 0, 0, 1], s=0, t=3)
        _, out, _ = canonicalize(inst, model)
        assert len(set(out.starts)) == 4
        assert out.induced_graph() == inst.graph

    def test_random_models_sorted_strictly(self):
        for seed in range(20):
            inst, model = random_proper_interval_instance(10, seed=seed)
            _, out, order = canonicalize(inst, model)
            starts = [out.starts[v] for v in order]
            assert all(a < b for a, b in zip(starts, starts[1:]))


class TestTrim:
    def test_identity_without_outliers(self):
        inst, model = unit_instance([0, Fraction(1, 2), 1], s=0, t=2)
        inst2, model2, kept = trim(inst, model)
        assert inst2.graph == inst.graph and kept == (0, 1, 2)

    def test_left_outlier_removed(self):
        inst, model = unit_instance([-3, 0, Fraction(1, 2)], s=1, t=2)
        inst2, _, kept = trim(inst, model)
        assert kept == (1, 2) and inst2.graph.n == 2

    def test_terminals_never_trimmed(self):
        for seed in range(30):
            inst, model = random_proper_interval_instance(8, seed=seed)
            inst2, model2, kept = trim(*mirror_if_needed(inst, model))
            assert inst.s in kept and inst.t in kept
            validate_model(inst2.graph, model2)


class TestNormalize:
    def test_rank_tables_consistent(self):
        for seed in range(20):
            inst, model = random_proper_interval_instance(10, seed=seed)
            norm = normalize(inst, model)
            for r, v in enumerate(norm.order):
                assert norm.pos[v] == r
            assert norm.pos[norm.inst.s] == -1 and norm.pos[norm.inst.t] == -1
            starts = [norm.model.starts[v] for v in norm.order]
            assert starts == sorted(starts)
            # nothing outside the s..t span remains
            se = norm.model
            for v in range(se.n):
                assert se.ends[v] >= se.starts[norm.inst.s]
                assert se.starts[v] <= se.ends[norm.inst.t]


class TestTieSplitContract:
    def test_random_proper_models(self):
        """canonicalize on seeded proper models: distinct starts, the same
        graph, a valid model, and twins ranked by (start, -id)."""
        seen = set()
        for seed in range(1500):
            rng = Random(seed)
            model = random_model(rng)
            g = model.induced_graph()
            if model.n < 2 or brute_fault(g, model) is not None:
                continue
            s, t = rng.sample(range(model.n), 2)
            inst, model = mirror_if_needed(Instance(g, s, t, 1, 2), model)
            starts, ends = model.starts, model.ends
            pairs = list(itertools.permutations(range(model.n), 2))
            if len(set(starts)) < model.n:
                seen.add("tied starts")
            if any(starts[u] == ends[v] for u, v in pairs):
                seen.add("touching ends")
            if any(starts[u] == starts[v] == ends[u] for u, v in pairs):
                seen.add("point twins")

            _, out, order = canonicalize(inst, model)
            assert len(set(out.starts)) == out.n
            assert out.induced_graph() == g
            validate_model(g, out)
            interior = [v for v in range(model.n) if v not in (s, t)]
            assert order == tuple(sorted(interior, key=lambda v: (starts[v], -v)))
        assert seen == {"tied starts", "touching ends", "point twins"}
