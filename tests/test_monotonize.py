import math
from random import Random

import pytest

from lbcut.dp import monotonize_cut, _monotone_distances
from lbcut.errors import InputError
from lbcut.graph import bfs_distances, edge
from lbcut.intervals import normalize
from lbcut.oracles import random_proper_interval_instance
from test_intervals import proper_instances, twins


def normalized(seed, n=9, density=0.6):
    inst, model = random_proper_interval_instance(n, density=density, seed=seed)
    return normalize(inst, model)


def distance_monotone(norm, cut):
    d = bfs_distances(norm.graph.without_edges(cut), norm.s)
    vals = [d[v] for v in norm.order]
    return all(a <= b for a, b in zip(vals, vals[1:]))


def random_cut_repaired(norm, rng):
    """Repair a random cut at its own distance and check the postconditions."""
    g, s, t = norm.graph, norm.s, norm.t
    f = frozenset(e for e in g.edge_list() if rng.random() < 0.35)
    dist = bfs_distances(g.without_edges(f), s)[t]
    d = g.n + 2 if dist == math.inf else int(dist)
    out = monotonize_cut(norm, f, d)
    assert len(out) <= len(f)
    new_dist = bfs_distances(g.without_edges(out), s)[t]
    assert new_dist >= d
    assert distance_monotone(norm, out)


class TestMonotonize:
    def test_empty_cut_stays_empty(self):
        norm = normalized(2)
        d = bfs_distances(norm.graph, norm.s)[norm.t]
        d = 3 if d == math.inf else int(d)
        assert monotonize_cut(norm, frozenset(), d) == frozenset()

    def test_already_monotone_unchanged(self):
        norm = normalized(4)
        out = monotonize_cut(norm, frozenset(), 1)
        assert out == frozenset()

    def test_not_a_cut_rejected(self):
        for seed in range(30):
            norm = normalized(seed)
            dist = bfs_distances(norm.graph, norm.s)[norm.t]
            if dist != math.inf:
                break
        else:
            pytest.fail("no connected sample found")
        with pytest.raises(InputError):
            monotonize_cut(norm, frozenset(), int(dist) + 1)

    def test_random_cuts_get_repaired(self):
        repaired = 0
        for seed in range(300):
            random_cut_repaired(normalized(seed, n=9, density=0.7), Random(seed))
            repaired += 1
        assert repaired == 300
        # tied starts, swapped terminals, trimmed vertices and twin terminals
        seen = set()
        for i, (inst, model) in enumerate(proper_instances(1500)):
            norm = normalize(inst, model)
            random_cut_repaired(norm, Random(i))
            if len(set(model.starts)) < model.n:
                seen.add("tied starts")
            if norm.kept[norm.s] != inst.s:
                seen.add("swapped terminals")
            if len(norm.kept) < model.n:
                seen.add("trimmed")
            if twins(model, inst.s, inst.t):
                seen.add("twin terminals")
        assert seen == {"tied starts", "swapped terminals", "trimmed", "twin terminals"}

    def test_monotone_distance_definition(self):
        # D(v) only uses strictly increasing interior ranks; first step free
        norm = normalized(8)
        g, s, t = norm.graph, norm.s, norm.t
        dvec = _monotone_distances(g, s, t, frozenset(), norm.order)
        real = bfs_distances(g, s)
        for v in norm.order:
            assert dvec[v] >= real[v]
