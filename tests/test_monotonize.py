"""The monotone-solution lemma, executable: some optimal cut leaves the
distances from s non-decreasing along the umbrella order.  `monotonize_cut`
repairs any d-cut of a trimmed instance into such a cut, never larger; the
solver's table relies on the lemma and does not call it."""

import math
from random import Random

import pytest

from lbcut.errors import InputError, InternalCheckError
from lbcut.graph import _cut_edges, bfs_distances, edge
from lbcut.intervals import normalize
from lbcut.oracles import random_proper_interval_instance
from test_intervals import proper_instances, trimmed, twins, unit_instance


def monotonize_cut(norm, f, d: int) -> frozenset:
    """Repair a d-cut so distances from s are monotone in the rank order.

    Requires a `normalize` output moved onto its trimmed graph (`trimmed`)
    and a cut `f` of that graph with dist(norm.s, norm.t) >= d in G-F.
    Returns F' with |F'| <= |F|, dist >= d, and dist(s, v_i) <= dist(s, v_j)
    for interior ranks i < j (norm.order).

    Implementation follows the exchange argument: while some consecutive
    pair v_j, v_{j+1} has a monotone-path distance inversion, swap cut
    edges between the two vertices (sets X and Y below); each swap never
    grows the cut and never shortens the monotone distance of t.

    The exchange loop alone controls distances in G - {t}; paths routed
    through t could still undercut later vertices.  A final normalization
    re-points the cut's t-edges at the lowest-rank neighbors of t, which
    provably removes such shortcuts: t's neighborhood is a rank suffix, so
    any vertex beyond the first kept t-neighbor keeps its own t-edge and
    sits within dist(t)+1 of s.
    """
    g, s, t = norm.graph, norm.s, norm.t
    f = _cut_edges(g, f)
    if bfs_distances(g, s, f)[t] < d:
        raise InputError(f"given edge set is not a {d}-cut")

    order = norm.order
    rank = {v: r for r, v in enumerate(norm.ranked)}
    adj = g.adj
    current = set(f)
    max_iters = max(1, g.m) * g.n * g.n + 10

    for _ in range(max_iters):
        dvec = _monotone_distances(g, s, t, current, order)
        j = next(
            (
                jj
                for jj in range(len(order) - 1)
                if dvec[order[jj]] > dvec[order[jj + 1]]
            ),
            None,
        )
        if j is None:
            _normalize_t_edges(g, s, t, current, order)
            result = frozenset(current)
            if d <= 1 and not _bfs_monotone(g, s, t, result, order):
                # a kept {s,t} edge can pin dist(t)=1 and defeat the t-edge
                # normalization; any edge set is a 1-cut, and the untouched
                # graph itself has monotone distances after trimming
                result = frozenset()
            if len(result) > len(f):
                raise InternalCheckError("monotonize grew the cut")
            if bfs_distances(g, s, result)[t] < d:
                raise InternalCheckError("monotonize broke the distance bound")
            if not _bfs_monotone(g, s, t, result, order):
                raise InternalCheckError("monotonize left a distance inversion")
            return result
        vj, vj1 = order[j], order[j + 1]
        X = [
            x
            for x in adj[vj1]
            if (rank[x] < rank[vj] or x == s)
            and edge(vj, x) in current
            and edge(vj1, x) not in current
        ]
        Y = [
            y
            for y in adj[vj]
            if (rank[y] > rank[vj1] or y == t)
            and edge(vj1, y) in current
            and edge(vj, y) not in current
        ]
        if len(X) >= len(Y):
            for x in X:
                current.discard(edge(vj, x))
            for y in Y:
                current.add(edge(vj, y))
        else:
            for y in Y:
                current.discard(edge(vj1, y))
            for x in X:
                current.add(edge(vj1, x))
    raise InternalCheckError("monotonize did not converge within its iteration cap")


def _bfs_monotone(g, s, t, cut, order) -> bool:
    dist = bfs_distances(g, s, cut)
    vals = [dist[v] for v in order]
    return all(a <= b for a, b in zip(vals, vals[1:]))


def _normalize_t_edges(g, s, t, current, order):
    """Shift the cut t-edges onto the lowest-rank interior neighbors of t."""
    tn = [v for v in order if g.has_edge(v, t)]
    cut_tn = [v for v in tn if edge(v, t) in current]
    for v in cut_tn:
        current.discard(edge(v, t))
    for v in tn[: len(cut_tn)]:
        current.add(edge(v, t))


def _monotone_distances(g, s, t, cut, order):
    """Shortest monotone-path distances from s in G-cut.

    A monotone path may start with any edge at s, then must strictly
    increase in rank; the final step into t is unconstrained.  t is
    never an interior vertex.
    """
    INF = float("inf")
    dvec = {v: INF for v in range(g.n)}
    dvec[s] = 0
    posn = {v: i for i, v in enumerate(order)}
    for idx, v in enumerate(order):
        best = INF
        for w in g.adj[v]:
            if edge(v, w) in cut or w == t:
                continue
            if w == s:
                best = min(best, 1)
            elif posn[w] < idx:
                best = min(best, dvec[w] + 1)
        dvec[v] = best
    dt = INF
    for w in g.adj[t]:
        if edge(t, w) in cut:
            continue
        dt = min(dt, 1 if w == s else dvec[w] + 1)
    dvec[t] = dt
    return dvec


def normalized(seed, n=9, density=0.6):
    inst, model = random_proper_interval_instance(n, density=density, seed=seed)
    return trimmed(normalize(inst, model))[0]


def distance_monotone(norm, cut):
    d = bfs_distances(norm.graph, norm.s, cut)
    vals = [d[v] for v in norm.order]
    return all(a <= b for a, b in zip(vals, vals[1:]))


def random_cut_repaired(norm, rng):
    """Repair a random cut at its own distance and check the postconditions."""
    g, s, t = norm.graph, norm.s, norm.t
    f = frozenset(e for e in g.edge_list() if rng.random() < 0.35)
    dist = bfs_distances(g, s, f)[t]
    d = g.n + 2 if dist == math.inf else int(dist)
    out = monotonize_cut(norm, f, d)
    assert len(out) <= len(f)
    new_dist = bfs_distances(g, s, out)[t]
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
            random_cut_repaired(trimmed(norm)[0], Random(i))
            if len(set(model.starts)) < model.n:
                seen.add("tied starts")
            if norm.s != inst.s:
                seen.add("swapped terminals")
            if len(norm.ranked) < model.n:
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

    def test_twin_terminals_stay_mirrored(self):
        """s and t identical: the one with the larger id is ranked first
        and named s, so `monotonize_cut` takes the trimmed `normalize`
        output."""
        cases = [unit_instance([0, 0, 1], s=0, t=1, lam=2)]
        cases += [
            (inst, model)
            for inst, model in proper_instances(1500)
            if twins(model, inst.s, inst.t)
        ]
        assert len(cases) > 50
        for inst, model in cases:
            norm = normalize(inst, model)
            assert norm.ranked.index(norm.s) < norm.ranked.index(norm.t)
            norm = trimmed(norm)[0]
            g, s = norm.graph, norm.s
            star = frozenset(edge(s, w) for w in g.adj[s])
            out = monotonize_cut(norm, star, g.n)
            assert len(out) <= len(star)
