"""Repair a messy cut into one with monotone distances.

On a normalized proper interval instance, any d-cut can be rewritten,
without growing, so that distances from s never decrease along the rank
order `normalize` gives (`norm.order`).  That structure is what makes the
table solver sound; here we watch the repair act on a deliberately
scrambled cut.
"""

import math
from random import Random

from lbcut import bfs_distances, monotonize_cut, normalize, random_proper_interval_instance

inst, model = random_proper_interval_instance(n=10, density=0.7, seed=16)
norm = normalize(inst, model)
g, s, t = norm.graph, norm.s, norm.t

rng = Random(16)
messy = frozenset(e for e in g.edge_list() if rng.random() < 0.45)
dist = bfs_distances(g.without_edges(messy), s)[t]
d = g.n + 2 if dist == math.inf else int(dist)


def profile(cut):
    dd = bfs_distances(g.without_edges(cut), s)
    return [dd[v] for v in norm.order]


print(f"instance: n={g.n} m={g.m}; random cut of {len(messy)} edges, "
      f"making dist(s,t) = {dist}")
print(f"distance profile along the rank order: {profile(messy)}")

repaired = monotonize_cut(norm, messy, d)
after = profile(repaired)
print(f"\nafter repair: {len(repaired)} edges (never more), profile: {after}")
print(f"monotone: {all(a <= b for a, b in zip(after, after[1:]))}")
print(f"distance bound kept: "
      f"{bfs_distances(g.without_edges(repaired), s)[t]} >= {d}")
