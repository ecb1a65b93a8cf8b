"""Solve a random proper interval instance end to end.

Generates a unit-interval instance, walks through the normalization
pipeline (mirror, rank, trim), solves it exactly, reconstructs a
certified cut, and cross-checks against the exhaustive oracle.
"""

from lbcut import (
    bfs_distances,
    dp_solve,
    extract_cut,
    normalize,
    oracle_subset,
    random_proper_interval_instance,
    verify_cut,
)

inst, model = random_proper_interval_instance(
    n=12, density=0.55, beta_range=(2, 5), lambda_range=(3, 3), seed=33
)
g = inst.graph
print(f"instance: n={g.n} m={g.m} s={inst.s} t={inst.t} "
      f"beta={inst.beta} lambda={inst.lam}")
print(f"interval of s: [{model.starts[inst.s]}, {model.ends[inst.s]}]")
print(f"plain distance s->t: {bfs_distances(g, inst.s)[inst.t]}")

norm = normalize(inst, model)
print(f"\nnormalized: mirrored={norm.mirrored}, "
      f"{g.n - norm.inst.graph.n} vertices trimmed away, "
      f"{len(norm.order)} interior vertices ranked by start value")

cost, tables = dp_solve(inst, model)
print(f"\nminimum {inst.lam}-cut size: {cost}  (branch: {tables.branch})")
print(f"decision at beta={inst.beta}: {'yes' if tables.decision else 'no'}")

cut = extract_cut(inst, model, tables)
verdict = verify_cut(inst, cut)
print(f"reconstructed cut: {sorted(cut)}")
print(f"verified: {verdict.ok}, size matches cost: {len(cut) == cost}")

if g.m <= 16:
    print(f"exhaustive oracle agrees: {oracle_subset(inst) == cost}")
