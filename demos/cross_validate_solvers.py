"""Cross-validate the interval solver against two independent oracles.

The subset oracle enumerates all edge subsets by size; the branching
oracle grows a bounded search tree over shortest offending paths and
prunes a node once a greedy packing of edge-disjoint short paths exceeds
its budget.  Its node budget counts search-tree nodes, each running up to
depth + 1 bounded BFS passes, so the same budget answers more instances.
Both are exact whenever they answer, so any disagreement with the dynamic
program would expose a bug.  This script fuzzes a few hundred instances
and tabulates which solver code path handled each.
"""

from collections import Counter

from lbcut import (
    BudgetExceeded,
    OracleBudget,
    dp_solve,
    extract_cut,
    oracle_branch,
    oracle_subset,
    random_proper_interval_instance,
    verify_cut,
)

branches = Counter()
agree_subset = agree_branch = 0

for seed in range(400):
    inst, model = random_proper_interval_instance(
        n=4 + seed % 7,
        density=(0.4, 0.7, 0.95)[seed % 3],
        beta_range=(1, 8),
        lambda_range=(1, 6),
        seed=seed,
    )
    if inst.graph.m > 14:
        continue
    cost, tables = dp_solve(inst, model)
    branches[tables.branch] += 1
    assert cost == oracle_subset(inst), f"subset oracle disagrees at seed {seed}"
    agree_subset += 1
    cut = extract_cut(inst, model, tables)
    assert len(cut) == cost and verify_cut(inst, cut).ok

for seed in range(150):
    inst, model = random_proper_interval_instance(
        n=25, density=0.3, lambda_range=(3, 8), seed=1000 + seed
    )
    cost, _ = dp_solve(inst, model)
    if cost > 4:
        continue
    try:
        assert cost == oracle_branch(inst, OracleBudget(max_branch_nodes=60_000))
    except BudgetExceeded:
        continue
    agree_branch += 1

print(f"subset-oracle agreements: {agree_subset}")
print(f"branch-oracle agreements: {agree_branch} (n=25 instances)")
print("solver code paths exercised:")
for branch, count in branches.most_common():
    print(f"  {branch:>14}: {count}")
print("every reconstructed cut verified at its reported size")
