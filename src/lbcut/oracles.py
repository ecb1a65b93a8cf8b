"""Independent exact solvers for cross-validation, plus a fuzzing generator.

oracle_subset enumerates edge subsets by increasing size and is the ground
truth on tiny instances.  oracle_branch is a bounded search tree: pick a
shortest offending path and branch on deleting each of its edges.  It prunes
a node when a greedy packing of edge-disjoint short paths already exceeds
the node's budget (weak duality between path packings and cuts), which
only makes refutations cheaper.  Both refuse, with an explicit
BudgetExceeded, to return anything they could not prove.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .errors import BudgetExceeded
from .graph import Instance, edge, shortest_bounded_path
from .intervals import IntervalModel


@dataclass(frozen=True)
class OracleBudget:
    max_subset_edges: int = 16
    max_branch_nodes: int = 200_000

    def __post_init__(self):
        if self.max_subset_edges <= 0 or self.max_branch_nodes <= 0:
            raise ValueError("budgets must be positive")


DEFAULT_BUDGET = OracleBudget()


def oracle_subset(inst: Instance, budget: OracleBudget = DEFAULT_BUDGET) -> int:
    """Minimum lam-cut size by exhaustive enumeration in increasing size order."""
    g = inst.graph
    if g.m > budget.max_subset_edges:
        raise BudgetExceeded(
            f"subset oracle refuses {g.m} edges (cap {budget.max_subset_edges})"
        )
    edges = g.edge_list()
    for size in range(g.m + 1):
        for subset in itertools.combinations(edges, size):
            if shortest_bounded_path(g, inst.s, inst.t, inst.lam, frozenset(subset)) is None:
                return size
    return g.m  # unreachable: the full edge set always cuts


def oracle_branch(inst: Instance, budget: OracleBudget = DEFAULT_BUDGET) -> int:
    """Minimum lam-cut size via iterative-deepening bounded search.

    If no s-t path of length <= lam survives, the cost is 0; otherwise some
    shortest such path is picked and we branch on deleting each of its
    edges.  Before branching, a node with budget `depth` greedily packs
    edge-disjoint paths of length <= lam (block the last path's edges, take
    a shortest surviving path, repeat); depth + 1 of them refute the node,
    since a cut needs one edge per path.  The packing is only a lower
    bound, so the search is exact whenever it returns at all; it raises
    BudgetExceeded when the node budget runs out.
    `max_branch_nodes` counts search-tree nodes, each of which runs up to
    depth + 1 bounded BFS passes.
    """
    g, s, t, lam = inst.graph, inst.s, inst.t, inst.lam
    nodes = [0]
    memo: dict[tuple[frozenset, int], bool] = {}

    def decide(removed: frozenset, depth: int) -> bool:
        key = (removed, depth)
        if key in memo:
            return memo[key]
        nodes[0] += 1
        if nodes[0] > budget.max_branch_nodes:
            raise BudgetExceeded(
                f"branching oracle exceeded {budget.max_branch_nodes} nodes"
            )
        path = shortest_bounded_path(g, s, t, lam, removed)
        if path is None:
            memo[key] = True
            return True
        packed, blocked, p = 1, set(removed), path
        while packed <= depth:
            blocked.update(edge(u, v) for u, v in zip(p, p[1:]))
            p = shortest_bounded_path(g, s, t, lam, blocked)
            if p is None:
                break
            packed += 1
        if packed > depth:
            memo[key] = False
            return False
        ok = any(
            decide(removed | {edge(path[i], path[i + 1])}, depth - 1)
            for i in range(len(path) - 1)
        )
        memo[key] = ok
        return ok

    upper = min(g.degree(s), g.degree(t))  # the star cut is feasible
    for size in range(upper + 1):
        if decide(frozenset(), size):
            return size
    return upper


def random_proper_interval_instance(
    n: int,
    density: float = 0.5,
    beta_range: tuple[int, int] = (1, 6),
    lambda_range: tuple[int, int] = (2, 6),
    seed: int = 0,
):
    """Seeded random unit-interval instance: (Instance, IntervalModel).

    Draws n distinct start values on a rational grid spanning roughly
    n/(2*density) units, so larger density packs intervals tighter and
    yields denser graphs.  Terminals are two distinct random vertices
    ordered so start(s) <= start(t).
    """
    if n < 2:
        raise ValueError("need at least two vertices")
    if not (0 < density <= 1):
        raise ValueError("density must be in (0, 1]")
    rng = Random(seed)
    grid = 16
    span = max(2, round(n / (2 * density)))
    points = rng.sample(range(span * grid + 1), n)
    starts = [Fraction(p, grid) for p in points]
    model = IntervalModel.unit(starts)
    g = model.induced_graph()
    s, t = rng.sample(range(n), 2)
    if model.start_keys[s] > model.start_keys[t]:
        s, t = t, s
    beta = rng.randint(*beta_range)
    lam = rng.randint(*lambda_range)
    inst = Instance(g, s, t, beta, lam)
    return inst, model


