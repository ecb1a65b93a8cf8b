"""Exact length-bounded cut solver for proper interval graphs.

The solver normalizes the instance on ranks alone: validation sorts the
model into an umbrella ordering once and finds the run of ranks lo..hi
that each closed neighbourhood forms, which every later stage reads.
dist(s, t) comes from hi (see _hop_distance), the terminal ranked first is
called s, and the vertices outside the s..t span are trimmed away.
It then fills a table T[r, d] = minimum number of edge deletions in
G - {t} making every interior vertex of rank >= r lie at distance >= d
from s, under the constraint that distances from s are non-decreasing
along the ranking.  A companion table S[r, d] records the cut frontier:
the smallest rank j such that every edge from ranks < j to ranks >= r is
already deleted.

The recurrence charges crossing edges through

    C[h, j, i] = #{ {v_l, v_r} in E : h <= l < j, r >= i, both interior }

which we evaluate in O(1) from prefix sums instead of the naive per-triple
edge scan (same values, needed for the n=200 runtime target).  Per rank i
only the at most W + 1 prefix sums the fill can read are stored (see
CrossingCounts), so the counts take O(q * W) memory, not O(q^2).  They are
read off the runs validation computed, with no adjacency walk, no edge
list and no sort (see compute_crossing_counts).

Column d of the tables takes, for each rank i, a minimum over the rows
j <= i of column d-1.  The rows that no edge crosses into i or beyond
charge nothing; a column of T does not grow with the rank, so they reduce
to the last of them.  Only a band of at most W + 1 rows per rank, W being
at most the largest forward degree (edges from a rank to higher ranks),
needs the crossing counts.  Ties go to the smallest row, as in the full
q x q reduction.

Only a window of each row is filled.  A length-bounded cut is an integer
labelling D with D(s) = 0 and D(t) >= lam + 1, the cut being the edges
whose labels differ by 2 or more: dist(s, .) in G - F labels a cut F, and
labels grow by at most 1 along each edge of G - F, so dist(s, t) >= D(t)
there.  Let delta = dist(s, .) and c = lam + 1 - dist(s, t).  Replacing D
by min(max(D, delta), delta + c) keeps D(s) = 0 and D(t) >= lam + 1, and
it adds no cut edge: on an edge both D and delta change by at most 1, so
their max and min do too.  Since delta is non-decreasing along the
umbrella order (BFS layers are runs of ranks), a monotone D stays
monotone.  So some optimum has delta <= D <= delta + c, and the clamp with
d - delta(i) <= c in place of c does the same for the subproblem of any
cell T[i, d] with d > delta(i).  A monotone labelling walks through the
cells (first rank with D >= d, d), and on the clamped one each has
d <= D <= delta + c.  With delta taken in the trimmed G - t (it is at
least the delta of G), the table therefore needs, for each rank i,
  - nothing for d <= delta(i): T[i, d] = 0, no deletion being needed
    (the zero region);
  - nothing for d > delta(i) + c: no optimal walk enters those cells;
  - the c columns d in (delta(i), delta(i) + c] in between (the window).
For each d the ranks whose window holds d form one run, so a step reduces
that run against its band alone: the fill takes O(c * q * W) time over its
lam - 2 steps and O(c * q) table memory, however large lam is (c = 2 when
lam = dist(s, t) + 1).

The tables read ranks, never interval coordinates.  The interior
neighbours of s are the first deg(s) ranks and those of t the last deg(t)
(see NormalizedInstance), so the s-edges cut at d = 2 and the t-edges cut
below the chosen rank follow from the two degrees alone.

The table optimum is combined with the plain minimum s-t cut: a cheapest
bounded-length cut either leaves s and t connected (then a monotone optimal
solution exists and the table finds it) or disconnects them (then it is a
plain minimum cut).  One max-flow per solve runs after the fill and only
until its value exceeds the table cost: that decides the branch, and the
flow runs to its maximum (and yields the cut) only when the table does not
win.  Without a fill the same call decides: at lam = 1 the table's answer
is the edge {s,t}, and once lam >= n - 1 there is no table, so the flow
runs to its maximum.  An edge {s,t}, if present, belongs to every cut
once lam >= 1 and is accounted for separately; the tables never see it.

Cut reconstruction applies the labelling rule to the optimum the table
found.  The S backpointers from (best_rank, lam) give, for each d, the
rank i_d where D first reaches d, down to where the walk stops at some
(i, d): in the zero region, at rank 0, or at d = 2.  Below rank i the
labels are delta capped at d, from i on they are d, and each i_d at or
below a rank adds 1; D(s) = 0 and D(t) = lam + 1.  The cut is every edge
inside the trim whose labels differ by 2 or more, a lam-cut whatever the
labels are; its size is checked against the cost and the cut verified
before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalCheckError
from .graph import INF, Instance, _dinic, edge, verify_cut
from .intervals import IntervalModel, NormalizedInstance, _normalize_valid, _umbrella_runs

BIG = np.int64(1) << 40


@dataclass(frozen=True)
class CrossingCounts:
    """Crossing-edge counts over interior ranks, kept to the band the fill reads.

    Write P[x, i] for the number of edges {v_l, v_r}, l < r, with l < x and
    r >= i (0-based ranks, both endpoints interior).  P[x, i] is zero for
    x <= z[i] = min(i, L(i)), L(i) being the smallest rank with an edge to a
    rank >= i, so only the rows z[i] .. i of column i are stored:
    prefix[i, k] = P[z[i] + k, i] for k = 0 .. W, W = max(1, i - z[i]).
    count(h, j, i) answers C[h, j, i] in O(1) for 0 <= h <= j <= i < q.
    """

    z: np.ndarray
    prefix: np.ndarray

    def count(self, h: int, j: int, i: int) -> int:
        z = int(self.z[i])
        return int(self.prefix[i, max(j - z, 0)] - self.prefix[i, max(h - z, 0)])


def compute_crossing_counts(norm: NormalizedInstance) -> CrossingCounts:
    """Crossing-edge band for a normalized instance (edges at s, t excluded),
    built in O(q * W) time and memory.

    The band is read off the runs of the umbrella order: closed
    neighbourhoods are runs of ranks, so the interior neighbours of rank l
    above l are the ranks l+1 .. hi[l], and hi (norm.hi, from validation)
    is non-decreasing.  No adjacency is read and nothing is sorted.
    """
    hi = np.array(norm.hi, dtype=np.int64)
    q = len(hi)
    cols = np.arange(q)
    # z(i) = min(i, L(i)): the first rank l with hi[l] >= i is L(i) if l < i,
    # else i itself
    z = np.searchsorted(hi, cols)
    W = max(1, int((cols - z).max()) if q else 0)  # an empty band still needs a column
    # P[x + 1, i] - P[x, i] = #{r >= i : x < r <= hi[x]}; rows x >= q read
    # hi[q - 1] < x + 1, so they add 0
    rows = z[:, None] + np.arange(W)  # x = z(i) + k for column i
    step = hi[np.minimum(rows, q - 1)] - np.maximum(cols[:, None], rows + 1) + 1
    prefix = np.zeros((q, W + 1), dtype=np.int64)
    np.cumsum(np.maximum(step, 0), axis=1, out=prefix[:, 1:])
    return CrossingCounts(z, prefix)


@dataclass
class DpTables:
    """Everything dp_solve computed, enough to reconstruct and audit a cut.

    The fields from norm to best_rank are filled by the table fill only;
    they stay None when dp_solve answers without one.  table_cost is the
    table's answer: the fill's optimum, or 1 at lam = 1, where the edge
    {s,t} alone is the answer; it is None on the no-short-path and
    all-paths branches.  Cut reconstruction reads norm, S, delta and
    best_rank; T and crossing are kept for audits.

    T and S are q x c arrays holding the window of each rank (see the module
    docstring): the cell of rank i and distance d, delta[i] < d <=
    delta[i] + c, sits in column d - delta[i] - 1, with delta = dist(s, .)
    in G - t trimmed to norm.ranked, capped at lam.  The other cells are
    implicit: cost 0 with frontier z(i) (see CrossingCounts) for
    d <= delta[i], and BIG for d > delta[i] + c.  Window cells with d > lam
    hold BIG.

    best_rank is the first rank minimizing the window fill's totals.  On
    ties it can differ from the full q x (lam + 1) table's first minimizing
    rank, whose optimum may lie below the window; cost, table_cost and the
    cut size are the same either way.

    flow_bound is an s-t flow value, exact exactly when mincut_edges holds a
    minimum s-t cut (of that size).  Once table_cost is set the max-flow
    runs only until its value exceeds it, so on the table branch
    flow_bound is a lower bound (table_cost + 1) and mincut_edges is None;
    the no-short-path answer runs no flow (flow_bound 0, mincut_edges None).
    """

    cost: int
    decision: bool
    branch: str  # "no-short-path" | "all-paths" | "min-cut" | "table"
    flow_bound: int
    mincut_edges: frozenset | None
    st_edge: bool
    norm: NormalizedInstance | None = None
    T: np.ndarray | None = None
    S: np.ndarray | None = None
    delta: np.ndarray | None = None
    crossing: CrossingCounts | None = None
    best_rank: int | None = None
    table_cost: int | None = None


def dp_solve(inst: Instance, model: IntervalModel) -> tuple[int, DpTables]:
    """Minimum size of a lam-cut of a proper interval instance, exactly.

    Returns (cost, tables); tables.decision is cost <= beta.  If no s-t path
    of length <= lam exists the cost is 0 and no flow runs.  Every other
    answer comes from one max-flow, bounded by the table's answer when there
    is one: none once lam >= n-1, where every cut must be a full s-t cut
    (the "all-paths" branch), the edge {s,t} at lam = 1, and the fill's
    optimum otherwise.
    """
    _, rank, _, hi = runs = _umbrella_runs(inst.graph, model)
    g, s, t, lam = inst.graph, inst.s, inst.t, inst.lam
    st_edge = g.has_edge(s, t)

    dist = _hop_distance(hi, *sorted((int(rank[s]), int(rank[t]))))
    if dist > lam:
        return 0, DpTables(
            cost=0, decision=0 <= inst.beta, branch="no-short-path",
            flow_bound=0, mincut_edges=None, st_edge=False,
        )

    # here 1 <= dist(s,t) <= lam; limit is the table's answer, INF without one
    norm = T = S = delta = crossing = best_rank = None
    if lam >= g.n - 1:
        limit = INF
    elif lam == 1:  # dist(s,t) = lam = 1: the edge {s,t} is the whole answer
        limit = 1
    else:
        norm = _normalize_valid(inst, runs)
        crossing = compute_crossing_counts(norm)
        T, S, delta, last = _fill_tables(norm, crossing, lam, lam + 1 - dist)
        # trimming may leave only the terminals: a short path forces {s,t}
        limit = int(st_edge)
        q = len(norm.order)
        if q > 0:
            # t's interior neighbours are the last deg_t ranks; the ranks
            # below i may stay closer to s than lam, so their t-edges are cut
            deg_t = norm.graph.degree(norm.t) - st_edge
            totals = last + np.maximum(0, np.arange(q) - (q - deg_t))
            best_rank = int(np.argmin(totals))
            limit += int(totals[best_rank])

    # A cheapest cut that disconnects s and t costs at least the max-flow
    # value, and a cut that fails on the untrimmed graph costs at least
    # deg(t) >= max-flow (border argument), so the table branch is only
    # taken when it is strictly cheaper.  The flow stops once it exceeds
    # the table's answer, which decides that; otherwise it ran to the
    # maximum.
    flow_bound, mincut_edges = _dinic(g, s, t, limit)
    cost = min(limit, flow_bound)
    table_cost = None if limit == INF else limit
    return cost, DpTables(
        cost=cost,
        decision=cost <= inst.beta,
        branch="all-paths" if table_cost is None else "table" if limit < flow_bound else "min-cut",
        norm=norm,
        T=T,
        S=S,
        delta=delta,
        crossing=crossing,
        best_rank=best_rank,
        table_cost=table_cost,
        flow_bound=flow_bound,
        mincut_edges=mincut_edges,
        st_edge=st_edge,
    )


def _hop_distance(hi, a: int, b: int):
    """dist between ranks a <= b of an umbrella order: the jumps r -> hi[r]
    from a to b, inf if one stalls.  The ranks within k hops of a reach up
    to the k-th jump, as closed neighbourhoods are runs and hi never falls."""
    hi, hops = hi.tolist(), 0
    while a < b:
        if hi[a] == a:
            return INF
        a, hops = hi[a], hops + 1
    return hops


def _fill_tables(norm, crossing, lam, c):
    """The window of T and S (see DpTables), delta, and column lam of T
    over every rank, implicit cells included."""
    q = len(norm.order)
    z, prefix = crossing.z, crossing.prefix
    g, s, t = norm.graph, norm.s, norm.t
    deg_s = g.degree(s) - g.has_edge(s, t)
    # first[k]: the first rank with delta >= k.  The interior neighbours of s
    # are the first deg_s ranks, and each later BFS layer ends where the run
    # of the last rank before it ends (hi never falls)
    first, hi = [0, 0, deg_s], norm.hi
    while len(first) <= lam and first[-1] > first[-2]:
        first.append(hi[first[-1] - 1] + 1)
    first += [first[-1]] * (lam + 1 - len(first))
    cols = np.arange(q)
    delta = np.array(first[1:]).searchsorted(cols, side="right")  # capped at lam

    T = np.full((q, c), BIG, dtype=np.int64)
    S = np.zeros((q, c), dtype=np.int64)
    # col_T, col_S: the current column d of T and S over every rank.  At
    # d = 2 the first deg_s ranks (delta = 1) cut the s-edges reaching rank
    # i and beyond; every later rank is in the zero region, where the
    # frontier z(j) charges every edge into ranks >= j, none being cut
    col_T = np.zeros(q, dtype=np.int64)
    col_T[:deg_s] = T[:deg_s, 0] = deg_s - cols[:deg_s]
    col_S = z.copy()
    col_S[:deg_s] = 0

    # T[i, d] = min over j <= i of T[j, d-1] + C[S[j, d-1], j, i], first
    # minimizing j.  P[:, i] is non-decreasing from P[0, i] = 0 (see
    # CrossingCounts); every row j <= z(i), the last with P[j, i] = 0,
    # charges nothing (S[j, d-1] <= j).  A column of T does not grow with
    # the rank (the rows j <= i all compete for T[i, d], and C[h, j, i] does
    # not grow with i), so those rows reduce to T[z(i), d-1], attained
    # first where its run of equal values starts.  Masking keeps this from
    # the first unmasked rank on: the window agrees with the full table,
    # and the zero region is 0.  The band z(i) <= j <= i, at most W + 1 =
    # max(i - z(i)) + 1 rows, W at most the largest forward degree, is
    # gathered from column k = 0 on, so ties go to the free rows.
    width = prefix.shape[1]
    band = z[:, None] + np.arange(width)  # band rows J[i, k], valid while <= i
    invalid = band > cols[:, None]
    band[invalid] = 0
    # P[J, i] = prefix[i, k], with BIG on the invalid cells so they never win
    band_base = np.where(invalid, BIG, prefix)
    # P[h, i] = flat_prefix[row_at[i] + max(h, z(i))] for h <= i
    flat_prefix, flat_band = prefix.ravel(), band.ravel()
    row_at = (cols * width - z)[:, None]
    band_at = cols * width
    zcol = z[:, None]
    cell_at = cols * c - delta - 1  # T.flat[cell_at[i] + d] is T[i, d]
    flat_T, flat_S = T.ravel(), S.ravel()
    for d in range(3, lam + 1):
        # ranks [lo, a) leave the window (delta = d-1-c), ranks [a, b) hold d;
        # the ranks below lo are masked in column d - 1
        lo, a, b = first[max(d - 1 - c, 0)], first[max(d - c, 0)], first[d]
        if a < b:
            J = band[a:b]
            M = col_T[J] + band_base[a:b] - flat_prefix[
                np.maximum(col_S[J], zcol[a:b]) + row_at[a:b]]
            k = M.argmin(axis=1)
            # the run of T[z(i), d-1] starts at the first rank holding a
            # value no larger, searched on the reversed non-decreasing column
            r1 = int(z[b - 1]) + 1
            run_start = r1 - col_T[lo:r1][::-1].searchsorted(M[:, 0], side="right")
            cells = cell_at[a:b] + d
            col_T[a:b] = flat_T[cells] = M.min(axis=1)
            col_S[a:b] = flat_S[cells] = np.where(k == 0, run_start, flat_band[band_at[a:b] + k])
        col_T[lo:a] = BIG
    return T, S, delta, col_T


def extract_cut(inst: Instance, model: IntervalModel, tables: DpTables) -> frozenset:
    """A concrete cut matching the dp_solve cost, verified before return."""
    cut = _reconstruct(inst, tables)
    if len(cut) != tables.cost:
        raise InternalCheckError(
            f"reconstructed cut has {len(cut)} edges, dp cost is {tables.cost}"
        )
    verdict = verify_cut(inst, cut)
    if not verdict:
        raise InternalCheckError(
            f"reconstructed cut admits a short path: {verdict.witness}"
        )
    return cut


def _reconstruct(inst, tables):
    """The cut of the branch dp_solve took; on the table branch, the edges
    whose labels differ by 2 or more (see the module docstring)."""
    if tables.branch != "table":
        return tables.mincut_edges or frozenset()
    if tables.best_rank is None:
        # lam = 1: a fill that keeps only s and t has deg(s) = 1, so the
        # flow ties its answer and the min-cut branch wins
        return frozenset([edge(inst.s, inst.t)])
    norm, lam, S, delta = tables.norm, inst.lam, tables.S, tables.delta
    # firsts: the ranks i_d, the first interior rank with D >= d, read off
    # the S backpointers down to the walk's stop (i, d): the zero region,
    # rank 0 (D >= d on every rank) or d = 2 (D >= 2 cuts the s-edges)
    firsts, i, d = [], tables.best_rank, lam
    while d > delta[i] and i > 0 and d > 2:
        firsts.append(i)
        i, d = int(S[i, d - delta[i] - 1]), d - 1
    ranks = np.arange(len(norm.order))
    label = np.where(ranks < i, np.minimum(delta, d), d)
    label += np.searchsorted(firsts[::-1], ranks, side="right")
    g = norm.graph
    D = np.zeros(g.n, dtype=np.int64)  # D(s) = 0
    D[list(norm.order)] = label
    D[norm.t] = lam + 1
    kept = np.zeros(g.n, dtype=bool)  # no edge leaving the trim is cut
    kept[list(norm.ranked)] = True
    nbrs, deg = g.neighbour_arrays()
    u = np.repeat(np.arange(g.n), deg)
    cut = (u < nbrs) & kept[u] & kept[nbrs] & (np.abs(D[u] - D[nbrs]) >= 2)
    return frozenset(zip(u[cut].tolist(), nbrs[cut].tolist()))


def solve(inst: Instance, model: IntervalModel):
    """One-call convenience: (cost, verified cut, tables)."""
    cost, tables = dp_solve(inst, model)
    cut = extract_cut(inst, model, tables)
    return cost, cut, tables
