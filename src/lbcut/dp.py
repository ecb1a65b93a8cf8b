"""Exact length-bounded cut solver for proper interval graphs.

The solver normalizes the instance on ranks alone: one sort of the
validated model gives an umbrella ordering, mirrored so s comes before t,
and the vertices outside the s..t span are trimmed away (see intervals; no
tie split, no coordinate model).  It then fills a table T[r, d] = minimum
number of edge deletions in G - {t} making every interior vertex of rank
>= r lie at distance >= d from s, under the constraint that distances from
s are non-decreasing along the ranking.  A companion table S[r, d]
records the cut frontier: the smallest rank j such that every edge from
ranks < j to ranks >= r is already deleted.

The recurrence charges crossing edges through

    C[h, j, i] = #{ {v_l, v_r} in E : h <= l < j, r >= i, both interior }

which we evaluate in O(1) from a prefix-sum matrix instead of the naive
per-triple edge scan (same values, needed for the n=200 runtime target).

Column d of the tables takes, for each rank i, a minimum over the rows
j <= i of column d-1.  The rows that no edge crosses into i or beyond
charge nothing and reduce to a running minimum of T[:, d-1]; only a band
of at most W rows per rank, W being at most the largest forward degree
(edges from a rank to higher ranks), needs the crossing counts.  The fill
therefore costs O(lam * q * W), not O(lam * q^2); ties still go to the
smallest row, so T and S equal those of the full q x q reduction.

The tables read ranks, never interval coordinates.  The interior
neighbours of s are the first deg(s) ranks and those of t the last deg(t)
(see NormalizedInstance), so the s-edges cut at d = 2 and the t-edges cut
below the chosen rank follow from the two degrees alone.

The table optimum is combined with the plain minimum s-t cut: a cheapest
bounded-length cut either leaves s and t connected (then a monotone optimal
solution exists and the table finds it) or disconnects them (then it is a
plain minimum cut).  An edge {s,t}, if present, belongs to every cut once
lam >= 1 and is accounted for separately; the tables never see it.

Cut reconstruction walks the S backpointers and re-collects the same edge
rectangles the recurrence counted; the result is verified before being
returned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, InternalCheckError
from .graph import Instance, bfs_distances, edge, min_st_cut, verify_cut
from .intervals import IntervalModel, NormalizedInstance, _normalize_valid, validate_model

BIG = np.int64(1) << 40


@dataclass(frozen=True)
class CrossingCounts:
    """Queryable crossing-edge counts over interior ranks.

    prefix[x, i] counts edges {v_l, v_r} with l < x and r >= i (0-based
    ranks, both endpoints interior), so count(h, j, i) answers C[h, j, i]
    in O(1).
    """

    prefix: np.ndarray

    def count(self, h: int, j: int, i: int) -> int:
        return int(self.prefix[j, i] - self.prefix[h, i])


def compute_crossing_counts(norm: NormalizedInstance) -> CrossingCounts:
    """Crossing-edge table for a normalized instance (edges at s, t excluded)."""
    q = len(norm.order)
    pos = np.asarray(norm.pos, dtype=np.int64)
    ranks = pos[np.array(tuple(norm.inst.graph.edges), dtype=np.int64).reshape(-1, 2)]
    ranks = ranks[(ranks >= 0).all(axis=1)]  # drop edges incident to s or t
    # edge {v_a, v_b} adds 1 to suf[a, :b+1] and suf[b, :a+1]: mark each row
    # range in a difference array, then sum along the rows
    rows = np.concatenate([ranks[:, 0], ranks[:, 1]])
    stops = np.concatenate([ranks[:, 1], ranks[:, 0]]) + 1
    diff = np.zeros((q, q + 1), dtype=np.int64)
    diff[:, 0] = np.bincount(rows, minlength=q)
    np.add.at(diff, (rows, stops), -1)
    suf = np.cumsum(diff[:, :q], axis=1)
    prefix = np.zeros((q + 1, q), dtype=np.int64)
    np.cumsum(suf, axis=0, out=prefix[1:])
    return CrossingCounts(prefix)


@dataclass
class DpTables:
    """Everything dp_solve computed, enough to reconstruct and audit a cut.

    The fields from norm on are filled by the table fill only; they stay
    None when dp_solve answers before it.
    """

    cost: int
    decision: bool
    branch: str  # "no-short-path" | "all-paths" | "min-cut" | "table"
    mincut_size: int
    mincut_edges: frozenset
    st_edge: bool
    norm: NormalizedInstance | None = None
    T: np.ndarray | None = None
    S: np.ndarray | None = None
    crossing: CrossingCounts | None = None
    best_rank: int | None = None
    table_cost: int | None = None


def dp_solve(inst: Instance, model: IntervalModel) -> tuple[int, DpTables]:
    """Minimum size of a lam-cut of a proper interval instance, exactly.

    Returns (cost, tables); tables.decision is cost <= beta.  Fast paths:
    if no s-t path of length <= lam exists the cost is 0, and once
    lam >= n-1 every cut must be a full s-t cut, so the max-flow answer is
    returned directly.
    """
    validate_model(inst.graph, model)
    g, s, t, lam = inst.graph, inst.s, inst.t, inst.lam
    st_edge = g.has_edge(s, t)

    if bfs_distances(g, s)[t] > lam:
        return 0, DpTables(
            cost=0, decision=0 <= inst.beta, branch="no-short-path",
            mincut_size=0, mincut_edges=frozenset(), st_edge=False,
        )

    mincut_size, mincut_edges = min_st_cut(g, s, t)
    if lam >= g.n - 1:
        return mincut_size, DpTables(
            cost=mincut_size, decision=mincut_size <= inst.beta, branch="all-paths",
            mincut_size=mincut_size, mincut_edges=mincut_edges, st_edge=st_edge,
        )
    # here 1 <= dist(s,t) <= lam <= n-2
    base = 1 if st_edge else 0
    if lam <= 1:
        # dist(s,t) = lam = 1: the edge {s,t} exists and is the whole cut
        return 1, DpTables(
            cost=1, decision=1 <= inst.beta, branch="table",
            mincut_size=mincut_size, mincut_edges=mincut_edges, st_edge=True,
        )

    norm = _normalize_valid(inst, model)  # validated on entry
    crossing = compute_crossing_counts(norm)
    T, S = _fill_tables(norm, crossing, lam)
    q = len(norm.order)
    if q > 0:
        # t's interior neighbours are the last deg_t ranks; the ranks below
        # i may stay closer to s than lam, so their t-edges are cut too
        deg_t = norm.inst.graph.degree(norm.inst.t) - st_edge
        totals = T[:, lam] + np.maximum(0, np.arange(q) - (q - deg_t))
        best_rank = int(np.argmin(totals))
        table_cost = base + int(totals[best_rank])
    else:
        # trimming left only the terminals; a short path forces the {s,t} edge
        best_rank = None
        table_cost = base

    # A cheapest cut that disconnects s and t costs at least the max-flow
    # value, and a cut that fails on the untrimmed graph costs at least
    # deg(t) >= max-flow (border argument), so the table branch is only
    # taken when it is strictly cheaper.
    cost = min(table_cost, mincut_size)
    branch = "table" if table_cost < mincut_size else "min-cut"
    tables = DpTables(
        cost=cost,
        decision=cost <= inst.beta,
        branch=branch,
        norm=norm,
        T=T,
        S=S,
        crossing=crossing,
        best_rank=best_rank,
        table_cost=table_cost,
        mincut_size=mincut_size,
        mincut_edges=mincut_edges,
        st_edge=st_edge,
    )
    return cost, tables


def _fill_tables(norm, crossing, lam):
    q = len(norm.order)
    prefix = crossing.prefix

    T = np.full((q, lam + 1), BIG, dtype=np.int64)
    S = np.zeros((q, lam + 1), dtype=np.int64)
    if q == 0:
        return T, S

    g, s, t = norm.inst.graph, norm.inst.s, norm.inst.t
    deg_s = g.degree(s) - g.has_edge(s, t)
    # d = 2: cut the s-edges reaching rank i and beyond; s's interior
    # neighbours are the first deg_s ranks
    T[:, 2] = np.maximum(deg_s - np.arange(q), 0)
    S[:, 2] = 0

    if lam >= 3:
        T[0, 3:] = deg_s
        S[0, 3:] = 0

    # T[i, d] = min over j <= i of T[j, d-1] + C[S[j, d-1], j, i], first
    # minimizing j.  prefix[:, i] is non-decreasing from prefix[0, i] = 0;
    # every row j <= z(i), the last with prefix[j, i] = 0, charges nothing
    # (S[j, d-1] <= j), so those rows reduce to a running minimum of
    # T[:, d-1].  Only the band z(i) < j <= i, at most W = max(i - z(i)) <=
    # the largest forward degree wide, is computed, so a step costs O(q * W)
    # and the fill O(lam * q * W).  The band comes after the running-minimum
    # rows, so ties go to the running minimum, as in a plain argmin over j.
    cols = np.arange(q)
    z = np.minimum(cols, (prefix[1:] == 0).sum(axis=0))
    width = max(1, int((cols - z).max()))  # an empty band still needs a column
    band = z[:, None] + 1 + np.arange(width)  # band rows J[i, k], valid while <= i
    invalid = band > cols[:, None]
    band[invalid] = 0
    # prefix[J, i], with BIG on the invalid cells so they never win
    band_base = np.where(invalid, BIG, prefix[band, cols[:, None]])
    flat_prefix = prefix.ravel()  # flat_prefix[h * q + i] = prefix[h, i]
    new_min = np.ones(q, dtype=bool)
    for d in range(3, lam + 1):
        prev = T[:, d - 1]
        run_min = np.minimum.accumulate(prev)
        np.less(prev[1:], run_min[:-1], out=new_min[1:])
        # run_arg[j]: the first row attaining run_min[j]
        run_arg = np.maximum.accumulate(np.where(new_min, cols, 0))
        # M[i, k] = T[J, d-1] + C[S[J, d-1], J, i] for J = band[i, k]
        M = prev[band] + band_base - flat_prefix[S[band, d - 1] * q + cols[:, None]]
        k = M.argmin(axis=1)
        band_min = M[cols, k]
        free_min = run_min[z]
        use_band = band_min < free_min
        T[1:, d] = np.where(use_band, band_min, free_min)[1:]
        S[1:, d] = np.where(use_band, band[cols, k], run_arg[z])[1:]
    return T, S


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
    if tables.branch == "no-short-path":
        return frozenset()
    if tables.branch in ("all-paths", "min-cut"):
        return tables.mincut_edges
    # table branch
    if tables.norm is None:  # lam <= 1 with an {s,t} edge
        return frozenset([edge(inst.s, inst.t)])
    norm = tables.norm
    g, s, t = norm.inst.graph, norm.inst.s, norm.inst.t
    pos, order, kept = norm.pos, norm.order, norm.kept
    cut: set[tuple[int, int]] = set()
    if tables.st_edge:
        cut.add(edge(inst.s, inst.t))
    best = tables.best_rank
    if best is None:  # no interior vertices survived trimming
        return frozenset(cut)
    for w in g.adj[t]:
        if w != s and pos[w] < best:
            cut.add(edge(kept[t], kept[w]))

    S = tables.S
    i, d = best, tables.T.shape[1] - 1  # d starts at the original lambda
    while True:
        if i == 0 or d == 2:
            # initialization cuts: s-edges to ranks >= i (all of them at rank 0)
            for w in g.adj[s]:
                if w != t and (i == 0 or pos[w] >= i):
                    cut.add(edge(kept[s], kept[w]))
            break
        j = int(S[i, d])
        h = int(S[j, d - 1])
        for l in range(h, j):
            vl = order[l]
            for w in g.adj[vl]:
                if w != s and w != t and pos[w] >= i:
                    cut.add(edge(kept[vl], kept[w]))
        i, d = j, d - 1
    return frozenset(cut)


def solve(inst: Instance, model: IntervalModel):
    """One-call convenience: (cost, verified cut, tables)."""
    cost, tables = dp_solve(inst, model)
    cut = extract_cut(inst, model, tables)
    return cost, cut, tables


def monotonize_cut(inst: Instance, model: IntervalModel, f, d: int) -> frozenset:
    """Repair a d-cut so distances from s are monotone in the start order.

    Requires a normalized instance (distinct starts, start(s) <= start(t),
    nothing outside the s..t interval span) and a cut `f` with
    dist(s,t) >= d in G-F.  Returns F' with |F'| <= |F|, dist >= d, and
    dist(s, v_i) <= dist(s, v_j) whenever start(v_i) < start(v_j).

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
    g, s, t = inst.graph, inst.s, inst.t
    starts, ends = model.starts, model.ends
    f = frozenset(edge(u, v) for u, v in f)
    if not f <= g.edges:
        raise InputError("cut contains non-edges")
    if len(set(starts)) != g.n:
        raise InputError("monotonize_cut expects distinct start values (canonicalize)")
    if starts[s] > starts[t]:
        raise InputError("monotonize_cut expects a mirrored model")
    if any(ends[v] < starts[s] or starts[v] > ends[t] for v in range(g.n)):
        raise InputError("monotonize_cut expects a trimmed instance")
    if bfs_distances(g, s, f)[t] < d:
        raise InputError(f"given edge set is not a {d}-cut")

    order = sorted((v for v in range(g.n) if v not in (s, t)), key=lambda v: starts[v])
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
            if (starts[x] < starts[vj] or x == s)
            and edge(vj, x) in current
            and edge(vj1, x) not in current
        ]
        Y = [
            y
            for y in adj[vj]
            if (starts[y] > starts[vj1] or y == t)
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
    increase in start value; the final step into t is unconstrained.  t is
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
