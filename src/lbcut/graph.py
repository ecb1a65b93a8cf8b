"""Undirected simple graphs, hop distances, cuts, and the max-flow precheck.

Vertex ids are dense integers 0..n-1.  Edges live in the sorted `adj`
tuples; `edge_list()` and `edges` are views built from them on each call.
All types here are immutable after construction and safe to share.

A graph has two builders, and the input picks one; they share no code.
`Graph(n, pairs)` is one pure-Python pass over the pairs, for graphs built
in memory: repeats are caught by an integer key u * n + w (u < w) rather
than a tuple per edge, the first bad pair raises before the next is read,
and the only containers it allocates are one neighbour list per vertex and
the sorted tuples made from them.  `Graph._from_ends(n, ends)` takes an
instance file's edges as one int64 array of ends and sorts them in numpy
once, keeping the flat sorted neighbour array it built; its faults raise
a bare InputError, since the file reader names them.  Either graph hands
out that flat array and the degrees through `neighbour_arrays()`, which a
graph built from pairs computes from `adj` on first use.

Hop distances come from one bounded BFS, exposed as `bfs_distances` and
`shortest_bounded_path`; their `removed` edge set stands for G - F without
building that graph.  `min_st_cut` searches the residual network instead,
in Dinic phases: a BFS from t levels the residual arcs, and a depth-first
search from s augments along the levels; the flow is kept as one set of
saturated out-neighbours per vertex.  The DP runs the same phases only
until the flow value exceeds its table cost (`_dinic`'s limit).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import InputError, InternalCheckError

Edge = tuple[int, int]

INF = math.inf


def edge(u: int, v: int) -> Edge:
    """Normalize an edge to (min, max) form; self-loops are rejected."""
    if u == v:
        raise InputError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


def edge_set(pairs) -> frozenset[Edge]:
    """Normalize an iterable of pairs into a frozen cut/edge set."""
    return frozenset(edge(u, v) for u, v in pairs)


_KEYED_N = 3_037_000_499  # the largest n with n * n below 2**63


def _frozen(*arrays):
    """The arrays, made read-only: a Graph shares them with every caller."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _reject_pair(n: int, u: int, w: int):
    """Raise the InputError for a pair Graph cannot take: a self-loop first,
    then an id outside 0..n-1, else a repeat."""
    e = edge(u, w)
    if not (0 <= e[0] and e[1] < n):
        raise InputError(f"edge {e} out of range for n={n}")
    raise InputError(f"duplicate edge {e}")


class Graph:
    """Immutable undirected simple graph; its edges are the sorted `adj`
    tuples, and `neighbour_arrays()` the same as two flat arrays."""

    __slots__ = ("n", "m", "adj", "_arrays")

    def __init__(self, n: int, edges=()):
        """Build from (u, v) pairs in one pass; a self-loop, an id outside
        0..n-1 or a repeated pair raises InputError."""
        if n < 0:
            raise InputError(f"negative vertex count {n}")
        seen: set[int] = set()  # u * n + w for each pair with u < w
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, w in edges:
            key = u * n + w if u < w else w * n + u
            if key in seen or u == w or not (0 <= u < n and 0 <= w < n):
                _reject_pair(n, u, w)
            seen.add(key)
            adj[u].append(w)
            adj[w].append(u)
        self.n = n
        self.m = len(seen)
        for a in adj:
            a.sort()
        self.adj: tuple[tuple[int, ...], ...] = tuple(map(tuple, adj))
        self._arrays = None

    @classmethod
    def _from_ends(cls, n: int, ends) -> Graph:
        """The graph on 0..n-1 (n >= 0) whose edges are the pairs
        (ends[0], ends[1]), (ends[2], ends[3]), ... of an int64 array; an id
        outside 0..n-1, a self-loop or a repeated pair raises a bare
        InputError.

        Each pair gives two (owner, neighbour) entries, sorted in one stable
        argsort of owner * n + neighbour.  A repeated pair, either way
        round, or a self-loop gives the same key twice.
        """
        if n > _KEYED_N:  # adj's n tuple slots alone would take over 24 GB
            raise MemoryError(f"a graph on {n} vertices")
        if len(ends) and (int(ends.min()) < 0 or int(ends.max()) >= n):
            raise InputError
        other = ends.reshape(-1, 2)[:, ::-1].ravel()  # the neighbour of each end
        keys = ends * n + other
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        if (keys[1:] == keys[:-1]).any():
            raise InputError
        nbrs, deg = other[order], np.bincount(ends, minlength=n)
        flat, stops = tuple(nbrs.tolist()), np.cumsum(deg).tolist()
        g = object.__new__(cls)
        g.n, g.m = n, len(flat) // 2
        g.adj = tuple(map(flat.__getitem__, map(slice, [0, *stops], stops)))
        g._arrays = _frozen(nbrs, deg)
        return g

    def neighbour_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(nbrs, deg) as read-only int64 arrays: the `adj` tuples in vertex
        order as one array, and their lengths; computed on first use."""
        if self._arrays is None:
            adj = self.adj
            self._arrays = _frozen(
                np.fromiter(chain.from_iterable(adj), np.int64, 2 * self.m),
                np.fromiter(map(len, adj), np.int64, self.n),
            )
        return self._arrays

    @property
    def edges(self) -> frozenset[Edge]:
        """The edge set, built from `adj` in O(m) on every access."""
        return frozenset(self.edge_list())

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether u-v is an edge; False for u == v and for ids outside 0..n-1."""
        if u > v:
            u, v = v, u
        a = self.adj[u] if 0 <= u and v < self.n else ()
        i = bisect_left(a, v)
        return i < len(a) and a[i] == v

    def edge_list(self) -> list[Edge]:
        """The pairs (u, w) with u < w, in sorted order."""
        return [(u, w) for u, a in enumerate(self.adj) for w in a if u < w]

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class Instance:
    """A length-bounded cut instance: graph, terminals, budget, length bound.

    Oversized beta/lam values are clamped on construction and the clamp is
    recorded in `notes`.
    """

    graph: Graph
    s: int
    t: int
    beta: int
    lam: int
    notes: tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self):
        g = self.graph
        if not (0 <= self.s < g.n and 0 <= self.t < g.n):
            raise InputError(f"terminal out of range: s={self.s}, t={self.t}, n={g.n}")
        if self.s == self.t:
            raise InputError("s and t must differ")
        if self.beta < 0 or self.lam < 0:
            raise InputError("beta and lambda must be non-negative")
        notes = list(self.notes)
        if self.beta > g.m:
            notes.append(f"beta clamped from {self.beta} to {g.m}")
            object.__setattr__(self, "beta", g.m)
        if self.lam > g.n:
            notes.append(f"lambda clamped from {self.lam} to {g.n}")
            object.__setattr__(self, "lam", g.n)
        object.__setattr__(self, "notes", tuple(notes))


def _cut_edges(g: Graph, cut) -> frozenset[Edge]:
    """Normalize `cut` to an edge set of `g` in O(|cut| log n); non-edges raise."""
    removed = edge_set(cut)
    extra = [e for e in removed if not g.has_edge(*e)]
    if extra:
        raise InputError(f"cut contains non-edges: {sorted(extra)[:3]}")
    return removed


def _bfs(g: Graph, source: int, removed, lam: int, target: int = -1):
    """Level-synchronous BFS over sorted `g.adj`, skipping `removed` edges,
    for at most `lam` levels or until `target` is discovered.  Returns the
    first-discovery parents (-1 if unreached) and the completed levels."""
    adj, parent = g.adj, [-1] * g.n
    parent[source] = source
    levels = [[source]]
    for _ in range(lam):
        nxt = []
        for u in levels[-1]:
            for w in adj[u]:
                if parent[w] != -1 or (removed and ((u, w) if u < w else (w, u)) in removed):
                    continue
                parent[w] = u
                if w == target:
                    return parent, levels
                nxt.append(w)
        if not nxt:
            break
        levels.append(nxt)
    return parent, levels


def bfs_distances(g: Graph, source: int, removed=frozenset()):
    """Hop distances from `source` in G - removed (normalized edges);
    unreachable vertices get math.inf."""
    if not (0 <= source < g.n):
        raise InputError(f"invalid source vertex {source}")
    dist: list[float] = [INF] * g.n
    for d, level in enumerate(_bfs(g, source, removed, g.n)[1]):
        for v in level:
            dist[v] = d
    return dist


@dataclass(frozen=True)
class CutVerdict:
    """Outcome of verify_cut: either a valid cut or a concrete short path."""

    ok: bool
    witness: tuple[int, ...] | None = None

    def __bool__(self):
        return self.ok


def verify_cut(inst: Instance, f) -> CutVerdict:
    """Check that `f` kills every s-t path of length <= lam.

    Valid iff the s-t distance in G-F is at least lam+1.  On violation the
    verdict carries one concrete offending path.  Raises InputError when
    `f` holds a pair that is not an edge of the instance.
    """
    removed = _cut_edges(inst.graph, f)
    path = shortest_bounded_path(inst.graph, inst.s, inst.t, inst.lam, removed)
    if path is None:
        return CutVerdict(True)
    return CutVerdict(False, path)


def shortest_bounded_path(g: Graph, s: int, t: int, lam: int, removed=frozenset()):
    """A shortest s-t path of G - removed (normalized edges) with at most
    `lam` edges, traced from BFS parents; None if there is none."""
    if not (0 <= s < g.n and 0 <= t < g.n):
        raise InputError(f"invalid terminals {s}, {t}")
    if s == t:
        return (s,)
    parent = _bfs(g, s, removed, lam, t)[0]
    if parent[t] == -1:
        return None
    path = [t]
    while path[-1] != s:
        path.append(parent[path[-1]])
    return tuple(reversed(path))


def min_st_cut(g: Graph, s: int, t: int) -> tuple[int, frozenset]:
    """Minimum s-t edge cut via Dinic phases on unit capacities.

    Returns (size, cut edges).  Size equals the max number of edge-disjoint
    s-t paths; the cut is read off the residual reachability split.  Every
    maximum flow leaves the same residual-reachable source side (the
    inclusion-minimal minimum cut), so the cut does not depend on which
    augmenting paths were found.
    """
    if not (0 <= s < g.n and 0 <= t < g.n):
        raise InputError(f"invalid terminals {s}, {t}")
    if s == t:
        raise InputError("min_st_cut needs s != t")
    return _dinic(g, s, t)


def _dinic(g: Graph, s: int, t: int, limit: float = INF) -> tuple[int, frozenset | None]:
    """(flow value, minimum cut) of a maximum s-t flow, s != t; the augmenting
    stops once the value exceeds `limit`, and then the cut is None and the
    value only a lower bound on the maximum."""
    adj = g.adj
    # sat[u]: the w with one unit of net flow on u -> w.  Each undirected edge
    # is two unit arcs, so u -> w has residual capacity iff w not in sat[u].
    sat: list[set[int]] = [set() for _ in range(g.n)]
    value = 0
    while True:
        # reverse BFS from t: level[u] is the residual distance from u to t
        level = [-1] * g.n
        level[t] = 0
        layer = [t]
        while layer and level[s] < 0:
            upper, layer = layer, []
            for w in upper:
                d = level[w] + 1
                for u in adj[w]:
                    if level[u] < 0 and w not in sat[u]:
                        level[u] = d
                        layer.append(u)
        if level[s] < 0:
            break
        # blocking flow: depth-first from s down the levels, so every step
        # heads for t; next_arc[u] skips the arcs found dead or saturated
        next_arc = [0] * g.n
        path = [s]
        while path:
            u = path[-1]
            if u == t:
                for a, b in zip(path, path[1:]):
                    if a in sat[b]:
                        sat[b].discard(a)  # cancel the opposite flow
                    else:
                        sat[a].add(b)
                value += 1
                if value > limit:
                    return value, None
                path = [s]
                continue
            arcs, i, below, su = adj[u], next_arc[u], level[u] - 1, sat[u]
            while i < len(arcs) and (level[arcs[i]] != below or arcs[i] in su):
                i += 1
            next_arc[u] = i
            if i < len(arcs):
                path.append(arcs[i])
            else:
                level[u] = -1  # dead end for the rest of the phase
                path.pop()
    # the source side: everything s still reaches over residual arcs
    reach = [False] * g.n
    reach[s] = True
    stack = [s]
    while stack:
        u = stack.pop()
        su = sat[u]
        for w in adj[u]:
            if not reach[w] and w not in su:
                reach[w] = True
                stack.append(w)
    cut = frozenset(edge(u, w) for u in range(g.n) if reach[u] for w in adj[u] if not reach[w])
    if len(cut) != value:
        raise InternalCheckError(
            f"flow value {value} disagrees with residual cut size {len(cut)}"
        )
    return value, cut
