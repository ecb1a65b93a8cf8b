"""Undirected simple graphs, hop distances, cuts, and the max-flow precheck.

Vertex ids are dense integers 0..n-1.  Edges are stored as sorted pairs.
All types here are immutable after construction and safe to share.

Hop distances come from one bounded BFS, exposed as `bfs_distances` and
`shortest_bounded_path`; their `removed` edge set stands for G - F without
building that graph.  `min_st_cut` searches the residual network instead.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

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


class Graph:
    """Immutable undirected simple graph."""

    __slots__ = ("n", "edges", "adj")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise InputError(f"negative vertex count {n}")
        seen: set[Edge] = set()
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            e = edge(u, v)
            if not (0 <= e[0] and e[1] < n):
                raise InputError(f"edge {e} out of range for n={n}")
            if e in seen:
                raise InputError(f"duplicate edge {e}")
            seen.add(e)
            adj[e[0]].append(e[1])
            adj[e[1]].append(e[0])
        self.n = n
        self.edges: frozenset[Edge] = frozenset(seen)
        self.adj: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(a)) for a in adj)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return edge(u, v) in self.edges

    def edge_list(self) -> list[Edge]:
        """Edges in sorted order, for deterministic iteration."""
        return sorted(self.edges)

    def without_edges(self, cut) -> "Graph":
        return Graph(self.n, self.edges - _cut_edges(self, cut))

    def subgraph(self, keep) -> tuple["Graph", dict[int, int]]:
        """Induced subgraph on `keep` with dense relabeling.

        Returns the new graph and a map old-id -> new-id.
        """
        keep = sorted(set(keep))
        new_of_old = {v: i for i, v in enumerate(keep)}
        es = [
            (new_of_old[u], new_of_old[v])
            for u, v in self.edges
            if u in new_of_old and v in new_of_old
        ]
        return Graph(len(keep), es), new_of_old

    def __eq__(self, other):
        return (
            isinstance(other, Graph) and self.n == other.n and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, self.edges))

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
    """Normalize `cut` to an edge set of `g` in O(|cut|); non-edges raise."""
    removed = edge_set(cut)
    extra = removed - g.edges
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
    """Minimum s-t edge cut via augmenting paths on unit capacities.

    Returns (size, cut edges).  Size equals the max number of edge-disjoint
    s-t paths; the cut is read off the residual reachability split.
    """
    if s == t:
        raise InputError("min_st_cut needs s != t")
    # residual capacity per directed arc; undirected edge = two unit arcs
    resid: dict[tuple[int, int], int] = {}
    for u, v in g.edges:
        resid[(u, v)] = 1
        resid[(v, u)] = 1
    value = 0
    while True:
        parent = [-1] * g.n
        parent[s] = s
        queue = deque([s])
        while queue and parent[t] == -1:
            u = queue.popleft()
            for w in g.adj[u]:
                if parent[w] == -1 and resid[(u, w)] > 0:
                    parent[w] = u
                    queue.append(w)
        if parent[t] == -1:
            break
        v = t
        while v != s:
            u = parent[v]
            resid[(u, v)] -= 1
            resid[(v, u)] += 1
            v = u
        value += 1
    reach = [False] * g.n
    reach[s] = True
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for w in g.adj[u]:
            if not reach[w] and resid[(u, w)] > 0:
                reach[w] = True
                queue.append(w)
    cut = frozenset(e for e in g.edges if reach[e[0]] != reach[e[1]])
    if len(cut) != value:
        raise InternalCheckError(
            f"flow value {value} disagrees with residual cut size {len(cut)}"
        )
    return value, cut
