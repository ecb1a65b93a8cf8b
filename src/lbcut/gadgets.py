"""Shared machinery for building gadget graphs out of subdivided paths.

Generated graphs are navigated structurally.  Each anchor vertex carries a
role tag, and each subdivided path is registered under its own tag with its
full vertex sequence (endpoints, which are anchors, included).  A path's
interior is a run of consecutive ids and carries no tag of its own, so
every vertex is an anchor or the interior of exactly one path.  Tags are
plain ':'-joined strings, so they survive a round trip through instance
files.  `LexEdges` numbers the source graph's edges for both clique-search
inputs.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

from .errors import InputError, InternalCheckError
from .graph import Edge, Graph, Instance, edge


def role(*parts) -> str:
    return ":".join(str(p) for p in parts)


class LexEdges:
    """Lexicographic edge numbering of a reduction's source graph.

    Mixed into the clique-search inputs, which carry the source as `graph`
    and the clique size as `k`; both reductions index their gadgets by the
    positions e_1..e_m.
    """

    @cached_property
    def edges_lex(self) -> tuple[Edge, ...]:
        """e_1..e_m as 0-based sorted pairs, lexicographic order."""
        return tuple(self.graph.edge_list())

    def edge_position(self, u: int, v: int) -> int:
        """1-based lexicographic position of an edge."""
        e = edge(u, v)
        i = bisect_left(self.edges_lex, e)
        if i == len(self.edges_lex) or self.edges_lex[i] != e:
            raise InputError(f"{e} is not an edge of the source graph")
        return i + 1

    def check_clique(self, clique) -> list[int]:
        """The sorted members of `clique`, a k-clique of `graph`, or InputError.

        Messages name vertices by their 1-based index (index(v) = v + 1).
        """
        members = sorted(set(clique))
        if len(members) != self.k:
            raise InputError(
                f"expected {self.k} distinct vertices, got {[v + 1 for v in sorted(clique)]}"
            )
        for v in members:
            if not (0 <= v < self.graph.n):
                raise InputError(f"vertex {v + 1} out of range")
        for u, v in combinations(members, 2):
            if not self.graph.has_edge(u, v):
                raise InputError(f"vertices {u + 1} and {v + 1} are not adjacent")
        return members

    def clique_or_none(self, chosen) -> tuple[int, ...] | None:
        """`chosen` as a tuple if check_clique accepts it, else None."""
        try:
            self.check_clique(chosen)
        except InputError:
            return None
        return tuple(chosen)


class GadgetBuilder:
    """Accumulates anchors, edges, and subdivided paths, then emits a Graph."""

    def __init__(self):
        self.n = 0
        self.edges: list[tuple[int, int]] = []
        self.paths: dict[str, tuple[int, ...]] = {}
        self.vertex_by_role: dict[str, int] = {}  # anchors; `paths` holds the rest

    def vertex(self, tag: str) -> int:
        if tag in self.vertex_by_role:
            raise InternalCheckError(f"duplicate vertex role {tag!r}")
        vid = self.n
        self.n += 1
        self.vertex_by_role[tag] = vid
        return vid

    def edge(self, u: int, v: int) -> None:
        self.edges.append((u, v))

    def path(self, u: int, v: int, length: int, tag: str) -> tuple[int, ...]:
        """A u-v path with `length` >= 2 edges, its interior new consecutive
        ids; a length-1 path would just be an edge."""
        if length < 2:
            raise InternalCheckError(f"path {tag!r} needs length at least 2")
        if tag in self.paths:
            raise InternalCheckError(f"duplicate path role {tag!r}")
        first = self.n
        self.n += length - 1
        seq = (u, *range(first, self.n), v)
        self.edges.extend(zip(seq, seq[1:]))
        self.paths[tag] = seq
        return seq

    def graph(self) -> Graph:
        """The built graph; a self-loop or repeated edge is a generator bug."""
        try:
            return Graph(self.n, self.edges)
        except InputError as err:
            raise InternalCheckError(str(err)) from err

    def output(self, s: int, t: int, beta: int, lam: int, params, source) -> "ReductionOutput":
        """The built graph as an instance, with its paths, anchors and params."""
        return ReductionOutput(
            instance=Instance(self.graph(), s, t, beta, lam),
            paths=self.paths,
            vertex_by_role=self.vertex_by_role,
            params=params,
            source=source,
        )


@dataclass(frozen=True)
class ReductionOutput:
    """A generated hard instance with its structural annotations.

    paths maps each subdivided path's tag to its vertex sequence, endpoints
    included, in registration order; its interior is a run of consecutive
    ids.  vertex_by_role maps each anchor's tag to its vertex.  Every vertex
    is an anchor or the interior of one path.  params always holds the
    reduction family plus the parameter values the construction promises
    (k, n, m, and eta or nu).
    """

    instance: Instance
    paths: dict[str, tuple[int, ...]]
    vertex_by_role: dict[str, int]
    params: dict[str, int | str] = field(compare=False)
    source: object = field(compare=False, default=None)

    def source_of(self, family: str, kind: type):
        """The source input of a gen_<family> output, or InputError."""
        if self.params.get("family") != family or not isinstance(self.source, kind):
            raise InputError(f"output was not generated by gen_{family}")
        return self.source

    def anchor(self, *parts) -> int:
        tag = role(*parts)
        v = self.vertex_by_role.get(tag)
        if v is None:
            raise InputError(f"no vertex with role {tag!r}")
        return v

    def path_seq(self, *parts) -> tuple[int, ...]:
        tag = role(*parts)
        seq = self.paths.get(tag)
        if seq is None:
            raise InputError(f"no path with role {tag!r}")
        return seq
