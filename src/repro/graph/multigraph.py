"""Edge-labelled multigraphs with stable edge identities.

The Tutte decomposition manipulates graphs whose edges carry identities (a
column id, an atom id, or a marker id) that must survive splitting, merging
and recomposition.  Vertices are arbitrary hashable objects; parallel edges
and (rejected) self-loops are handled explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator

from ..errors import GraphError

Vertex = Hashable

__all__ = ["Edge", "MultiGraph"]

#: Edge kinds used by the realization machinery.
PATH = "path"
NONPATH = "nonpath"
MARKER = "marker"


@dataclass(frozen=True)
class Edge:
    """An edge with a stable identity.

    Attributes
    ----------
    eid:
        The edge identifier, unique within a graph (and preserved across the
        Tutte decomposition / composition round trip).
    u, v:
        Endpoints.  The pair is unordered; ``u`` and ``v`` are stored in the
        order given at insertion.
    kind:
        Free-form tag; the realization machinery uses ``"path"``,
        ``"nonpath"`` and ``"marker"``.
    label:
        Free-form payload (an atom for path edges, a column id for non-path
        edges, a marker id for markers).
    """

    eid: int
    u: Vertex
    v: Vertex
    kind: str = "edge"
    label: Hashable = None

    def endpoints(self) -> frozenset:
        return frozenset((self.u, self.v))

    def other(self, vertex: Vertex) -> Vertex:
        """The endpoint different from ``vertex``."""
        if vertex == self.u:
            return self.v
        if vertex == self.v:
            return self.u
        raise GraphError(f"vertex {vertex!r} is not an endpoint of edge {self.eid}")


class MultiGraph:
    """A mutable multigraph with integer edge ids.

    The class is deliberately small: it stores adjacency as
    ``vertex -> list of edge ids`` and the edge table as ``eid -> Edge``, and
    provides only the operations the decomposition machinery needs.
    """

    def __init__(self) -> None:
        self._edges: dict[int, Edge] = {}
        self._adj: dict[Vertex, list[int]] = {}
        self._next_eid = 0

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_vertex(self, v: Vertex) -> None:
        self._adj.setdefault(v, [])

    def add_edge(
        self,
        u: Vertex,
        v: Vertex,
        *,
        kind: str = "edge",
        label: Hashable = None,
        eid: int | None = None,
    ) -> int:
        """Insert an edge and return its id.

        Self-loops are rejected: they never occur in realization graphs and
        would complicate the 2-separation machinery.
        """
        if u == v:
            raise GraphError("self-loops are not supported")
        if eid is None:
            eid = self._next_eid
        if eid in self._edges:
            raise GraphError(f"edge id {eid} already present")
        self._next_eid = max(self._next_eid, eid + 1)
        edge = Edge(eid, u, v, kind, label)
        self._edges[eid] = edge
        self._adj.setdefault(u, []).append(eid)
        self._adj.setdefault(v, []).append(eid)
        return eid

    def remove_edge(self, eid: int) -> Edge:
        try:
            edge = self._edges.pop(eid)
        except KeyError as exc:
            raise GraphError(f"edge id {eid} not in graph") from exc
        self._adj[edge.u].remove(eid)
        self._adj[edge.v].remove(eid)
        return edge

    def remove_edges(self, eids: Iterable[int]) -> None:
        """Remove the given edges, pruning endpoints left without any edge.

        The in-place counterpart of :meth:`subgraph_from_edges` over the
        complementary edge set: used by the decomposition engines to peel a
        small separation side off a large working graph without copying the
        large side.
        """
        touched = set()
        for eid in eids:
            edge = self.remove_edge(eid)
            touched.add(edge.u)
            touched.add(edge.v)
        for v in touched:
            if not self._adj.get(v):
                self._adj.pop(v, None)

    def copy(self) -> "MultiGraph":
        g = MultiGraph()
        g._edges = dict(self._edges)
        g._adj = {v: list(inc) for v, inc in self._adj.items()}
        g._next_eid = self._next_eid
        return g

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def __contains__(self, eid: int) -> bool:
        return eid in self._edges

    @property
    def num_vertices(self) -> int:
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def vertices(self) -> list[Vertex]:
        return list(self._adj)

    def edges(self) -> list[Edge]:
        return list(self._edges.values())

    def edge_ids(self) -> list[int]:
        return list(self._edges)

    def edge(self, eid: int) -> Edge:
        try:
            return self._edges[eid]
        except KeyError as exc:
            raise GraphError(f"edge id {eid} not in graph") from exc

    def degree(self, v: Vertex) -> int:
        return len(self._adj.get(v, ()))

    def incident_edges(self, v: Vertex) -> list[int]:
        return list(self._adj.get(v, ()))

    def neighbors(self, v: Vertex) -> Iterator[Vertex]:
        for eid in self._adj.get(v, ()):
            yield self._edges[eid].other(v)

    def parallel_classes(self) -> dict[frozenset, list[int]]:
        """Edge ids grouped by endpoint pair."""
        classes: dict[frozenset, list[int]] = {}
        for eid, edge in self._edges.items():
            classes.setdefault(edge.endpoints(), []).append(eid)
        return classes

    def edges_between(self, u: Vertex, v: Vertex) -> list[int]:
        key = frozenset((u, v))
        return [eid for eid in self._adj.get(u, ()) if self._edges[eid].endpoints() == key]

    def subgraph_from_edges(self, eids: Iterable[int]) -> "MultiGraph":
        """The subgraph induced by the given edge ids (edge ids preserved)."""
        g = MultiGraph()
        for eid in eids:
            edge = self.edge(eid)
            g.add_edge(edge.u, edge.v, kind=edge.kind, label=edge.label, eid=edge.eid)
        return g

    def edges_by_kind(self, kind: str) -> list[Edge]:
        return [e for e in self._edges.values() if e.kind == kind]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MultiGraph(V={self.num_vertices}, E={self.num_edges})"

    # ------------------------------------------------------------------ #
    # structure predicates used by the Tutte decomposition
    # ------------------------------------------------------------------ #
    def is_bond(self) -> bool:
        """A bond: at least two parallel edges on exactly two vertices."""
        if self.num_vertices != 2 or self.num_edges < 2:
            return False
        verts = set(self.vertices())
        return all(e.endpoints() == frozenset(verts) for e in self.edges())

    def is_polygon(self) -> bool:
        """A polygon: a simple cycle with at least three edges."""
        if self.num_edges < 3 or self.num_edges != self.num_vertices:
            return False
        if any(self.degree(v) != 2 for v in self.vertices()):
            return False
        # degree-2 everywhere and |E| == |V|: connected  <=>  single cycle
        from .traversal import is_connected  # local import to avoid a cycle

        return is_connected(self)

    def polygon_cycle_order(self) -> list[int]:
        """The edge ids of a polygon in cyclic order (starting anywhere)."""
        if not self.is_polygon():
            raise GraphError("polygon_cycle_order called on a non-polygon graph")
        start = next(iter(self.vertices()))
        order: list[int] = []
        prev_edge: int | None = None
        vertex = start
        while True:
            nxt = [eid for eid in self.incident_edges(vertex) if eid != prev_edge]
            eid = nxt[0]
            order.append(eid)
            vertex = self.edge(eid).other(vertex)
            prev_edge = eid
            if vertex == start:
                break
        return order
