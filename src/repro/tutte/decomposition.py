"""Construction of the Tutte decomposition (Section 2.2).

The decomposition of a 2-connected multigraph ``G`` is built exactly as in
the paper's recursive definition: while some graph in the current collection
has a 2-separation, replace it by the two sides of a simple decomposition,
introducing a pair of marker edges between the separation vertices; finally,
merge any two bonds (or two polygons) that share a marker edge.  The result
is the unique canonical decomposition of Cunningham–Edmonds / Hopcroft–Tarjan
into bonds, polygons and 3-connected members.

Two interchangeable *engines* locate the 2-separations (the ``engine``
keyword of :meth:`TutteDecomposition.build`, mirroring the
``kernel="indexed"|"reference"`` pattern of the solvers):

* ``"spqr"`` (the default) uses the Hopcroft–Tarjan palm-tree machinery of
  :mod:`repro.graph.spqr` — lowpoint computation, bond / polygon / type-1
  split rules — answering almost every location query in ``O(n + m)``;
* ``"splitpair"`` is the original polynomial split-pair search
  (:func:`repro.graph.separation.find_two_separation`, ``O(n(n+m))`` per
  query), kept as the executable reference specification.

Because the canonical decomposition is unique, both engines produce the same
object — the same partition of the real edges into members, the same member
kinds, the same decomposition tree — which :meth:`TutteDecomposition.
canonical_form` exposes as a comparable value and the differential suite
(``tests/test_spqr_differential.py``) sweeps.  Engine-dependent
instrumentation (``split_count``) is documented as such; see DESIGN.md
("SPQR engine") for where the spqr engine deviates from Hopcroft–Tarjan as
published.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

from ..errors import DecompositionError, NotTwoConnectedError
from ..graph.multigraph import MultiGraph
from ..graph.separation import find_two_separation
from ..graph.spqr import spqr_two_separation
from ..graph.traversal import is_biconnected
from ..obs.trace import current_tracer
from .members import MARKER_KIND, Member, MemberKind

__all__ = ["TutteDecomposition", "ENGINES", "DEFAULT_ENGINE", "resolve_engine"]

#: the recognised values of the public ``engine`` keyword
ENGINES = ("spqr", "splitpair")

#: the engine used when ``engine`` is ``None`` (callers pass ``None`` through
#: so the default is decided in exactly one place)
DEFAULT_ENGINE = "spqr"

#: 2-separation finder backing each engine
_FINDERS = {
    "spqr": spqr_two_separation,
    "splitpair": find_two_separation,
}


def resolve_engine(engine: str | None) -> str:
    """Validate an ``engine`` keyword value, mapping ``None`` to the default."""
    if engine is None:
        return DEFAULT_ENGINE
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    return engine


def _marker_eid(marker_id: int) -> int:
    """Edge id used for marker ``marker_id`` inside member graphs.

    Real edges use non-negative ids, markers use negative ids, so the two
    never collide.
    """
    return -(marker_id + 1)


class TutteDecomposition:
    """The Tutte decomposition of a 2-connected multigraph.

    Instances are built with :meth:`build`.  The decomposition stores its
    members, the marker links forming the decomposition tree, and a map from
    real edge ids to the member containing them.
    """

    def __init__(self) -> None:
        self.members: dict[int, Member] = {}
        #: marker id -> (member id, member id)
        self.marker_links: dict[int, tuple[int, int]] = {}
        #: real edge id -> member id
        self.edge_to_member: dict[int, int] = {}
        #: number of simple decompositions performed (instrumentation).
        #: Engine-dependent: different engines may reach the canonical
        #: decomposition through different split sequences, so compare
        #: ``len(self.members)`` / ``members_by_kind()`` across engines, not
        #: this counter.
        self.split_count: int = 0
        #: number of canonical bond/bond and polygon/polygon merges performed
        self.merge_count: int = 0
        #: the engine that built this decomposition ("spqr" or "splitpair")
        self.engine: str = DEFAULT_ENGINE
        self._next_mid = 0
        self._next_marker = 0

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls, graph: MultiGraph, *, engine: str | None = None
    ) -> "TutteDecomposition":
        """Decompose ``graph`` (which must be 2-connected, with >= 1 edge).

        ``engine`` selects how 2-separations are located: ``"spqr"`` (the
        default) uses the near-linear palm-tree rules of
        :mod:`repro.graph.spqr`; ``"splitpair"`` is the polynomial reference
        search.  Both produce the identical canonical decomposition.
        """
        engine = resolve_engine(engine)
        tracer = current_tracer()
        if not tracer.enabled:
            return cls._build(graph, engine)
        with tracer.span(
            "tutte.build",
            n=graph.num_vertices,
            m=graph.num_edges,
            engine=engine,
        ):
            return cls._build(graph, engine)

    @classmethod
    def _build(cls, graph: MultiGraph, engine: str) -> "TutteDecomposition":
        find_separation = _FINDERS[engine]
        if graph.num_edges == 0:
            raise DecompositionError("cannot decompose an empty graph")
        if not is_biconnected(graph):
            raise NotTwoConnectedError(
                "Tutte decomposition requires a 2-connected graph"
            )
        deco = cls()
        deco.engine = engine
        work: list[MultiGraph] = [graph.copy()]
        finished: list[MultiGraph] = []
        while work:
            current = work.pop()
            sep = find_separation(current)
            if sep is None:
                finished.append(current)
                continue
            deco.split_count += 1
            marker = deco._next_marker
            deco._next_marker += 1
            side = set(sep.side)
            if 2 * len(side) > current.num_edges:
                side = {eid for eid in current.edge_ids() if eid not in side}
            # copy the small side out, peel it off the large side in place
            g1 = current.subgraph_from_edges(side)
            current.remove_edges(side)
            g1.add_edge(sep.u, sep.v, kind=MARKER_KIND, label=marker, eid=_marker_eid(marker))
            current.add_edge(sep.u, sep.v, kind=MARKER_KIND, label=marker, eid=_marker_eid(marker))
            work.append(g1)
            work.append(current)

        for g in finished:
            deco._add_member(g)
        deco._link_markers()
        deco._canonical_merge()
        deco._reindex_edges()
        deco._validate()
        return deco

    # -- helpers --------------------------------------------------------- #
    def _add_member(self, graph: MultiGraph) -> int:
        mid = self._next_mid
        self._next_mid += 1
        self.members[mid] = Member(mid, graph, Member.classify(graph))
        return mid

    def _link_markers(self) -> None:
        locations: dict[int, list[int]] = {}
        for mid, member in self.members.items():
            for marker in member.marker_ids():
                locations.setdefault(marker, []).append(mid)
        links: dict[int, tuple[int, int]] = {}
        for marker, mids in locations.items():
            if len(mids) != 2:
                raise DecompositionError(
                    f"marker {marker} appears in {len(mids)} members (expected 2)"
                )
            links[marker] = (mids[0], mids[1])
        self.marker_links = links

    def _canonical_merge(self) -> None:
        """Merge adjacent bond/bond and polygon/polygon member pairs."""
        changed = True
        while changed:
            changed = False
            for marker, (ma, mb) in list(self.marker_links.items()):
                if ma == mb:  # pragma: no cover - defensive
                    raise DecompositionError("marker links a member to itself")
                a, b = self.members[ma], self.members[mb]
                if a.kind != b.kind or a.kind is MemberKind.RIGID:
                    continue
                self._merge_pair(marker, ma, mb)
                changed = True
                break

    def _merge_pair(self, marker: int, ma: int, mb: int) -> None:
        a, b = self.members[ma], self.members[mb]
        merged = MultiGraph()
        for source in (a.graph, b.graph):
            for edge in source.edges():
                if edge.kind == MARKER_KIND and edge.label == marker:
                    continue
                merged.add_edge(
                    edge.u, edge.v, kind=edge.kind, label=edge.label, eid=edge.eid
                )
        new_mid = self._add_member(merged)
        new_member = self.members[new_mid]
        expected = a.kind
        if new_member.kind != expected:
            # Merging two bonds yields a bond and two polygons a polygon; any
            # other outcome indicates an internal inconsistency.
            raise DecompositionError(
                f"merging members of kind {expected} produced {new_member.kind}"
            )
        del self.members[ma]
        del self.members[mb]
        del self.marker_links[marker]
        self.merge_count += 1
        for other_marker, (x, y) in list(self.marker_links.items()):
            nx = new_mid if x in (ma, mb) else x
            ny = new_mid if y in (ma, mb) else y
            self.marker_links[other_marker] = (nx, ny)

    def _reindex_edges(self) -> None:
        self.edge_to_member = {}
        for mid, member in self.members.items():
            for eid in member.real_edge_ids():
                if eid in self.edge_to_member:
                    raise DecompositionError(f"edge {eid} appears in two members")
                self.edge_to_member[eid] = mid

    def _validate(self) -> None:
        for marker, (ma, mb) in self.marker_links.items():
            if ma not in self.members or mb not in self.members:
                raise DecompositionError(f"marker {marker} links a missing member")
        # the decomposition tree must be a tree: |markers| == |members| - 1
        if self.members and len(self.marker_links) != len(self.members) - 1:
            raise DecompositionError(
                "marker links do not form a tree over the members"
            )

    # ------------------------------------------------------------------ #
    # tree structure
    # ------------------------------------------------------------------ #
    def tree_neighbors(self, mid: int) -> list[tuple[int, int]]:
        """``(marker id, neighbouring member id)`` pairs for member ``mid``."""
        out = []
        for marker, (ma, mb) in self.marker_links.items():
            if ma == mid:
                out.append((marker, mb))
            elif mb == mid:
                out.append((marker, ma))
        return out

    def rooted(self, root_mid: int) -> dict[int, tuple[int, int] | None]:
        """Parent map for the decomposition tree rooted at ``root_mid``.

        Returns ``mid -> (marker id, parent mid)`` with ``None`` for the root.
        """
        if root_mid not in self.members:
            raise DecompositionError(f"unknown member id {root_mid}")
        parent: dict[int, tuple[int, int] | None] = {root_mid: None}
        stack = [root_mid]
        while stack:
            mid = stack.pop()
            for marker, other in self.tree_neighbors(mid):
                if other in parent:
                    continue
                parent[other] = (marker, mid)
                stack.append(other)
        if len(parent) != len(self.members):  # pragma: no cover - defensive
            raise DecompositionError("decomposition tree is not connected")
        return parent

    def tree_path(self, from_mid: int, to_mid: int) -> list[int]:
        """Member ids along the unique tree path from ``from_mid`` to ``to_mid``."""
        parent = self.rooted(from_mid)
        path = [to_mid]
        while path[-1] != from_mid:
            link = parent[path[-1]]
            if link is None:  # pragma: no cover - defensive
                raise DecompositionError("tree path lookup escaped the root")
            path.append(link[1])
        path.reverse()
        return path

    # ------------------------------------------------------------------ #
    # minimal decompositions (Section 2.2)
    # ------------------------------------------------------------------ #
    def minimal_members(self, edge_ids: Iterable[int]) -> set[int]:
        """Member ids of the minimal decomposition with respect to ``edge_ids``.

        This is the Steiner subtree of the decomposition tree spanning every
        member that contains one of the given (real) edges: every edge of the
        set lies in some member of the result, and every leaf of the result
        contains one of the edges.
        """
        targets = {self.edge_to_member[eid] for eid in edge_ids}
        if not targets:
            return set()
        if len(targets) == 1:
            return set(targets)
        root = next(iter(targets))
        parent = self.rooted(root)
        keep: set[int] = set(targets)
        for mid in targets:
            cur = mid
            while cur != root and cur is not None:
                link = parent[cur]
                cur = link[1] if link else None
                if cur is not None:
                    if cur in keep:
                        break
                    keep.add(cur)
        return keep

    def subtree_leaves(self, subtree: set[int], root_mid: int) -> list[int]:
        """Leaf members of ``subtree`` when rooted at ``root_mid``.

        A leaf is a member of the subtree, different from the root, all of
        whose subtree neighbours coincide with its (unique) parent.
        """
        leaves = []
        for mid in subtree:
            if mid == root_mid:
                continue
            inside = [other for _, other in self.tree_neighbors(mid) if other in subtree]
            if len(inside) <= 1:
                leaves.append(mid)
        return sorted(leaves)

    # ------------------------------------------------------------------ #
    # recomposition (testing aid; the choice-aware version lives in compose.py)
    # ------------------------------------------------------------------ #
    def compose_original(self) -> MultiGraph:
        """Recompose the decomposition by identifying like-labelled vertices.

        Because member graphs preserve the original vertex labels, gluing
        every marker with the identity end mapping reproduces the original
        graph exactly (same vertices, same edge ids).
        """
        g = MultiGraph()
        for member in self.members.values():
            for edge in member.graph.edges():
                if edge.kind == MARKER_KIND:
                    continue
                if edge.eid not in g:
                    g.add_edge(edge.u, edge.v, kind=edge.kind, label=edge.label, eid=edge.eid)
        return g

    # ------------------------------------------------------------------ #
    # instrumentation and engine-independent canonical identity
    # ------------------------------------------------------------------ #
    def members_by_kind(self) -> dict[str, int]:
        """Member counts keyed by kind value (engine-independent)."""
        counts = {kind.value: 0 for kind in MemberKind}
        for member in self.members.values():
            counts[member.kind.value] += 1
        return counts

    def summary(self) -> dict[str, object]:
        """Counts of member kinds, for instrumentation and tests.

        ``members`` / ``markers`` and the per-kind counts are canonical
        (identical for every engine); ``splits`` and ``merges`` describe the
        construction path and are engine-dependent.
        """
        counts: dict[str, object] = dict(self.members_by_kind())
        counts["members"] = len(self.members)
        counts["markers"] = len(self.marker_links)
        counts["splits"] = self.split_count
        counts["merges"] = self.merge_count
        counts["engine"] = self.engine
        return counts

    def _vertex_keys(self) -> dict:
        """Canonical per-vertex identities: each vertex mapped to the sorted
        tuple of its incident *real* edge ids across all members (i.e. its
        incidence in the original graph).

        Edge ids are canonical integers shared by every engine, so these keys
        are deterministic, orderable and — unlike ``repr`` — collision-free
        for distinct vertex objects: two vertices with identical incident
        real-edge sets can only occur in a single-member bond, which has no
        markers to label.
        """
        incident: dict = {}
        for member in self.members.values():
            for edge in member.graph.edges():
                if edge.kind == MARKER_KIND:
                    continue
                incident.setdefault(edge.u, set()).add(edge.eid)
                incident.setdefault(edge.v, set()).add(edge.eid)
        return {v: tuple(sorted(eids)) for v, eids in incident.items()}

    def _member_base_label(self, mid: int, vertex_keys: dict | None = None) -> tuple:
        """Engine-independent label of one member: kind, real edges, marker
        attachment pairs (vertices identified by :meth:`_vertex_keys`)."""
        if vertex_keys is None:
            vertex_keys = self._vertex_keys()
        member = self.members[mid]
        marker_pairs = sorted(
            tuple(sorted((vertex_keys[e.u], vertex_keys[e.v])))
            for e in member.graph.edges_by_kind(MARKER_KIND)
        )
        return (
            member.kind.value,
            tuple(sorted(member.real_edge_ids())),
            tuple(marker_pairs),
        )

    def canonical_form(self) -> tuple:
        """A hashable canonical identity of the decomposition.

        Two decompositions of the same graph compare equal here iff they have
        the same members (kind, real edge sets, marker attachments) arranged
        in the same tree — independent of engine, split order, member ids and
        marker ids.  Computed by rooting the decomposition tree at its
        centre(s) and taking the lexicographically least AHU-style code.
        """
        if not self.members:
            return ()
        vertex_keys = self._vertex_keys()
        labels = {
            mid: self._member_base_label(mid, vertex_keys) for mid in self.members
        }
        neighbors: dict[int, list[int]] = {mid: [] for mid in self.members}
        for ma, mb in self.marker_links.values():
            neighbors[ma].append(mb)
            neighbors[mb].append(ma)

        # peel leaves to find the tree centre(s)
        degree = {mid: len(adj) for mid, adj in neighbors.items()}
        remaining = set(self.members)
        layer = [mid for mid in remaining if degree[mid] <= 1]
        while len(remaining) > 2:
            next_layer = []
            for mid in layer:
                remaining.discard(mid)
                for other in neighbors[mid]:
                    if other in remaining:
                        degree[other] -= 1
                        if degree[other] == 1:
                            next_layer.append(other)
            layer = next_layer

        def code(root: int) -> tuple:
            # iterative post-order (decomposition trees can be path-shaped
            # with thousands of members, beyond the recursion limit)
            codes: dict[int, tuple] = {}
            stack: list[tuple[int, int | None, bool]] = [(root, None, False)]
            while stack:
                mid, parent, expanded = stack.pop()
                if expanded:
                    children = sorted(
                        codes[other] for other in neighbors[mid] if other != parent
                    )
                    codes[mid] = (labels[mid], tuple(children))
                else:
                    stack.append((mid, parent, True))
                    for other in neighbors[mid]:
                        if other != parent:
                            stack.append((other, mid, False))
            return codes[root]

        return min(code(centre) for centre in remaining)
