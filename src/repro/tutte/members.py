"""Members of a Tutte decomposition.

Each member is a small multigraph whose edges are either *real* edges of the
decomposed graph (their edge ids are preserved) or *marker* edges introduced
by the simple decompositions; every marker edge appears in exactly two
members and links them in the decomposition tree.

Members are classified as bonds (two vertices, parallel edges), polygons
(cycles of at least three edges) or rigid members (3-connected graphs on at
least four vertices), following Section 2.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Hashable

from ..errors import DecompositionError
from ..graph.multigraph import MultiGraph

__all__ = ["MemberKind", "Member", "MARKER_KIND"]

#: Edge ``kind`` tag used for marker (virtual) edges inside member graphs.
MARKER_KIND = "marker"


class MemberKind(str, Enum):
    """The three member types of a Tutte decomposition."""

    BOND = "bond"
    POLYGON = "polygon"
    RIGID = "rigid"


@dataclass
class Member:
    """One member of a Tutte decomposition.

    Attributes
    ----------
    mid:
        The member id, unique within the decomposition.
    graph:
        The member graph.  Real edges keep their original edge ids and
        kind/label; marker edges have ``kind == "marker"`` and their label is
        the marker id shared with the partner member.
    kind:
        Bond, polygon or rigid.
    """

    mid: int
    graph: MultiGraph
    kind: MemberKind

    # ------------------------------------------------------------------ #
    def marker_ids(self) -> list[Hashable]:
        """Marker ids present in this member."""
        return [e.label for e in self.graph.edges_by_kind(MARKER_KIND)]

    def real_edge_ids(self) -> list[int]:
        """Edge ids of the real (non-marker) edges of this member."""
        return [e.eid for e in self.graph.edges() if e.kind != MARKER_KIND]

    def marker_edge(self, marker_id: Hashable):
        """The member's edge object carrying ``marker_id``."""
        for e in self.graph.edges_by_kind(MARKER_KIND):
            if e.label == marker_id:
                return e
        raise DecompositionError(
            f"member {self.mid} does not contain marker {marker_id!r}"
        )

    @staticmethod
    def classify(graph: MultiGraph) -> MemberKind:
        """Classify a split-free graph as bond, polygon or rigid."""
        if graph.is_bond():
            return MemberKind.BOND
        if graph.is_polygon():
            return MemberKind.POLYGON
        return MemberKind.RIGID

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Member(mid={self.mid}, kind={self.kind.value}, "
            f"V={self.graph.num_vertices}, E={self.graph.num_edges})"
        )
