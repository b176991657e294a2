"""Edge alignment via Whitney switches (Section 4.1, Cases A, B and C).

Given the Tutte decomposition of a gp-realization, the divide-and-conquer
merge needs 2-isomorphic copies in which designated non-path edges are
incident to designated vertices:

* **Case A** — make edge ``f`` incident to an end vertex of the distinguished
  edge ``e``;
* **Case B** — make ``f`` and ``g`` incident to *distinct* end vertices of
  ``e``;
* **Case C** — make ``f`` and ``g`` incident to a *common* (arbitrary)
  vertex.

Theorem 2 reduces all three to choices of polygon relinkings and marker-edge
orientations.  The planner below expresses each case as an *adjacency chain*
along the decomposition tree: walking from the member containing one edge to
the member containing the other, each intermediate member must offer a common
endpoint between the marker it was entered through and the marker (or target
edge) it is left through.  Polygons can always be relinked to provide the
endpoint, bonds always provide it, and rigid members either already provide
it or the alignment is impossible (exactly the check conditions of the
paper's case analysis).

The planner returns :class:`~repro.tutte.compose.ComposeChoices`; composing
the decomposition with those choices yields a concrete 2-isomorphic copy in
which the requested incidences hold.  Because every composition of a Tutte
decomposition is 2-isomorphic to the original graph (Theorem 2), the result
is always a valid gp-realization of the same ensemble — callers only need to
verify the global alignment (GAP/GAC) conditions on it.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import AlignmentError
from ..graph.multigraph import MultiGraph
from ..tutte.compose import ComposeChoices
from ..tutte.decomposition import TutteDecomposition
from ..tutte.members import MARKER_KIND, Member, MemberKind

__all__ = ["AlignmentPlanner"]


def _marker_between(decomp: TutteDecomposition, mid_a: int, mid_b: int) -> int:
    for marker, (x, y) in decomp.marker_links.items():
        if {x, y} == {mid_a, mid_b}:
            return marker
    raise AlignmentError(f"members {mid_a} and {mid_b} are not adjacent in the tree")


class AlignmentPlanner:
    """Plans Whitney-switch alignments over a Tutte decomposition."""

    def __init__(self, decomposition: TutteDecomposition) -> None:
        self.decomp = decomposition

    # ------------------------------------------------------------------ #
    # public cases
    # ------------------------------------------------------------------ #
    def adjacency(self, a_eid: int, b_eid: int) -> ComposeChoices | None:
        """Cases A and C: make real edges ``a`` and ``b`` share a vertex.

        Returns compose choices, or ``None`` when no 2-isomorphic copy can
        realize the adjacency (a failed check at a rigid member).
        """
        if a_eid == b_eid:
            raise AlignmentError("cannot align an edge with itself")
        ma = self.decomp.edge_to_member[a_eid]
        mb = self.decomp.edge_to_member[b_eid]
        path = self.decomp.tree_path(ma, mb)
        choices = ComposeChoices()
        verts = self._chain(path, first_edge=("real", a_eid), last_edge=("real", b_eid), choices=choices)
        if verts is None:
            return None
        return choices

    def fork(self, e_eid: int, f_eid: int, g_eid: int) -> ComposeChoices | None:
        """Case B: make ``f`` and ``g`` incident to distinct end vertices of ``e``."""
        if len({e_eid, f_eid, g_eid}) != 3:
            raise AlignmentError("fork requires three distinct edges")
        me = self.decomp.edge_to_member[e_eid]
        mf = self.decomp.edge_to_member[f_eid]
        mg = self.decomp.edge_to_member[g_eid]
        path_f = self.decomp.tree_path(me, mf)
        path_g = self.decomp.tree_path(me, mg)

        # longest common prefix of the two tree paths
        prefix_len = 0
        while (
            prefix_len < len(path_f)
            and prefix_len < len(path_g)
            and path_f[prefix_len] == path_g[prefix_len]
        ):
            prefix_len += 1
        divergence = path_f[prefix_len - 1]

        # Members strictly before the divergence member must carry *both* end
        # vertices of e forward; only bonds have two distinct edges sharing
        # both endpoints, so every such member (including the root) must be a
        # bond.  (The paper's "R is not a bond" discussion covers the normal
        # situation where the divergence happens at the root itself.)
        for mid in path_f[: prefix_len - 1]:
            if self.decomp.members[mid].kind is not MemberKind.BOND:
                return None

        choices = ComposeChoices()
        dv_member = self.decomp.members[divergence]

        # the edge of the divergence member that carries e's ends
        if divergence == me:
            in_spec = ("real", e_eid)
        else:
            marker = _marker_between(self.decomp, path_f[prefix_len - 2], divergence)
            in_spec = ("marker", marker)

        # the edges leaving the divergence member toward f and toward g
        if mf == divergence:
            f_spec = ("real", f_eid)
        else:
            f_spec = ("marker", _marker_between(self.decomp, divergence, path_f[prefix_len]))
        if mg == divergence:
            g_spec = ("real", g_eid)
        else:
            g_spec = ("marker", _marker_between(self.decomp, divergence, path_g[prefix_len]))
        if f_spec == g_spec:
            # f and g are reached through the same child subtree: they cannot
            # be taken to distinct ends of e.
            return None

        arranged = self._arrange_fork(dv_member, in_spec, f_spec, g_spec, choices)
        if arranged is None:
            return None
        vertex_toward_f, vertex_toward_g = arranged

        # continue the two chains below the divergence member
        ok_f = self._continue_chain(
            path_f[prefix_len - 1 :], ("real", f_eid), vertex_toward_f, choices
        )
        if ok_f is None:
            return None
        ok_g = self._continue_chain(
            path_g[prefix_len - 1 :], ("real", g_eid), vertex_toward_g, choices
        )
        if ok_g is None:
            return None
        return choices

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    @staticmethod
    def _edge_obj(graph: MultiGraph, spec: tuple[str, int], member: Member):
        kind, ident = spec
        if kind == "real":
            return graph.edge(ident)
        # marker: find by label in the (possibly relinked) local graph
        for e in graph.edges_by_kind(MARKER_KIND):
            if e.label == ident:
                return e
        raise AlignmentError(f"marker {ident} missing from member {member.mid}")

    def _arrange_member(
        self,
        mid: int,
        in_spec: tuple[str, int],
        out_spec: tuple[str, int],
        choices: ComposeChoices,
    ):
        """Make ``in_spec`` and ``out_spec`` share a vertex inside member ``mid``.

        Returns the shared local vertex (in the member's possibly-relinked
        graph), or ``None`` when the member is rigid and the two edges do not
        already share a vertex.
        """
        member = self.decomp.members[mid]
        if member.kind is MemberKind.POLYGON:
            in_eid = self._spec_to_local_eid(member, in_spec)
            out_eid = self._spec_to_local_eid(member, out_spec)
            current = member.graph.polygon_cycle_order()
            rest = [eid for eid in current if eid not in (in_eid, out_eid)]
            order = [in_eid, out_eid] + rest
            choices.polygon_orders[mid] = order
            # after relinking, edge 0 joins vertices 0-1 and edge 1 joins 1-2
            return 1
        graph = member.graph
        e_in = self._edge_obj(graph, in_spec, member)
        e_out = self._edge_obj(graph, out_spec, member)
        shared = {e_in.u, e_in.v} & {e_out.u, e_out.v}
        if member.kind is MemberKind.BOND:
            return next(iter(shared))
        if not shared:
            return None
        return next(iter(shared))

    def _spec_to_local_eid(self, member: Member, spec: tuple[str, int]) -> int:
        kind, ident = spec
        if kind == "real":
            return ident
        return member.marker_edge(ident).eid

    def _arrange_fork(
        self,
        member: Member,
        in_spec: tuple[str, int],
        f_spec: tuple[str, int],
        g_spec: tuple[str, int],
        choices: ComposeChoices,
    ):
        """Inside ``member``, attach ``f_spec`` and ``g_spec`` to distinct ends of ``in_spec``.

        Returns ``(vertex toward f, vertex toward g)`` in the member's local
        graph, or ``None`` when impossible.
        """
        if member.kind is MemberKind.POLYGON:
            in_eid = self._spec_to_local_eid(member, in_spec)
            f_eid = self._spec_to_local_eid(member, f_spec)
            g_eid = self._spec_to_local_eid(member, g_spec)
            current = member.graph.polygon_cycle_order()
            rest = [eid for eid in current if eid not in (in_eid, f_eid, g_eid)]
            order = [f_eid, in_eid, g_eid] + rest
            choices.polygon_orders[member.mid] = order
            # edge 0 joins 0-1, edge 1 joins 1-2, edge 2 joins 2-3:
            # f touches in at vertex 1, g touches in at vertex 2.
            return 1, 2
        graph = member.graph
        e_in = self._edge_obj(graph, in_spec, member)
        e_f = self._edge_obj(graph, f_spec, member)
        e_g = self._edge_obj(graph, g_spec, member)
        if member.kind is MemberKind.BOND:
            return e_in.u, e_in.v
        # rigid: need f at one end of e_in and g at the other
        for u, v in ((e_in.u, e_in.v), (e_in.v, e_in.u)):
            if u in (e_f.u, e_f.v) and v in (e_g.u, e_g.v):
                return u, v
        return None

    def _chain(
        self,
        path: Sequence[int],
        first_edge: tuple[str, int],
        last_edge: tuple[str, int],
        choices: ComposeChoices,
    ):
        """Constrain every member along ``path`` so the first and last edges
        end up sharing a composed vertex.  Returns the list of chosen local
        vertices (one per member) or ``None``."""
        if len(path) == 1:
            v = self._arrange_member(path[0], first_edge, last_edge, choices)
            return None if v is None else [v]

        chosen: list = []
        for i, mid in enumerate(path):
            if i == 0:
                in_spec = first_edge
            else:
                in_spec = ("marker", _marker_between(self.decomp, path[i - 1], mid))
            if i == len(path) - 1:
                out_spec = last_edge
            else:
                out_spec = ("marker", _marker_between(self.decomp, mid, path[i + 1]))
            v = self._arrange_member(mid, in_spec, out_spec, choices)
            if v is None:
                return None
            chosen.append(v)

        # orientation constraints along the chain
        for i in range(len(path) - 1):
            marker = _marker_between(self.decomp, path[i], path[i + 1])
            choices.orientations[marker] = ((path[i], chosen[i]), (path[i + 1], chosen[i + 1]))
        return chosen

    def _continue_chain(
        self,
        path: Sequence[int],
        last_edge: tuple[str, int],
        start_vertex,
        choices: ComposeChoices,
    ):
        """Extend a fork branch: ``path[0]`` is the (already arranged)
        divergence member whose chosen local vertex is ``start_vertex``; the
        remaining members are constrained like a normal chain and the first
        marker's orientation is pinned to ``start_vertex``."""
        if len(path) == 1:
            # the target edge lives in the divergence member itself; nothing
            # further to constrain (the fork arrangement already placed it).
            return True
        marker0 = _marker_between(self.decomp, path[0], path[1])
        sub = self._chain(
            path[1:],
            first_edge=("marker", marker0),
            last_edge=last_edge,
            choices=choices,
        )
        if sub is None:
            return None
        choices.orientations[marker0] = ((path[0], start_vertex), (path[1], sub[0]))
        return True
