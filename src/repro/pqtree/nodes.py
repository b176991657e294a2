"""PQ-tree node types.

A PQ-tree over a ground set represents a family of permutations:

* a **leaf** holds one ground-set element;
* a **P-node**'s children may be permuted arbitrarily;
* a **Q-node**'s children keep their order up to full reversal.

Every node carries a leaf bitmask: ``1 << i`` on the leaf of the ``i``-th
ground-set element, and the OR of its children's masks on an internal node.
A reduction labels nodes full, empty or partial by testing these masks
against the subset's mask, so it visits only the pertinent subtree and
the path above it.  The reduction machinery lives in :mod:`repro.pqtree.pqtree`,
which keeps an internal node's mask current whenever it rewrites the
node's children; here only the node containers and a few structural
helpers are defined.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator

__all__ = ["PQNode", "PQLeaf", "PNode", "QNode", "union_mask", "wrap_children"]


class PQNode:
    """Base class for PQ-tree nodes."""

    __slots__ = ("children", "mask")

    def __init__(self, children: Iterable["PQNode"] = ()) -> None:
        self.children: list[PQNode] = list(children)
        #: the leaves below this node, one bit per ground-set element
        self.mask = union_mask(self.children)

    # -- structure ------------------------------------------------------- #
    def leaves(self) -> Iterator["PQLeaf"]:
        stack: list[PQNode] = [self]
        out: list[PQLeaf] = []
        while stack:
            node = stack.pop()
            if isinstance(node, PQLeaf):
                out.append(node)
            else:
                stack.extend(reversed(node.children))
        return iter(out)

    def leaf_values(self) -> list[Hashable]:
        return [leaf.value for leaf in self.leaves()]

    def size(self) -> int:
        """Total number of nodes in the subtree (used by tests)."""
        return 1 + sum(child.size() for child in self.children)

    def clone(self) -> "PQNode":
        return type(self)([c.clone() for c in self.children])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({len(self.children)} children)"


class PQLeaf(PQNode):
    """A leaf holding one ground-set element; ``mask`` is its own bit."""

    __slots__ = ("value",)

    def __init__(self, value: Hashable, mask: int) -> None:
        super().__init__(())
        self.value = value
        self.mask = mask

    def clone(self) -> "PQLeaf":
        return PQLeaf(self.value, self.mask)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PQLeaf({self.value!r})"


class PNode(PQNode):
    """Children may appear in any order."""

    __slots__ = ()


class QNode(PQNode):
    """Children keep their order, up to reversal of the whole sequence."""

    __slots__ = ()


def union_mask(nodes: Iterable[PQNode]) -> int:
    """The OR of ``nodes``' leaf masks."""
    mask = 0
    for node in nodes:
        mask |= node.mask
    return mask


def wrap_children(nodes: list[PQNode]) -> PQNode | None:
    """Zero, one or many nodes wrapped for insertion as a single child.

    ``None`` for an empty list, the node itself for a singleton, and a fresh
    P-node otherwise (the standard grouping used by the reduction templates).
    """
    if not nodes:
        return None
    if len(nodes) == 1:
        return nodes[0]
    return PNode(nodes)
