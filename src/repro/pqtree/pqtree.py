"""The PQ-tree REDUCE operation (Booth & Lueker 1976).

The tree represents every permutation of the ground set compatible with the
constraints reduced so far; ``reduce(S)`` restricts it to the permutations in
which the elements of ``S`` appear consecutively, or reports failure when no
such permutation remains.

The implementation applies the classical templates (P2–P6, Q2, Q3) in a
recursive bottom-up pass over the pertinent subtree.  Partial nodes are
normalised so that their full side comes first, which keeps the splicing
logic short.  Each reduction costs ``O(n)`` (the simple, non-amortized
variant); correctness — not the amortized constant — is what the baseline is
used for.

The templates rewrite ``children`` lists of the existing nodes as they go,
and a reduction can fail above a node it has already rewritten.  Every
rewrite is therefore logged, and a failed reduction replays the log
backwards, so it leaves the tree exactly as it found it.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

from ..errors import PQTreeError
from .nodes import PNode, PQLeaf, PQNode, QNode, wrap_children

__all__ = ["PQTree"]

EMPTY = "empty"
FULL = "full"
PARTIAL = "partial"


class _Fail(Exception):
    """Internal: the reduction is impossible."""


class PQTree:
    """A PQ-tree over a fixed ground set."""

    def __init__(self, ground_set: Iterable[Hashable]) -> None:
        values = list(ground_set)
        if len(set(values)) != len(values):
            raise PQTreeError("ground set contains duplicates")
        self._leaves = {v: PQLeaf(v) for v in values}
        if not values:
            self.root: PQNode | None = None
        elif len(values) == 1:
            self.root = self._leaves[values[0]]
        else:
            self.root = PNode([self._leaves[v] for v in values])
        #: ``(node, previous children list)`` per rewrite of the reduction
        #: in progress; replayed backwards when it fails.
        self._undo: list[tuple[PQNode, list[PQNode]]] = []

    # ------------------------------------------------------------------ #
    @property
    def ground_set(self) -> list[Hashable]:
        return list(self._leaves)

    def frontier(self) -> list[Hashable]:
        """The ground-set elements read off the leaves left to right.

        Any frontier of the tree is a permutation satisfying every constraint
        reduced so far.
        """
        if self.root is None:
            return []
        return self.root.leaf_values()

    def reduce(self, subset: Iterable[Hashable]) -> bool:
        """Constrain the elements of ``subset`` to be consecutive.

        Returns ``True`` on success.  On failure every rewrite the attempt
        made is undone — the tree, and so its frontier, is exactly as before
        the call — and ``False`` is returned.
        """
        s = set(subset)
        unknown = s - set(self._leaves)
        if unknown:
            raise PQTreeError(f"subset contains unknown elements: {sorted(map(repr, unknown))}")
        if len(s) <= 1 or len(s) >= len(self._leaves) or self.root is None:
            return True
        counts: dict[int, int] = {}
        self._count_full(self.root, s, counts)
        pertinent_root, parent, child_index = self._find_pertinent_root(s, counts)
        try:
            new_node, _label = self._reduce_node(
                pertinent_root, s, counts, is_root=True
            )
        except _Fail:
            for node, children in reversed(self._undo):
                node.children = children
            return False
        finally:
            self._undo.clear()
        new_node = _normalise(new_node)
        if parent is None:
            self.root = new_node
        else:
            parent.children[child_index] = new_node
        return True

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _count_full(self, node: PQNode, s: set, counts: dict[int, int]) -> int:
        if isinstance(node, PQLeaf):
            c = 1 if node.value in s else 0
        else:
            c = sum(self._count_full(child, s, counts) for child in node.children)
        counts[id(node)] = c
        return c

    def _find_pertinent_root(self, s: set, counts: dict[int, int]):
        """The deepest node whose subtree contains every element of ``s``.

        Returns ``(node, parent, index of node in parent.children)``.
        """
        node = self.root
        parent: PQNode | None = None
        index = -1
        target = len(s)
        while True:
            if isinstance(node, PQLeaf):
                return node, parent, index
            nxt = None
            for i, child in enumerate(node.children):
                if counts[id(child)] == target:
                    nxt = (i, child)
                    break
            if nxt is None:
                return node, parent, index
            parent, index, node = node, nxt[0], nxt[1]

    # -- template machinery ---------------------------------------------- #
    def _set_children(self, node: PQNode, children: list[PQNode]) -> None:
        """Rewrite ``node``'s children, logging the old list for undo."""
        self._undo.append((node, node.children))
        node.children = children

    def _reduce_node(
        self, node: PQNode, s: set, counts: dict[int, int], *, is_root: bool
    ) -> tuple[PQNode, str]:
        """Apply the reduction templates to ``node``.

        Returns the (possibly replaced) node and its label.  PARTIAL results
        are always Q-nodes whose children are ordered full side first.
        """
        count = counts[id(node)]
        if count == 0:
            return node, EMPTY
        if isinstance(node, PQLeaf):
            return node, FULL

        processed: list[tuple[PQNode, str]] = []
        for child in node.children:
            c = counts[id(child)]
            if c == 0:
                processed.append((child, EMPTY))
            elif c == counts_total(child, counts):
                processed.append((child, FULL))
            else:
                processed.append(self._reduce_node(child, s, counts, is_root=False))

        if isinstance(node, PNode):
            return self._reduce_p(node, processed, is_root)
        if isinstance(node, QNode):
            return self._reduce_q(node, processed, is_root)
        raise PQTreeError(f"unexpected node type {type(node).__name__}")  # pragma: no cover

    # -- P-node templates -------------------------------------------------- #
    def _reduce_p(
        self, node: PNode, processed: list[tuple[PQNode, str]], is_root: bool
    ) -> tuple[PQNode, str]:
        empties = [c for c, lab in processed if lab == EMPTY]
        fulls = [c for c, lab in processed if lab == FULL]
        partials = [c for c, lab in processed if lab == PARTIAL]

        if not empties and not partials:
            self._set_children(node, fulls)
            return node, FULL
        if not fulls and not partials:
            self._set_children(node, empties)
            return node, EMPTY

        if is_root:
            if len(partials) > 2:
                raise _Fail
            if len(partials) == 0:
                # template P2: gather the full children under one new child
                full_child = wrap_children(fulls)
                self._set_children(node, empties + ([full_child] if full_child else []))
                return node, FULL if not empties else PARTIAL
            if len(partials) == 1:
                # template P4: hang the full children off the partial child's full end
                pc = partials[0]
                full_child = wrap_children(fulls)
                new_children = ([full_child] if full_child else []) + pc.children
                self._set_children(pc, [_normalise(c) for c in new_children])
                pc = _normalise(pc)
                self._set_children(node, empties + [pc])
                return (node if empties else pc), PARTIAL
            # template P6: two partial children merge around the full children
            pc1, pc2 = partials
            full_child = wrap_children(fulls)
            middle = ([full_child] if full_child else [])
            merged = QNode(
                [_normalise(c) for c in list(reversed(pc1.children)) + middle + pc2.children]
            )
            self._set_children(node, empties + [merged])
            return (node if empties else merged), PARTIAL

        # not the pertinent root: at most one partial child survives
        if len(partials) > 1:
            raise _Fail
        if len(partials) == 1:
            # template P5
            pc = partials[0]
            full_child = wrap_children(fulls)
            empty_child = wrap_children(empties)
            new_children = (
                ([full_child] if full_child else [])
                + pc.children
                + ([empty_child] if empty_child else [])
            )
            self._set_children(pc, [_normalise(c) for c in new_children])
            return _normalise(pc), PARTIAL
        # template P3: no partial child, both full and empty children present
        full_child = wrap_children(fulls)
        empty_child = wrap_children(empties)
        if full_child is None or empty_child is None:
            raise PQTreeError(
                "template P3 requires both full and empty children"
            )
        return QNode([full_child, empty_child]), PARTIAL

    # -- Q-node templates -------------------------------------------------- #
    def _reduce_q(
        self, node: QNode, processed: list[tuple[PQNode, str]], is_root: bool
    ) -> tuple[PQNode, str]:
        labels = [lab for _, lab in processed]
        children = [c for c, _ in processed]

        if all(lab == FULL for lab in labels):
            self._set_children(node, children)
            return node, FULL
        if all(lab == EMPTY for lab in labels):
            self._set_children(node, children)
            return node, EMPTY

        if is_root:
            ordered = self._orient_q_root(children, labels)
            if ordered is None:
                raise _Fail
            self._set_children(node, ordered)
            return node, PARTIAL

        # non-root Q-node (template Q2): pattern FULL* PARTIAL? EMPTY*
        for flipped in (False, True):
            cs = list(reversed(children)) if flipped else list(children)
            ls = list(reversed(labels)) if flipped else list(labels)
            if self._matches_q2(ls):
                new_children: list[PQNode] = []
                for child, lab in zip(cs, ls):
                    if lab == PARTIAL:
                        new_children.extend(child.children)
                    else:
                        new_children.append(child)
                self._set_children(node, [_normalise(c) for c in new_children])
                return node, PARTIAL
        raise _Fail

    @staticmethod
    def _matches_q2(labels: Sequence[str]) -> bool:
        """FULL* PARTIAL? EMPTY* — the legal non-root Q pattern."""
        state = 0  # 0: fulls, 1: after partial / in empties
        seen_partial = False
        for lab in labels:
            if lab == FULL:
                if state == 1:
                    return False
            elif lab == PARTIAL:
                if seen_partial or state == 1:
                    return False
                seen_partial = True
                state = 1
            else:  # EMPTY
                state = 1
        return True

    def _orient_q_root(self, children, labels):
        """Template Q3: EMPTY* [PARTIAL] FULL* [PARTIAL] EMPTY*.

        Returns the new (spliced) children list or ``None`` when impossible.
        Leftmost partial children are spliced empty-side-out, rightmost
        full-side-in (partial nodes are normalised full side first).
        """
        non_empty = [i for i, lab in enumerate(labels) if lab != EMPTY]
        if not non_empty:  # pragma: no cover - handled by caller
            return list(children)
        lo, hi = non_empty[0], non_empty[-1]
        for i in range(lo, hi + 1):
            if labels[i] == EMPTY:
                return None
            if labels[i] == PARTIAL and i not in (lo, hi):
                return None
        new_children: list[PQNode] = list(children[:lo])
        for i in range(lo, hi + 1):
            child, lab = children[i], labels[i]
            if lab == PARTIAL:
                if i == lo and i != hi:
                    # full side must face right, toward the full block
                    new_children.extend(reversed(child.children))
                elif i == hi and i != lo:
                    # full side must face left
                    new_children.extend(child.children)
                else:
                    # the only non-empty child: either orientation works
                    new_children.extend(child.children)
            else:
                new_children.append(child)
        new_children.extend(children[hi + 1 :])
        return [_normalise(c) for c in new_children]


def counts_total(node: PQNode, counts: dict[int, int]) -> int:
    """Number of leaves below ``node`` (memo-free; trees are small)."""
    if isinstance(node, PQLeaf):
        return 1
    return sum(counts_total(child, counts) for child in node.children)


def _normalise(node: PQNode) -> PQNode:
    """Collapse degenerate nodes: single-child internal nodes and tiny Q-nodes."""
    if isinstance(node, PQLeaf):
        return node
    if len(node.children) == 1:
        return _normalise(node.children[0])
    if isinstance(node, QNode) and len(node.children) == 2:
        return PNode([_normalise(c) for c in node.children])
    return node
