"""Booth–Lueker PQ-trees: the classic sequential C1P algorithm (baseline).

The paper positions its divide-and-conquer algorithm against the linear-time
PQ-tree algorithm of Booth and Lueker (1976), "a data structure with a
complicated implementation" (Section 1.2).  This package provides a complete,
correct PQ-tree implementation used as the sequential baseline in the
benchmarks, as an additional correctness oracle in the tests, and as the
session state of :mod:`repro.incremental`.  The reduction templates are
implemented in their straightforward recursive form.  Every node carries a
bitmask of the leaves below it, so a reduction labels nodes and finds the
pertinent root by mask tests and visits only the pertinent subtree and the
path above it; it is not the amortized linear-time version (a Q-node's
children are scanned in full).  Each accepted reduction keeps its undo log,
so :meth:`PQTree.rollback` can return the tree to an earlier state.
"""

from .nodes import PQLeaf, PQNode, QNode, PNode
from .pqtree import PQTree
from .c1p import pqtree_consecutive_ones_order, pqtree_has_c1p

__all__ = [
    "PQLeaf",
    "PQNode",
    "PNode",
    "QNode",
    "PQTree",
    "pqtree_consecutive_ones_order",
    "pqtree_has_c1p",
]
