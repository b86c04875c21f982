"""B+-tree over failure-atomic slotted pages (paper Section 4).

The tree mirrors the SQLite B-tree the paper modifies: variable-length
records in slotted pages, splits that allocate a *left sibling* for the
smaller keys (paper Figures 4-5), and copy-on-write defragmentation.

All mutation is routed through a transaction-context protocol (see
``repro.btree.btree``) so the same tree code runs under every commit
scheme the paper evaluates — FAST, FAST⁺, NVWAL — as well as the
deliberately unsafe naive in-place baseline of the atomicity ablation
(``repro.core.base.MutationContext`` is the one implementation).
"""

from repro.btree.cells import (
    RIGHTMOST_KEY_LEN,
    internal_cell,
    leaf_cell,
    parse_internal,
    parse_leaf,
)
from repro.btree.btree import BTree, DuplicateKeyError

__all__ = [
    "BTree",
    "DuplicateKeyError",
    "RIGHTMOST_KEY_LEN",
    "internal_cell",
    "leaf_cell",
    "parse_internal",
    "parse_leaf",
]
