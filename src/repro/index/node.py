"""R-tree node layout and page-capacity arithmetic.

A node occupies exactly one disk page, and holds its entries the way the
page lays them out (:mod:`repro.index.serde`): as arrays, one row per
entry, in entry order.

* ``lo`` / ``hi`` — ``(m, d)`` float64: the entries' boxes. On a leaf a
  row is the record's point (its degenerate box), and ``hi is lo``;
* ``ids`` — ``(m,)`` int64: record ids on a leaf, child page ids on an
  internal node.

Fan-out is derived from the page size the way a C++ implementation would
lay entries out on disk:

* leaf entry: ``d`` float64 attribute values + one 8-byte record id;
* internal entry: a box (``2 d`` float64) + one 8-byte child page id;
* a small fixed page header.

This makes the simulated page counts (and therefore the I/O measurements)
track dataset dimensionality the same way the paper's numbers do.

A node's arrays are never written in place: every change installs new
arrays, so a row view taken during a query stays what it was.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Node", "node_capacities", "PAGE_HEADER_BYTES"]

#: Bytes reserved per page for node metadata (level, count, ids).
PAGE_HEADER_BYTES = 32


def node_capacities(page_size: int, d: int) -> tuple[int, int]:
    """Return ``(leaf_capacity, internal_capacity)`` for a page size.

    Capacities are floored at 4 so that degenerate configurations (huge ``d``
    with a tiny page) still yield a working tree.
    """
    if d <= 0:
        raise ValueError("dimensionality must be positive")
    usable = page_size - PAGE_HEADER_BYTES
    leaf_entry = 8 * d + 8
    internal_entry = 16 * d + 8
    leaf_cap = max(4, usable // leaf_entry)
    internal_cap = max(4, usable // internal_entry)
    return int(leaf_cap), int(internal_cap)


class Node:
    """One R-tree node = one disk page.

    ``hi`` is ignored for a leaf (``level == 0``), whose ``hi`` is its
    ``lo``.
    """

    __slots__ = ("node_id", "level", "lo", "hi", "ids")

    def __init__(
        self,
        node_id: int,
        level: int,
        lo: np.ndarray,
        hi: np.ndarray | None,
        ids: np.ndarray,
    ) -> None:
        self.node_id = node_id
        self.level = level  # 0 = leaf
        self.lo = lo
        self.hi = lo if level == 0 else hi
        self.ids = ids

    @classmethod
    def empty(cls, node_id: int, level: int, d: int) -> "Node":
        return cls(node_id, level, np.empty((0, d)), np.empty((0, d)), np.empty(0, np.int64))

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Tight bounding box ``(lo, hi)`` over the node's entries: the
        node's row in its parent."""
        if not len(self.ids):
            raise ValueError(f"node {self.node_id} has no entries")
        return self.lo.min(axis=0), self.hi.max(axis=0)

    def append(self, lo: np.ndarray, hi: np.ndarray, child_id: int) -> None:
        """Add one entry at the end."""
        self.lo = np.concatenate((self.lo, lo[None, :]))
        if not self.is_leaf:
            self.hi = np.concatenate((self.hi, hi[None, :]))
        else:
            self.hi = self.lo
        self.ids = np.append(self.ids, np.int64(child_id))

    def set_row(self, i: int, lo: np.ndarray, hi: np.ndarray) -> None:
        """Replace the box of internal entry ``i`` (a child's new bounds)."""
        self.lo = self.lo.copy()
        self.hi = self.hi.copy()
        self.lo[i] = lo
        self.hi[i] = hi

    def take(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(lo, hi, ids)`` of the selected entries (an index array or a
        boolean mask), in selection order, as new arrays."""
        lo = self.lo[rows]
        return lo, (lo if self.is_leaf else self.hi[rows]), self.ids[rows]

    def keep(self, rows: np.ndarray) -> None:
        """Keep only the selected entries, in selection order."""
        self.lo, self.hi, self.ids = self.take(rows)

    def __len__(self) -> int:
        return len(self.ids)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "leaf" if self.is_leaf else f"internal(l={self.level})"
        return f"Node(id={self.node_id}, {kind}, entries={len(self)})"
