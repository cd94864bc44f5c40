"""Dynamic R*-tree (Beckmann et al., SIGMOD 1990) over a simulated page store.

This is the access method the paper indexes its datasets with. The
implementation follows the original R* design:

* **choose-subtree** — minimum overlap enlargement at the level above the
  leaves, minimum area enlargement elsewhere;
* **forced reinsert** — on the first overflow per level per insertion, the
  30% of entries farthest from the node centre are reinserted;
* **topological split** — split axis chosen by minimum total margin, split
  position by minimum overlap (ties: minimum combined area).

Query-time node accesses go through :meth:`RStarTree.fetch`, which meters
page reads on the underlying :class:`~repro.index.storage.PageStore`;
construction and maintenance use unmetered reads, matching how the paper
charges I/O to query processing only.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from repro.index.mbb import (
    box_areas,
    box_margins,
    box_overlaps,
    boxes_contain,
    boxes_intersect,
)
from repro.index.node import Node, node_capacities
from repro.index.storage import PageStore

__all__ = ["RStarTree"]

#: Fraction of entries evicted by forced reinsertion (the R* paper's p=30%).
REINSERT_FRACTION = 0.3

#: Minimum node fill as a fraction of capacity (the R* paper's 40%).
MIN_FILL_FRACTION = 0.4

#: One entry in flight: its box ``(lo, hi)`` and its record / child page id
#: (a record's box is its point: ``lo is hi``).
Entry = tuple[np.ndarray, np.ndarray, int]


def _split_bounds(
    lo: np.ndarray, hi: np.ndarray, ks: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Bounds of every split of the ordered rows ``lo`` / ``hi`` into
    ``[:k]`` and ``[k:]``, one row per ``k`` in ``ks``: prefix and suffix
    running min / max, which are exact."""
    pre_lo = np.minimum.accumulate(lo, axis=0)
    pre_hi = np.maximum.accumulate(hi, axis=0)
    suf_lo = np.minimum.accumulate(lo[::-1], axis=0)[::-1]
    suf_hi = np.maximum.accumulate(hi[::-1], axis=0)[::-1]
    return pre_lo[ks - 1], pre_hi[ks - 1], suf_lo[ks], suf_hi[ks]


class RStarTree:
    """R*-tree storing ``d``-dimensional points keyed by record id.

    Parameters
    ----------
    d:
        Dimensionality of the indexed points.
    store:
        Backing :class:`PageStore`; a private one is created if omitted.
    leaf_capacity / internal_capacity:
        Fan-out overrides; by default derived from the store's page size via
        :func:`repro.index.node.node_capacities`.
    """

    def __init__(
        self,
        d: int,
        store: PageStore | None = None,
        leaf_capacity: int | None = None,
        internal_capacity: int | None = None,
    ) -> None:
        if d <= 0:
            raise ValueError("dimensionality must be positive")
        self.d = int(d)
        self.store = store if store is not None else PageStore()
        auto_leaf, auto_internal = node_capacities(self.store.page_size, d)
        self.leaf_capacity = int(leaf_capacity or auto_leaf)
        self.internal_capacity = int(internal_capacity or auto_internal)
        if self.leaf_capacity < 2 or self.internal_capacity < 2:
            raise ValueError("node capacities must be at least 2")
        self.size = 0
        root = Node.empty(self.store.allocate(), 0, self.d)
        self.store.write(root)
        self.root_id = root.node_id

    # ------------------------------------------------------------------ util

    def _capacity(self, node: Node) -> int:
        return self.leaf_capacity if node.is_leaf else self.internal_capacity

    def _min_fill(self, node: Node) -> int:
        return max(1, math.floor(MIN_FILL_FRACTION * self._capacity(node)))

    def _node(self, node_id: int) -> Node:
        """Unmetered node access for construction/maintenance."""
        return self.store.read_unmetered(node_id)

    def fetch(self, node_id: int) -> Node:
        """Metered node access: charges one page read (query-time use)."""
        return self.store.read(node_id)

    def root(self) -> Node:
        return self._node(self.root_id)

    @property
    def height(self) -> int:
        """Number of levels (a single leaf root has height 1)."""
        return self.root().level + 1

    # ---------------------------------------------------------------- insert

    def insert(self, point: np.ndarray, rid: int) -> None:
        """Insert record ``rid`` located at ``point``."""
        point = np.asarray(point, dtype=np.float64)
        if point.shape != (self.d,):
            raise ValueError(f"expected point of shape ({self.d},)")
        self._reinserted_levels: set[int] = set()
        self._pending: list[tuple[Entry, int]] = [((point, point, rid), 0)]
        while self._pending:
            pending_entry, level = self._pending.pop()
            self._insert_at_level(pending_entry, level)
        self.size += 1

    def _insert_at_level(self, entry: Entry, target_level: int) -> None:
        root = self.root()
        if root.level < target_level:  # can happen only transiently
            raise RuntimeError("target level above root")
        split_entry = self._insert_rec(root, entry, target_level)
        if split_entry is not None:
            # Root split: grow the tree by one level.
            old_root = self.root()
            new_root = Node.empty(self.store.allocate(), old_root.level + 1, self.d)
            new_root.append(*old_root.bounds(), old_root.node_id)
            new_root.append(*split_entry)
            self.store.write(new_root)
            self.root_id = new_root.node_id

    def _insert_rec(self, node: Node, entry: Entry, target_level: int) -> Entry | None:
        """Insert ``entry`` under ``node``; return a new sibling entry if
        ``node`` was split."""
        if node.level == target_level:
            node.append(*entry)
        else:
            child_idx = self._choose_subtree(node, entry)
            child = self._node(int(node.ids[child_idx]))
            split_entry = self._insert_rec(child, entry, target_level)
            node.set_row(child_idx, *child.bounds())
            if split_entry is not None:
                node.append(*split_entry)
        if len(node) > self._capacity(node):
            return self._overflow(node)
        self.store.write(node)
        return None

    def _choose_subtree(self, node: Node, entry: Entry) -> int:
        """R* choose-subtree: index of the child to descend into.

        The key is compared lexicographically and ties go to the first
        child, as a scan in entry order would decide (``np.lexsort`` is
        stable). The level-1 overlap sums stay Python ``sum`` over the
        per-pair floats in entry order (``np.sum`` would add pairwise, and
        Python 3.12+ compensates), so they round as an entry-by-entry scan
        does on every interpreter.
        """
        e_lo, e_hi, _ = entry
        lo, hi = node.lo, node.hi
        area = box_areas(lo, hi)
        merged_lo, merged_hi = np.minimum(lo, e_lo), np.maximum(hi, e_hi)
        enlargement = box_areas(merged_lo, merged_hi) - area
        if node.level != 1:
            return int(np.lexsort((area, enlargement))[0])
        # Children are leaves: minimise overlap enlargement, the overlap
        # with every *other* child before and after taking the entry.
        m = len(node)
        others = ~np.eye(m, dtype=bool)
        before = box_overlaps(lo[:, None], hi[:, None], lo[None], hi[None])
        after = box_overlaps(merged_lo[:, None], merged_hi[:, None], lo[None], hi[None])
        before_sums = [sum(row) for row in before[others].reshape(m, m - 1).tolist()]
        after_sums = [sum(row) for row in after[others].reshape(m, m - 1).tolist()]
        growth = np.array(after_sums) - np.array(before_sums)
        return int(np.lexsort((area, enlargement, growth))[0])

    # -------------------------------------------------------------- overflow

    def _overflow(self, node: Node) -> Entry | None:
        """Handle an over-full node: forced reinsert once per level, else
        split. Returns the new sibling's entry when a split happened."""
        is_root = node.node_id == self.root_id
        if not is_root and node.level not in self._reinserted_levels:
            self._reinserted_levels.add(node.level)
            self._force_reinsert(node)
            self.store.write(node)
            return None
        return self._split(node)

    def _force_reinsert(self, node: Node) -> None:
        """Evict the ~30% of entries farthest from the node centre and queue
        them for reinsertion at the same level."""
        count = max(1, int(REINSERT_FRACTION * len(node)))
        node_lo, node_hi = node.bounds()
        centre = (node_lo + node_hi) / 2.0
        distances = np.sum(((node.lo + node.hi) / 2.0 - centre) ** 2, axis=1)
        order = np.argsort(distances)  # ascending; evict the tail (farthest)
        lo, hi, ids = node.take(order[-count:])
        node.keep(order[:-count])
        # Reinsert close entries first (the R* paper's "close reinsert").
        for i in reversed(range(count)):
            self._pending.append(((lo[i], hi[i], int(ids[i])), node.level))

    def _split(self, node: Node) -> Entry:
        """R* topological split; mutates ``node`` and returns the entry for
        the freshly allocated sibling.

        Every candidate distribution is scored at once from running
        bounds; ties go to the first candidate in the R* scan order
        (orderings by ``lo`` then by ``hi``, ``k`` ascending).
        """
        lo, hi = node.lo, node.hi
        min_fill = self._min_fill(node)
        ks = np.arange(min_fill, len(node) - min_fill + 1)

        # Choose split axis by minimal total margin, then the best
        # distribution on that axis by (overlap, combined area).
        best_axis, best_axis_margin = -1, float("inf")
        axis_orders: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for axis in range(self.d):
            by_lo = np.lexsort((hi[:, axis], lo[:, axis]))
            by_hi = np.lexsort((lo[:, axis], hi[:, axis]))
            axis_orders[axis] = (by_lo, by_hi)
            margin_sum = 0.0
            for order in (by_lo, by_hi):
                a_lo, a_hi, b_lo, b_hi = _split_bounds(lo[order], hi[order], ks)
                for term in (box_margins(a_lo, a_hi) + box_margins(b_lo, b_hi)).tolist():
                    margin_sum += term
            if margin_sum < best_axis_margin:
                best_axis_margin = margin_sum
                best_axis = axis

        orders = axis_orders[best_axis]
        overlap, area = [], []
        for order in orders:
            a_lo, a_hi, b_lo, b_hi = _split_bounds(lo[order], hi[order], ks)
            overlap.append(box_overlaps(a_lo, a_hi, b_lo, b_hi))
            area.append(box_areas(a_lo, a_hi) + box_areas(b_lo, b_hi))
        best = int(np.lexsort((np.concatenate(area), np.concatenate(overlap)))[0])
        order, k = orders[best // len(ks)], int(ks[best % len(ks)])

        sibling = Node(self.store.allocate(), node.level, *node.take(order[k:]))
        node.keep(order[:k])
        self.store.write(node)
        self.store.write(sibling)
        return (*sibling.bounds(), sibling.node_id)

    # ---------------------------------------------------------------- delete

    def delete(self, point: np.ndarray, rid: int) -> bool:
        """Remove record ``rid`` at ``point``. Returns False if absent."""
        point = np.asarray(point, dtype=np.float64)
        path = self._find_leaf(self.root(), point, rid, [])
        if path is None:
            return False
        leaf = path[-1]
        leaf.keep(~((leaf.ids == rid) & boxes_contain(leaf.lo, leaf.hi, point)))
        self.store.write(leaf)
        orphans = self._condense(path)
        self.size -= 1
        # Shrink the root while it is an internal node with a single child.
        root = self.root()
        while not root.is_leaf and len(root) == 1:
            child_id = int(root.ids[0])
            self.store.free(root.node_id)
            self.root_id = child_id
            root = self.root()
        # Reinsert every orphaned entry. An orphan's level can equal the
        # (post-shrink) root level, in which case the entry is appended into
        # the root itself; levels above the root violate the invariant that
        # only nodes below the root dissolve and raise in _insert_at_level.
        for entry, level in orphans:
            self._reinserted_levels = set()
            self._pending = [(entry, level)]
            while self._pending:
                pending_entry, lvl = self._pending.pop()
                self._insert_at_level(pending_entry, lvl)
        return True

    def _find_leaf(
        self, node: Node, point: np.ndarray, rid: int, path: list[Node]
    ) -> list[Node] | None:
        path = path + [node]
        inside = boxes_contain(node.lo, node.hi, point)
        if node.is_leaf:
            return path if (inside & (node.ids == rid)).any() else None
        for child_id in node.ids[inside].tolist():
            found = self._find_leaf(self._node(child_id), point, rid, path)
            if found is not None:
                return found
        return None

    def _condense(self, path: list[Node]) -> list[tuple[Entry, int]]:
        """Propagate underflow upward (the classic condense-tree procedure).

        Returns the orphaned ``(entry, level)`` pairs of every dissolved
        node for the caller to reinsert. Reinsertion is unconditional:
        an earlier revision guarded it with ``level == 0 or level <
        self.root().level``, which silently discards any orphan whose level
        reaches the root's — losing every indexed point under that entry —
        instead of appending it into the root.
        """
        orphans: list[tuple[Entry, int]] = []
        for depth in range(len(path) - 1, 0, -1):
            node = path[depth]
            parent = path[depth - 1]
            if len(node) < self._min_fill(node):
                parent.keep(parent.ids != node.node_id)
                for i, child_id in enumerate(node.ids.tolist()):
                    orphans.append(((node.lo[i], node.hi[i], child_id), node.level))
                self.store.free(node.node_id)
            else:
                row = int(np.flatnonzero(parent.ids == node.node_id)[0])
                parent.set_row(row, *node.bounds())
            self.store.write(parent)
        return orphans

    # ---------------------------------------------------------------- search

    def range_query(self, lo: np.ndarray, hi: np.ndarray, metered: bool = False) -> list[int]:
        """Record ids whose points fall inside the window ``[lo, hi]``."""
        lo, hi = np.asarray(lo, float), np.asarray(hi, float)
        result: list[int] = []
        read = self.fetch if metered else self._node
        stack = [self.root_id]
        while stack:
            node = read(stack.pop())
            # Descend on the closed-box intersects predicate: a volume
            # test (`overlap > 0`) skips zero-volume contacts — flat
            # MBBs from duplicated coordinates, or entries that only
            # touch the window boundary — and drops their records.
            hit = boxes_intersect(lo, hi, node.lo, node.hi)
            if node.is_leaf:
                hit &= boxes_contain(lo, hi, node.lo)
                result.extend(node.ids[hit].tolist())
            else:
                stack.extend(node.ids[hit].tolist())
        return result

    # ------------------------------------------------------------ validation

    def iter_nodes(self) -> Iterator[Node]:
        """All nodes in the tree, root first (unmetered)."""
        stack = [self.root_id]
        while stack:
            node = self._node(stack.pop())
            yield node
            if not node.is_leaf:
                stack.extend(node.ids.tolist())

    def validate(self, check_fill: bool = True) -> None:
        """Check structural invariants; raises AssertionError on violation.

        Invariants: every node holds ``(m, d)`` ``lo`` / ``hi`` rows with
        ``lo <= hi`` and an ``(m,)`` int64 ``ids`` vector; a leaf's ``hi``
        is its ``lo``; every internal row equals its child's exact bounds
        (``lo.min(0)`` / ``hi.max(0)``); child page ids and record ids are
        unique; all leaves share level 0; non-root nodes respect minimum
        fill (skippable for bulk-loaded trees whose tail nodes may be
        lighter); no node exceeds capacity; and the number of indexed
        points equals ``self.size``.
        """
        rids: list[int] = []
        for node in self.iter_nodes():
            m = len(node)
            assert node.lo.shape == node.hi.shape == (m, self.d), "bad row shape"
            assert node.ids.dtype == np.int64, "ids are not int64"
            assert (node.lo <= node.hi).all(), "inverted box"
            assert len(np.unique(node.ids)) == m, "duplicate ids in a node"
            assert m <= self._capacity(node), "capacity exceeded"
            if check_fill and node.node_id != self.root_id and self.size > 0:
                assert m >= self._min_fill(node), f"underfull node {node.node_id}"
            if node.is_leaf:
                assert node.hi is node.lo, "leaf hi is not its lo"
                rids.extend(node.ids.tolist())
                continue
            for i, child_id in enumerate(node.ids.tolist()):
                child = self._node(child_id)
                assert child.level == node.level - 1, "broken level structure"
                child_lo, child_hi = child.bounds()
                assert np.array_equal(node.lo[i], child_lo) and np.array_equal(
                    node.hi[i], child_hi
                ), "stale parent row"
        assert len(set(rids)) == len(rids), "a record id is indexed twice"
        assert len(rids) == self.size, f"size mismatch: {len(rids)} != {self.size}"
