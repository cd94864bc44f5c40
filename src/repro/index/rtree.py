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

from repro.index.mbb import MBB
from repro.index.node import Node, NodeEntry, node_capacities
from repro.index.storage import PageStore

__all__ = ["RStarTree"]

#: Fraction of entries evicted by forced reinsertion (the R* paper's p=30%).
REINSERT_FRACTION = 0.3

#: Minimum node fill as a fraction of capacity (the R* paper's 40%).
MIN_FILL_FRACTION = 0.4


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
        root = Node(self.store.allocate(), level=0)
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

    def root_entries(self) -> list[NodeEntry]:
        """Entries of the root, free of I/O charge (the root is pinned in
        memory in any real system)."""
        return list(self.root().entries)

    # ---------------------------------------------------------------- insert

    def insert(self, point: np.ndarray, rid: int) -> None:
        """Insert record ``rid`` located at ``point``."""
        point = np.asarray(point, dtype=np.float64)
        if point.shape != (self.d,):
            raise ValueError(f"expected point of shape ({self.d},)")
        entry = NodeEntry(MBB.of_point(point), rid)
        self._reinserted_levels: set[int] = set()
        self._pending: list[tuple[NodeEntry, int]] = [(entry, 0)]
        while self._pending:
            pending_entry, level = self._pending.pop()
            self._insert_at_level(pending_entry, level)
        self.size += 1

    def _insert_at_level(self, entry: NodeEntry, target_level: int) -> None:
        root = self.root()
        if root.level < target_level:  # can happen only transiently
            raise RuntimeError("target level above root")
        split_entry = self._insert_rec(root, entry, target_level)
        if split_entry is not None:
            # Root split: grow the tree by one level.
            old_root = self.root()
            new_root = Node(self.store.allocate(), level=old_root.level + 1)
            new_root.entries.append(NodeEntry(old_root.mbb(), old_root.node_id))
            new_root.entries.append(split_entry)
            self.store.write(new_root)
            self.root_id = new_root.node_id

    def _insert_rec(
        self, node: Node, entry: NodeEntry, target_level: int
    ) -> NodeEntry | None:
        """Insert ``entry`` under ``node``; return a new sibling entry if
        ``node`` was split."""
        if node.level == target_level:
            node.entries.append(entry)
        else:
            child_idx = self._choose_subtree(node, entry)
            child = self._node(node.entries[child_idx].child_id)
            split_entry = self._insert_rec(child, entry, target_level)
            node.entries[child_idx] = NodeEntry(child.mbb(), child.node_id)
            if split_entry is not None:
                node.entries.append(split_entry)
        if len(node.entries) > self._capacity(node):
            return self._overflow(node)
        self.store.write(node)
        return None

    def _choose_subtree(self, node: Node, entry: NodeEntry) -> int:
        """R* choose-subtree: index of the child to descend into."""
        boxes = [e.mbb for e in node.entries]
        if node.level == 1:
            # Children are leaves: minimise overlap enlargement.
            best_idx = -1
            best_key: tuple[float, float, float] | None = None
            for i, box in enumerate(boxes):
                merged = box.union(entry.mbb)
                overlap_before = sum(
                    box.overlap(other) for j, other in enumerate(boxes) if j != i
                )
                overlap_after = sum(
                    merged.overlap(other) for j, other in enumerate(boxes) if j != i
                )
                key = (
                    overlap_after - overlap_before,
                    box.enlargement(entry.mbb),
                    box.area(),
                )
                if best_key is None or key < best_key:
                    best_key = key
                    best_idx = i
            return best_idx
        best_idx = -1
        best_key2: tuple[float, float] | None = None
        for i, box in enumerate(boxes):
            key2 = (box.enlargement(entry.mbb), box.area())
            if best_key2 is None or key2 < best_key2:
                best_key2 = key2
                best_idx = i
        return best_idx

    # -------------------------------------------------------------- overflow

    def _overflow(self, node: Node) -> NodeEntry | None:
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
        count = max(1, int(REINSERT_FRACTION * len(node.entries)))
        centre = node.mbb().center()
        distances = [
            float(np.sum((e.mbb.center() - centre) ** 2)) for e in node.entries
        ]
        order = np.argsort(distances)  # ascending; evict the tail (farthest)
        keep = [node.entries[i] for i in order[:-count]]
        evicted = [node.entries[i] for i in order[-count:]]
        node.entries = keep
        # Reinsert close entries first (the R* paper's "close reinsert").
        for entry in reversed(evicted):
            self._pending.append((entry, node.level))

    def _split(self, node: Node) -> NodeEntry:
        """R* topological split; mutates ``node`` and returns the entry for
        the freshly allocated sibling."""
        entries = node.entries
        min_fill = self._min_fill(node)
        max_k = len(entries) - min_fill
        best: tuple[float, float, list[NodeEntry], list[NodeEntry]] | None = None

        # Choose split axis by minimal total margin, then the best
        # distribution on that axis by (overlap, combined area).
        best_axis, best_axis_margin = -1, float("inf")
        axis_sorted: dict[int, list[list[NodeEntry]]] = {}
        for axis in range(self.d):
            by_lo = sorted(entries, key=lambda e: (e.mbb.lo[axis], e.mbb.hi[axis]))
            by_hi = sorted(entries, key=lambda e: (e.mbb.hi[axis], e.mbb.lo[axis]))
            axis_sorted[axis] = [by_lo, by_hi]
            margin_sum = 0.0
            for ordering in (by_lo, by_hi):
                for k in range(min_fill, max_k + 1):
                    left = MBB.union_of([e.mbb for e in ordering[:k]])
                    right = MBB.union_of([e.mbb for e in ordering[k:]])
                    margin_sum += left.margin() + right.margin()
            if margin_sum < best_axis_margin:
                best_axis_margin = margin_sum
                best_axis = axis

        for ordering in axis_sorted[best_axis]:
            for k in range(min_fill, max_k + 1):
                group_a = ordering[:k]
                group_b = ordering[k:]
                mbb_a = MBB.union_of([e.mbb for e in group_a])
                mbb_b = MBB.union_of([e.mbb for e in group_b])
                key = (mbb_a.overlap(mbb_b), mbb_a.area() + mbb_b.area())
                if best is None or key < (best[0], best[1]):
                    best = (key[0], key[1], group_a, group_b)

        assert best is not None
        node.entries = best[2]
        sibling = Node(self.store.allocate(), level=node.level, entries=best[3])
        self.store.write(node)
        self.store.write(sibling)
        return NodeEntry(sibling.mbb(), sibling.node_id)

    # ---------------------------------------------------------------- delete

    def delete(self, point: np.ndarray, rid: int) -> bool:
        """Remove record ``rid`` at ``point``. Returns False if absent."""
        point = np.asarray(point, dtype=np.float64)
        path = self._find_leaf(self.root(), point, rid, [])
        if path is None:
            return False
        leaf = path[-1]
        leaf.entries = [e for e in leaf.entries if e.child_id != rid or not e.mbb.contains_point(point)]
        self.store.write(leaf)
        orphans = self._condense(path)
        self.size -= 1
        # Shrink the root while it is an internal node with a single child.
        root = self.root()
        while not root.is_leaf and len(root.entries) == 1:
            child_id = root.entries[0].child_id
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
        if node.is_leaf:
            for e in node.entries:
                if e.child_id == rid and e.mbb.contains_point(point):
                    return path
            return None
        for e in node.entries:
            if e.mbb.contains_point(point):
                found = self._find_leaf(self._node(e.child_id), point, rid, path)
                if found is not None:
                    return found
        return None

    def _condense(self, path: list[Node]) -> list[tuple[NodeEntry, int]]:
        """Propagate underflow upward (the classic condense-tree procedure).

        Returns the orphaned ``(entry, level)`` pairs of every dissolved
        node for the caller to reinsert. Reinsertion is unconditional:
        an earlier revision guarded it with ``level == 0 or level <
        self.root().level``, which silently discards any orphan whose level
        reaches the root's — losing every indexed point under that entry —
        instead of appending it into the root.
        """
        orphans: list[tuple[NodeEntry, int]] = []
        for depth in range(len(path) - 1, 0, -1):
            node = path[depth]
            parent = path[depth - 1]
            if len(node.entries) < self._min_fill(node):
                parent.entries = [e for e in parent.entries if e.child_id != node.node_id]
                for e in node.entries:
                    orphans.append((e, node.level))
                self.store.free(node.node_id)
            else:
                for i, e in enumerate(parent.entries):
                    if e.child_id == node.node_id:
                        parent.entries[i] = NodeEntry(node.mbb(), node.node_id)
                        break
            self.store.write(parent)
        return orphans

    # ---------------------------------------------------------------- search

    def range_query(self, lo: np.ndarray, hi: np.ndarray, metered: bool = False) -> list[int]:
        """Record ids whose points fall inside the window ``[lo, hi]``."""
        window = MBB(np.asarray(lo, float), np.asarray(hi, float))
        result: list[int] = []
        read = self.fetch if metered else self._node
        stack = [self.root_id]
        while stack:
            node = read(stack.pop())
            for e in node.entries:
                # Descend on the closed-box intersects predicate: a volume
                # test (`overlap > 0`) skips zero-volume contacts — flat
                # MBBs from duplicated coordinates, or entries that only
                # touch the window boundary — and drops their records.
                if window.intersects(e.mbb):
                    if node.is_leaf:
                        if window.contains_point(e.point):
                            result.append(e.child_id)
                    else:
                        stack.append(e.child_id)
        return result

    # ------------------------------------------------------------ validation

    def iter_nodes(self) -> Iterator[Node]:
        """All nodes in the tree, root first (unmetered)."""
        stack = [self.root_id]
        while stack:
            node = self._node(stack.pop())
            yield node
            if not node.is_leaf:
                stack.extend(e.child_id for e in node.entries)

    def validate(self, check_fill: bool = True) -> None:
        """Check structural invariants; raises AssertionError on violation.

        Invariants: every child entry's MBB equals the child's tight MBB,
        all leaves share level 0, non-root nodes respect minimum fill
        (skippable for bulk-loaded trees whose tail nodes may be lighter),
        no node exceeds capacity, and the number of indexed points equals
        ``self.size``.
        """
        count = 0
        for node in self.iter_nodes():
            assert len(node.entries) <= self._capacity(node), "capacity exceeded"
            if check_fill and node.node_id != self.root_id and self.size > 0:
                assert len(node.entries) >= self._min_fill(node), (
                    f"underfull node {node.node_id}"
                )
            if node.is_leaf:
                count += len(node.entries)
            else:
                for e in node.entries:
                    child = self._node(e.child_id)
                    assert child.level == node.level - 1, "broken level structure"
                    assert e.mbb == child.mbb(), "stale parent MBB"
        assert count == self.size, f"size mismatch: {count} != {self.size}"
