"""Sort-Tile-Recursive (STR) bulk loading for the R*-tree.

The paper's datasets reach 20M records; building such trees by one-at-a-time
insertion is needlessly slow. STR (Leutenegger et al., ICDE 1997) packs a
height-balanced tree directly and is the standard way large experimental
R-trees are built. A ``fill_factor`` below 1.0 (default 0.7) reproduces the
typical occupancy of a dynamically built tree, so simulated page counts stay
comparable to the paper's.

The resulting tree is a fully functional :class:`RStarTree` — subsequent
dynamic inserts/deletes work normally.

Packing works on whole levels at once: the records are permuted into leaf
order once, each leaf's rows are one slice of that permutation, and a
level's bounds (the parents' rows) come from one ``reduceat`` per side.
"""

from __future__ import annotations

import math

import numpy as np

from repro.data.dataset import Dataset
from repro.index.node import Node
from repro.index.rtree import RStarTree
from repro.index.storage import PageStore

__all__ = ["bulk_load_str"]


def _tile(order: np.ndarray, keys: np.ndarray, groups: int) -> list[np.ndarray]:
    """Split ``order`` (an index array) into ``groups`` contiguous runs after
    sorting by ``keys``."""
    ranked = order[np.argsort(keys[order], kind="stable")]
    return [chunk for chunk in np.array_split(ranked, groups) if len(chunk)]


def _str_partition(
    indices: np.ndarray, coords: np.ndarray, capacity: int, axis: int
) -> list[np.ndarray]:
    """Recursively tile ``indices`` into runs of at most ``capacity``."""
    n = len(indices)
    pages = math.ceil(n / capacity)
    if pages <= 1:
        return [indices]
    d = coords.shape[1]
    remaining_axes = d - axis
    if remaining_axes <= 1:
        return _tile(indices, coords[:, axis], pages)
    slabs = math.ceil(pages ** (1.0 / remaining_axes))
    result: list[np.ndarray] = []
    for slab in _tile(indices, coords[:, axis], slabs):
        result.extend(_str_partition(slab, coords, capacity, axis + 1))
    return result


def _pack_level(
    tree: RStarTree,
    level: int,
    runs: list[np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    ids: np.ndarray,
) -> tuple[list[Node], np.ndarray, np.ndarray]:
    """Write one node per run of rows (``lo`` / ``hi`` / ``ids`` are the
    rows of the level below). Returns the new nodes and their bounds, the
    rows of the level above."""
    order = np.concatenate(runs)
    lo, ids = lo[order], ids[order]
    hi = lo if level == 0 else hi[order]
    starts = np.cumsum([0] + [len(run) for run in runs])
    nodes: list[Node] = []
    for start, stop in zip(starts[:-1].tolist(), starts[1:].tolist()):
        node = Node(
            tree.store.allocate(), level, lo[start:stop], hi[start:stop], ids[start:stop]
        )
        tree.store.write(node)
        nodes.append(node)
    bounds_lo = np.minimum.reduceat(lo, starts[:-1], axis=0)
    bounds_hi = np.maximum.reduceat(hi, starts[:-1], axis=0)
    return nodes, bounds_lo, bounds_hi


def bulk_load_str(
    dataset: Dataset,
    store: PageStore | None = None,
    fill_factor: float = 0.7,
    leaf_capacity: int | None = None,
    internal_capacity: int | None = None,
) -> RStarTree:
    """Build an R*-tree over ``dataset`` with STR packing.

    Parameters
    ----------
    fill_factor:
        Target node occupancy in ``(0, 1]``; 0.7 mimics a dynamically
        maintained tree, 1.0 packs nodes full.
    """
    if not 0.0 < fill_factor <= 1.0:
        raise ValueError("fill_factor must be in (0, 1]")
    tree = RStarTree(
        dataset.d,
        store=store,
        leaf_capacity=leaf_capacity,
        internal_capacity=internal_capacity,
    )
    points = dataset.points
    leaf_cap = max(2, int(tree.leaf_capacity * fill_factor))
    internal_cap = max(2, int(tree.internal_capacity * fill_factor))

    # Level 0: pack records into leaves.
    all_ids = np.arange(dataset.n, dtype=np.int64)
    runs = _str_partition(all_ids, points, leaf_cap, axis=0)
    nodes, lo, hi = _pack_level(tree, 0, runs, points, points, all_ids)

    # Upper levels: pack child nodes by their MBB centres.
    level = 0
    while len(nodes) > 1:
        level += 1
        centres = (lo + hi) / 2.0
        idx = np.arange(len(nodes), dtype=np.intp)
        runs = _str_partition(idx, centres, internal_cap, axis=0)
        child_ids = np.array([n.node_id for n in nodes], dtype=np.int64)
        nodes, lo, hi = _pack_level(tree, level, runs, lo, hi, child_ids)

    root = nodes[0]
    # Free the placeholder empty root allocated by the RStarTree constructor.
    tree.store.free(tree.root_id)
    tree.root_id = root.node_id
    tree.size = dataset.n
    return tree
