"""Spatial index substrate: R*-tree over a simulated page store.

The paper assumes the dataset is indexed by a disk-resident R*-tree with
4 KiB pages and measures I/O cost in page reads (no buffer, since no method
fetches the same page twice). This package reproduces that setting:

* :mod:`repro.index.storage` — page store with read counters and a
  configurable I/O latency model;
* :mod:`repro.index.mbb` — box geometry over ``(m, d)`` row stacks;
* :mod:`repro.index.node` — a node as its page lays it out (``lo`` /
  ``hi`` / ``ids`` arrays) and fan-out math;
* :mod:`repro.index.rtree` — dynamic R*-tree (choose-subtree, forced
  reinsert, topological split);
* :mod:`repro.index.bulkload` — Sort-Tile-Recursive packing for large data.
"""

from repro.index.bulkload import bulk_load_str
from repro.index.node import Node, node_capacities
from repro.index.rtree import RStarTree
from repro.index.storage import IOStats, PageStore

__all__ = [
    "Node",
    "node_capacities",
    "PageStore",
    "IOStats",
    "RStarTree",
    "bulk_load_str",
]
