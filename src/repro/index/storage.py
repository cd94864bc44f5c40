"""Simulated disk: a page store with I/O accounting.

The paper reports I/O cost as (page reads) × (per-page latency) on a
disk-resident R*-tree with 4 KiB pages, and uses no buffer because none of
the algorithms fetches the same page twice. The :class:`PageStore` simulates
exactly that: every *metered* read of a node counts one page access, and an
optional LRU buffer can absorb repeat reads when enabled.

Separating metered reads (query-time page fetches) from unmetered reads
(index construction / maintenance) mirrors how the paper charges I/O only to
query processing.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.index.node import Node

__all__ = ["IOStats", "PageStore", "DEFAULT_PAGE_SIZE", "DEFAULT_PAGE_LATENCY_MS"]

#: 4 KiB pages, as in the paper's experimental setup.
DEFAULT_PAGE_SIZE = 4096

#: Latency charged per page read (ms). ≈ one random read on a 2014-era HDD.
DEFAULT_PAGE_LATENCY_MS = 10.0


@dataclass
class IOStats:
    """Counters for simulated disk traffic."""

    page_reads: int = 0
    leaf_reads: int = 0
    internal_reads: int = 0
    buffer_hits: int = 0
    latency_ms_per_page: float = DEFAULT_PAGE_LATENCY_MS

    def reset(self) -> None:
        self.page_reads = 0
        self.leaf_reads = 0
        self.internal_reads = 0
        self.buffer_hits = 0


class PageStore:
    """In-memory map of node-id → node that simulates a paged disk.

    Parameters
    ----------
    page_size:
        Page capacity in bytes; determines index fan-out (see
        :func:`repro.index.node.node_capacities`).
    buffer_pages:
        Size of an optional LRU buffer. ``0`` (the default) disables
        buffering, matching the paper's setup.
    latency_ms_per_page:
        Simulated cost of one page read; the GIR pipeline copies it into
        :attr:`~repro.core.pipeline.GIRStats.io_ms_per_page`, the factor of
        the paper's I/O time metric.
    sleep_ms_per_page:
        When positive, every metered page read *actually sleeps* this many
        milliseconds instead of only counting. Accounting-only mode (the
        default ``0.0``) keeps benchmarks fast; the real-latency mode is
        what makes wall-clock fan-out comparisons honest — a sharded
        serving tier can only overlap page waits that really happen.
        Buffer hits do not sleep (no disk access).
    """

    def __init__(
        self,
        page_size: int = DEFAULT_PAGE_SIZE,
        buffer_pages: int = 0,
        latency_ms_per_page: float = DEFAULT_PAGE_LATENCY_MS,
        sleep_ms_per_page: float = 0.0,
    ) -> None:
        if page_size < 256:
            raise ValueError("page_size must be at least 256 bytes")
        if buffer_pages < 0:
            raise ValueError("buffer_pages must be non-negative")
        if sleep_ms_per_page < 0:
            raise ValueError("sleep_ms_per_page must be non-negative")
        self.page_size = int(page_size)
        self.buffer_pages = int(buffer_pages)
        self.sleep_ms_per_page = float(sleep_ms_per_page)
        self.stats = IOStats(latency_ms_per_page=latency_ms_per_page)
        self._pages: dict[int, "Node"] = {}
        self._buffer: OrderedDict[int, None] = OrderedDict()
        self._next_id = 0

    # -- allocation / writes (not metered: the paper charges read I/O) ------

    def allocate(self) -> int:
        """Reserve a fresh page id."""
        nid = self._next_id
        self._next_id += 1
        return nid

    def write(self, node: "Node") -> None:
        """Persist ``node`` at its page id."""
        self._pages[node.node_id] = node

    def free(self, node_id: int) -> None:
        """Drop a page (after node merges/splits)."""
        self._pages.pop(node_id, None)
        self._buffer.pop(node_id, None)

    # -- reads ---------------------------------------------------------------

    def read(self, node_id: int) -> "Node":
        """Metered read: counts one page access (unless buffered)."""
        node = self._pages[node_id]
        if self.buffer_pages > 0 and node_id in self._buffer:
            self._buffer.move_to_end(node_id)
            self.stats.buffer_hits += 1
            return node
        self.stats.page_reads += 1
        if node.is_leaf:
            self.stats.leaf_reads += 1
        else:
            self.stats.internal_reads += 1
        if self.sleep_ms_per_page > 0.0:
            time.sleep(self.sleep_ms_per_page / 1e3)
        if self.buffer_pages > 0:
            self._buffer[node_id] = None
            self._buffer.move_to_end(node_id)
            while len(self._buffer) > self.buffer_pages:
                self._buffer.popitem(last=False)
        return node

    def read_unmetered(self, node_id: int) -> "Node":
        """Read without I/O accounting (index construction / tests)."""
        return self._pages[node_id]

    # -- introspection --------------------------------------------------------

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._pages

    def __len__(self) -> int:
        return len(self._pages)

    def reset_meter(self) -> None:
        """Zero the I/O counters (start of a fresh query)."""
        self.stats.reset()
        self._buffer.clear()
