"""Tests for the simulated page store and I/O accounting."""

import pytest

from repro.index.node import Node, node_capacities
from repro.core.pipeline import GIRStats
from repro.index.storage import DEFAULT_PAGE_SIZE, PageStore


class TestCapacities:
    def test_paper_page_size_d4(self):
        leaf, internal = node_capacities(DEFAULT_PAGE_SIZE, 4)
        # leaf entry = 4*8+8 = 40 bytes; internal = 16*4+8 = 72 bytes.
        assert leaf == (4096 - 32) // 40
        assert internal == (4096 - 32) // 72

    def test_capacity_decreases_with_d(self):
        caps = [node_capacities(DEFAULT_PAGE_SIZE, d)[0] for d in range(2, 9)]
        assert caps == sorted(caps, reverse=True)

    def test_floor_of_four(self):
        leaf, internal = node_capacities(256, 50)
        assert leaf >= 4 and internal >= 4

    def test_rejects_bad_d(self):
        with pytest.raises(ValueError):
            node_capacities(4096, 0)


class TestPageStore:
    def test_allocate_write_read(self):
        store = PageStore()
        node = Node.empty(store.allocate(), 0, 2)
        store.write(node)
        assert store.read(node.node_id) is node
        assert store.stats.page_reads == 1

    def test_unmetered_read_not_counted(self):
        store = PageStore()
        node = Node.empty(store.allocate(), 0, 2)
        store.write(node)
        store.read_unmetered(node.node_id)
        assert store.stats.page_reads == 0

    def test_leaf_vs_internal_counters(self):
        store = PageStore()
        leaf = Node.empty(store.allocate(), 0, 2)
        internal = Node.empty(store.allocate(), 1, 2)
        store.write(leaf)
        store.write(internal)
        store.read(leaf.node_id)
        store.read(internal.node_id)
        assert store.stats.leaf_reads == 1
        assert store.stats.internal_reads == 1

    def test_no_buffer_counts_repeats(self):
        """The paper's setting: every access is a page read."""
        store = PageStore(buffer_pages=0)
        node = Node.empty(store.allocate(), 0, 2)
        store.write(node)
        store.read(node.node_id)
        store.read(node.node_id)
        assert store.stats.page_reads == 2
        assert store.stats.buffer_hits == 0

    def test_buffer_absorbs_repeats(self):
        store = PageStore(buffer_pages=4)
        node = Node.empty(store.allocate(), 0, 2)
        store.write(node)
        store.read(node.node_id)
        store.read(node.node_id)
        assert store.stats.page_reads == 1
        assert store.stats.buffer_hits == 1

    def test_buffer_lru_eviction(self):
        store = PageStore(buffer_pages=1)
        a = Node.empty(store.allocate(), 0, 2)
        b = Node.empty(store.allocate(), 0, 2)
        store.write(a)
        store.write(b)
        store.read(a.node_id)
        store.read(b.node_id)  # evicts a
        store.read(a.node_id)  # miss again
        assert store.stats.page_reads == 3

    def test_reset_meter(self):
        store = PageStore()
        node = Node.empty(store.allocate(), 0, 2)
        store.write(node)
        store.read(node.node_id)
        store.reset_meter()
        assert store.stats.page_reads == 0

    def test_io_time_model(self):
        """The paper's I/O time is pages × the store's per-page latency,
        which a GIR's stats carry."""
        store = PageStore(latency_ms_per_page=10.0)
        stats = GIRStats(io_pages_phase2=7, io_ms_per_page=store.stats.latency_ms_per_page)
        assert stats.io_ms_phase2 == 70.0

    def test_free(self):
        store = PageStore()
        node = Node.empty(store.allocate(), 0, 2)
        store.write(node)
        store.free(node.node_id)
        assert node.node_id not in store

    def test_rejects_tiny_page(self):
        with pytest.raises(ValueError):
            PageStore(page_size=64)

    def test_rejects_negative_buffer(self):
        with pytest.raises(ValueError):
            PageStore(buffer_pages=-1)
