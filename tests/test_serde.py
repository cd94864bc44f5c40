"""Tests for the byte-level page layout (node serialisation)."""

import numpy as np
import pytest

from repro.data.synthetic import independent
from repro.index.bulkload import bulk_load_str
from repro.index.node import Node, node_capacities
from repro.index.serde import PageOverflowError, decode_node, encode_node
from repro.index.storage import DEFAULT_PAGE_SIZE


def leaf_node(rng, d, count, node_id=7):
    return Node(node_id, 0, rng.random((count, d)), None, np.arange(count, dtype=np.int64))


def internal_node(rng, d, count, node_id=9):
    lo = rng.random((count, d)) * 0.5
    hi = lo + rng.random((count, d)) * 0.5
    return Node(node_id, 2, lo, hi, 100 + np.arange(count, dtype=np.int64))


def assert_same_rows(a: Node, b: Node) -> None:
    """Entry order, ids and every float64 bit survive the round trip."""
    assert a.ids.tolist() == b.ids.tolist()
    assert np.array_equal(a.lo, b.lo)
    assert np.array_equal(a.hi, b.hi)


class TestRoundTrip:
    @pytest.mark.parametrize("d", [2, 4, 6, 8])
    def test_leaf(self, rng, d):
        node = leaf_node(rng, d, 10)
        page = encode_node(node, DEFAULT_PAGE_SIZE, d)
        assert len(page) == DEFAULT_PAGE_SIZE
        back = decode_node(page, d)
        assert back.node_id == node.node_id
        assert back.level == 0
        assert len(back) == 10
        assert back.hi is back.lo
        assert_same_rows(node, back)

    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_internal(self, rng, d):
        node = internal_node(rng, d, 8)
        back = decode_node(encode_node(node, DEFAULT_PAGE_SIZE, d), d)
        assert back.level == 2
        assert_same_rows(node, back)

    def test_empty_node(self, rng):
        node = Node.empty(3, 0, 4)
        back = decode_node(encode_node(node, DEFAULT_PAGE_SIZE, 4), 4)
        assert len(back) == 0 and back.lo.shape == (0, 4)

    def test_magic_validated(self, rng):
        page = bytearray(encode_node(leaf_node(rng, 2, 1), DEFAULT_PAGE_SIZE, 2))
        page[:4] = b"XXXX"
        with pytest.raises(ValueError, match="magic"):
            decode_node(bytes(page), 2)

    def test_version_validated(self, rng):
        page = bytearray(encode_node(leaf_node(rng, 2, 1), DEFAULT_PAGE_SIZE, 2))
        page[4] = 99
        with pytest.raises(ValueError, match="version"):
            decode_node(bytes(page), 2)


class TestCapacityMathIsReal:
    """node_capacities() must agree with what actually fits on a page."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8])
    def test_leaf_capacity_fits(self, rng, d):
        leaf_cap, _ = node_capacities(DEFAULT_PAGE_SIZE, d)
        node = leaf_node(rng, d, leaf_cap)
        encode_node(node, DEFAULT_PAGE_SIZE, d)  # must not raise

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8])
    def test_leaf_capacity_tight(self, rng, d):
        leaf_cap, _ = node_capacities(DEFAULT_PAGE_SIZE, d)
        node = leaf_node(rng, d, leaf_cap + 1)
        with pytest.raises(PageOverflowError):
            encode_node(node, DEFAULT_PAGE_SIZE, d)

    @pytest.mark.parametrize("d", [2, 4, 6, 8])
    def test_internal_capacity_fits_and_tight(self, rng, d):
        _, internal_cap = node_capacities(DEFAULT_PAGE_SIZE, d)
        encode_node(internal_node(rng, d, internal_cap), DEFAULT_PAGE_SIZE, d)
        with pytest.raises(PageOverflowError):
            encode_node(internal_node(rng, d, internal_cap + 1), DEFAULT_PAGE_SIZE, d)


class TestRoundTripProperty:
    """Randomized encode/decode round-trips across d and page sizes.

    For every (d, page size) cell, random leaf and internal nodes at
    random fill levels must survive the byte round-trip with their full
    payload — entry order, child ids, exact float64 coordinates.
    """

    PAGE_SIZES = [512, 1024, DEFAULT_PAGE_SIZE]

    @staticmethod
    def byte_fit(page_size: int, d: int, leaf: bool) -> int:
        """Entries that genuinely fit the page — NOT node_capacities(),
        which floors at 4 for degenerate (tiny page, large d) configs."""
        from repro.index.node import PAGE_HEADER_BYTES

        entry = 8 + 8 * d if leaf else 8 + 16 * d
        return (page_size - PAGE_HEADER_BYTES) // entry

    @pytest.mark.parametrize("page_size", PAGE_SIZES)
    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_leaf_round_trip(self, rng, d, page_size):
        leaf_cap = self.byte_fit(page_size, d, leaf=True)
        for _ in range(5):
            count = int(rng.integers(0, leaf_cap + 1))
            node = leaf_node(rng, d, count, node_id=int(rng.integers(1 << 30)))
            back = decode_node(encode_node(node, page_size, d), d)
            assert back.node_id == node.node_id
            assert back.level == node.level
            assert_same_rows(node, back)

    @pytest.mark.parametrize("page_size", PAGE_SIZES)
    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_internal_round_trip(self, rng, d, page_size):
        internal_cap = self.byte_fit(page_size, d, leaf=False)
        for _ in range(5):
            count = int(rng.integers(0, internal_cap + 1))
            node = internal_node(rng, d, count)
            back = decode_node(encode_node(node, page_size, d), d)
            assert back.level == node.level
            assert_same_rows(node, back)


class TestOverflowBoundary:
    """The exact fit/overflow boundary of the page layout.

    The byte arithmetic is explicit: a leaf entry is ``8 + 8d`` bytes, an
    internal entry ``8 + 16d``, after a 32-byte header. The last entry
    that fits must encode; one more must raise ``PageOverflowError``
    naming the offender — at *every* page size, not only the default.
    """

    @pytest.mark.parametrize("page_size", [512, 1024, DEFAULT_PAGE_SIZE])
    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_leaf_boundary_exact(self, rng, d, page_size):
        from repro.index.node import PAGE_HEADER_BYTES

        max_fit = (page_size - PAGE_HEADER_BYTES) // (8 + 8 * d)
        page = encode_node(leaf_node(rng, d, max_fit), page_size, d)
        assert len(page) == page_size
        with pytest.raises(PageOverflowError, match="bytes > page size"):
            encode_node(leaf_node(rng, d, max_fit + 1), page_size, d)

    @pytest.mark.parametrize("page_size", [512, DEFAULT_PAGE_SIZE])
    @pytest.mark.parametrize("d", [2, 4])
    def test_internal_boundary_exact(self, rng, d, page_size):
        from repro.index.node import PAGE_HEADER_BYTES

        max_fit = (page_size - PAGE_HEADER_BYTES) // (8 + 16 * d)
        encode_node(internal_node(rng, d, max_fit), page_size, d)
        with pytest.raises(PageOverflowError, match="bytes > page size"):
            encode_node(internal_node(rng, d, max_fit + 1), page_size, d)

    def test_overflow_error_is_a_value_error(self, rng):
        """Callers catching ValueError keep working (PageOverflowError
        subclasses it)."""
        node = leaf_node(rng, 8, 64)
        with pytest.raises(ValueError):
            encode_node(node, 512, 8)


class TestWholeTreeRoundTrip:
    def test_every_node_of_a_bulk_loaded_tree_serialises(self, rng):
        data = independent(3_000, 3, seed=33)
        tree = bulk_load_str(data)
        for node in tree.iter_nodes():
            back = decode_node(encode_node(node, DEFAULT_PAGE_SIZE, 3), 3)
            assert back.node_id == node.node_id
            assert_same_rows(node, back)
