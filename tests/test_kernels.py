"""Kernels module: each kernel equals the inline expression it replaced."""

import importlib

import numpy as np
import pytest

from repro.core import kernels


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def random_segments(rng, n_entries=20, d=4, max_rows=9):
    counts = rng.integers(1, max_rows, n_entries)
    offsets = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(counts, dtype=np.int64)]
    )
    rows = int(offsets[-1])
    A = rng.normal(size=(rows, d))
    b = rng.normal(size=rows)
    return A, b, offsets


class TestBackendSelection:
    def test_backend_info_shape(self):
        assert kernels.backend_info() == {"active": "numpy"}

    def test_repro_kernels_shim(self):
        """``repro.core.kernels`` is the one import path — the top-level
        ``repro.kernels`` re-export is gone — and every name it
        advertises resolves."""
        for name in kernels.__all__:
            assert callable(getattr(kernels, name)), name
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.kernels")


class TestNumpyReferenceSemantics:
    """The kernels equal the inline expressions they replaced."""

    def test_segmented_membership(self, rng):
        """One vector is a batch of one row."""
        A, b, offsets = random_segments(rng)
        x = rng.normal(size=A.shape[1])
        got = kernels.segmented_membership_batch(A, b, offsets, x[None], 1e-9)[0]
        ok = A @ x <= b + 1e-9
        np.testing.assert_array_equal(
            got, np.logical_and.reduceat(ok, offsets[:-1])
        )

    def test_segmented_membership_batch(self, rng):
        A, b, offsets = random_segments(rng)
        X = rng.normal(size=(13, A.shape[1]))
        got = kernels.segmented_membership_batch(A, b, offsets, X, 1e-9)
        ok = X @ A.T <= b + 1e-9
        np.testing.assert_array_equal(
            got, np.logical_and.reduceat(ok, offsets[:-1], axis=1)
        )

    def test_segmented_max(self, rng):
        _, values, offsets = random_segments(rng)
        got = kernels.segmented_max(values, offsets)
        np.testing.assert_array_equal(
            got, np.maximum.reduceat(values, offsets[:-1])
        )

    def test_fan_kernels(self, rng):
        normals = rng.normal(size=(11, 4))
        offsets = rng.normal(size=11)
        point = rng.normal(size=4)
        pts = rng.normal(size=(17, 4))
        eps = 1e-9
        np.testing.assert_array_equal(
            kernels.facet_heights(point[None], normals, offsets)[0] > eps,
            normals @ point - offsets > eps,
        )
        hi, lo = rng.normal(size=4) + 2.0, rng.normal(size=4) - 2.0
        pos, neg = np.maximum(normals, 0.0), np.minimum(normals, 0.0)
        assert kernels.boxes_any_above(pos, neg, offsets, hi[None], lo[None], eps)[0] == (
            ((pos @ hi + neg @ lo) - offsets > eps).any()
        )
        apex = rng.normal(size=4)
        np.testing.assert_array_equal(
            kernels.dominated_mask(apex, pts),
            (apex >= pts).all(axis=1) & (apex > pts).any(axis=1),
        )

    def test_batched_fan_kernels(self, rng):
        """``facet_heights`` is the height matrix; ``boxes_any_above`` is
        the corner bound per box — including the empty batch and the
        facet-less fan."""
        normals = rng.normal(size=(11, 4))
        offsets = rng.normal(size=11)
        pos, neg = np.maximum(normals, 0.0), np.minimum(normals, 0.0)
        eps = 1e-9
        for m in (0, 1, 17):
            pts = rng.normal(size=(m, 4))
            heights = kernels.facet_heights(pts, normals, offsets)
            assert heights.shape == (m, 11)
            np.testing.assert_array_equal(heights, pts @ normals.T - offsets)
            los = pts - rng.random((m, 4))
            got = kernels.boxes_any_above(pos, neg, offsets, pts, los, eps)
            assert got.shape == (m,) and got.dtype == bool
            for i in range(m):
                best = pos @ pts[i] + neg @ los[i]
                assert got[i] == (best - offsets > eps).any()
        none = np.empty((0, 4))
        assert kernels.facet_heights(pts, none, np.empty(0)).shape == (17, 0)
        assert not kernels.boxes_any_above(
            none, none, np.empty(0), pts, los, eps
        ).any()

