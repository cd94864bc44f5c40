"""Kernels module: backend selection and compiled/fallback equivalence.

The numpy fallbacks are the reference semantics (byte-for-byte the
expressions the callers used inline before the module existed); the numba
variants must match them bit-for-bit on random inputs. Without numba in
the environment the jit half is skipped and the selection tests assert the
fallback wiring instead.
"""

import importlib
import subprocess
import sys

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
    def test_active_backend_consistent(self):
        assert kernels.ACTIVE_BACKEND in ("numpy", "numba")
        if kernels.NUMBA_AVAILABLE:
            assert kernels.ACTIVE_BACKEND == "numba"
            assert kernels.segmented_membership is not kernels.segmented_membership_numpy
        else:
            assert kernels.ACTIVE_BACKEND == "numpy"
            assert kernels.segmented_membership is kernels.segmented_membership_numpy

    def test_backend_info_shape(self):
        info = kernels.backend_info()
        assert info["active"] == kernels.ACTIVE_BACKEND
        assert info["numba_available"] == kernels.NUMBA_AVAILABLE
        assert info["jit_disabled_by_env"] == kernels.JIT_DISABLED_BY_ENV

    def test_repro_kernels_shim(self):
        """``repro.core.kernels`` is the one import path — the top-level
        ``repro.kernels`` re-export is gone — and every name it
        advertises resolves to the selected backend's callable."""
        for name in kernels.__all__:
            assert hasattr(kernels, name), name
        assert callable(kernels.segmented_membership)
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.kernels")

    def test_no_jit_env_forces_numpy(self):
        """REPRO_NO_JIT=1 must select the numpy fallbacks in a fresh
        interpreter regardless of whether numba is installed."""
        out = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.core import kernels; print(kernels.ACTIVE_BACKEND,"
                " kernels.JIT_DISABLED_BY_ENV)",
            ],
            env={"PYTHONPATH": "src", "REPRO_NO_JIT": "1"},
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.split() == ["numpy", "True"]


class TestNumpyReferenceSemantics:
    """The fallbacks equal the inline expressions they replaced."""

    def test_segmented_membership(self, rng):
        A, b, offsets = random_segments(rng)
        x = rng.normal(size=A.shape[1])
        got = kernels.segmented_membership_numpy(A, b, offsets, x, 1e-9)
        ok = A @ x <= b + 1e-9
        np.testing.assert_array_equal(
            got, np.logical_and.reduceat(ok, offsets[:-1])
        )

    def test_segmented_membership_batch(self, rng):
        A, b, offsets = random_segments(rng)
        X = rng.normal(size=(13, A.shape[1]))
        got = kernels.segmented_membership_batch_numpy(A, b, offsets, X, 1e-9)
        ok = X @ A.T <= b + 1e-9
        np.testing.assert_array_equal(
            got, np.logical_and.reduceat(ok, offsets[:-1], axis=1)
        )

    def test_segmented_max(self, rng):
        _, values, offsets = random_segments(rng)
        got = kernels.segmented_max_numpy(values, offsets)
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
            kernels.above_mask_numpy(normals, offsets, point, eps),
            normals @ point - offsets > eps,
        )
        np.testing.assert_array_equal(
            kernels.any_above_numpy(pts, normals, offsets, eps),
            (pts @ normals.T - offsets > eps).any(axis=1),
        )
        hi, lo = rng.normal(size=4) + 2.0, rng.normal(size=4) - 2.0
        pos, neg = np.maximum(normals, 0.0), np.minimum(normals, 0.0)
        assert kernels.box_any_above_numpy(pos, neg, offsets, hi, lo, eps) == bool(
            ((pos @ hi + neg @ lo) - offsets > eps).any()
        )
        apex = rng.normal(size=4)
        np.testing.assert_array_equal(
            kernels.dominated_mask_numpy(apex, pts),
            (apex >= pts).all(axis=1) & (apex > pts).any(axis=1),
        )

    def test_batched_fan_kernels(self, rng):
        """``facet_heights`` is the matrix ``above_mask`` / ``any_above``
        threshold; ``boxes_any_above`` is ``box_any_above`` per box —
        including the empty batch and the facet-less fan."""
        normals = rng.normal(size=(11, 4))
        offsets = rng.normal(size=11)
        pos, neg = np.maximum(normals, 0.0), np.minimum(normals, 0.0)
        eps = 1e-9
        for m in (0, 1, 17):
            pts = rng.normal(size=(m, 4))
            heights = kernels.facet_heights_numpy(pts, normals, offsets)
            assert heights.shape == (m, 11)
            np.testing.assert_array_equal(heights, pts @ normals.T - offsets)
            np.testing.assert_array_equal(
                (heights > eps).any(axis=1),
                kernels.any_above_numpy(pts, normals, offsets, eps),
            )
            los = pts - rng.random((m, 4))
            got = kernels.boxes_any_above_numpy(pos, neg, offsets, pts, los, eps)
            assert got.shape == (m,) and got.dtype == bool
            for i in range(m):
                assert got[i] == kernels.box_any_above_numpy(
                    pos, neg, offsets, pts[i], los[i], eps
                )
        none = np.empty((0, 4))
        assert kernels.facet_heights_numpy(pts, none, np.empty(0)).shape == (17, 0)
        assert not kernels.boxes_any_above_numpy(
            none, none, np.empty(0), pts, los, eps
        ).any()


@pytest.mark.skipif(
    not kernels.NUMBA_AVAILABLE, reason="numba not installed"
)
class TestJitEquivalence:
    """Bit-equivalence between the compiled variants and the fallbacks."""

    def test_segmented_membership(self, rng):
        for _ in range(20):
            A, b, offsets = random_segments(rng)
            x = rng.normal(size=A.shape[1])
            tol = float(rng.choice([1e-12, 1e-9, 1e-6]))
            np.testing.assert_array_equal(
                kernels.segmented_membership_numba(A, b, offsets, x, tol),
                kernels.segmented_membership_numpy(A, b, offsets, x, tol),
            )
            X = rng.normal(size=(7, A.shape[1]))
            np.testing.assert_array_equal(
                kernels.segmented_membership_batch_numba(A, b, offsets, X, tol),
                kernels.segmented_membership_batch_numpy(A, b, offsets, X, tol),
            )

    def test_segmented_max(self, rng):
        for _ in range(20):
            _, values, offsets = random_segments(rng)
            np.testing.assert_array_equal(
                kernels.segmented_max_numba(values, offsets),
                kernels.segmented_max_numpy(values, offsets),
            )

    def test_fan_kernels(self, rng):
        for _ in range(20):
            normals = rng.normal(size=(9, 3))
            offsets = rng.normal(size=9)
            pts = rng.normal(size=(15, 3))
            point = rng.normal(size=3)
            eps = 1e-9
            np.testing.assert_array_equal(
                kernels.above_mask_numba(normals, offsets, point, eps),
                kernels.above_mask_numpy(normals, offsets, point, eps),
            )
            np.testing.assert_array_equal(
                kernels.any_above_numba(pts, normals, offsets, eps),
                kernels.any_above_numpy(pts, normals, offsets, eps),
            )
            hi, lo = point + 1.0, point - 1.0
            pos, neg = np.maximum(normals, 0.0), np.minimum(normals, 0.0)
            assert kernels.box_any_above_numba(
                pos, neg, offsets, hi, lo, eps
            ) == kernels.box_any_above_numpy(pos, neg, offsets, hi, lo, eps)
            np.testing.assert_array_equal(
                kernels.dominated_mask_numba(point, pts),
                kernels.dominated_mask_numpy(point, pts),
            )
            np.testing.assert_array_equal(
                kernels.boxes_any_above_numba(pos, neg, offsets, pts + 1.0, pts, eps),
                kernels.boxes_any_above_numpy(pos, neg, offsets, pts + 1.0, pts, eps),
            )
            # Heights are compared as numbers, not bits: BLAS is free to
            # reassociate the length-d dot products the loop adds in order.
            np.testing.assert_allclose(
                kernels.facet_heights_numba(pts, normals, offsets),
                kernels.facet_heights_numpy(pts, normals, offsets),
                rtol=0.0,
                atol=1e-12,
            )
