"""Tests for the Dataset container."""

import numpy as np
import pytest

from repro.data.dataset import Dataset


class TestConstruction:
    def test_basic(self):
        ds = Dataset([[0.1, 0.2], [0.3, 0.4]])
        assert ds.n == 2
        assert ds.d == 2
        assert len(ds) == 2

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="lie in"):
            Dataset([[0.1, 1.5]])

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="lie in"):
            Dataset([[-0.2, 0.5]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            Dataset(np.empty((0, 3)))

    def test_rejects_zero_dims(self):
        with pytest.raises(ValueError, match="non-empty"):
            Dataset(np.empty((3, 0)))

    def test_rejects_1d(self):
        with pytest.raises(ValueError, match="2-dimensional"):
            Dataset(np.array([0.1, 0.2]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            Dataset([[0.1, float("nan")]])

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="finite"):
            Dataset([[0.1, float("inf")]])

    def test_points_are_immutable(self):
        ds = Dataset([[0.1, 0.2]])
        with pytest.raises(ValueError):
            ds.points[0, 0] = 0.9

    def test_input_array_not_aliased(self):
        raw = np.array([[0.1, 0.2]])
        ds = Dataset(raw)
        raw[0, 0] = 0.9
        assert ds.points[0, 0] == 0.1

    def test_tiny_numerical_overshoot_is_clipped(self):
        ds = Dataset([[1.0 + 1e-12, 0.0 - 1e-12]])
        assert ds.points.max() <= 1.0
        assert ds.points.min() >= 0.0


class TestAccessors:
    def test_getitem(self):
        ds = Dataset([[0.1, 0.2], [0.3, 0.4]])
        assert np.allclose(ds[0], [0.1, 0.2])
        assert np.allclose(ds[1], [0.3, 0.4])

    def test_scores(self):
        ds = Dataset([[0.5, 1.0], [1.0, 0.0]])
        scores = ds.scores(np.array([0.2, 0.6]))
        assert np.allclose(scores, [0.7, 0.2])

    def test_scores_shape_mismatch(self):
        ds = Dataset([[0.5, 1.0]])
        with pytest.raises(ValueError, match="weight vector"):
            ds.scores(np.array([0.2, 0.6, 0.1]))


class TestFromRaw:
    def test_minmax_normalisation(self):
        ds = Dataset.from_raw(np.array([[10.0, -5.0], [20.0, 5.0]]))
        assert np.allclose(ds.points, [[0.0, 0.0], [1.0, 1.0]])

    def test_constant_attribute_maps_to_half(self):
        ds = Dataset.from_raw(np.array([[3.0, 1.0], [3.0, 2.0]]))
        assert np.allclose(ds.points[:, 0], 0.5)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError, match="2-dimensional"):
            Dataset.from_raw(np.array([1.0, 2.0]))
