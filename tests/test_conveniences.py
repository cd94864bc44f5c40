"""Tests for adoption conveniences: result summaries."""

from repro.core.gir import compute_gir
from repro.data.synthetic import independent
from repro.index.bulkload import bulk_load_str
from tests.conftest import random_query


class TestSummary:
    def test_summary_contents(self, rng):
        data = independent(500, 3, seed=44)
        tree = bulk_load_str(data)
        gir = compute_gir(tree, data, random_query(rng, 3), 5)
        text = gir.summary()
        assert "top-5" in text
        assert "FP" in text
        assert "volume ratio" in text
        assert str(gir.stats.phase2_candidates) in text
