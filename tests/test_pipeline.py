"""Tests for the staged GIR pipeline (retrieve → phase1 → phase2 → assemble)."""

import numpy as np
import pytest

from repro.core.gir import compute_gir
from repro.core.pipeline import (
    ExecutionContext,
    run_pipeline,
    stage_assemble,
    stage_phase1,
    stage_phase2,
    stage_retrieve,
)
from repro.query.brs import brs_topk
from tests.conftest import random_query


class TestExecutionContext:
    def test_create_normalises_inputs(self, small_ind_4d):
        data, tree = small_ind_4d
        ctx = ExecutionContext.create(tree, data, [0.5, 0.5, 0.5, 0.5], 5)
        assert ctx.points.shape == data.points.shape
        assert ctx.weights.dtype == np.float64
        assert ctx.points_g.shape == ctx.points.shape
        assert ctx.method == "fp" and ctx.metered
        assert ctx.d == 4

    def test_create_rejects_unknown_method(self, small_ind_4d):
        data, tree = small_ind_4d
        with pytest.raises(ValueError, match="unknown method"):
            ExecutionContext.create(tree, data, [0.5] * 4, 5, method="xx")

    def test_accepts_raw_array(self, small_ind_4d):
        data, tree = small_ind_4d
        ctx = ExecutionContext.create(tree, data.points, [0.5] * 4, 5)
        assert ctx.points is not None and ctx.points.shape == data.points.shape


class TestStages:
    def test_staged_run_matches_wrapper(self, small_anti_3d, rng):
        """Driving the stages by hand gives the wrapper's exact result."""
        data, tree = small_anti_3d
        q = random_query(rng, 3)
        for method in ("sp", "cp", "fp"):
            ctx = ExecutionContext.create(tree, data, q, 8, method=method)
            run = stage_retrieve(ctx)
            hs_order = stage_phase1(ctx, run)
            phase2 = stage_phase2(ctx, run)
            staged = stage_assemble(ctx, run, hs_order + phase2.halfspaces)

            whole = compute_gir(tree, data, q, 8, method=method)
            assert staged.topk.ids == whole.topk.ids
            assert len(staged.halfspaces) == len(whole.halfspaces)
            assert staged.stats.phase2_candidates == whole.stats.phase2_candidates
            for probe in whole.polytope.sample(5, rng):
                assert staged.contains(probe) == whole.contains(probe)

    def test_retrieve_reuses_existing_run(self, small_anti_3d, rng):
        """An adopted BRS run charges the retrieve stage nothing."""
        data, tree = small_anti_3d
        q = random_query(rng, 3)
        run = brs_topk(tree, data.points, q, 6)
        ctx = ExecutionContext.create(tree, data, q, 6)
        adopted = stage_retrieve(ctx, run)
        assert adopted is run
        assert ctx.stats.io_pages_topk == 0
        assert ctx.stats.cpu_ms_topk == 0.0

    def test_stage_costs_accumulate_in_context(self, small_anti_3d, rng):
        data, tree = small_anti_3d
        q = random_query(rng, 3)
        ctx = ExecutionContext.create(tree, data, q, 6)
        gir = run_pipeline(ctx)
        assert gir.stats is ctx.stats
        assert gir.stats.cpu_ms_topk >= 0
        assert gir.stats.io_pages_topk > 0  # fresh BRS touches the tree
        assert gir.stats.io_ms_per_page == tree.store.stats.latency_ms_per_page

    def test_wrapper_signature_unchanged(self, small_anti_3d, rng):
        """compute_gir keeps accepting the pre-refactor keyword arguments."""
        data, tree = small_anti_3d
        q = random_query(rng, 3)
        run = brs_topk(tree, data.points, q, 6, metered=False)
        gir = compute_gir(tree, data, q, 6, method="fp", scorer=None,
                          metered=False, run=run, fp_options=None)
        assert gir.topk.ids == run.result.ids
