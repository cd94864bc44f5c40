"""Tests for Phase-1 construction and FP internals (seeds, memory and disk step)."""

import heapq

import numpy as np
import pytest

from repro.core.gir import compute_gir
from repro.core.gir_star import prune_result_records
from repro.core.phase1 import phase1_halfspaces
from repro.core.phase2_fp import (
    FPOptions,
    build_fan,
    refine_fans,
    virtual_seeds,
)
from repro.data.synthetic import anticorrelated, independent
from repro.geometry.incident_facets import FacetFan
from repro.geometry.predicates import dominates
from repro.index.bulkload import bulk_load_str
from repro.query.brs import brs_topk, make_heap_entry
from repro.scoring import LinearScoring
from repro.query.linear_scan import scan_topk
from tests.conftest import random_query


class TestPhase1:
    def test_counts_and_kinds(self, rng):
        pts = rng.random((50, 3))
        res = scan_topk(pts, np.array([0.5, 0.3, 0.7]), 6)
        hs = phase1_halfspaces(res, pts)
        assert len(hs) == 5
        assert all(h.kind == "order" for h in hs)

    def test_normals_are_adjacent_differences(self, rng):
        pts = rng.random((50, 2))
        q = np.array([0.4, 0.8])
        res = scan_topk(pts, q, 4)
        hs = phase1_halfspaces(res, pts)
        for i, h in enumerate(hs):
            expected = pts[res.ids[i]] - pts[res.ids[i + 1]]
            assert np.allclose(h.normal, expected)
            assert (h.upper, h.lower) == (res.ids[i], res.ids[i + 1])

    def test_original_query_satisfies_all(self, rng):
        pts = rng.random((80, 4))
        q = random_query(rng, 4)
        res = scan_topk(pts, q, 10)
        for h in phase1_halfspaces(res, pts):
            assert h.satisfied(q)

    def test_k1_empty(self, rng):
        pts = rng.random((20, 2))
        res = scan_topk(pts, np.array([0.5, 0.5]), 1)
        assert phase1_halfspaces(res, pts) == []


class TestVirtualSeeds:
    def test_linear_seeds_are_axis_projections(self):
        apex = np.array([0.6, 0.5, 0.9])
        keys, seeds = virtual_seeds(apex, np.zeros(3))
        assert keys == [("virtual", i) for i in range(3)]
        assert np.array_equal(seeds, np.diag(apex))

    def test_seeds_dominated_by_apex(self):
        apex = np.array([0.6, 0.5])
        assert (apex >= virtual_seeds(apex, np.zeros(2))[1]).all()

    def test_seed_constraints_redundant_in_query_space(self, rng):
        """(apex - seed)·q' >= 0 for every q' in the positive orthant."""
        apex = rng.random(4)
        normals = apex - virtual_seeds(apex, np.zeros(4))[1]
        assert (normals @ rng.random((4, 50)) >= -1e-12).all()

    def test_gspace_lower_corner(self):
        """Seeds drop to the g-space lower corner, not to zero."""
        apex_g = np.array([1.5, 2.0])
        lower = np.array([1.0, 1.0])  # e.g. exp-transformed space
        _, seeds = virtual_seeds(apex_g, lower)
        assert np.allclose(seeds, [[1.5, 1.0], [1.0, 2.0]])


class TestBuildFan:
    def test_fan_from_brs_leftovers(self, small_ind_4d, rng):
        data, tree = small_ind_4d
        q = random_query(rng, 4)
        run = brs_topk(tree, data.points, q, 10)
        pk = run.result.kth_id
        fan = build_fan(pk, data.points, data.points, run.encountered, q, np.zeros(4))
        assert fan.facet_count() > 0 or fan.degenerate
        # Criticals never include the apex or result records.
        crits = fan.critical_keys()
        assert pk not in crits
        # Virtual keys are tuples; real criticals must be encountered records.
        for c in crits:
            if not isinstance(c, tuple):
                assert c in run.encountered

    def test_dominated_records_excluded(self, rng):
        """Records dominated by the apex never become fan points."""
        pts = np.vstack([
            rng.random((50, 2)) * 0.5,         # all dominated by apex
            np.array([[0.95, 0.2], [0.2, 0.95], [0.99, 0.99]]),
        ])
        apex_id = 52  # (0.99, 0.99) dominates the first 50
        encountered = np.arange(52)
        fan = build_fan(apex_id, pts, pts, encountered, np.ones(2), np.zeros(2))
        crits = {c for c in fan.critical_keys() if not isinstance(c, tuple)}
        assert crits <= {50, 51}


def pop_time_refine(tree, points, run, fans, scorer, options):
    """Reference disk step: every retained entry and every child of a
    fetched node goes on the heap and is tested only when popped, one box
    against one fan at a time; records reach the fans one by one, in leaf
    order. Returns the number of nodes fetched."""
    heap = list(run.heap)
    heapq.heapify(heap)
    exclude = set(run.result.ids)
    fetched = 0
    while heap:
        entry = heapq.heappop(heap)
        if options.prune_dominated_nodes and all(
            dominates(points[apex_id], entry.hi) for apex_id in fans
        ):
            continue
        lo, hi = entry.lo[None], entry.hi[None]
        if not any(fan.boxes_seen(lo, hi)[0] for fan in fans.values()):
            continue
        node = tree.fetch(entry.node_id)
        fetched += 1
        for i, child_id in enumerate(node.ids.tolist()):
            if not node.is_leaf:
                heapq.heappush(
                    heap,
                    make_heap_entry(
                        node.lo[i],
                        node.hi[i],
                        child_id,
                        node.level - 1,
                        run.result.weights,
                        scorer,
                    ),
                )
            elif child_id not in exclude:
                for apex_id, fan in fans.items():
                    if not dominates(points[apex_id], points[child_id]):
                        fan.add_points([child_id], points[child_id][None])
    return fetched


def fans_for(run, points, apexes):
    """One freshly built fan per apex over the run's records ``T``."""
    d = points.shape[1]
    return {
        a: build_fan(
            a, points, points, run.encountered, run.result.weights, np.zeros(d)
        )
        for a in apexes
    }


class TestDiskStep:
    """``refine_fans`` prunes entries in batches as they enter the heap
    and re-tests the heap when a fan changes; the fetched nodes, page
    reads and critical records are those of testing each entry alone
    when it is popped."""

    #: ``(generator, n, d, k)`` per family; ``IND4`` is the ledger's
    #: shape (IND, d = 4, k = 20) on a smaller population.
    FAMILIES = {
        "IND": (independent, 6000, 3, 10),
        "ANTI": (anticorrelated, 6000, 3, 10),
        "IND4": (independent, 20_000, 4, 20),
    }

    @pytest.fixture(scope="class", params=list(FAMILIES))
    def indexed(self, request):
        make, n, d, k = self.FAMILIES[request.param]
        data = make(n, d, seed=31)
        return request.param, data.points, bulk_load_str(data), k

    @pytest.mark.parametrize("star", [False, True], ids=["gir", "gir_star"])
    @pytest.mark.parametrize("prune_dominated", [True, False])
    def test_matches_pop_time_reference(self, indexed, star, prune_dominated):
        family, points, tree, k = indexed
        d = points.shape[1]
        options = FPOptions(prune_dominated_nodes=prune_dominated)
        scorer = LinearScoring(d)
        rng = np.random.default_rng(8)  # own stream: cases reproduce alone
        for _ in range(6):
            q = random_query(rng, d)
            run = brs_topk(tree, points, q, k, metered=False)
            apexes = (
                prune_result_records(run.result.ids, points, points)
                if star
                else [run.result.kth_id]
            )
            batched, reference = (fans_for(run, points, apexes) for _ in range(2))
            tree.store.reset_meter()
            fetched = refine_fans(
                tree, points, points, run, batched, scorer, options=options
            )
            assert fetched == tree.store.stats.page_reads
            assert fetched == pop_time_refine(
                tree, points, run, reference, scorer, options
            )
            assert tree.store.stats.page_reads == 2 * fetched
            for a in apexes:
                ours, theirs = batched[a].critical_keys(), reference[a].critical_keys()
                if family == "IND":
                    assert ours == theirs
                # ANTI clips coordinates to 1.0, so records can be exactly
                # coplanar with a facet through an apex that is clipped
                # too; each insertion order triangulates such a facet its
                # own way. What one fan keeps and the other does not must
                # then lie on the other's facets, never above them.
                seeds = dict(zip(*virtual_seeds(points[a], np.zeros(d))))
                for fan, extra in ((batched[a], theirs - ours), (reference[a], ours - theirs)):
                    for key in extra:
                        p = (seeds[key] if key in seeds else points[key])[None]
                        assert not fan.boxes_seen(p, p)[0]

    @pytest.mark.parametrize("star", [False, True], ids=["gir", "gir_star"])
    def test_heap_retested_once_per_fan_change(self, indexed, star, monkeypatch):
        """A fan tests boxes once for the retained heap, once per fetched
        internal node (its children) and once per leaf that rebuilt some
        fan — never once per popped entry."""
        _, points, tree, k = indexed
        d = points.shape[1]
        calls: dict[int, int] = {}
        real = FacetFan.boxes_seen

        def counted(fan, los, his):
            calls[id(fan)] = calls.get(id(fan), 0) + 1
            return real(fan, los, his)

        monkeypatch.setattr(FacetFan, "boxes_seen", counted)
        fans: dict = {}
        # Per fetch: is the node internal, and the fans' rebuild total
        # when it was read.
        reads: list[tuple[bool, int]] = []
        real_read = tree._node

        def rebuilds() -> int:
            return sum(fan.insertions for fan in fans.values())

        def read(node_id):
            node = real_read(node_id)
            reads.append((not node.is_leaf, rebuilds()))
            return node

        monkeypatch.setattr(tree, "_node", read)
        rng = np.random.default_rng(12)
        pops = changes = 0
        for _ in range(6):
            run = brs_topk(tree, points, random_query(rng, d), k, metered=False)
            apexes = (
                prune_result_records(run.result.ids, points, points)
                if star
                else [run.result.kth_id]
            )
            fans = fans_for(run, points, apexes)
            calls.clear()
            reads.clear()
            fetched = refine_fans(
                tree, points, points, run, fans, LinearScoring(d), metered=False
            )
            assert len(reads) == fetched
            internal = sum(flag for flag, _ in reads)
            # Leaves after which some fan had been rebuilt.
            after = [total for _, total in reads[1:]] + [rebuilds()]
            changed = sum(
                not flag and later > total
                for (flag, total), later in zip(reads, after)
            )
            for fan in fans.values():
                assert calls.get(id(fan), 0) <= 1 + internal + changed
            pops += fetched
            changes += changed
        # Fewer tests than one per pop, so the bound has teeth.
        assert changes < pops

    @pytest.mark.parametrize("star", [False, True], ids=["gir", "gir_star"])
    def test_every_add_points_changes_the_fan(self, indexed, star, monkeypatch):
        """A leaf's records reach ``add_points`` only if some lies above a
        facet, so every call the disk step makes changes the fan."""
        _, points, tree, k = indexed
        d = points.shape[1]
        outcomes: list[bool] = []
        real = FacetFan.add_points

        def recorded(fan, keys, pts):
            outcomes.append(real(fan, keys, pts))
            return outcomes[-1]

        rng = np.random.default_rng(14)
        for _ in range(6):
            run = brs_topk(tree, points, random_query(rng, d), k, metered=False)
            apexes = (
                prune_result_records(run.result.ids, points, points)
                if star
                else [run.result.kth_id]
            )
            fans = fans_for(run, points, apexes)
            with monkeypatch.context() as patch:
                patch.setattr(FacetFan, "add_points", recorded)
                refine_fans(tree, points, points, run, fans, LinearScoring(d), metered=False)
        assert outcomes and all(outcomes)

    def test_degenerate_fan_matches_pop_time_reference(self):
        """A fan seeded with copies of one record is degenerate: it keeps
        every record it is given and prunes no box. The disk step still
        fetches and keeps what testing entries at pop time does."""
        data = independent(600, 3, seed=4)
        points, tree = data.points, bulk_load_str(data)
        rng = np.random.default_rng(2)
        for _ in range(3):
            run = brs_topk(tree, points, random_query(rng, 3), 5, metered=False)
            apex = run.result.kth_id
            dup = int(run.encountered[run.encountered != apex][0])

            def degenerate():
                fan = FacetFan(points[apex])
                copies = np.repeat(points[dup][None], 3, axis=0)
                fan.bootstrap([dup] * 3, copies, run.result.weights)
                assert fan.degenerate
                return {apex: fan}

            ours, theirs = degenerate(), degenerate()
            tree.store.reset_meter()
            fetched = refine_fans(tree, points, points, run, ours, LinearScoring(3))
            assert fetched == pop_time_refine(
                tree, points, run, theirs, LinearScoring(3), FPOptions()
            )
            assert ours[apex].critical_keys() == theirs[apex].critical_keys()
            assert len(ours[apex].critical_keys()) > 1

    def test_farthest_first_insertion_count(self):
        """Quickhull order: on IND n = 20k, d = 4, k = 20 a fan is rebuilt
        at most 2.5 times per critical record it ends with (4.1 when the
        candidates were inserted in arrival order)."""
        data = independent(20_000, 4, seed=5)
        tree = bulk_load_str(data)
        rng = np.random.default_rng(5)
        insertions = criticals = 0.0
        for _ in range(20):
            extras = compute_gir(tree, data, random_query(rng, 4), 20).stats.extras
            insertions += extras["fan_insertions"]
            criticals += extras["critical_records"]
        assert insertions / criticals <= 2.5
