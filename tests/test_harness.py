"""Smoke tests for the benchmark harness driver and figure registry."""

import pytest

from repro.bench.config import SCALES, ExperimentScale
from repro.bench.figures import FIGURES
from repro.bench.harness import run_figure


@pytest.fixture(scope="module")
def tiny_scale():
    """A scale small enough for the test suite."""
    return ExperimentScale(
        name="tiny",
        n_default=600,
        n_sweep=(300, 600),
        d_sweep=(2, 3),
        d_cap_cp=3,
        k_sweep=(3, 5),
        k_default=5,
        house_n=800,
        hotel_n=800,
        queries=1,
    )


class TestRegistry:
    def test_all_paper_figures_present(self):
        assert {"6", "8", "14", "15", "16", "17", "18", "19"} <= set(FIGURES)

    def test_unknown_figure_rejected(self):
        with pytest.raises(ValueError, match="unknown figure"):
            run_figure("99", "smoke")

    def test_scale_names_resolve(self):
        assert set(SCALES) == {"smoke", "bench", "default", "paper"}


class TestRunFigure:
    @pytest.mark.parametrize("fig", ["6", "14", "16", "19", "ablation"])
    def test_runs_and_returns_tables(self, tiny_scale, fig, capsys):
        results = run_figure(fig, tiny_scale)
        out = capsys.readouterr().out
        assert results, fig
        for res in results:
            assert res.rows, res.figure
            assert all(len(r) == len(res.headers) for r in res.rows)
            assert res.title.split(":")[0] in out

    def test_out_dir_persists_tables(self, tiny_scale, tmp_path, capsys):
        run_figure("16", tiny_scale, out_dir=tmp_path)
        capsys.readouterr()
        written = list(tmp_path.glob("figure_16_tiny.txt"))
        assert len(written) == 1
        assert "Figure 16" in written[0].read_text()

    def test_string_scale_lookup(self, capsys):
        results = run_figure("19", "smoke")
        capsys.readouterr()
        assert results[0].figure == "19-cpu"


class TestGIRStatsAccessors:
    def test_totals(self):
        from repro.core.gir import GIRStats

        s = GIRStats(
            cpu_ms_topk=1.0,
            cpu_ms_phase1=2.0,
            cpu_ms_phase2=3.0,
            io_pages_topk=4,
            io_pages_phase2=6,
            io_ms_per_page=10.0,
        )
        assert s.cpu_ms_total == 5.0
        assert s.io_ms_phase2 == 60.0
