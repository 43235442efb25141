"""Tests for table rendering and the paper's figure views."""

import pytest

from repro.analysis.report import SpecReport, geomean
from repro.analysis.sweeps import figure_spec
from repro.analysis.tables import format_series_table, format_table
from repro.protocols.storage import StorageModel
from repro.protocols.tsocc.config import PAPER_TSOCC_CONFIGS
from repro.sim.config import SystemConfig


# ------------------------------------------------------------------ tables

def test_format_table_alignment_and_floats():
    rows = [{"name": "a", "value": 1.23456}, {"name": "bb", "value": 7.0}]
    text = format_table(rows, title="T")
    assert "T" in text and "1.235" in text and "bb" in text


def test_format_series_table_row_order():
    series = {"MESI": {"x": 1.0, "gmean": 1.0}, "TSO": {"x": 0.9, "gmean": 0.9}}
    text = format_series_table(series, row_order=["x", "gmean"])
    lines = text.splitlines()
    assert lines[0].startswith("workload")
    assert lines[-1].split()[0] == "gmean"


# ------------------------------------------------------------------ figure views (tiny matrix)

@pytest.fixture(scope="module")
def tiny_report():
    spec = figure_spec(protocols=["MESI", "TSO-CC-4-basic", "TSO-CC-4-12-3"],
                       workloads=["fft", "intruder"], cores=4, scale=0.2)
    return spec.run(jobs=1).report()


class _Cell:
    """Stand-in for ``SystemStats`` with the two fields a figure spec
    reports (its default metrics)."""

    def __init__(self, cycles):
        self.cycles = self.total_flits = cycles


def test_normalized_figures_divide_by_mesi():
    # MESI is the baseline wherever --protocols lists it, a zero baseline
    # drops its workload, and each column closes with a gmean row.
    spec = figure_spec(protocols=["TSO-CC-4-12-3", "MESI"],
                       workloads=["fft", "radix", "intruder"],
                       cores=2, scale=0.1)
    raw = {("MESI", "fft"): 100, ("MESI", "radix"): 0,
           ("MESI", "intruder"): 200, ("TSO-CC-4-12-3", "fft"): 90,
           ("TSO-CC-4-12-3", "radix"): 50, ("TSO-CC-4-12-3", "intruder"): 260}
    report = SpecReport(spec, {(p, w, 2, 0.1): _Cell(v)
                               for (p, w), v in raw.items()})
    fig3 = report.figure(3)
    assert list(fig3) == ["TSO-CC-4-12-3", "MESI"]
    assert fig3["MESI"] == {"fft": 1.0, "intruder": 1.0, "gmean": 1.0}
    assert fig3["TSO-CC-4-12-3"]["fft"] == pytest.approx(0.9)
    assert fig3["TSO-CC-4-12-3"]["intruder"] == pytest.approx(1.3)
    assert "radix" not in fig3["TSO-CC-4-12-3"]
    assert fig3["TSO-CC-4-12-3"]["gmean"] == pytest.approx(geomean([0.9, 1.3]))
    without_mesi = SpecReport(spec.subset(protocols=["TSO-CC-4-12-3"]), {})
    with pytest.raises(ValueError, match="normalized to MESI"):
        without_mesi.figure(3)


def test_figure3_and_4_structure(tiny_report):
    fig3 = tiny_report.figure(3)
    fig4 = tiny_report.figure(4)
    for figure in (fig3, fig4):
        assert set(figure) == {"MESI", "TSO-CC-4-basic", "TSO-CC-4-12-3"}
        assert figure["MESI"]["fft"] == pytest.approx(1.0)
        assert "gmean" in figure["TSO-CC-4-12-3"]
        assert all(v > 0 for v in figure["TSO-CC-4-12-3"].values())


def test_figure5_to_9_structure(tiny_report):
    fig5 = tiny_report.figure(5)
    assert any(key.startswith("MESI:read_miss_") for key in fig5)
    fig6 = tiny_report.figure(6)
    total = sum(fig6[f"MESI:{part}"]["fft"]
                for part in ("read_miss", "write_miss", "read_hit_shared",
                             "read_hit_shared_ro", "read_hit_private",
                             "write_hit_private"))
    assert total == pytest.approx(100.0, abs=1.0)
    fig7 = tiny_report.figure(7)
    assert not any(key.startswith("MESI:") for key in fig7)
    fig8 = tiny_report.figure(8)
    assert fig8["MESI"]["intruder"] == pytest.approx(1.0)
    fig9 = tiny_report.figure(9)
    assert any(key.startswith("TSO-CC-4-12-3:") for key in fig9)


def test_figure2_storage_series():
    fig2 = StorageModel(SystemConfig()).figure2_series(
        PAPER_TSOCC_CONFIGS, core_counts=(32, 128))
    assert fig2["MESI"][128] > fig2["MESI"][32]
    assert fig2["TSO-CC-4-12-3"][128] < fig2["MESI"][128]


def test_headline_summary(tiny_report):
    # The paper's headline numbers: the gmean rows of Figures 3 and 4,
    # execution time and traffic per configuration (1.0 = MESI).
    for number in (3, 4):
        figure = tiny_report.figure(number)
        gmeans = {p: figure[p]["gmean"] for p in tiny_report.protocols}
        assert "TSO-CC-4-12-3" in gmeans
        assert all(value > 0 for value in gmeans.values())
