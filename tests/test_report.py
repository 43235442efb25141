"""Tests for the declarative reporting/aggregation layer and its CLI.

Covers :mod:`repro.analysis.report` — declared-field selection, mix
aggregation, speedup-vs-baseline normalization including the partial/sharded-cache
degradation path, geomean semantics, the cache gather view over mixed
kinds, snapshot diffing against torn/alien entries, and the
``repro report`` CLI family.
"""

import json

import pytest

from repro.analysis.parallel import (CELL_KINDS, ReportField, ResultCache,
                                     cell_key, declare_report_fields,
                                     report_fields)
from repro.analysis.report import (FIGURES, MISSING, ReportTable,
                                   SnapshotDiff, SpecReport, aggregate_values,
                                   diff_snapshots, gather_cells, geomean,
                                   render_dashboard, render_table)
from repro.analysis.sweeps import METRICS, SweepSpec, figure_spec, get_sweep
from repro.cli import main
from repro.sim.config import SystemConfig

from _cachekind import CACHETEST_SCHEMA, simulate_cachetest_cell


def tiny_spec(**overrides) -> SweepSpec:
    base = dict(
        name="tiny-report",
        description="two-variant report sweep",
        protocols=("MESI", "TSO-CC-4-12-3"),
        workloads=("fft",),
        cores=(2,),
        scales=(0.2,),
        metrics=("cycles", "flits"),
        baseline="MESI",
    )
    base.update(overrides)
    return SweepSpec(**base)


@pytest.fixture(scope="module")
def warm(tmp_path_factory):
    """One real two-cell sweep executed into a module-shared cache."""
    cache_dir = tmp_path_factory.mktemp("report-cache")
    spec = tiny_spec()
    result = spec.run(jobs=1, cache=ResultCache(cache_dir))
    return spec, cache_dir, result


# ------------------------------------------------------------- declarations

def test_report_field_validation():
    with pytest.raises(ValueError, match="dtype"):
        ReportField(name="x", extract=lambda r: r, dtype="complex")
    with pytest.raises(ValueError, match="aggregate"):
        ReportField(name="x", extract=lambda r: r, aggregate="median")
    with pytest.raises(ValueError, match="direction"):
        ReportField(name="x", extract=lambda r: r, better="sideways")


def test_declare_rejects_duplicate_names():
    with pytest.raises(ValueError, match="duplicate"):
        declare_report_fields("dupetest", [
            ReportField(name="a", extract=lambda r: r),
            ReportField(name="a", extract=lambda r: r),
        ])


def test_directed_requires_numeric_aggregable():
    assert ReportField(name="x", extract=lambda r: r, dtype="int",
                       aggregate="sum", better="lower").directed
    assert not ReportField(name="x", extract=lambda r: r, dtype="bool",
                           aggregate="all", better="higher").directed
    assert not ReportField(name="x", extract=lambda r: r, dtype="int",
                           aggregate="none", better="lower").directed
    assert not ReportField(name="x", extract=lambda r: r, dtype="int",
                           aggregate="sum").directed


def test_stats_kind_declares_every_metric():
    names = [f.name for f in report_fields("stats")]
    assert names == list(METRICS)
    assert CELL_KINDS["stats"].report_fields == report_fields("stats")


def test_fuzz_kind_declares_verdict_fields():
    by_name = {f.name: f for f in report_fields("fuzz")}
    assert by_name["passed"].aggregate == "all"
    assert by_name["violations"].better == "lower"
    assert by_name["coverage"].aggregate == "mean"


def test_undeclared_kind_reports_no_fields():
    assert report_fields("no-such-kind") == ()


# --------------------------------------------------------------- primitives

def test_geomean_edge_cases():
    assert geomean([]) is None
    assert geomean([None, None]) is None
    assert geomean([-1.0, 2.0]) is None
    assert geomean([0.0, 2.0]) == 0.0
    assert geomean([2.0, 0.5]) == pytest.approx(1.0)
    assert geomean([None, 4.0]) == pytest.approx(4.0)


def test_aggregate_values_modes():
    assert aggregate_values("sum", [1, 2, 3]) == 6
    assert aggregate_values("mean", [1.0, 3.0]) == 2.0
    assert aggregate_values("all", [True, True]) is True
    assert aggregate_values("all", [True, False]) is False
    assert aggregate_values("none", [1, 2]) is None
    assert aggregate_values("sum", []) is None
    with pytest.raises(ValueError, match="aggregate"):
        aggregate_values("median", [1])


# ----------------------------------------------------- cache-side reporting

def test_report_normalization_and_geomean_row(warm):
    spec, cache_dir, _ = warm
    table = SpecReport.from_cache(spec, cache_dir).mix_table()
    rows = {row["protocol"]: row for row in table.rows}
    assert rows["MESI"]["cycles_speedup"] == pytest.approx(1.0)
    # cycles is lower-better: speedup = baseline / value.
    expected = rows["MESI"]["cycles"] / rows["TSO-CC-4-12-3"]["cycles"]
    assert rows["TSO-CC-4-12-3"]["cycles_speedup"] == pytest.approx(expected)
    gmean = rows["geomean"]
    assert gmean.get("cycles") is None
    assert gmean["cycles_speedup"] == pytest.approx(
        geomean([1.0, expected]))
    assert f"cycles_speedup" in table.columns


def test_report_agrees_with_in_memory_result(warm):
    spec, cache_dir, result = warm
    from_cache = SpecReport.from_cache(spec, cache_dir).mix_table().rows
    in_memory = result.report().mix_table().rows
    assert from_cache == in_memory


def test_figure_views_read_the_same_from_cache(tmp_path):
    spec = figure_spec(protocols=["MESI", "TSO-CC-4-12-3"],
                       workloads=["fft"], cores=2, scale=0.1)
    live = spec.run(jobs=1, cache=ResultCache(tmp_path)).report()
    cached = SpecReport.from_cache(spec, tmp_path)
    assert cached.complete
    for number in FIGURES:
        assert cached.figure_table(number) == live.figure_table(number)


def test_figure_refuses_a_partial_cache(tmp_path):
    # MESI x intruder never reached the cache: a figure over it would
    # compare columns (and gmean rows) over unequal workload subsets.
    spec = figure_spec(protocols=["MESI", "TSO-CC-4-12-3"],
                       workloads=["fft", "intruder"], cores=2, scale=0.1)
    cache = ResultCache(tmp_path)
    spec.subset(protocols=["TSO-CC-4-12-3"]).run(jobs=1, cache=cache)
    spec.subset(protocols=["MESI"], workloads=["fft"]).run(jobs=1, cache=cache)
    partial = SpecReport.from_cache(spec, tmp_path)
    assert partial.num_present == 3
    for number in (3, 4, 5, 6, 8):
        with pytest.raises(ValueError, match=r"1 missing: MESI x intruder$"):
            partial.figure_table(number)
    # Figures 7 and 9 keep only the self-invalidating protocols, whose
    # cells are all there.
    for number in (7, 9):
        series = partial.figure(number)
        assert all(set(values) == {"fft", "intruder"}
                   for values in series.values())


def test_sweep_result_report_bridge(warm):
    _, _, result = warm
    report = result.report(baseline="TSO-CC-4-12-3")
    rows = {row["protocol"]: row for row in report.mix_table().rows}
    assert rows["TSO-CC-4-12-3"]["cycles_speedup"] == pytest.approx(1.0)


def test_partial_cache_warns_and_renders_missing(warm):
    spec, cache_dir, _ = warm
    # Same cells, but the spec expects a second workload that was never
    # simulated: every mix is incomplete, the baseline included.
    wider = tiny_spec(workloads=("fft", "intruder"))
    report = SpecReport.from_cache(wider, cache_dir)
    assert not report.complete and report.num_present == 2
    table = report.mix_table()
    assert all(row.get("cycles") is None for row in table.rows)
    assert any("baseline" in warning for warning in report.warnings)
    assert MISSING in table.render()


def test_baseline_dropped_by_subset_warns(warm):
    spec, cache_dir, _ = warm
    subset = spec.subset(protocols=["TSO-CC-4-12-3"])
    assert subset.baseline == "MESI"   # metadata survives the subset
    report = SpecReport.from_cache(subset, cache_dir)
    assert any("not on the sweep's protocol axis" in w
               for w in report.warnings)
    rows = {row["protocol"]: row for row in report.mix_table().rows}
    assert rows["TSO-CC-4-12-3"]["cycles_speedup"] is None
    assert rows["TSO-CC-4-12-3"]["cycles"] is not None


def test_no_normalize_and_no_baseline_omit_speedups(warm):
    spec, cache_dir, _ = warm
    table = SpecReport.from_cache(spec, cache_dir).mix_table(normalized=False)
    assert "cycles_speedup" not in table.columns
    assert all(row["protocol"] != "geomean" for row in table.rows)
    bare = SpecReport.from_cache(tiny_spec(baseline=None), cache_dir)
    assert "cycles_speedup" not in bare.mix_table().columns


def test_spec_selecting_undeclared_field_raises(warm):
    spec, cache_dir, _ = warm
    # Bypass SweepSpec's own METRICS validation with a minimal stand-in.
    class FakeSpec:
        name = "fake"
        description = "fake"
        metrics = ("cycles", "nonesuch")
        max_cycles = spec.max_cycles
        def cells(self):
            return []
    with pytest.raises(ValueError, match="undeclared report fields"):
        SpecReport(FakeSpec(), {})


def test_pivot_and_figures(warm):
    spec, cache_dir, _ = warm
    report = SpecReport.from_cache(spec, cache_dir)
    series = report.pivot("cycles")
    assert set(series) == {"MESI", "TSO-CC-4-12-3"}
    assert series["MESI"]["fft"] > 0
    figures = report.figures()
    assert "cycles per workload" in figures and "fft" in figures
    with pytest.raises(ValueError, match="unknown report field"):
        report.pivot("nonesuch")


# ------------------------------------------------------------ table surface

def test_report_table_renderers():
    table = ReportTable(columns=["name", "value"],
                        rows=[{"name": "a", "value": 1.5},
                              {"name": "b", "value": None}],
                        title="t", formats={"value": "{:.1f}"})
    text = table.render()
    assert "1.5" in text and MISSING in text
    csv_text = table.to_csv()
    assert csv_text.splitlines()[0] == "name,value"
    assert csv_text.splitlines()[2] == "b,"          # missing -> empty
    decoded = json.loads(table.to_json())
    assert decoded["rows"][1]["value"] is None
    html = table.to_html()
    assert "<table>" in html and MISSING in html
    with pytest.raises(ValueError, match="unknown report format"):
        render_table(table, "yaml")


def test_report_table_filter_and_column():
    table = ReportTable(columns=["x"], rows=[{"x": 1}, {"x": 2}])
    assert table.filter(lambda r: r["x"] > 1).rows == [{"x": 2}]
    assert table.column("x") == [1, 2]
    assert len(table) == 2


def test_html_escapes_markup():
    table = ReportTable(columns=["<col>"], rows=[{"<col>": "<b>"}])
    html = table.to_html()
    assert "<b>" not in html and "&lt;b&gt;" in html


# ------------------------------------------------------------ cache gather

def _put_cachetest_cell(cache_dir, protocol="P", workload="w"):
    config = SystemConfig().scaled(num_cores=2)
    payload = simulate_cachetest_cell(config, protocol, workload, 1.0, 100)
    key = cell_key(config, protocol, workload, 1.0, 100, kind="cachetest")
    ResultCache(cache_dir).put(key, payload)
    return key, payload


def test_gather_cells_empty_filter_match(warm):
    _, cache_dir, _ = warm
    assert gather_cells(cache_dir, workload="no-such-workload") == {}
    assert gather_cells(cache_dir, kind="fuzz") == {}


def test_gather_cells_mixed_kind_cache(warm, tmp_path):
    import shutil
    _, cache_dir, _ = warm
    mixed = tmp_path / "mixed"
    shutil.copytree(cache_dir, mixed)
    _put_cachetest_cell(mixed)
    declare_report_fields("cachetest", [
        ReportField(name="digest_len", extract=lambda r: len(r["digest"]),
                    dtype="int", aggregate="sum"),
    ])
    tables = gather_cells(mixed)
    assert set(tables) == {"cachetest", "stats"}
    assert len(tables["stats"].rows) == 2
    assert tables["cachetest"].rows[0]["digest_len"] == 64
    # Kind and protocol filters narrow the scan.
    assert set(gather_cells(mixed, kind="stats")) == {"stats"}
    only = gather_cells(mixed, protocol="MESI")["stats"]
    assert [row["protocol"] for row in only.rows] == ["MESI"]


def test_spec_report_skips_alien_kind_at_same_key(warm, tmp_path):
    """A valid payload of the *wrong* kind under a spec's key must not be
    decoded as that spec's cells."""
    spec, cache_dir, _ = warm
    from repro.analysis.shard import plan_sweep
    alien = tmp_path / "alien"
    cache = ResultCache(alien)
    for cell in plan_sweep(spec, shard_count=1).cells:
        cache.put(cell.key, {"schema": CACHETEST_SCHEMA, "kind": "cachetest",
                             "protocol": cell.protocol,
                             "workload": cell.workload, "digest": "x" * 64})
    report = SpecReport.from_cache(spec, alien)
    assert report.num_present == 0


# ------------------------------------------------------------ snapshot diff

def test_diff_against_itself_is_clean(warm):
    _, cache_dir, _ = warm
    diff = diff_snapshots(cache_dir, cache_dir)
    assert diff.clean
    assert diff.counts() == {"added": 0, "removed": 0, "changed": 0,
                             "unchanged": 2, "invalid_a": 0, "invalid_b": 0}
    assert "0 changed / 0 added / 0 removed" in diff.describe()


def test_diff_classifies_added_removed_changed(warm, tmp_path):
    import shutil
    _, cache_dir, _ = warm
    other = tmp_path / "other"
    shutil.copytree(cache_dir, other)
    entries = sorted(other.glob("*/*.json"))
    # Change one payload (keep it a valid stats payload).
    changed_key = entries[0].stem
    payload = json.loads(entries[0].read_text())
    payload["cycles"] = 10**9
    entries[0].write_text(json.dumps(payload))
    # Remove one, add one.
    removed_key = entries[1].stem
    entries[1].unlink()
    added_key, _ = _put_cachetest_cell(other)
    diff = diff_snapshots(cache_dir, other)
    assert diff.changed == [changed_key]
    assert diff.removed == [removed_key]
    assert diff.added == [added_key]
    assert not diff.clean
    decoded = json.loads(diff.to_json())
    assert decoded["counts"]["changed"] == 1


def test_diff_formatting_differences_are_not_drift(warm, tmp_path):
    import shutil
    _, cache_dir, _ = warm
    other = tmp_path / "reformatted"
    shutil.copytree(cache_dir, other)
    for path in other.glob("*/*.json"):
        path.write_text(json.dumps(json.loads(path.read_text()), indent=4,
                                   sort_keys=False))
    diff = diff_snapshots(cache_dir, other)
    assert diff.clean and diff.unchanged == 2


def test_diff_torn_and_alien_entries(warm, tmp_path):
    import shutil
    _, cache_dir, _ = warm
    other = tmp_path / "corrupt"
    shutil.copytree(cache_dir, other)
    torn = other / "ab" / ("a" * 64 + ".json")
    torn.parent.mkdir(exist_ok=True)
    torn.write_text('{"schema": 1, "kind": "stats"')       # truncated JSON
    alien = other / "cd" / ("c" * 64 + ".json")
    alien.parent.mkdir(exist_ok=True)
    alien.write_text('{"kind": "martian", "schema": 99}')  # unknown kind
    diff = diff_snapshots(cache_dir, other)
    assert sorted(diff.invalid_b) == sorted([torn.stem, alien.stem])
    assert not diff.added and not diff.changed and not diff.removed
    assert not diff.clean
    # Torn/alien on *both* sides: still 0 added/removed/changed.
    self_diff = diff_snapshots(other, other)
    assert self_diff.invalid_a == self_diff.invalid_b
    assert not self_diff.added and not self_diff.changed


def test_diff_kind_filter_scopes_comparison(warm, tmp_path):
    import shutil
    _, cache_dir, _ = warm
    other = tmp_path / "extra-kind"
    shutil.copytree(cache_dir, other)
    _put_cachetest_cell(other)
    assert diff_snapshots(cache_dir, other).added      # unscoped: drift
    scoped = diff_snapshots(cache_dir, other, kind="stats")
    assert scoped.clean and scoped.unchanged == 2


# ---------------------------------------------------------------- dashboard

def test_render_dashboard_self_contained(warm):
    spec, cache_dir, _ = warm
    report = SpecReport.from_cache(spec, cache_dir)
    html = render_dashboard([report], title="t<itle", generated="now")
    assert html.startswith("<!DOCTYPE html>")
    assert "t&lt;itle" in html and "tiny-report" in html
    assert "cycles per workload" in html
    assert "http" not in html.split("</style>")[1]      # no external assets
    assert "No cached cells" in render_dashboard([])


# ----------------------------------------------------------------- CLI

def test_cli_report_sweep_reproduces_sweep_values(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    assert main(["sweep", "ci-smoke", "--protocols", "MESI,TSO-CC-4-12-3",
                 "--workloads", "fft", "--cache-dir", cache,
                 "--jobs", "1"]) == 0
    sweep_out = capsys.readouterr().out
    assert main(["report", "sweep", "ci-smoke",
                 "--protocols", "MESI,TSO-CC-4-12-3", "--workloads", "fft",
                 "--cache-dir", cache]) == 0
    report_out = capsys.readouterr().out
    # Every value of the live sweep table reappears in the cache report.
    sweep_rows = [line.split() for line in sweep_out.splitlines()
                  if line.strip().startswith(("MESI", "TSO-CC"))]
    for row in sweep_rows:
        for value in row:
            assert value in report_out
    assert "cycles_speedup" in report_out
    assert "geomean" in report_out
    assert "2 of 2 cells cached" in report_out


def test_cli_report_sweep_empty_cache(tmp_path, capsys):
    assert main(["report", "sweep", "ci-smoke",
                 "--cache-dir", str(tmp_path / "nothing")]) == 1
    assert "no cached cells" in capsys.readouterr().err


def test_cli_report_sweep_unknown_name(capsys):
    assert main(["report", "sweep", "not-a-thing"]) == 2
    assert "unknown sweep or campaign" in capsys.readouterr().err


def test_cli_report_sweep_formats_and_outputs(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    assert main(["sweep", "ci-smoke", "--protocols", "MESI",
                 "--workloads", "fft", "--cache-dir", cache,
                 "--jobs", "1"]) == 0
    capsys.readouterr()
    args = ["report", "sweep", "ci-smoke", "--protocols", "MESI",
            "--workloads", "fft", "--cache-dir", cache]
    assert main(args + ["--format", "csv"]) == 0
    assert capsys.readouterr().out.startswith("protocol,")
    assert main(args + ["--format", "json"]) == 0
    assert "rows" in json.loads(capsys.readouterr().out)
    out_file = tmp_path / "table.txt"
    html_file = tmp_path / "dash.html"
    assert main(args + ["--figure", "--per-cell", "--out", str(out_file),
                        "--html", str(html_file)]) == 0
    capsys.readouterr()
    assert "per workload" in out_file.read_text()
    assert "<!DOCTYPE html>" in html_file.read_text()


def test_cli_report_cache_views(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    assert main(["sweep", "ci-smoke", "--protocols", "MESI",
                 "--workloads", "fft", "--cache-dir", cache,
                 "--jobs", "1"]) == 0
    capsys.readouterr()
    assert main(["report", "cache", "--cache-dir", cache]) == 0
    out = capsys.readouterr().out
    assert "stats" in out and "MESI" in out
    assert main(["report", "cache", "--cache-dir", cache,
                 "--workload", "nope"]) == 0
    assert "no cached cells match" in capsys.readouterr().out


def test_cli_report_dash(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    out = tmp_path / "dashboard.html"
    assert main(["sweep", "ci-smoke", "--protocols", "MESI,TSO-CC-4-12-3",
                 "--workloads", "fft", "--cache-dir", cache,
                 "--jobs", "1"]) == 0
    capsys.readouterr()
    assert main(["report", "dash", "-o", str(out), "--sweeps", "ci-smoke",
                 "--cache-dir", cache]) == 0
    assert "1 section" in capsys.readouterr().out
    html = out.read_text()
    assert "<h2>ci-smoke</h2>" in html
    assert main(["report", "dash", "-o", str(out), "--sweeps", "bogus",
                 "--cache-dir", cache]) == 2


def test_cli_report_diff_gate(tmp_path, capsys):
    import shutil
    cache = tmp_path / "cache"
    assert main(["sweep", "ci-smoke", "--protocols", "MESI",
                 "--workloads", "fft", "--cache-dir", str(cache),
                 "--jobs", "1"]) == 0
    capsys.readouterr()
    # Self-diff passes the strictest gate.
    assert main(["report", "diff", str(cache), str(cache),
                 "--fail-on", "any"]) == 0
    assert "0 changed / 0 added / 0 removed" in capsys.readouterr().out
    # A drifted payload trips --fail-on changed with exit 1.
    other = tmp_path / "other"
    shutil.copytree(cache, other)
    entry = next(other.glob("*/*.json"))
    payload = json.loads(entry.read_text())
    payload["cycles"] = 0
    entry.write_text(json.dumps(payload))
    assert main(["report", "diff", str(cache), str(other),
                 "--fail-on", "changed", "--json"]) == 1
    captured = capsys.readouterr()
    assert "drift in class" in captured.err
    assert json.loads(captured.out)["counts"]["changed"] == 1
    # ...but an unselected class does not gate.
    assert main(["report", "diff", str(cache), str(other),
                 "--fail-on", "added"]) == 0
    capsys.readouterr()
    # Missing snapshot directory is a usage error.
    assert main(["report", "diff", str(cache),
                 str(tmp_path / "missing")]) == 2


def test_cli_sweep_figure_flag(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    assert main(["sweep", "ci-smoke", "--protocols", "MESI,TSO-CC-4-12-3",
                 "--workloads", "fft", "--cache-dir", cache,
                 "--jobs", "1", "--figure"]) == 0
    out = capsys.readouterr().out
    assert "cycles per workload" in out
    assert "cycles_speedup" in out            # declared baseline kicks in
    assert "baseline: MESI" in out


def test_cli_report_help_smokes(capsys):
    for args in (["report", "--help"], ["report", "sweep", "--help"],
                 ["report", "diff", "--help"]):
        with pytest.raises(SystemExit):
            main(args)
        assert "report" in capsys.readouterr().out


# ------------------------------------------------------------ fuzz campaign

def test_fuzz_campaign_reports_through_same_pipeline(tmp_path):
    from repro.consistency.fuzz import FuzzCampaign
    campaign = FuzzCampaign(name="report-fuzz", description="one-cell",
                            protocols=("MESI",), num_seeds=1,
                            iterations=2, max_jitter=5)
    cache = ResultCache(tmp_path / "fuzz-cache")
    campaign.run(jobs=1, cache=cache)
    report = SpecReport.from_cache(campaign, cache)
    assert report.complete
    table = report.mix_table()
    row = table.rows[0]
    assert row["protocol"] == "MESI"
    assert row["passed"] is True                   # "all" aggregation
    assert row["violations"] == 0
    assert 0.0 <= row["coverage"] <= 1.0
    rendered = table.render()
    assert "yes" in rendered                       # bool formatting
