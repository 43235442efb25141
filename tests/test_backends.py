"""Tests for cell execution placement: the executor's inline and pooled
paths, its failure semantics, and the shard pipeline
(``repro/analysis/shard.py``).

Three properties are load-bearing:

* **Placement neutrality** — inline, pooled and sharded execution of the
  same cell list produce byte-identical ``SystemStats`` payloads under
  identical cache keys; where a cell runs never changes what it computes.
* **No lost work** — a failing cell does not throw away its siblings: every
  pending cell runs, every valid payload is cached, and only then does the
  earliest failure (in the order the cells were given) propagate.
* **Coordinator-free sharding** — the cell→shard assignment is a pure
  function of the content-addressed cache key, so N independent ``shard
  run`` invocations cover every cell exactly once and their result
  directories merge back into a cache that serves an unsharded run with
  zero new simulations.  The end-to-end pipeline is verified against the
  pre-refactor goldens in ``tests/goldens/``.
"""

import json
from pathlib import Path

import pytest

import repro.analysis.parallel as parallel
from _helpers import make_tiny_config
from repro.analysis.parallel import (MatrixExecutor, ResultCache,
                                     WorkloadValidationError, cell_key)
from repro.analysis.shard import (merge_results, missing_cells, plan_sweep,
                                  resolve_shard, shard_of_key)
from repro.analysis.sweeps import SweepSpec, get_sweep
from repro.cli import _spec_table, main
from repro.sim.config import SystemConfig

GOLDEN_DIR = Path(__file__).parent / "goldens"

PROTOCOLS = ["MESI", "TSO-CC-4-12-3"]
WORKLOADS = ["fft", "intruder"]
SCALE = 0.2
CELLS = [(p, w) for p in PROTOCOLS for w in WORKLOADS]


@pytest.fixture(autouse=True)
def _clean_shard_env(monkeypatch):
    """REPRO_SHARD must not leak into (or out of) tests."""
    monkeypatch.delenv("REPRO_SHARD", raising=False)


def canonical(stats) -> str:
    return json.dumps(stats.to_dict(), sort_keys=True)


def tiny_sweep(**overrides) -> SweepSpec:
    base = dict(
        name="tiny-placement-sweep",
        description="placement determinism fixture",
        protocols=tuple(PROTOCOLS),
        workloads=tuple(WORKLOADS),
        cores=(2,),
        scales=(SCALE,),
        metrics=("cycles", "flits"),
    )
    base.update(overrides)
    return SweepSpec(**base)


# ------------------------------------------------------------------ shard coordinates

def test_repro_shard_env_shards_any_executor(monkeypatch):
    """Exporting REPRO_SHARD alone shards an executor built without a
    shard; an explicit shard wins over the variable."""
    config = make_tiny_config()
    key = cell_key(config, "MESI", "fft", SCALE, 200_000_000)
    other = (shard_of_key(key, 2) + 1) % 2
    monkeypatch.setenv("REPRO_SHARD", f"{other}/2")
    executor = MatrixExecutor(config, scale=SCALE, jobs=1)
    assert executor.shard == (other, 2)
    assert executor.run_cells([("MESI", "fft")]) == {}
    assert executor.simulations_run == 0
    owner = MatrixExecutor(config, scale=SCALE, jobs=1,
                           shard=(1 - other, 2))
    assert set(owner.run_cells([("MESI", "fft")])) == {("MESI", "fft")}


def test_resolve_shard_flags_env_and_errors(monkeypatch):
    assert resolve_shard() is None
    assert resolve_shard(2, 5) == (2, 5)
    monkeypatch.setenv("REPRO_SHARD", "0/3")
    assert resolve_shard() == (0, 3)
    monkeypatch.setenv("REPRO_SHARD", "junk")
    with pytest.raises(ValueError, match="REPRO_SHARD"):
        resolve_shard()
    with pytest.raises(ValueError, match="together"):
        resolve_shard(1, None)
    with pytest.raises(ValueError, match="outside"):
        resolve_shard(4, 4)
    with pytest.raises(ValueError, match=">= 1"):
        resolve_shard(0, 0)


# ------------------------------------------------------------------ determinism

def test_executor_backend_keyword_accepts_only_local():
    MatrixExecutor(make_tiny_config(), backend="local")
    with pytest.raises(ValueError, match="unknown backend 'batched'"):
        MatrixExecutor(make_tiny_config(), backend="batched")


def test_pool_matches_inline_payloads_and_cache_keys(tmp_path):
    config = make_tiny_config()
    inline = MatrixExecutor(config, scale=SCALE, jobs=1,
                            cache=ResultCache(tmp_path / "inline"))
    pooled = MatrixExecutor(config, scale=SCALE, jobs=2,
                            cache=ResultCache(tmp_path / "pooled"))
    inline_results = inline.run_cells(CELLS)
    pooled_results = pooled.run_cells(CELLS)
    assert inline.simulations_run == pooled.simulations_run == len(CELLS)
    for cell in CELLS:
        assert canonical(inline_results[cell]) == canonical(pooled_results[cell])
    # Identical cache keys: the same entry files exist on both sides, with
    # byte-identical payloads.
    # The entry files are the whole cache.
    inline_entries = {p.name: p.read_text()
                      for p in (tmp_path / "inline").glob("*/*.json")}
    pooled_entries = {p.name: p.read_text()
                      for p in (tmp_path / "pooled").glob("*/*.json")}
    assert inline_entries == pooled_entries
    assert len(inline_entries) == len(CELLS)


@pytest.mark.parametrize("jobs", [1, 2])
def test_failing_cell_keeps_sibling_cells_cached(tmp_path, monkeypatch, jobs):
    """Invalid cells must not discard their siblings: every pending cell
    runs and every valid one is cached, then the earliest failure in the
    order the cells were given is raised — inline and pooled alike."""
    real = parallel.simulate_cell
    failing = {CELLS[1]: "first injected failure",
               CELLS[3]: "second injected failure"}

    def simulate(config, protocol, workload_name, scale, max_cycles):
        if (protocol, workload_name) in failing:
            raise WorkloadValidationError(failing[(protocol, workload_name)])
        return real(config, protocol, workload_name, scale, max_cycles)

    # The pool forks after the patch, so workers inherit it.
    monkeypatch.setattr(parallel, "simulate_cell", simulate)
    cache = ResultCache(tmp_path)
    executor = MatrixExecutor(make_tiny_config(), scale=SCALE, jobs=jobs,
                              cache=cache)
    with pytest.raises(WorkloadValidationError,
                       match="first injected failure"):
        executor.run_cells(CELLS)
    assert executor.simulations_run == len(CELLS) - len(failing)
    assert sum(1 for _ in tmp_path.glob("*/*.json")) == \
        len(CELLS) - len(failing)


def test_sharded_union_matches_local_without_cache():
    """Shards partition the cell list even with the cache disabled (keys
    are computed on the fly) and reproduce local payloads byte-for-byte."""
    config = make_tiny_config()
    reference = MatrixExecutor(config, scale=SCALE, jobs=1).run_cells(CELLS)
    seen = {}
    for index in range(3):
        executor = MatrixExecutor(config, scale=SCALE, jobs=1,
                                  shard=(index, 3))
        results = executor.run_cells(CELLS)
        assert not set(results) & set(seen), "shards must be disjoint"
        seen.update(results)
    assert sorted(seen) == sorted(CELLS)
    for cell in CELLS:
        assert canonical(seen[cell]) == canonical(reference[cell])


def test_sharded_executor_omits_cells_of_other_shards():
    config = make_tiny_config()
    key = cell_key(config, "MESI", "fft", SCALE, 200_000_000)
    other = (shard_of_key(key, 2) + 1) % 2
    executor = MatrixExecutor(config, scale=SCALE, jobs=1,
                              shard=(other, 2))
    assert executor.run_cells([("MESI", "fft")]) == {}
    assert executor.simulations_run == 0


# ------------------------------------------------------------------ planning

def test_shard_of_key_is_pure_and_in_range():
    key = "ab" * 32
    assert shard_of_key(key, 4) == shard_of_key(key, 4) == int(key, 16) % 4
    for count in (1, 2, 7):
        assert 0 <= shard_of_key(key, count) < count
    with pytest.raises(ValueError):
        shard_of_key(key, 0)


def test_plan_is_disjoint_complete_and_deterministic():
    spec = tiny_sweep(cores=(2, 4), scales=(0.2, 0.3))
    plan = plan_sweep(spec, shard_count=4)
    assert plan.shard_count == 4
    assert len(plan.cells) == spec.num_cells
    # Disjoint cover: every cell appears in exactly one shard.
    by_shard = [plan.shard_cells(i) for i in range(4)]
    assert sum(len(cells) for cells in by_shard) == spec.num_cells
    assert sum(plan.shard_sizes()) == spec.num_cells
    flattened = [cell for cells in by_shard for cell in cells]
    assert sorted(c.key for c in flattened) == sorted(c.key for c in plan.cells)
    assert len({c.key for c in plan.cells}) == spec.num_cells
    # Deterministic: a recomputed plan is identical (no coordinator needed).
    assert plan_sweep(spec, shard_count=4) == plan
    # The assignment is per-key, so the executor's shard filter agrees with
    # the planner for every cell.
    for cell in plan.cells:
        assert cell.shard == shard_of_key(cell.key, 4)


def test_plan_keys_match_result_cache_keys():
    spec = tiny_sweep()
    cache = ResultCache(Path("/nonexistent"), enabled=False)
    plan = plan_sweep(spec, shard_count=2)
    for cell in plan.cells:
        expected = cache.key(SystemConfig().scaled(num_cores=cell.cores),
                             cell.protocol, cell.workload, cell.scale,
                             spec.max_cycles)
        assert cell.key == expected


def test_manifests_round_trip_and_cover_every_cell(tmp_path):
    spec = tiny_sweep()
    plan = plan_sweep(spec, shard_count=3)
    paths = plan.write(tmp_path)
    assert [p.name for p in paths] == [
        f"shard-{i}-of-3.json" for i in range(3)]
    cells = []
    for index, path in enumerate(paths):
        manifest = json.loads(path.read_text(encoding="utf-8"))
        assert manifest["sweep"] == spec.name
        assert manifest["shard_index"] == index
        assert manifest["shard_count"] == 3
        cells.extend((c["protocol"], c["workload"], c["key"])
                     for c in manifest["cells"])
    assert len(cells) == len(set(cells)) == spec.num_cells


# ------------------------------------------------------------------ merge

def test_merge_reports_duplicates_and_invalid_entries(tmp_path):
    config = make_tiny_config()
    source = ResultCache(tmp_path / "source")
    MatrixExecutor(config, scale=SCALE, jobs=1,
                   cache=source).run_cells(CELLS[:2])
    # A corrupt entry and a stale-schema entry must be counted, not merged.
    bad_dir = tmp_path / "source" / "zz"
    bad_dir.mkdir()
    (bad_dir / ("f" * 64 + ".json")).write_text("{ not json", encoding="utf-8")
    (bad_dir / ("e" * 64 + ".json")).write_text('{"schema": -1}',
                                                encoding="utf-8")

    dest = ResultCache(tmp_path / "dest")
    report = merge_results([tmp_path / "source"], dest)
    assert (report.merged, report.already_present, report.invalid) == (2, 0, 2)
    again = merge_results([tmp_path / "source"], dest)
    assert (again.merged, again.already_present, again.invalid) == (0, 2, 2)


# ----------------------------------------------------- end-to-end vs goldens

GOLDEN_SPEC = SweepSpec(
    name="golden-shard-check",
    description="sharded pipeline must reproduce the pre-refactor goldens",
    protocols=("MESI", "TSO-CC-4-12-3"),
    workloads=("fft",),
    cores=(4,),
    scales=(0.5,),
    max_cycles=50_000_000,
)

GOLDEN_FILES = {
    ("MESI", "fft"): "mesi_fft.json",
    ("TSO-CC-4-12-3", "fft"): "tso_cc_4_12_3_fft.json",
}


def test_shard_run_merge_reproduces_unsharded_run_and_goldens(tmp_path):
    """The acceptance pipeline: run every shard independently, merge the
    shard result directories, and the merged cache must (a) cover the sweep
    completely, (b) serve an unsharded run with zero new simulations, and
    (c) hold payloads byte-identical to the pre-refactor goldens."""
    shard_count = 3
    plan = plan_sweep(GOLDEN_SPEC, shard_count)
    assert sum(plan.shard_sizes()) == GOLDEN_SPEC.num_cells

    shard_dirs = []
    executed = 0
    for index in range(shard_count):
        shard_dir = tmp_path / f"shard-{index}"
        result = GOLDEN_SPEC.run(jobs=1, cache=ResultCache(shard_dir),
                                 shard=(index, shard_count))
        assert result.simulations_run == len(plan.shard_cells(index))
        assert result.report().complete == (len(plan.shard_cells(index))
                                            == GOLDEN_SPEC.num_cells)
        executed += result.simulations_run
        shard_dirs.append(shard_dir)
    assert executed == GOLDEN_SPEC.num_cells

    merged = ResultCache(tmp_path / "merged")
    assert missing_cells(GOLDEN_SPEC, merged)       # nothing there yet
    report = merge_results(shard_dirs, merged)
    assert report.merged == GOLDEN_SPEC.num_cells
    assert report.invalid == 0
    assert missing_cells(GOLDEN_SPEC, merged) == []  # (a) complete cover

    unsharded = GOLDEN_SPEC.run(jobs=1, cache=merged)
    assert unsharded.simulations_run == 0            # (b) all from cache
    assert unsharded.report().complete

    for (protocol, workload), golden in GOLDEN_FILES.items():
        stats = unsharded.cells[(protocol, workload, 4, 0.5)]
        expected = json.loads((GOLDEN_DIR / golden).read_text(encoding="utf-8"))
        assert json.dumps(stats.to_dict(), sort_keys=True) == \
            json.dumps(expected, sort_keys=True), (protocol, workload)  # (c)


def _partial_shard(spec):
    """A ``(index, count)`` whose shard owns a strict subset of the cells
    (hash assignment is not balanced, so search for one)."""
    for count in range(2, 6):
        plan = plan_sweep(spec, count)
        for index in range(count):
            if 0 < len(plan.shard_cells(index)) < spec.num_cells:
                return index, count
    raise AssertionError(f"no partial shard found for {spec.name}")


def test_partial_sweep_result_refuses_mix_aggregation(tmp_path):
    spec = tiny_sweep(workloads=("fft",))
    index, shard_count = _partial_shard(spec)
    result = spec.run(jobs=1, shard=(index, shard_count))
    report = result.report()
    assert not report.complete
    # A variant whose (one-workload) mix lost its cell to another shard
    # gets no sum, rendered as missing ...
    present = {protocol for protocol, _, _, _ in result.cells}
    for row in report.mix_table(normalized=False).rows:
        assert (row["cycles"] is None) == (row["protocol"] not in present)
    # ... while the per-cell grain lists exactly the shard's cells, and is
    # what `repro sweep` prints for a partial result even without
    # --per-cell.
    cells = report.cell_table().rows
    assert {(row["protocol"], row["workload"], row["cores"], row["scale"])
            for row in cells} == set(result.cells)
    printed = _spec_table(report, "title")
    assert "workload" in printed.columns
    assert printed.rows == cells


# ------------------------------------------------------------------ CLI

def test_cli_shard_plan_writes_disjoint_manifests(tmp_path, capsys):
    code = main(["shard", "plan", "ci-smoke", "--shard-count", "4",
                 "--out-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "cells per shard" in out
    manifests = sorted(tmp_path.glob("shard-*-of-4.json"))
    assert len(manifests) == 4
    keys = []
    for path in manifests:
        keys.extend(c["key"] for c in
                    json.loads(path.read_text(encoding="utf-8"))["cells"])
    assert len(keys) == len(set(keys)) == 8  # ci-smoke: disjoint full cover


def test_cli_shard_plan_needs_a_count(capsys):
    assert main(["shard", "plan", "ci-smoke"]) == 2
    assert "--shard-count" in capsys.readouterr().err


def test_cli_shard_plan_unknown_sweep(capsys):
    assert main(["shard", "plan", "not-a-sweep", "--shard-count", "2"]) == 2


def test_cli_shard_plan_and_run_reject_unregistered_protocols(capsys):
    """A --protocols typo must fail at plan time — not emit manifests whose
    shard jobs can only crash later — and exit 2 from shard run too."""
    assert main(["shard", "plan", "ci-smoke", "--shard-count", "2",
                 "--protocols", "BOGUS"]) == 2
    assert "BOGUS" in capsys.readouterr().err
    assert main(["shard", "run", "ci-smoke", "--shard-index", "0",
                 "--shard-count", "2", "--protocols", "BOGUS",
                 "--no-cache"]) == 2
    err = capsys.readouterr().err
    assert "BOGUS" in err and "Traceback" not in err


def test_cli_shard_run_and_merge_round_trip(tmp_path, capsys):
    """CLI pipeline over a two-cell subset: every shard runs, the merge
    completes the sweep, and an incomplete merge exits non-zero."""
    overrides = ["--protocols", "MESI,TSO-CC-4-12-3", "--workloads", "fft",
                 "--cores", "2", "--scales", "0.2"]
    shard_dirs = [str(tmp_path / f"shard-{i}") for i in range(2)]
    for index in range(2):
        code = main(["shard", "run", "ci-smoke", "--shard-index", str(index),
                     "--shard-count", "2", "--jobs", "1",
                     "--cache-dir", shard_dirs[index]] + overrides)
        assert code == 0
        assert "shard {}/2".format(index) in capsys.readouterr().out

    counts = [sum(1 for _ in Path(d).glob("*/*.json")) for d in shard_dirs]
    assert sum(counts) == 2  # every cell ran in exactly one shard

    # Merging only the first shard must be reported as incomplete (unless
    # that shard happened to own both cells) ...
    merged = str(tmp_path / "merged")
    first_only = main(["shard", "merge", "ci-smoke", "--from", shard_dirs[0],
                       "--cache-dir", merged] + overrides)
    output = capsys.readouterr()
    if counts[0] < 2:
        assert first_only == 1
        assert "INCOMPLETE" in output.err
    else:
        assert first_only == 0

    # ... and merging every shard always completes the sweep.
    all_cells = main(["shard", "merge", "ci-smoke", "--from", shard_dirs[0],
                      "--from", shard_dirs[1], "--cache-dir", merged]
                     + overrides)
    output = capsys.readouterr()
    assert all_cells == 0
    assert "complete" in output.out

    # The merged cache serves the unsharded sweep with zero simulations.
    code = main(["sweep", "ci-smoke", "--jobs", "1", "--cache-dir", merged]
                + overrides)
    assert code == 0
    assert "0 simulated" in capsys.readouterr().out


def test_cli_shard_run_requires_coordinates(capsys):
    assert main(["shard", "run", "ci-smoke", "--jobs", "1"]) == 2
    assert "shard" in capsys.readouterr().err


def test_cli_sweep_accepts_shard_flags(tmp_path, capsys):
    spec = get_sweep("ci-smoke").subset(protocols=["MESI", "TSO-CC-4-12-3"],
                                        workloads=["fft", "intruder"])
    index, count = _partial_shard(spec)
    code = main(["sweep", "ci-smoke", "--protocols", "MESI,TSO-CC-4-12-3",
                 "--workloads", "fft,intruder", "--shard-index", str(index),
                 "--shard-count", str(count), "--jobs", "1",
                 "--cache-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "of 4 cells executed" in out
    # A partial result prints one row per cell, not sums over a holed mix.
    assert out.splitlines()[1].split()[:2] == ["protocol", "workload"]


def test_cli_sweep_rejects_half_specified_shard(capsys):
    assert main(["sweep", "ci-smoke", "--shard-index", "0",
                 "--no-cache"]) == 2
    assert "together" in capsys.readouterr().err


def test_cli_figure_refuses_sharded_execution(monkeypatch, capsys):
    """Figures need every cell; a sharded figure run must be refused up
    front with a clean message, not crash mid-matrix."""
    monkeypatch.setenv("REPRO_SHARD", "0/2")
    code = main(["figure", "3", "--workloads", "fft", "--cores", "2",
                 "--scale", "0.2", "--protocols", "MESI,TSO-CC-4-basic",
                 "--no-cache"])
    assert code == 2
    err = capsys.readouterr().err
    assert "REPRO_SHARD" in err and "Traceback" not in err


def test_cli_figure_reports_malformed_repro_shard(monkeypatch, capsys):
    # A malformed REPRO_SHARD is a user error, not a traceback.
    monkeypatch.setenv("REPRO_SHARD", "junk")
    assert main(["figure", "3", "--workloads", "fft", "--cores", "2",
                 "--scale", "0.2", "--no-cache"]) == 2
    err = capsys.readouterr().err
    assert "REPRO_SHARD" in err and "Traceback" not in err


def test_cli_shard_merge_rejects_bad_overrides_before_merging(tmp_path, capsys):
    dest = tmp_path / "dest"
    with pytest.raises(SystemExit) as excinfo:
        main(["shard", "merge", "ci-smoke", "--from", str(tmp_path),
              "--cache-dir", str(dest), "--cores", "abc"])
    assert excinfo.value.code == 2  # argparse's usage error
    assert not dest.exists()  # nothing was merged before the failure


def test_cli_run_reports_malformed_repro_shard(monkeypatch, capsys):
    """Sharding can fail via the environment alone; that is user error
    (exit 2 with a message), not a traceback."""
    monkeypatch.setenv("REPRO_SHARD", "3/2")
    assert main(["run", "fft", "--protocol", "MESI", "--cores", "2",
                 "--scale", "0.2", "--no-cache"]) == 2
    err = capsys.readouterr().err
    assert "outside [0, 2)" in err and "Traceback" not in err


def test_cli_shard_plan_rejects_nonpositive_count(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["shard", "plan", "ci-smoke", "--shard-count", "0"])
    assert excinfo.value.code == 2  # argparse's usage error
    assert "argument --shard-count: invalid" in capsys.readouterr().err


def test_cli_sweep_rejects_malformed_axis_overrides(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "ci-smoke", "--cores", "abc", "--no-cache"])
    assert excinfo.value.code == 2  # argparse's usage error
    assert "argument --cores: invalid" in capsys.readouterr().err


def test_merge_replaces_corrupt_destination_entries(tmp_path):
    config = make_tiny_config()
    source = ResultCache(tmp_path / "source")
    MatrixExecutor(config, scale=SCALE, jobs=1,
                   cache=source).run_cells(CELLS[:1])
    key_path = next((tmp_path / "source").glob("*/*.json"))
    dest = ResultCache(tmp_path / "dest")
    corrupt = dest.path(key_path.stem)
    corrupt.parent.mkdir(parents=True)
    corrupt.write_text("{ truncated", encoding="utf-8")

    assert merge_results([tmp_path / "source"], dest).merged == 1
    assert _stats_schema() == json.loads(
        corrupt.read_text(encoding="utf-8"))["schema"]  # replaced, valid


def _stats_schema():
    from repro.sim.stats import STATS_SCHEMA_VERSION
    return STATS_SCHEMA_VERSION


def test_missing_cells_treats_corrupt_entries_as_missing(tmp_path):
    spec = tiny_sweep(workloads=("fft",))
    cache = ResultCache(tmp_path)
    plan = plan_sweep(spec, 1)
    assert len(missing_cells(spec, cache)) == spec.num_cells
    # A present-but-corrupt entry must still count as missing.
    bad = cache.path(plan.cells[0].key)
    bad.parent.mkdir(parents=True)
    bad.write_text("{ truncated", encoding="utf-8")
    assert len(missing_cells(spec, cache)) == spec.num_cells


def test_merge_fails_loudly_on_unwritable_destination(tmp_path, capsys):
    config = make_tiny_config()
    source = ResultCache(tmp_path / "source")
    MatrixExecutor(config, scale=SCALE, jobs=1,
                   cache=source).run_cells(CELLS[:1])
    # API level: a disabled destination is rejected outright ...
    with pytest.raises(ValueError, match="disabled"):
        merge_results([tmp_path / "source"],
                      ResultCache(tmp_path / "dest", enabled=False))
    # ... and a destination that cannot be written (here: a file in the
    # way) fails the merge instead of reporting entries as merged.
    blocked = tmp_path / "blocked"
    blocked.write_text("not a directory", encoding="utf-8")
    code = main(["shard", "merge", "--from", str(tmp_path / "source"),
                 "--cache-dir", str(blocked)])
    assert code == 1
    assert "FAIL" in capsys.readouterr().err


def test_cli_run_sharded_prints_skipped_cells(capsys):
    config = SystemConfig().scaled(num_cores=2)
    key = cell_key(config, "MESI", "fft", 0.2, 200_000_000)
    other = (shard_of_key(key, 2) + 1) % 2
    code = main(["run", "fft", "--protocol", "MESI", "--cores", "2",
                 "--scale", "0.2", "--no-cache",
                 "--shard-index", str(other), "--shard-count", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "skipped by shard backend: MESI" in out
