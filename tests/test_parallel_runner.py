"""Tests for the parallel experiment executor and its on-disk result cache.

Determinism is the load-bearing property: a cell's statistics must be a pure
function of (config, protocol, workload, scale, max_cycles), or both the
process-pool fan-out and the content-addressed cache would silently change
results.  Serial and parallel runs are therefore compared byte-for-byte.
"""

import json

import pytest

import repro.analysis.parallel as parallel
from _helpers import make_tiny_config
from repro.analysis.parallel import (MatrixExecutor, ResultCache,
                                     WorkloadValidationError, resolve_jobs)
from repro.sim.config import SystemConfig

PROTOCOLS = ["MESI", "TSO-CC-4-12-3"]
WORKLOADS = ["fft", "intruder"]
CELLS = [(protocol, workload) for protocol in PROTOCOLS
         for workload in WORKLOADS]
SCALE = 0.2


def canonical(stats) -> str:
    return json.dumps(stats.to_dict(), sort_keys=True)


# ------------------------------------------------------------------ determinism

def test_serial_and_parallel_runs_identical():
    config = make_tiny_config()
    serial = MatrixExecutor(config, scale=SCALE, jobs=1).run_cells(CELLS)
    four_way = MatrixExecutor(config, scale=SCALE, jobs=4).run_cells(CELLS)
    assert sorted(serial) == sorted(four_way) == sorted(CELLS)
    for cell in CELLS:
        assert canonical(serial[cell]) == canonical(four_way[cell]), cell


# ------------------------------------------------------------------ caching

def test_warm_cache_serves_all_cells_with_zero_simulations(tmp_path):
    config = make_tiny_config()
    cold = MatrixExecutor(config, scale=SCALE, jobs=2,
                          cache=ResultCache(tmp_path))
    first = cold.run_cells(CELLS)
    assert cold.simulations_run == len(CELLS)

    warm = MatrixExecutor(config, scale=SCALE, jobs=2,
                          cache=ResultCache(tmp_path))
    second = warm.run_cells(CELLS)
    assert warm.simulations_run == 0
    assert warm.cache.hits == len(CELLS)
    for cell in CELLS:
        assert canonical(first[cell]) == canonical(second[cell])


def test_config_change_busts_the_key(tmp_path):
    cache = ResultCache(tmp_path)
    base = make_tiny_config()
    key = cache.key(base, "MESI", "fft", SCALE, 1000)
    assert cache.key(base, "MESI", "fft", SCALE, 1000) == key  # stable
    assert cache.key(base.with_cores(4), "MESI", "fft", SCALE, 1000) != key
    assert cache.key(base, "TSO-CC-4-12-3", "fft", SCALE, 1000) != key
    assert cache.key(base, "MESI", "radix", SCALE, 1000) != key
    assert cache.key(base, "MESI", "fft", 0.3, 1000) != key
    assert cache.key(base, "MESI", "fft", SCALE, 2000) != key


def test_config_change_triggers_resimulation(tmp_path):
    cache_root = tmp_path
    first = MatrixExecutor(make_tiny_config(), scale=SCALE, jobs=1,
                           cache=ResultCache(cache_root))
    first.run_cells([("MESI", "fft")])
    assert first.simulations_run == 1

    changed = SystemConfig().scaled(num_cores=2, l1_size_bytes=2048,
                                    l2_tile_size_bytes=8 * 1024)
    second = MatrixExecutor(changed, scale=SCALE, jobs=1,
                            cache=ResultCache(cache_root))
    second.run_cells([("MESI", "fft")])
    assert second.simulations_run == 1  # miss: different config, new key


def test_schema_version_bump_busts_everything(tmp_path, monkeypatch):
    config = make_tiny_config()
    first = MatrixExecutor(config, scale=SCALE, jobs=1,
                           cache=ResultCache(tmp_path))
    first.run_cells([("MESI", "fft")])
    assert first.simulations_run == 1

    monkeypatch.setattr(parallel, "CACHE_SCHEMA_VERSION",
                        parallel.CACHE_SCHEMA_VERSION + 1)
    bumped = MatrixExecutor(config, scale=SCALE, jobs=1,
                            cache=ResultCache(tmp_path))
    bumped.run_cells([("MESI", "fft")])
    assert bumped.simulations_run == 1  # old entry unreachable under new key


def test_corrupt_cache_entry_is_a_miss(tmp_path):
    config = make_tiny_config()
    cache = ResultCache(tmp_path)
    executor = MatrixExecutor(config, scale=SCALE, jobs=1, cache=cache)
    executor.run_cells([("MESI", "fft")])
    key = cache.key(config, "MESI", "fft", SCALE, executor.max_cycles)
    cache.path(key).write_text("{ not json", encoding="utf-8")

    recovered = MatrixExecutor(config, scale=SCALE, jobs=1,
                               cache=ResultCache(tmp_path))
    recovered.run_cells([("MESI", "fft")])
    assert recovered.simulations_run == 1
    assert not cache.path(key).read_text().startswith("{ not")  # rewritten


def test_failed_put_cleans_up_tmp_and_disables_cache(tmp_path, monkeypatch,
                                                     capsys):
    from pathlib import Path

    cache = ResultCache(tmp_path)
    key = "ab" + "0" * 62

    def rename_fails(self, target):
        raise OSError("simulated rename failure")

    monkeypatch.setattr(Path, "replace", rename_fails)
    cache.put(key, {"schema": 1})

    assert not cache.enabled  # best-effort: disabled, not raised
    assert list(tmp_path.rglob("*.tmp")) == []  # no per-pid tmp left behind
    assert "unusable" in capsys.readouterr().err


def test_poisoned_cache_root_disables_cache_without_droppings(tmp_path,
                                                              capsys):
    # A cache root that is actually a file: mkdir fails before any tmp is
    # created, the cache disables itself and the run continues.
    root = tmp_path / "cache"
    root.write_text("not a directory", encoding="utf-8")
    cache = ResultCache(root)
    cache.put("cd" + "0" * 62, {"schema": 1})

    assert not cache.enabled
    assert root.read_text(encoding="utf-8") == "not a directory"
    assert list(tmp_path.rglob("*.tmp")) == []
    assert "unusable" in capsys.readouterr().err


def test_disabled_cache_writes_and_reads_nothing(tmp_path):
    config = make_tiny_config()
    executor = MatrixExecutor(config, scale=SCALE, jobs=1,
                              cache=ResultCache(tmp_path, enabled=False))
    executor.run_cells([("MESI", "fft")])
    executor2 = MatrixExecutor(config, scale=SCALE, jobs=1,
                               cache=ResultCache(tmp_path, enabled=False))
    executor2.run_cells([("MESI", "fft")])
    assert executor2.simulations_run == 1
    assert list(tmp_path.iterdir()) == []


# ------------------------------------------------------------------ plumbing

def test_resolve_jobs(monkeypatch):
    assert resolve_jobs(3) == 3
    assert resolve_jobs(0) == 1
    monkeypatch.setenv("REPRO_JOBS", "5")
    assert resolve_jobs() == 5
    monkeypatch.delenv("REPRO_JOBS")
    assert resolve_jobs() >= 1


def test_validation_failure_propagates_from_workers():
    # 'fft' validates against an analytically known result; breaking the
    # workload's expected values is not practical here, so instead check the
    # exception type is importable/raisable and is an AssertionError so
    # legacy `except AssertionError` call sites still catch it.
    assert issubclass(WorkloadValidationError, AssertionError)
    with pytest.raises(AssertionError):
        raise WorkloadValidationError("boom")
