"""Tests for the parallel experiment executor and its on-disk result cache.

Determinism is the load-bearing property: a cell's statistics must be a pure
function of (config, protocol, workload, scale, max_cycles), or both the
process-pool fan-out and the content-addressed cache would silently change
results.  Serial and parallel runs are therefore compared byte-for-byte.
"""

import hashlib
import json
from pathlib import Path

import pytest

import repro.analysis.parallel as parallel
from _helpers import make_tiny_config
from repro.analysis.parallel import (MatrixExecutor, ResultCache,
                                     WorkloadValidationError, cell_key,
                                     resolve_jobs)
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


#: SHA-256 of each registered sweep's and fuzz campaign's cell keys, one
#: ``<cores> <scale> <protocol> <workload> <key>`` line per cell in
#: expansion order.  A new key orphans every cache entry and moves every
#: shard assignment, so re-pin only together with a CACHE_SCHEMA_VERSION
#: bump (or a deliberate change to a spec's expansion).
GOLDEN_CELL_KEYS = {
    "timestamp-bits":
        "6ecad8307ad2a3f7b10647495dd2611aa57490f3c8c6d6194b6ad8d5b89aa078",
    "access-counter":
        "0c02bb89c60fea6fb8b185f3288fc1da82c67e985d50e0fd4aa3e6b8d9e3f296",
    "decay":
        "261166664f23afe86296c9fc79f258ff6d4dd6e97487699f508dd15c416884ce",
    "shared-ro":
        "f0c715a0ecfd724568ddeec1f0c3acac7ec39f4f9cc272b9c833816e71f06824",
    "ts-table":
        "4318a3fe71ad890456f347e525855450fbeccec37e923ce08083f118a0ef4906",
    "protocol-baselines":
        "2fc95d021f01866abd074a9c73af560cb342dcef3012965c531fd53855864146",
    "ci-smoke":
        "902478f5e2176ea2ab30177a9c88135abbf3bcbcc67752ef8cf60f982947b953",
    "scenario-smoke":
        "99a19594f54c8b06a50b434b044275bb3ff0e317499d58bcba7a030f30893813",
    "fuzz-smoke":
        "83d272476881084ae22cbdcc049fc748b97d2010828c9cfb985c61e7d36c84d8",
    "tso-conformance":
        "0cde47fd0a44f7d80ff506fd0beb9503312caff9dbc00f64cf9b0024b92c072d",
    "fuzz-wide":
        "5287096f4e34296fd8434b94db22f48d359c79fa24f3389cb9e2a37237599d5d",
}


def test_golden_cell_keys(monkeypatch):
    from repro.analysis.sweeps import list_sweeps
    from repro.consistency.fuzz import list_campaigns

    # scenario-smoke replays a trace committed under benchmarks/traces/.
    monkeypatch.chdir(Path(__file__).resolve().parents[1])
    digests = {}
    for spec in list_sweeps() + list_campaigns():
        digest = hashlib.sha256()
        for cores, scale, protocol, workload in spec.cells():
            key = cell_key(SystemConfig().scaled(num_cores=cores), protocol,
                           workload, scale, spec.max_cycles,
                           kind=spec.cell_kind)
            digest.update(f"{cores} {scale!r} {protocol} {workload} "
                          f"{key}\n".encode("utf-8"))
        digests[spec.name] = digest.hexdigest()
    assert digests == GOLDEN_CELL_KEYS


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
