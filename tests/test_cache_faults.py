"""Fault injection against the result cache and its GC.

Every fault a shared cache root can exhibit — torn/truncated entries,
orphaned per-pid tmp files, failed renames, an unwritable root — must
degrade to a cache miss.  Never an exception on the lookup path, and
never a wrong payload.  The torn-read/concurrent-replace cases pin the
conditional unlink in ``ResultCache._discard_corrupt``: a reader that
judged stale bytes may only remove the exact file it read.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

import repro.analysis.parallel as parallel
from _cachekind import CACHETEST_SCHEMA, simulate_cachetest_cell
from repro.analysis.parallel import (MatrixExecutor, ResultCache, cell_key,
                                     collect_garbage)
from repro.sim.config import SystemConfig
from repro.sim.stats import STATS_SCHEMA_VERSION


def _payload(i: int = 0):
    return {"schema": STATS_SCHEMA_VERSION, "workload": f"wl-{i}",
            "protocol": "MESI"}


def _seed(cache: ResultCache, i: int = 0) -> str:
    key = "%064x" % i
    cache.put(key, _payload(i))
    return key


# ------------------------------------------------------ torn / stale entries


@pytest.mark.parametrize("corrupt", [
    "",                                   # truncated to nothing
    '{"schema": 1, "workload": "fft"',    # torn mid-write
    "not json at all",
    "[1, 2, 3]",                          # valid JSON, not a payload
    json.dumps({"schema": STATS_SCHEMA_VERSION + 999}),  # stale schema
])
def test_corrupt_entry_is_a_miss_and_is_discarded(tmp_path, corrupt):
    cache = ResultCache(tmp_path)
    key = _seed(cache)
    path = cache.path(key)
    path.write_text(corrupt, encoding="utf-8")

    assert cache.get(key) is None
    assert not path.exists()  # same file that was judged: removed
    # The next lookup is a clean miss (no exception, no stale bytes).
    assert cache.get(key) is None


def test_corrupt_entry_discard_spares_a_concurrent_writers_replacement(
        tmp_path, monkeypatch):
    """The unlink race: reader opens corrupt bytes; before it can discard
    them, a writer atomically renames a fresh valid entry into place.  The
    reader must report a miss but leave the new file untouched."""
    cache = ResultCache(tmp_path)
    key = _seed(cache)
    path = cache.path(key)
    path.write_text('{"torn', encoding="utf-8")
    good_blob = json.dumps(_payload(0), sort_keys=True)

    real_load = json.load

    def racing_load(handle):
        # Simulate the concurrent put: replace the entry underneath the
        # reader after it opened (and fstat'ed) the corrupt file, then let
        # the parse of the old bytes fail as it would have.
        replacement = path.with_suffix(".racer.tmp")
        replacement.write_text(good_blob, encoding="utf-8")
        replacement.replace(path)
        return real_load(handle)

    monkeypatch.setattr(parallel.json, "load", racing_load)
    assert cache.get(key) is None  # the read itself still misses
    monkeypatch.undo()

    assert path.exists()  # the writer's entry survived the discard attempt
    payload = cache.get(key)
    assert payload == _payload(0)


def test_discard_is_unconditional_only_for_the_judged_file(tmp_path):
    cache = ResultCache(tmp_path)
    key = _seed(cache)
    path = cache.path(key)
    path.write_text("junk", encoding="utf-8")
    with path.open("r", encoding="utf-8") as handle:
        judged = os.fstat(handle.fileno())

    # Unchanged file: removed.
    cache._discard_corrupt(path, judged)
    assert not path.exists()

    # Re-created (different inode/mtime): spared.
    path.write_text("junk2", encoding="utf-8")
    cache._discard_corrupt(path, judged)
    assert path.exists()

    # Open-failed sentinel (None): nothing condemned.
    cache._discard_corrupt(path, None)
    assert path.exists()


def test_corrupt_entry_heals_through_the_executor(tmp_path):
    """End to end: a torn entry costs exactly one re-simulation and the
    rewritten entry round-trips."""
    config = SystemConfig().scaled(num_cores=2)
    cache = ResultCache(tmp_path)
    executor = MatrixExecutor(config, scale=0.2, max_cycles=1000, jobs=1,
                              cache=cache, kind="cachetest")
    cells = [("MESI", "fft")]
    executor.run_cells(cells)
    assert executor.simulations_run == 1

    key = cell_key(config, "MESI", "fft", 0.2, 1000, kind="cachetest")
    cache.path(key).write_text('{"half a payl', encoding="utf-8")
    executor.run_cells(cells)
    assert executor.simulations_run == 2  # healed by re-simulating
    assert cache.get(key, schema=CACHETEST_SCHEMA) == \
        simulate_cachetest_cell(config, "MESI", "fft", 0.2, 1000)


# ----------------------------------------------------------- failed renames


def test_put_rename_failure_leaves_no_tmp_and_no_entry(
        tmp_path, monkeypatch, capsys):
    cache = ResultCache(tmp_path)
    real_replace = Path.replace

    def failing_replace(self, target):
        if self.suffix == ".tmp" and str(self).startswith(str(tmp_path)):
            raise OSError("injected rename failure")
        return real_replace(self, target)

    monkeypatch.setattr(Path, "replace", failing_replace)
    key = "%064x" % 7
    cache.put(key, _payload(7))
    monkeypatch.undo()

    assert not cache.enabled  # put degrades by disabling, not raising
    assert "unusable" in capsys.readouterr().err
    assert list(tmp_path.rglob("*.tmp")) == []          # no tmp litter
    assert not cache.path(key).exists()


def test_orphaned_tmps_from_a_crashed_writer_are_reaped(tmp_path):
    cache = ResultCache(tmp_path)
    key = _seed(cache)
    # A crashed writer's leftover: a per-pid tmp next to the entries.
    subdir_tmp = cache.path(key).with_suffix(".9999.tmp")
    subdir_tmp.write_text("{", encoding="utf-8")
    os.utime(subdir_tmp, (0.0, 0.0))

    report = collect_garbage(tmp_path)
    assert report.tmps_removed == 1
    assert not subdir_tmp.exists()
    assert cache.get(key) is not None  # entries untouched


# ---------------------------------------------------------- unwritable root


def test_unwritable_root_serves_reads_and_degrades_writes(tmp_path, monkeypatch,
                                                          capsys):
    """A read-only cache root (mount, permissions): every read path keeps
    working, every write path degrades silently or with a warning —
    nothing raises.  Injected via ``write_text``/``unlink`` so the test
    also holds when running as root (chmod is advisory for uid 0)."""
    cache = ResultCache(tmp_path)
    keys = [_seed(cache, i) for i in range(3)]

    real_write_text = Path.write_text
    real_unlink = Path.unlink

    def deny_write_text(self, *args, **kwargs):
        if str(self).startswith(str(tmp_path)):
            raise OSError(30, "Read-only file system")
        return real_write_text(self, *args, **kwargs)

    def deny_unlink(self, *args, **kwargs):
        if str(self).startswith(str(tmp_path)):
            raise OSError(30, "Read-only file system")
        return real_unlink(self, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", deny_write_text)
    monkeypatch.setattr(Path, "unlink", deny_unlink)

    # Reads still hit.
    for key in keys:
        assert cache.get(key) is not None

    # Writes degrade: put disables with a warning, never raises.
    cache.put("%064x" % 99, _payload(99))
    assert not cache.enabled
    assert "unusable" in capsys.readouterr().err

    # GC reports unremovable files as errors, never raises.
    report = collect_garbage(tmp_path, max_age=0.0,
                             now=os.stat(cache.path(keys[0])).st_mtime + 1e6)
    assert len(report.errors) == len(keys)
    assert report.removed == []


def test_disabled_cache_never_touches_disk(tmp_path):
    cache = ResultCache(tmp_path, enabled=False)
    cache.put("%064x" % 1, _payload(1))
    assert cache.get("%064x" % 1) is None
    assert list(tmp_path.iterdir()) == []
