"""Unit tests for result-cache garbage collection and the ``repro cache``
CLI.

The entry tree is the whole cache: GC evicts the oldest-written entries
first by entry mtime, and ``repro cache stats`` is a tree scan.  These
tests stamp entry mtimes with ``os.utime`` to pin the age/byte/kind
eviction policies, the orphaned-tmp reap, and the CLI exit-code contract.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time

import pytest

import repro.analysis.parallel as parallel
from _cachekind import CACHETEST_SCHEMA
from repro.analysis.parallel import (ResultCache, collect_garbage,
                                     iter_entry_files)
from repro.cli import main, parse_age, parse_bytes
from repro.sim.stats import STATS_SCHEMA_VERSION


def _key(i: int) -> str:
    return hashlib.sha256(f"cell-{i}".encode("utf-8")).hexdigest()


def _payload(i: int, kind: str = "stats", filler: int = 0):
    payload = {
        "schema": STATS_SCHEMA_VERSION,
        "workload": f"wl-{i}",
        "protocol": "MESI",
        "filler": "x" * filler,
    }
    if kind != "stats":
        payload["kind"] = kind
        payload["schema"] = CACHETEST_SCHEMA
    return payload


def _write_entry(root, key, payload, mtime=None) -> int:
    """Write one entry file exactly as ``ResultCache.put`` lays it out,
    stamped with ``mtime`` (its write time) when given."""
    path = root / key[:2] / f"{key}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    blob = json.dumps(payload, sort_keys=True)
    path.write_text(blob, encoding="utf-8")
    if mtime is not None:
        os.utime(path, (mtime, mtime))
    return len(blob.encode("utf-8"))


def _populate(tmp_path, count: int):
    """``count`` stats entries written at mtime ``i`` (strictly
    increasing)."""
    return {_key(i): _write_entry(tmp_path, _key(i), _payload(i, filler=10),
                                  mtime=float(i))
            for i in range(count)}


def _survivors(root):
    return {path.stem for path in iter_entry_files(root)}


# ----------------------------------------------------------------------- GC


def test_gc_max_age_never_removes_entries_newer_than_cutoff(tmp_path):
    _populate(tmp_path, 6)
    report = collect_garbage(tmp_path, max_age=3.0, now=6.0)
    # cutoff = 3.0: entries written at 0, 1, 2 go; 3, 4, 5 stay.
    assert report.removed == [_key(i) for i in range(3)]
    assert _survivors(tmp_path) == {_key(i) for i in range(3, 6)}


def test_gc_max_age_uses_the_wall_clock_when_now_is_omitted(tmp_path):
    # An entry written just now stays; one stamped near the epoch goes.
    for i in range(2):
        _write_entry(tmp_path, _key(i), _payload(i))
    old = tmp_path / _key(0)[:2] / f"{_key(0)}.json"
    os.utime(old, (1.0, 1.0))
    report = collect_garbage(tmp_path, max_age=1000.0)
    assert report.removed == [_key(0)]
    assert _survivors(tmp_path) == {_key(1)}


def test_gc_max_bytes_evicts_oldest_written_first(tmp_path, monkeypatch):
    sizes = _populate(tmp_path, 5)
    per_entry = next(iter(sizes.values()))

    def no_parse(path):
        raise AssertionError(f"GC without a kind filter parsed {path}")

    monkeypatch.setattr(parallel, "read_entry", no_parse)
    budget = 2 * per_entry  # keep the two most recently written
    report = collect_garbage(tmp_path, max_bytes=budget, now=10.0)
    assert report.removed == [_key(i) for i in range(3)]
    assert report.remaining_bytes <= budget
    assert report.remaining_entries == 2
    assert _survivors(tmp_path) == {_key(3), _key(4)}


def test_gc_kind_filter_restricts_eviction_but_counts_all_bytes(tmp_path):
    sizes = {}
    for i in range(4):
        kind = "stats" if i < 2 else "cachetest"
        sizes[_key(i)] = _write_entry(tmp_path, _key(i),
                                      _payload(i, kind=kind, filler=10),
                                      mtime=float(i))
    torn = tmp_path / _key(4)[:2] / f"{_key(4)}.json"
    torn.parent.mkdir(parents=True, exist_ok=True)
    torn.write_text('{"schema": 1, "torn', encoding="utf-8")
    report = collect_garbage(tmp_path, max_bytes=0, kinds=["cachetest"],
                             now=10.0)
    # Only cachetest entries, and the torn one (it has no kind), are
    # evictable; the stats entries survive and keep the remaining total
    # above the (impossible) zero budget.
    assert sorted(report.removed) == sorted([_key(2), _key(3), _key(4)])
    assert _survivors(tmp_path) == {_key(0), _key(1)}
    assert report.remaining_bytes == sum(sizes[_key(i)] for i in range(2))


def test_gc_dry_run_removes_nothing(tmp_path):
    _populate(tmp_path, 3)
    report = collect_garbage(tmp_path, max_age=1.0, now=100.0, dry_run=True)
    assert report.dry_run
    assert len(report.removed) == 3
    assert "would remove" in report.describe()
    assert len(list(iter_entry_files(tmp_path))) == 3


def test_gc_reaps_orphaned_tmps_past_grace_only(tmp_path):
    _populate(tmp_path, 1)
    subdir = tmp_path / _key(0)[:2]
    stale = subdir / f"{_key(5)}.4242.tmp"
    stale.write_text("{", encoding="utf-8")
    os.utime(stale, (0.0, 0.0))  # ancient
    fresh = subdir / f"{_key(6)}.4243.tmp"
    fresh.write_text("{", encoding="utf-8")  # mtime = now: mid-put writer

    # No eviction policy: the pass only reaps orphaned tmp files.
    report = collect_garbage(tmp_path)
    assert report.tmps_removed == 1
    assert not stale.exists()
    assert fresh.exists()
    assert len(list(iter_entry_files(tmp_path))) == 1


# ------------------------------------------------------------------ the CLI


def test_parse_bytes_and_age_suffixes():
    assert parse_bytes("1048576") == 1 << 20
    assert parse_bytes("64M") == 64 << 20
    assert parse_bytes("2g") == 2 << 30
    assert parse_bytes("10K") == 10 << 10
    assert parse_age("3600") == 3600.0
    assert parse_age("90m") == 5400.0
    assert parse_age("12h") == 43200.0
    assert parse_age("7d") == 7 * 86400.0
    # Non-positive budgets/ages would mean "evict everything"; they are
    # rejected like any malformed value.
    for bad in ("", "garbage", "12q", "0", "-64M", "-1"):
        with pytest.raises(ValueError):
            parse_bytes(bad)
        with pytest.raises(ValueError):
            parse_age(bad)


def _stats_rows(out: str):
    """``kind -> [entries, bytes, oldest age, newest age]`` from the
    ``repro cache stats`` table."""
    rows = {}
    for line in out.splitlines()[3:]:
        kind, *values = line.split()
        rows[kind] = [int(value) for value in values]
    return rows


def test_cache_cli_stats_scans_the_tree(tmp_path, capsys):
    now = time.time()
    sizes = {}
    for i, (kind, age) in enumerate([("stats", 50), ("stats", 10),
                                     ("cachetest", 30)]):
        sizes[i] = _write_entry(tmp_path, _key(i), _payload(i, kind=kind),
                                mtime=now - age)
    torn = tmp_path / _key(3)[:2] / f"{_key(3)}.json"
    torn.parent.mkdir(parents=True, exist_ok=True)
    torn.write_text("not json at all", encoding="utf-8")
    os.utime(torn, (now - 70, now - 70))
    # Neither a tmp file nor a file at the root is an entry.
    (torn.parent / f"{_key(3)}.99.tmp").write_text("{", encoding="utf-8")
    (tmp_path / "index-v1.json").write_text("{}", encoding="utf-8")

    assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
    rows = _stats_rows(capsys.readouterr().out)
    assert list(rows) == ["?", "cachetest", "stats", "TOTAL"]
    assert rows["stats"][:2] == [2, sizes[0] + sizes[1]]
    assert rows["cachetest"][:2] == [1, sizes[2]]
    assert rows["?"][:2] == [1, len("not json at all")]
    assert rows["TOTAL"][:2] == [4, sum(sizes.values()) + len("not json at all")]
    # Write ages: oldest and newest per row (the clock moved on a little).
    assert 50 <= rows["stats"][2] <= 55 and 10 <= rows["stats"][3] <= 15
    assert 70 <= rows["TOTAL"][2] <= 75 and 10 <= rows["TOTAL"][3] <= 15

    empty = tmp_path / "empty"
    assert main(["cache", "stats", "--cache-dir", str(empty)]) == 0
    assert re.search(r"TOTAL\s+0\s+0\s+-\s+-", capsys.readouterr().out)


def test_cache_cli_gc_policies_and_exit_codes(tmp_path, capsys):
    cache = ResultCache(tmp_path)
    for i in range(3):
        cache.put(_key(i), _payload(i))
    root = str(tmp_path)

    # No policy and not a dry run: refuse.
    assert main(["cache", "gc", "--cache-dir", root]) == 2
    assert "needs --max-bytes" in capsys.readouterr().err
    # Malformed budget: refuse.
    assert main(["cache", "gc", "--cache-dir", root, "--max-bytes", "9x"]) == 2
    capsys.readouterr()
    # A non-positive budget is malformed too, not "evict everything".
    assert main(["cache", "gc", "--cache-dir", root, "--max-bytes=-64M"]) == 2
    assert "malformed size" in capsys.readouterr().err
    assert main(["cache", "gc", "--cache-dir", root, "--max-age", "0"]) == 2
    assert "malformed age" in capsys.readouterr().err
    assert _survivors(tmp_path) == {_key(i) for i in range(3)}
    # Dry run previews without a policy.
    assert main(["cache", "gc", "--cache-dir", root, "--dry-run"]) == 0
    assert "would remove" in capsys.readouterr().out
    # An unreachable byte budget empties the tree (kind-filtered to prove
    # flag plumbing; every entry here is "stats").
    assert main(["cache", "gc", "--cache-dir", root, "--max-bytes", "1",
                 "--kind", "stats"]) == 0
    assert "removed 3 of 3" in capsys.readouterr().out
    assert list(iter_entry_files(tmp_path)) == []


# ------------------------------------------------------------ the tree only


_ENTRY_FILE = re.compile(r"[0-9a-f]{2}/[0-9a-f]{64}\.json")


def test_cache_root_holds_only_entry_files(tmp_path, capsys):
    """A sweep and a shard merge leave nothing but entry files under the
    cache root: no index, no tmp file."""
    swept, merged = tmp_path / "swept", tmp_path / "merged"
    assert main(["sweep", "ci-smoke", "--jobs", "1",
                 "--cache-dir", str(swept)]) == 0
    assert main(["shard", "merge", "--from", str(swept),
                 "--cache-dir", str(merged)]) == 0
    assert "merged 8 entries" in capsys.readouterr().out
    for root in (swept, merged):
        files = [path.relative_to(root).as_posix()
                 for path in root.rglob("*") if path.is_file()]
        assert len(files) == 8
        assert [f for f in files if not _ENTRY_FILE.fullmatch(f)] == []
    with pytest.raises(ValueError, match="keeps no index"):
        ResultCache(tmp_path, track=True)
