"""A persistent index over the content-addressed result cache.

The :class:`~repro.analysis.parallel.ResultCache` tree is the *product*
every subsystem funnels through — sweeps, fuzz campaigns and shard merges
all read and write ``<root>/<key[:2]>/<key>.json`` entries.
This module adds the storage-layer features that turn the bag of JSON files
into a served resource:

* :class:`CacheIndex` — per-entry metadata (cell kind, payload schema,
  size, created / last-hit timestamps, a small decoded summary) kept in one
  ``index-v1.json`` file at the cache root.  It is maintained incrementally
  by ``ResultCache.put``/``get`` and can always be rebuilt by scanning the
  tree (``repro cache rebuild``).
* :func:`collect_garbage` — LRU eviction by last-hit timestamp with
  ``max_bytes`` / ``max_age`` / per-kind policies plus orphaned per-pid
  ``.tmp`` cleanup (``repro cache gc``).
* :meth:`CacheIndex.verify` — index/tree reconciliation for CI
  (``repro cache verify``).

**The index is advisory; the tree is truth.**  Every consumer of cached
payloads reads entry files directly — a stale, torn or missing index can
cost an extra scan or a suboptimal eviction order, never a wrong payload.
That asymmetry is what makes the multi-writer story simple:

* Index writes use the same per-pid ``tmp`` + atomic ``rename`` discipline
  as entry writes, so readers never observe a torn index file — only a
  complete older or newer one.
* Concurrent writers read-merge-write the index; two simultaneous flushes
  can lose one writer's *metadata delta* (never an entry — entries are
  separate files), leaving the index merely stale.  ``verify`` detects
  staleness and ``rebuild`` heals it.
* Timestamps are advisory LRU hints.  A lost last-hit update can only make
  an entry *look* colder than it is; GC against a cutoff therefore errs
  toward keeping entries whose updates were observed and never removes an
  entry whose recorded last-hit is newer than the cutoff.

See the "Managing the result cache" guide in EXPERIMENTS.md for the policy
discussion and the shard-merge/multi-writer contract.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

#: Version of the index-file layout.  The basename carries it too, so a
#: layout bump never misparses an old file — it simply starts fresh.
INDEX_SCHEMA_VERSION = 1

#: Index filename at the cache root.  It deliberately lives *outside* the
#: two-hex-digit entry subdirectories so entry scans (``*/*.json``, as used
#: by the shard merge) never mistake it for a cached result.
INDEX_BASENAME = f"index-v{INDEX_SCHEMA_VERSION}.json"

#: ``record_put``/``record_hit`` deltas buffered in memory before an
#: automatic flush — bounds staleness during long campaign runs without
#: paying a read-merge-write per cell.
AUTO_FLUSH_THRESHOLD = 256

#: Summary fields copied from a decoded payload into its index record:
#: enough to answer "what is this entry?" without re-reading the tree.
_SUMMARY_FIELDS = ("workload", "protocol", "passed", "cycles")


def summarize_payload(payload: Dict[str, object]) -> Dict[str, object]:
    """The small, kind-agnostic slice of a payload stored in the index."""
    summary: Dict[str, object] = {}
    for name in _SUMMARY_FIELDS:
        value = payload.get(name)
        if isinstance(value, (str, bool, int, float)):
            summary[name] = value
    return summary


def iter_entry_files(root: Union[str, Path]) -> Iterator[Path]:
    """Entry files of a cache tree, in deterministic order.  Only
    ``<subdir>/<name>.json`` files count — per-pid ``*.tmp`` files and the
    root-level index are never entries."""
    yield from sorted(Path(root).glob("*/*.json"))


def indexed_kinds(root: Union[str, Path]) -> Dict[str, str]:
    """Advisory ``key -> kind`` map from the on-disk index.

    Lets kind-filtered cache scans (``repro report cache --kind``) skip
    parsing entries the index already classifies as another kind.  The
    index is advisory: a missing/torn index yields ``{}``, and callers
    must still parse entries the index does not cover.
    """
    kinds: Dict[str, str] = {}
    for key, record in CacheIndex(root).load().items():
        kind = record.get("kind")
        if isinstance(kind, str):
            kinds[key] = kind
    return kinds


def _entry_record(payload: Dict[str, object], size: int, created: float,
                  last_hit: float) -> Dict[str, object]:
    return {
        "kind": payload.get("kind", "stats"),
        "payload_schema": payload.get("schema"),
        "size": size,
        "created": created,
        "last_hit": last_hit,
        "summary": summarize_payload(payload),
    }


@dataclass
class VerifyReport:
    """Outcome of reconciling the index against the tree (which is truth).

    Attributes:
        entries: entry files found in the tree.
        indexed: records found in the index file.
        missing_from_index: tree entries the index does not know about.
        missing_from_tree: index records whose entry file is gone.
        mismatched: keys whose recorded size/kind/schema disagree with the
            tree (e.g. an entry replaced without an index update).
        invalid: tree entries that are not well-formed cache payloads
            (unreadable, non-dict, or missing an integer ``"schema"``).
    """

    entries: int = 0
    indexed: int = 0
    missing_from_index: List[str] = field(default_factory=list)
    missing_from_tree: List[str] = field(default_factory=list)
    mismatched: List[str] = field(default_factory=list)
    invalid: List[str] = field(default_factory=list)

    @property
    def in_sync(self) -> bool:
        """Whether the index faithfully describes the tree."""
        return not (self.missing_from_index or self.missing_from_tree
                    or self.mismatched or self.invalid)

    def describe(self) -> str:
        parts = [f"{self.entries} entries in tree, {self.indexed} indexed"]
        for label, keys in (("missing from index", self.missing_from_index),
                            ("missing from tree", self.missing_from_tree),
                            ("metadata mismatch", self.mismatched),
                            ("invalid payload", self.invalid)):
            if keys:
                parts.append(f"{len(keys)} {label}")
        return "; ".join(parts)


class CacheIndex:
    """Incrementally maintained metadata index over one cache root.

    All mutation goes through :meth:`record_put` / :meth:`record_hit`
    (buffered) and :meth:`flush` (atomic read-merge-write), so any number
    of threads share one instance, and any number of *processes* share the
    on-disk file under the advisory semantics described in the module
    docstring.

    Args:
        root: the cache root (the directory holding the entry subdirs).
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self._pending: Dict[str, Dict[str, object]] = {}
        self._pending_hits: Dict[str, float] = {}
        self._lock = threading.Lock()

    @property
    def path(self) -> Path:
        """Location of the index file."""
        return self.root / INDEX_BASENAME

    # ------------------------------------------------------------------ I/O

    def load(self) -> Dict[str, Dict[str, object]]:
        """The on-disk index records, tolerating every torn/absent state.

        A missing, unreadable, torn or wrong-schema index file is an empty
        index — readers are lock-free and must degrade, never raise.
        """
        try:
            data = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return {}
        if not isinstance(data, dict) or data.get("schema") != INDEX_SCHEMA_VERSION:
            return {}
        entries = data.get("entries")
        if not isinstance(entries, dict):
            return {}
        return {key: record for key, record in entries.items()
                if isinstance(record, dict)}

    def _write(self, entries: Dict[str, Dict[str, object]]) -> bool:
        """Atomically replace the index file (per-pid tmp + rename).

        Returns ``False`` — without raising — when the root is unwritable;
        the index is advisory and must never fail the run that feeds it.
        """
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            tmp.write_text(
                json.dumps({"schema": INDEX_SCHEMA_VERSION, "entries": entries},
                           sort_keys=True),
                encoding="utf-8")
            tmp.replace(self.path)
            return True
        except OSError:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            return False

    # ------------------------------------------------------------ recording

    def record_put(self, key: str, payload: Dict[str, object], size: int,
                   now: Optional[float] = None) -> None:
        """Buffer the index record for a freshly written entry."""
        now = time.time() if now is None else now
        with self._lock:
            self._pending[key] = _entry_record(payload, size, now, now)
            flush_due = self._buffered_unlocked() >= AUTO_FLUSH_THRESHOLD
        if flush_due:
            self.flush()

    def record_hit(self, key: str, now: Optional[float] = None) -> None:
        """Buffer a last-hit timestamp update for a served entry."""
        now = time.time() if now is None else now
        with self._lock:
            pending = self._pending.get(key)
            if pending is not None:
                pending["last_hit"] = max(float(pending["last_hit"]), now)
            else:
                self._pending_hits[key] = max(
                    self._pending_hits.get(key, 0.0), now)
            flush_due = self._buffered_unlocked() >= AUTO_FLUSH_THRESHOLD
        if flush_due:
            self.flush()

    def record_remove(self, keys: Sequence[str]) -> None:
        """Drop buffered records for entries just unlinked (GC path)."""
        with self._lock:
            for key in keys:
                self._pending.pop(key, None)
                self._pending_hits.pop(key, None)

    def _buffered_unlocked(self) -> int:
        return len(self._pending) + len(self._pending_hits)

    @property
    def buffered(self) -> int:
        """Number of unflushed delta records."""
        with self._lock:
            return self._buffered_unlocked()

    def flush(self, remove: Sequence[str] = ()) -> bool:
        """Merge the buffered deltas into the on-disk index atomically.

        ``remove`` additionally drops the given keys from the file (used by
        GC after unlinking entries).  Returns whether the write succeeded;
        on failure the deltas stay buffered for a later attempt.
        """
        with self._lock:
            if not (self._pending or self._pending_hits or remove):
                return True
            pending = dict(self._pending)
            pending_hits = dict(self._pending_hits)
            self._pending.clear()
            self._pending_hits.clear()
        entries = self.load()
        for key in remove:
            entries.pop(key, None)
            pending.pop(key, None)
            pending_hits.pop(key, None)
        entries.update(pending)
        for key, hit in pending_hits.items():
            record = entries.get(key)
            if record is not None:
                record["last_hit"] = max(float(record.get("last_hit", 0.0)), hit)
            # A hit on a key the index has never seen: leave it to
            # verify/rebuild — inventing a record without size/kind
            # metadata would report wrong stats totals.
        if self._write(entries):
            return True
        with self._lock:
            # Re-buffer so a transiently unwritable root loses nothing.
            pending.update(self._pending)
            self._pending = pending
            for key, hit in pending_hits.items():
                self._pending_hits[key] = max(
                    self._pending_hits.get(key, 0.0), hit)
            return False

    # ---------------------------------------------------------- maintenance

    def rebuild(self, now: Optional[float] = None) -> Dict[str, Dict[str, object]]:
        """Rebuild the index from a full tree scan and write it out.

        The tree is truth: every well-formed entry file gets a record;
        unparseable files are skipped (``verify`` reports them, ``gc`` can
        reap them).  ``created``/``last_hit`` are preserved from the
        current index when the entry's size is unchanged, else they fall
        back to the file's mtime — so rebuilding an in-sync index is a
        no-op fixpoint.
        """
        now = time.time() if now is None else now
        with self._lock:
            self._pending.clear()
            self._pending_hits.clear()
        old = self.load()
        entries: Dict[str, Dict[str, object]] = {}
        for path in iter_entry_files(self.root):
            key = path.stem
            try:
                stat = path.stat()
                payload = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                continue
            if not isinstance(payload, dict) or not isinstance(
                    payload.get("schema"), int):
                continue
            prior = old.get(key)
            if prior is not None and prior.get("size") == stat.st_size:
                created = float(prior.get("created", stat.st_mtime))
                last_hit = float(prior.get("last_hit", created))
            else:
                created = last_hit = stat.st_mtime
            entries[key] = _entry_record(payload, stat.st_size, created,
                                         last_hit)
        self._write(entries)
        return entries

    def verify(self) -> VerifyReport:
        """Reconcile the index against the tree; see :class:`VerifyReport`.

        Buffered deltas are flushed first so a verify straight after a run
        checks what that run recorded.
        """
        self.flush()
        indexed = self.load()
        report = VerifyReport(indexed=len(indexed))
        seen = set()
        for path in iter_entry_files(self.root):
            key = path.stem
            report.entries += 1
            seen.add(key)
            try:
                size = path.stat().st_size
                payload = json.loads(path.read_text(encoding="utf-8"))
                if not isinstance(payload, dict) or not isinstance(
                        payload.get("schema"), int):
                    raise ValueError("not a cache payload")
            except (OSError, ValueError):
                report.invalid.append(key)
                continue
            record = indexed.get(key)
            if record is None:
                report.missing_from_index.append(key)
            elif (record.get("size") != size
                  or record.get("kind") != payload.get("kind", "stats")
                  or record.get("payload_schema") != payload.get("schema")):
                report.mismatched.append(key)
        report.missing_from_tree = sorted(set(indexed) - seen)
        return report

    def stats(self) -> Dict[str, Dict[str, object]]:
        """Per-kind totals from the index: entry count, bytes, hit-age
        range.  ``repro cache verify`` / the property suite pin these to a
        fresh tree walk whenever the index is in sync."""
        totals: Dict[str, Dict[str, object]] = {}
        for record in self.load().values():
            kind = str(record.get("kind", "stats"))
            bucket = totals.setdefault(kind, {
                "entries": 0, "bytes": 0,
                "oldest_hit": None, "newest_hit": None,
            })
            bucket["entries"] += 1
            bucket["bytes"] += int(record.get("size", 0))
            hit = float(record.get("last_hit", 0.0))
            if bucket["oldest_hit"] is None or hit < bucket["oldest_hit"]:
                bucket["oldest_hit"] = hit
            if bucket["newest_hit"] is None or hit > bucket["newest_hit"]:
                bucket["newest_hit"] = hit
        return totals


# ------------------------------------------------------------------ garbage

#: Orphaned per-pid ``*.tmp`` files younger than this many seconds are left
#: alone by GC: their writer may still be mid-``put``.
TMP_GRACE_SECONDS = 3600.0


@dataclass
class GCReport:
    """Outcome of one :func:`collect_garbage` pass."""

    examined: int = 0
    removed: List[str] = field(default_factory=list)
    bytes_freed: int = 0
    remaining_entries: int = 0
    remaining_bytes: int = 0
    tmps_removed: int = 0
    errors: List[str] = field(default_factory=list)
    dry_run: bool = False

    def describe(self) -> str:
        verb = "would remove" if self.dry_run else "removed"
        return (f"{verb} {len(self.removed)} of {self.examined} entries "
                f"({self.bytes_freed} bytes), {self.tmps_removed} orphaned "
                f"tmp file(s); {self.remaining_entries} entries "
                f"({self.remaining_bytes} bytes) remain"
                + (f"; {len(self.errors)} error(s)" if self.errors else ""))


def _scan_candidates(root: Path, index: CacheIndex,
                     ) -> List[Tuple[float, str, Path, int, str]]:
    """``(last_hit, key, path, size, kind)`` per tree entry — the tree is
    truth for existence and size; the index supplies LRU timestamps and
    kinds, falling back to the file mtime / a payload parse when a record
    is missing (index staleness must not exempt an entry from policy)."""
    records = index.load()
    candidates = []
    for path in iter_entry_files(root):
        key = path.stem
        try:
            stat = path.stat()
        except OSError:
            continue
        record = records.get(key)
        if record is not None and record.get("size") == stat.st_size:
            last_hit = float(record.get("last_hit", stat.st_mtime))
            kind = str(record.get("kind", "stats"))
        else:
            last_hit = stat.st_mtime
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
                kind = str(payload.get("kind", "stats")) \
                    if isinstance(payload, dict) else "?"
            except (OSError, ValueError):
                kind = "?"  # unparseable: evictable under any kind filter
        candidates.append((last_hit, key, path, stat.st_size, kind))
    return candidates


def collect_garbage(root: Union[str, Path],
                    max_bytes: Optional[int] = None,
                    max_age: Optional[float] = None,
                    kinds: Optional[Sequence[str]] = None,
                    now: Optional[float] = None,
                    dry_run: bool = False,
                    index: Optional[CacheIndex] = None,
                    tmp_grace: float = TMP_GRACE_SECONDS) -> GCReport:
    """Evict cache entries, LRU by last-hit timestamp.  Crash-safe by
    construction: eviction only unlinks entry files (each removal is
    atomic), then updates the advisory index — a crash mid-GC leaves a
    smaller, fully valid cache plus a stale index.

    Policies compose (any entry matching either goes, oldest first):

    * ``max_age``: remove entries whose last hit is older than ``now -
      max_age`` seconds.  An entry whose recorded last-hit is newer than
      the cutoff is **never** removed by this policy.
    * ``max_bytes``: remove least-recently-hit entries until the tree's
      total payload bytes fit the budget.
    * ``kinds``: restrict eviction to the named cell kinds (entries of
      other kinds are kept *and still count* toward ``max_bytes`` — the
      report shows the remaining total so a missed budget is visible).

    Orphaned per-pid ``*.tmp`` files older than ``tmp_grace`` seconds are
    always removed (a crashed writer's leftovers; live writers rename
    theirs away well within the grace period).

    Unremovable files (e.g. a read-only root) are reported in
    ``errors``, never raised.
    """
    root = Path(root)
    now = time.time() if now is None else now
    index = CacheIndex(root) if index is None else index
    index.flush()
    report = GCReport(dry_run=dry_run)
    kind_filter = set(kinds) if kinds else None

    candidates = _scan_candidates(root, index)
    report.examined = len(candidates)
    total_bytes = sum(size for _, _, _, size, _ in candidates)

    evictable = sorted(
        c for c in candidates
        if kind_filter is None or c[4] in kind_filter or c[4] == "?")
    doomed: List[Tuple[float, str, Path, int, str]] = []
    if max_age is not None:
        cutoff = now - max_age
        doomed.extend(c for c in evictable if c[0] < cutoff)
    if max_bytes is not None:
        budget = total_bytes - sum(c[3] for c in doomed)
        already = {c[1] for c in doomed}
        for candidate in evictable:
            if budget <= max_bytes:
                break
            if candidate[1] in already:
                continue
            doomed.append(candidate)
            budget -= candidate[3]

    removed_keys = []
    for last_hit, key, path, size, kind in sorted(doomed):
        if not dry_run:
            try:
                path.unlink()
            except FileNotFoundError:
                pass  # a concurrent GC/writer got there first
            except OSError as exc:
                report.errors.append(f"{key}: {exc}")
                continue
        removed_keys.append(key)
        report.removed.append(key)
        report.bytes_freed += size

    report.remaining_entries = report.examined - len(removed_keys)
    report.remaining_bytes = total_bytes - report.bytes_freed

    # Crashed writers leave `<key>.<pid>.tmp` files behind; anything past
    # the grace period is garbage (ResultCache.put renames or unlinks its
    # tmp within one call).
    for tmp in sorted(root.glob("*/*.tmp")) + sorted(root.glob("*.tmp")):
        if tmp.name == INDEX_BASENAME:
            continue
        try:
            if now - tmp.stat().st_mtime < tmp_grace:
                continue
            if not dry_run:
                tmp.unlink()
            report.tmps_removed += 1
        except FileNotFoundError:
            report.tmps_removed += 1
        except OSError as exc:
            report.errors.append(f"{tmp.name}: {exc}")

    if not dry_run and removed_keys:
        index.record_remove(removed_keys)
        index.flush(remove=removed_keys)
    return report
