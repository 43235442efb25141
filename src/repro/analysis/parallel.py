"""Parallel execution of the (workload x protocol) experiment matrix.

The paper's evaluation is a full workload x protocol-configuration matrix
whose cells are completely independent simulations, i.e. embarrassingly
parallel.  This module is the one code path that executes matrix cells,
for ``repro run``/``figure``/``sweep``/``shard run``/``fuzz run``,
``benchmarks/`` and the examples:

* :func:`simulate_cell` — runs ONE (workload, protocol) cell from picklable
  inputs (a :class:`~repro.sim.config.SystemConfig` plus names/scalars) and
  returns the JSON-serializable ``SystemStats.to_dict()`` payload.  This is
  the function shipped to worker processes.
* :class:`MatrixExecutor` — looks every cell up in the cache, keeps the
  misses its shard owns (:mod:`repro.analysis.shard`; ``REPRO_SHARD``
  shards any run), and runs them inline or in one process pool with one
  submission per cell.  Worker count comes from ``jobs``, the
  ``REPRO_JOBS`` environment variable, or ``os.cpu_count()``.
* :class:`MatrixSpec` — what sweeps and fuzz campaigns share: one
  ``run()`` that groups a spec's cells by platform point, runs one
  executor per point and returns a :class:`SpecResult`.
* :class:`ResultCache` — a content-addressed on-disk cache (default location
  ``benchmarks/results/cache/``).  The key is the SHA-256 of the canonical
  JSON of (system configuration, protocol name, workload name, scale,
  max_cycles, cache schema version, stats schema version), so any change to
  the experiment inputs — or a schema bump — produces a different key and the
  cell is re-simulated.

Because every workload builder and the simulator itself are deterministically
seeded, a cell's statistics are a pure function of the cache-key inputs:
serial and parallel runs produce byte-identical payloads, and cached results
are safe to reuse across processes and sessions.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple, Union)

from repro.sim.config import SystemConfig
from repro.sim.stats import STATS_SCHEMA_VERSION, SystemStats

#: Version of the cache-key/entry layout.  Bump to invalidate every cached
#: result (e.g. after a change to simulator behaviour that is not reflected
#: in the statistics schema).
CACHE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ReportField:
    """One *declared* reportable quantity of a cell kind.

    The reporting layer (:mod:`repro.analysis.report`) is driven entirely
    by metadata: a kind declares which quantities its decoded results
    expose, how each aggregates over a workload mix, which direction is
    better (the sign convention for speedup-vs-baseline normalization) and
    how to render it.  Stats cells and fuzz verdicts flow through one
    pipeline because both merely declare fields.

    Attributes:
        name: column name in report tables (for the ``"stats"`` kind these
            are exactly the :data:`repro.analysis.sweeps.METRICS` names, so
            ``SweepSpec.metrics`` selects declared fields).
        extract: decoded result object -> value (e.g. a
            :class:`~repro.sim.stats.SystemStats` metric or a
            :class:`~repro.consistency.fuzz.FuzzCellResult` attribute).
        dtype: ``"int"`` / ``"float"`` / ``"bool"`` / ``"str"`` — rendering
            hint only.
        aggregate: how the field folds over a workload mix: ``"sum"``,
            ``"mean"``, ``"all"`` (boolean conjunction) or ``"none"``
            (per-cell only, never aggregated).
        better: ``"lower"`` / ``"higher"`` / ``None``.  Directed numeric
            fields get a ``<name>_speedup`` column vs the baseline variant
            (``baseline/value`` for lower-is-better, ``value/baseline``
            otherwise); ``None`` means purely diagnostic.
        format: ``str.format`` spec for rendering float values.
    """

    name: str
    extract: Callable[[object], object]
    dtype: str = "float"
    aggregate: str = "sum"
    better: Optional[str] = None
    format: str = "{:.3f}"

    def __post_init__(self) -> None:
        if self.dtype not in ("int", "float", "bool", "str"):
            raise ValueError(f"field {self.name!r}: unknown dtype {self.dtype!r}")
        if self.aggregate not in ("sum", "mean", "all", "none"):
            raise ValueError(
                f"field {self.name!r}: unknown aggregate {self.aggregate!r}")
        if self.better not in (None, "lower", "higher"):
            raise ValueError(
                f"field {self.name!r}: unknown direction {self.better!r}")

    @property
    def directed(self) -> bool:
        """Whether the field supports speedup normalization vs a baseline
        (a numeric, mix-aggregable quantity with a declared direction)."""
        return (self.better is not None and self.dtype in ("int", "float")
                and self.aggregate in ("sum", "mean"))


#: Declared report fields per cell-kind name.  Kept beside — not inside —
#: the frozen :class:`CellKind` records so the kinds that register here
#: (``"stats"``) can declare fields from the modules that own their metric
#: functions (:mod:`repro.analysis.sweeps`) without an import cycle.
_REPORT_FIELDS: Dict[str, Tuple["ReportField", ...]] = {}


def declare_report_fields(kind_name: str,
                          fields: Sequence[ReportField]) -> Tuple[ReportField, ...]:
    """Declare the reportable fields of a cell kind (idempotent per kind:
    re-declaring replaces, so test kinds can refine theirs).

    Raises:
        ValueError: on duplicate field names within one declaration.
    """
    names = [f.name for f in fields]
    if len(names) != len(set(names)):
        raise ValueError(
            f"kind {kind_name!r} declares duplicate report fields: {names}")
    declared = tuple(fields)
    _REPORT_FIELDS[kind_name] = declared
    return declared


def report_fields(kind: Union[str, "CellKind"]) -> Tuple[ReportField, ...]:
    """The declared report fields of a cell kind (empty when the kind never
    declared any).  Loads the bundled kind modules first, since the stats
    and fuzz declarations live with their metric functions."""
    name = kind.name if isinstance(kind, CellKind) else kind
    if name not in _REPORT_FIELDS:
        try:
            from repro.analysis import sweeps  # noqa: F401  (declares "stats")
            _load_bundled_kinds()              # declares "fuzz"
        except ImportError:  # pragma: no cover - defensive
            pass
    return _REPORT_FIELDS.get(name, ())


@dataclass(frozen=True)
class CellKind:
    """What one matrix cell *computes* — the work function and its payload
    contract.

    The executor/cache/shard machinery is agnostic to what a cell
    produces: a kind bundles the picklable module-level ``simulate``
    function shipped to workers, the ``decode`` that reconstructs a result
    object from a cached JSON payload, and the payload ``schema`` version
    that validates cache entries (and keys non-default kinds).  The
    bundled kinds are ``"stats"`` (paper figure/sweep cells producing
    :class:`~repro.sim.stats.SystemStats`) and ``"fuzz"``
    (:mod:`repro.consistency.fuzz` conformance cells).

    Attributes:
        name: registry key; ``MatrixExecutor(kind=...)`` / spec
            ``cell_kind`` attributes name it.
        simulate: ``(config, protocol, workload_name, scale, max_cycles) ->
            JSON payload`` — must be a module-level function so process
            pools can pickle it by reference.
        decode: payload dict -> result object handed back by
            ``run_cells``.
        schema: payload schema version; a cached entry whose ``"schema"``
            differs is stale.
    """

    name: str
    simulate: Callable[..., Dict[str, object]]
    decode: Callable[[Dict[str, object]], object]
    schema: int

    @property
    def report_fields(self) -> Tuple[ReportField, ...]:
        """The kind's declared reportable fields
        (:func:`declare_report_fields`); the reporting layer aggregates,
        normalizes and renders cells purely from this metadata."""
        return report_fields(self.name)


#: Registered cell kinds by name.
CELL_KINDS: Dict[str, CellKind] = {}


def register_cell_kind(kind: CellKind) -> CellKind:
    """Register a :class:`CellKind` under its name.

    Raises:
        ValueError: on a duplicate name.
    """
    if kind.name in CELL_KINDS:
        raise ValueError(f"cell kind {kind.name!r} is already registered")
    CELL_KINDS[kind.name] = kind
    return kind


def _load_bundled_kinds() -> None:
    """Import the modules that register the bundled non-default kinds (the
    ``"fuzz"`` kind lives with its subsystem in
    :mod:`repro.consistency.fuzz`).  Called lazily on an unknown-kind
    lookup so merely importing this module never drags the consistency
    stack in."""
    import repro.consistency.fuzz  # noqa: F401  (registers on import)


def get_cell_kind(kind: Union[str, CellKind]) -> CellKind:
    """Resolve a cell kind given by name or instance.

    Raises:
        KeyError: for an unknown kind name.
    """
    if isinstance(kind, CellKind):
        return kind
    if kind not in CELL_KINDS:
        _load_bundled_kinds()
    if kind not in CELL_KINDS:
        raise KeyError(
            f"unknown cell kind {kind!r}; known: {', '.join(CELL_KINDS)}")
    return CELL_KINDS[kind]

def _default_results_root() -> Path:
    """``benchmarks/`` of the repo checkout when running from one, else the
    current working directory (e.g. when the package is pip-installed and
    ``__file__`` points into site-packages)."""
    repo_root = Path(__file__).resolve().parents[3]
    if (repo_root / "benchmarks").is_dir():
        return repo_root / "benchmarks" / "results"
    return Path.cwd() / "benchmarks" / "results"


#: Default on-disk cache location: ``benchmarks/results/cache/``.
DEFAULT_CACHE_DIR = _default_results_root() / "cache"


class WorkloadValidationError(AssertionError):
    """A workload produced functionally invalid results under a protocol —
    a protocol correctness bug, not a performance artefact."""


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a worker count: explicit ``jobs``, else ``REPRO_JOBS``,
    else ``os.cpu_count()`` (minimum 1)."""
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise ValueError(
                    f"REPRO_JOBS must be an integer, got {env!r}") from None
        else:
            jobs = os.cpu_count() or 1
    return max(1, int(jobs))


def cell_key(config: SystemConfig, protocol: str, workload_name: str,
             scale: float, max_cycles: int,
             kind: Union[str, CellKind] = "stats") -> str:
    """Content-addressed key of one cell: the SHA-256 of the canonical JSON
    of every input that determines its result.

    The key is host-independent — a pure function of the experiment inputs
    and the schema versions — which is what makes both the on-disk cache
    shareable across machines and the shard planner
    (:mod:`repro.analysis.shard`) coordinator-free.  Non-default
    cell kinds mix their name and payload schema into the key (the default
    ``"stats"`` kind leaves the key payload exactly as it has always been,
    so every pre-existing cache entry and shard assignment stays valid).
    """
    kind = get_cell_kind(kind)
    payload = {
        "cache_schema": CACHE_SCHEMA_VERSION,
        "stats_schema": STATS_SCHEMA_VERSION,
        "config": asdict(config),
        "protocol": protocol,
        "workload": workload_name,
        "scale": scale,
        "max_cycles": max_cycles,
    }
    if kind.name != "stats":
        payload["kind"] = kind.name
        payload["kind_schema"] = kind.schema
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def simulate_cell(config: SystemConfig, protocol: str, workload_name: str,
                  scale: float, max_cycles: int) -> Dict[str, object]:
    """Run one (workload, protocol) cell and return its stats payload.

    Everything needed to run the cell is reconstructed from picklable inputs,
    so this function can execute inside a worker process.  The workload's
    functional results are validated before the statistics are returned.

    Raises:
        WorkloadValidationError: if the workload's functional validation
            fails (protocol correctness bug).
    """
    from repro.sim.system import build_system
    from repro.workloads.catalog import make_workload

    workload = make_workload(workload_name, num_cores=config.num_cores,
                             scale=scale)
    system = build_system(config, protocol)
    result = system.run(workload.programs, params=workload.params,
                        max_cycles=max_cycles, workload_name=workload_name)
    if not workload.validate(result):
        raise WorkloadValidationError(
            f"workload {workload_name!r} produced invalid results under "
            f"{protocol!r} — protocol correctness bug"
        )
    return result.stats.to_dict()


def _simulate_stats_cell(config: SystemConfig, protocol: str,
                         workload_name: str, scale: float,
                         max_cycles: int) -> Dict[str, object]:
    """The ``"stats"`` kind's work function: a late-binding trampoline to
    :func:`simulate_cell` so the registered kind keeps honoring test
    monkeypatches of ``parallel.simulate_cell``."""
    return simulate_cell(config, protocol, workload_name, scale, max_cycles)


#: The default cell kind: paper figure / sweep cells producing
#: :class:`~repro.sim.stats.SystemStats` payloads.
STATS_CELL_KIND = register_cell_kind(CellKind(
    name="stats",
    simulate=_simulate_stats_cell,
    decode=SystemStats.from_dict,
    schema=STATS_SCHEMA_VERSION,
))


def payload_is_current(payload: object) -> bool:
    """Whether a cache-entry payload is valid for its own cell kind: the
    ``"kind"`` field (default ``"stats"``) must name a registered kind and
    the ``"schema"`` field must match that kind's payload schema.  Shared
    by the shard merge/completeness checks and the report layer."""
    if not isinstance(payload, dict):
        return False
    kind = payload.get("kind", "stats")
    if not isinstance(kind, str):
        return False
    if kind not in CELL_KINDS:
        _load_bundled_kinds()
        if kind not in CELL_KINDS:
            return False
    return payload.get("schema") == CELL_KINDS[kind].schema


class ResultCache:
    """Content-addressed on-disk cache for per-cell simulation results.

    Entries live at ``<root>/<key[:2]>/<key>.json`` where ``key`` is the
    SHA-256 of the canonical JSON of every input that determines the result.
    The tree is the whole cache: no metadata is kept beside it, an entry's
    mtime is when it was written, and ``repro cache stats``/``gc`` scan the
    tree (:func:`iter_entry_files`, :func:`collect_garbage`).  Corrupt or
    stale-schema entries are treated as misses and removed —
    *conditionally*: removal re-stats the path first, so a concurrent
    writer's freshly renamed (valid) entry is never deleted by a reader
    that read the pre-replacement bytes.

    Args:
        root: cache directory (created lazily on first write).
        enabled: when ``False`` every lookup misses and nothing is written —
            the ``--no-cache`` behaviour without conditional call sites.
        track: accepts only ``False``.  The keyword stays for its last
            caller, the host-time benchmark's ``bench/worker.py``.
    """

    def __init__(self, root: Path = DEFAULT_CACHE_DIR, enabled: bool = True,
                 track: bool = False) -> None:
        # bench/worker.py passes track=False; nothing else does.
        if track is not False:
            raise ValueError(
                f"track={track!r}: the result cache keeps no index")
        self.root = Path(root)
        self.enabled = enabled

    def key(self, config: SystemConfig, protocol: str, workload_name: str,
            scale: float, max_cycles: int,
            kind: Union[str, CellKind] = "stats") -> str:
        """Compute the content-addressed key for one cell
        (:func:`cell_key`)."""
        return cell_key(config, protocol, workload_name, scale, max_cycles,
                        kind=kind)

    def path(self, key: str) -> Path:
        """Filesystem location of the entry for ``key``."""
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str,
            schema: int = STATS_SCHEMA_VERSION) -> Optional[Dict[str, object]]:
        """Return the cached payload for ``key``, or ``None``.  ``schema``
        is the expected payload schema version (the cell kind's; defaults
        to the stats schema)."""
        if not self.enabled:
            return None
        path = self.path(key)
        read_stat = None
        try:
            with path.open("r", encoding="utf-8") as handle:
                # Identity of the bytes being judged; if the verdict is
                # "corrupt", only this exact file may be removed.
                read_stat = os.fstat(handle.fileno())
                payload = json.load(handle)
            if not isinstance(payload, dict) or payload.get("schema") != schema:
                raise ValueError("stale payload schema")
        except FileNotFoundError:
            return None
        except (ValueError, OSError):
            self._discard_corrupt(path, read_stat)
            return None
        return payload

    def _discard_corrupt(self, path: Path, read_stat) -> None:
        """Remove a corrupt/stale entry — but only while it is still the
        same file whose bytes were judged corrupt.  A concurrent writer's
        ``put`` may have atomically renamed a fresh, valid entry into
        place after our read; re-stat the path and leave it alone if its
        identity (inode, mtime, size) changed.  ``read_stat`` of ``None``
        means the open itself failed: nothing was read, nothing is
        condemned."""
        if read_stat is None:
            return
        try:
            current = os.stat(path)
        except OSError:
            return
        if ((current.st_ino, current.st_dev, current.st_mtime_ns,
             current.st_size)
                != (read_stat.st_ino, read_stat.st_dev,
                    read_stat.st_mtime_ns, read_stat.st_size)):
            return
        try:
            path.unlink()
        except OSError:
            pass

    def put(self, key: str, payload: Dict[str, object]) -> None:
        """Persist one stats payload (atomic rename).

        Best effort: an unwritable cache location disables the cache with a
        warning rather than failing the run after the simulation succeeded.
        """
        if not self.enabled:
            return
        path = self.path(key)
        tmp: Optional[Path] = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            # Per-process tmp name so concurrent writers of the same key
            # cannot interleave; the final rename is atomic either way.
            tmp = path.with_suffix(f".{os.getpid()}.tmp")
            blob = json.dumps(payload, sort_keys=True)
            tmp.write_text(blob, encoding="utf-8")
            tmp.replace(path)
        except OSError as exc:
            # Don't leave the per-pid tmp behind (e.g. when the final rename
            # failed) — stale tmps would accumulate in shared cache roots.
            if tmp is not None:
                try:
                    tmp.unlink(missing_ok=True)
                except OSError:
                    pass
            self.enabled = False
            print(f"warning: result cache at {self.root} is unusable ({exc}); "
                  f"continuing without caching", file=sys.stderr)


def iter_entry_files(root: Union[str, Path]) -> Iterator[Path]:
    """Entry files of a cache tree, in deterministic order: the
    ``<key[:2]>/<key>.json`` files :class:`ResultCache` writes.  Its
    per-pid ``*.tmp`` files, and anything at the root, are never
    entries."""
    yield from sorted(Path(root).glob("*/*.json"))


def read_entry(path: Path) -> Optional[Dict[str, object]]:
    """Read one cache entry file **without mutating anything** — unlike
    :meth:`ResultCache.get` this never unlinks a torn entry, so reports,
    diffs, merges and GC are safe over foreign snapshots.  Returns
    ``None`` for a missing or unreadable file, unreadable JSON or a
    payload that is stale/alien for its own declared kind."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, OSError):
        return None
    if not payload_is_current(payload):
        return None
    return payload


def entry_kind(path: Path) -> str:
    """The cell kind of one entry file, or ``"?"`` when it does not parse
    or is stale (it has no trustworthy kind)."""
    payload = read_entry(path)
    return "?" if payload is None else str(payload.get("kind", "stats"))


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


def collect_garbage(root: Union[str, Path],
                    max_bytes: Optional[int] = None,
                    max_age: Optional[float] = None,
                    kinds: Optional[Sequence[str]] = None,
                    now: Optional[float] = None,
                    dry_run: bool = False) -> GCReport:
    """Evict cache entries, oldest-written first by entry mtime.
    Crash-safe by construction: eviction only unlinks entry files, each
    removal atomic, so a crash mid-GC leaves a smaller, fully valid cache.

    Policies compose (any entry matching either goes, oldest first):

    * ``max_age``: remove entries written more than ``max_age`` seconds
      before ``now``.
    * ``max_bytes``: remove the oldest-written entries until the tree's
      total entry bytes fit the budget.
    * ``kinds``: restrict eviction to the named cell kinds.  Only then are
      entries parsed; one that does not parse or is stale has no kind and
      is evictable under any filter.  Entries of other kinds are kept *and
      still count* toward ``max_bytes`` — the report shows the remaining
      total so a missed budget is visible.

    Orphaned per-pid ``*.tmp`` files older than :data:`TMP_GRACE_SECONDS`
    are always removed (a crashed writer's leftovers; live writers rename
    theirs away within one ``put``).

    Unremovable files (e.g. a read-only root) are reported in
    ``errors``, never raised.
    """
    root = Path(root)
    now = time.time() if now is None else now
    report = GCReport(dry_run=dry_run)

    candidates: List[Tuple[float, str, Path, int]] = []
    for path in iter_entry_files(root):
        try:
            stat = path.stat()
        except OSError:
            continue  # a concurrent GC got there first
        candidates.append((stat.st_mtime, path.stem, path, stat.st_size))
    candidates.sort()
    report.examined = len(candidates)
    total_bytes = sum(size for _, _, _, size in candidates)

    evictable = candidates
    if kinds:
        allowed = set(kinds) | {"?"}
        evictable = [c for c in candidates if entry_kind(c[2]) in allowed]
    doomed = []
    if max_age is not None:
        doomed = [c for c in evictable if c[0] < now - max_age]
    if max_bytes is not None:
        budget = total_bytes - sum(c[3] for c in doomed)
        # evictable is oldest first, so the age-doomed are its prefix.
        for candidate in evictable[len(doomed):]:
            if budget <= max_bytes:
                break
            doomed.append(candidate)
            budget -= candidate[3]

    for _, key, path, size in doomed:
        if not dry_run:
            try:
                path.unlink()
            except FileNotFoundError:
                pass  # a concurrent GC/writer got there first
            except OSError as exc:
                report.errors.append(f"{key}: {exc}")
                continue
        report.removed.append(key)
        report.bytes_freed += size
    report.remaining_entries = report.examined - len(report.removed)
    report.remaining_bytes = total_bytes - report.bytes_freed

    for tmp in sorted(root.glob("*/*.tmp")):
        try:
            if now - tmp.stat().st_mtime < TMP_GRACE_SECONDS:
                continue
            if not dry_run:
                tmp.unlink()
            report.tmps_removed += 1
        except FileNotFoundError:
            report.tmps_removed += 1
        except OSError as exc:
            report.errors.append(f"{tmp.name}: {exc}")
    return report


class MatrixExecutor:
    """Executes (workload, protocol) cells, in parallel and through the cache.

    Args:
        system_config: platform configuration shared by every cell.
        scale: workload scale factor.
        max_cycles: per-run watchdog bound.
        jobs: worker-process count (``None`` → ``REPRO_JOBS`` env var →
            ``os.cpu_count()``).  ``1`` runs everything in-process.
        cache: optional :class:`ResultCache`; ``None`` disables persistence.
        shard: ``(index, count)`` — run only the cache misses whose key
            that shard owns (:func:`~repro.analysis.shard.shard_of_key`);
            ``None`` reads ``REPRO_SHARD`` and, when it is unset, runs every
            miss.
        kind: the :class:`CellKind` this executor's cells compute (name or
            instance; default ``"stats"``).  Cells run through
            ``kind.simulate``, cache entries validate against
            ``kind.schema``, and results decode through ``kind.decode`` —
            the execution/caching/sharding machinery is identical for
            every kind.
        backend: accepts only ``"local"``, the one way cells run.  The
            keyword stays for its last caller, the host-time benchmark's
            ``bench/worker.py``.

    Attributes:
        simulations_run: number of cells actually simulated (cache misses)
            over this executor's lifetime — tests use it to assert that a
            warm cache performs zero new simulations.
    """

    def __init__(
        self,
        system_config: SystemConfig,
        scale: float = 0.5,
        max_cycles: int = 200_000_000,
        jobs: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        shard: Optional[Tuple[int, int]] = None,
        kind: Union[str, CellKind] = "stats",
        backend: str = "local",
    ) -> None:
        from repro.analysis.shard import resolve_shard

        # bench/worker.py passes backend="local"; nothing else does.
        if backend != "local":
            raise ValueError(
                f"unknown backend {backend!r}; cells run only 'local'")
        self.system_config = system_config
        self.scale = scale
        self.max_cycles = max_cycles
        self.jobs = resolve_jobs(jobs)
        self.cache = cache
        self.shard = (resolve_shard(*shard) if shard is not None
                      else resolve_shard())
        self.kind = get_cell_kind(kind)
        self.simulations_run = 0

    # ------------------------------------------------------------------ cache

    def _lookup(self, protocol: str, workload_name: str):
        """Return ``(key, payload-or-None)`` for one cell."""
        if self.cache is None:
            return None, None
        key = self.cache.key(self.system_config, protocol, workload_name,
                             self.scale, self.max_cycles, kind=self.kind)
        return key, self.cache.get(key, schema=self.kind.schema)

    def _store(self, key: Optional[str], payload: Dict[str, object]) -> None:
        if self.cache is not None and key is not None:
            self.cache.put(key, payload)

    def _owns(self, protocol: str, workload_name: str,
              key: Optional[str]) -> bool:
        """Whether this executor's shard runs the cell (always, unsharded)."""
        if self.shard is None:
            return True
        from repro.analysis.shard import shard_of_key

        # A disabled cache leaves the key unset; the assignment needs it
        # regardless, and computing one is pure and cheap.
        key = key or cell_key(self.system_config, protocol, workload_name,
                              self.scale, self.max_cycles, kind=self.kind)
        index, count = self.shard
        return shard_of_key(key, count) == index

    # ------------------------------------------------------------------ running

    def _simulate(self, pending: List[Tuple[str, str, Optional[str]]]
                  ) -> Iterator[Tuple[int, object]]:
        """Run every pending cell; yield ``(index into pending, payload or
        WorkloadValidationError)`` in completion order.  Other exceptions
        propagate."""
        args = (self.scale, self.max_cycles)
        simulate = self.kind.simulate
        if self.jobs == 1 or len(pending) <= 1:
            for index, (protocol, workload_name, _) in enumerate(pending):
                try:
                    outcome = simulate(self.system_config, protocol,
                                       workload_name, *args)
                except WorkloadValidationError as exc:
                    outcome = exc
                yield index, outcome
            return

        from concurrent.futures import ProcessPoolExecutor, as_completed

        with ProcessPoolExecutor(
                max_workers=min(self.jobs, len(pending))) as pool:
            futures = {
                pool.submit(simulate, self.system_config, protocol,
                            workload_name, *args): index
                for index, (protocol, workload_name, _) in enumerate(pending)
            }
            for future in as_completed(futures):
                try:
                    outcome = future.result()
                except WorkloadValidationError as exc:
                    outcome = exc
                yield futures[future], outcome

    def run_cells(
        self, cells: Sequence[Tuple[str, str]]
    ) -> Dict[Tuple[str, str], SystemStats]:
        """Run many ``(protocol, workload)`` cells, parallelizing the misses.

        Cached cells are served from disk; a miss outside this executor's
        shard is skipped; the other misses run inline when ``jobs == 1`` or
        at most one is pending, else in a process pool with one submission
        per cell.  Returns a dict keyed by the ``(protocol, workload)`` pair —
        under a shard, only the hits and the shard's own cells.

        Raises:
            WorkloadValidationError: the earliest failing cell's, in the
                order ``cells`` gives them — but only after every pending
                cell ran and every valid payload was cached.
        """
        results: Dict[Tuple[str, str], SystemStats] = {}
        pending: List[Tuple[str, str, Optional[str]]] = []
        for protocol, workload_name in dict.fromkeys(cells):
            key, payload = self._lookup(protocol, workload_name)
            if payload is not None:
                results[(protocol, workload_name)] = self.kind.decode(payload)
            elif self._owns(protocol, workload_name, key):
                pending.append((protocol, workload_name, key))

        failures: Dict[int, WorkloadValidationError] = {}
        for index, outcome in self._simulate(pending):
            if isinstance(outcome, WorkloadValidationError):
                failures[index] = outcome
                continue
            protocol, workload_name, key = pending[index]
            self.simulations_run += 1
            self._store(key, outcome)
            results[(protocol, workload_name)] = self.kind.decode(outcome)
        if failures:
            raise failures[min(failures)]
        return results


class MatrixSpec:
    """What sweeps and fuzz campaigns share: a named cell expansion that
    runs through :class:`MatrixExecutor`.

    Subclasses (:class:`~repro.analysis.sweeps.SweepSpec`,
    :class:`~repro.consistency.fuzz.FuzzCampaign`) provide ``name``,
    ``protocols``, ``max_cycles`` and ``cells()`` — the ``(cores, scale,
    protocol, workload)`` expansion in deterministic order — and may
    override the class attributes below.
    """

    #: Cell kind the spec's cells compute (:class:`CellKind` name).
    cell_kind = "stats"
    #: What messages call the spec.
    noun = "sweep"

    def check_protocols(self) -> None:
        """Raise ``KeyError`` naming the spec's unregistered protocols.
        ``run()`` and the CLI's spec resolution call it, so a bad name
        fails before any cell runs or any shard manifest is written."""
        from repro.protocols.registry import list_protocol_names

        known = set(list_protocol_names())
        unknown = [p for p in self.protocols if p not in known]
        if unknown:
            raise KeyError(
                f"{self.noun} {self.name!r} references unregistered "
                f"protocols: {', '.join(unknown)}")

    def run(self, jobs: Optional[int] = None,
            cache: Optional[ResultCache] = None,
            shard: Optional[Tuple[int, int]] = None) -> "SpecResult":
        """Execute every cell, one :class:`MatrixExecutor` per platform
        point ``(cores, scale)``, since the platform and the scale are part
        of the cache key.

        Args:
            jobs: worker-process count per platform point.
            cache: optional on-disk result cache shared by every cell.
            shard: ``(index, count)`` to run one shard (``None``: the
                ``REPRO_SHARD`` environment variable, else every cell).
                The result is then partial: its report's ``complete`` is
                ``False``.

        Raises:
            KeyError: if a protocol name is not registered.
            ValueError: on malformed shard coordinates.
            WorkloadValidationError: if any stats cell produces
                functionally invalid results (protocol correctness bug).
        """
        self.check_protocols()
        platforms: Dict[Tuple[int, float], List[Tuple[str, str]]] = {}
        for cores, scale, protocol, workload in self.cells():
            platforms.setdefault((cores, scale), []).append(
                (protocol, workload))
        cells: Dict[Tuple[str, str, int, float], object] = {}
        simulations = 0
        for (cores, scale), platform_cells in platforms.items():
            executor = MatrixExecutor(
                SystemConfig().scaled(num_cores=cores),
                scale=scale,
                max_cycles=self.max_cycles,
                jobs=jobs,
                cache=cache,
                shard=shard,
                kind=self.cell_kind,
            )
            for (protocol, workload), decoded in \
                    executor.run_cells(platform_cells).items():
                cells[(protocol, workload, cores, scale)] = decoded
            simulations += executor.simulations_run
        return SpecResult(spec=self, cells=cells, simulations_run=simulations)


@dataclass
class SpecResult:
    """An executed :class:`MatrixSpec`: decoded cells; :meth:`report`
    tabulates them.

    A sharded run yields a *partial* result: ``cells`` holds only the
    shard's cells (plus whatever the cache already had).  The report's
    ``complete`` tells the two apart; its per-mix aggregations refuse to
    sum over holes.

    Attributes:
        spec: the spec that was run.
        cells: ``(protocol, workload, cores, scale)`` -> decoded result
            (:class:`~repro.sim.stats.SystemStats` or
            :class:`~repro.consistency.fuzz.FuzzCellResult`).
        simulations_run: cells actually simulated (the rest came from the
            result cache).
    """

    spec: MatrixSpec
    cells: Dict[Tuple[str, str, int, float], object]
    simulations_run: int = 0

    def report(self, baseline: Optional[str] = None):
        """A :class:`~repro.analysis.report.SpecReport` over these cells
        (the pipeline ``repro report`` runs over the cache, so live and
        cache-side tables agree by construction); ``baseline`` defaults
        to the spec's."""
        from repro.analysis.report import SpecReport

        return SpecReport.from_stats(self.spec, self.cells, baseline=baseline)
