"""Deterministic sharding: partition cell lists across machines or CI jobs.

The content-addressed cache key (:func:`~repro.analysis.parallel.cell_key`)
already identifies a cell host-independently, so the cell→shard assignment
can be a **pure function of the key**::

    shard_of_key(key, shard_count) == int(key, 16) % shard_count

Every invocation — on any machine, with no coordinator — computes the same
assignment, the N shards are disjoint by construction, and together they
cover every cell exactly once.  (Assignment is hash-uniform, not balanced:
tiny cell lists can shard unevenly, and a shard may legitimately be empty.)

Three pieces build on that function:

* :func:`resolve_shard` — the ``(index, count)`` a run executes, from
  ``--shard-index``/``--shard-count`` or ``REPRO_SHARD``.  A
  :class:`~repro.analysis.parallel.MatrixExecutor` given a shard runs only
  the cache misses that shard owns.
* :func:`plan_sweep` / :class:`ShardPlan` — expands a spec (a
  :class:`~repro.analysis.sweeps.SweepSpec` or a
  :class:`~repro.consistency.fuzz.FuzzCampaign`) into per-shard
  **manifests** (JSON cell lists with their keys) for inspection or for
  driving CI matrices (``repro shard plan``).
* :func:`merge_results` / :func:`missing_cells` — reassemble per-shard
  result directories into one :class:`~repro.analysis.parallel.ResultCache`
  and verify a spec is fully covered (``repro shard merge``).

See the "Sharding a sweep across machines/CI" guide in EXPERIMENTS.md.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.analysis.parallel import (CACHE_SCHEMA_VERSION, cell_key,
                                     get_cell_kind, iter_entry_files,
                                     read_entry)
from repro.sim.config import SystemConfig
from repro.sim.stats import STATS_SCHEMA_VERSION


def shard_of_key(key: str, shard_count: int) -> int:
    """The shard owning cache key ``key`` — a pure function of the key, so
    every machine computes the same partition with no coordination."""
    if shard_count < 1:
        raise ValueError(f"shard count must be >= 1, got {shard_count}")
    return int(key, 16) % shard_count


def resolve_shard(shard_index: Optional[int] = None,
                  shard_count: Optional[int] = None,
                  ) -> Optional[Tuple[int, int]]:
    """Resolve shard coordinates: explicit arguments, else the
    ``REPRO_SHARD`` environment variable (``<index>/<count>``), else
    ``None`` (unsharded).

    Raises:
        ValueError: on a half-specified pair, a malformed ``REPRO_SHARD``,
            or an index outside ``[0, count)``.
    """
    if shard_index is None and shard_count is None:
        env = os.environ.get("REPRO_SHARD", "").strip()
        if not env:
            return None
        try:
            index_str, count_str = env.split("/")
            shard_index, shard_count = int(index_str), int(count_str)
        except ValueError:
            raise ValueError(
                f"REPRO_SHARD must look like '<index>/<count>' "
                f"(e.g. '0/4'), got {env!r}") from None
    if shard_index is None or shard_count is None:
        raise ValueError(
            "--shard-index and --shard-count must be given together")
    if shard_count < 1:
        raise ValueError(f"shard count must be >= 1, got {shard_count}")
    if not 0 <= shard_index < shard_count:
        raise ValueError(
            f"shard index {shard_index} outside [0, {shard_count})")
    return shard_index, shard_count


# ---------------------------------------------------------------------- planning

@dataclass(frozen=True)
class PlannedCell:
    """One sweep cell with its shard assignment."""

    cores: int
    scale: float
    protocol: str
    workload: str
    key: str
    shard: int


@dataclass(frozen=True)
class ShardPlan:
    """A sweep's full cell expansion partitioned into N disjoint shards."""

    sweep: str
    shard_count: int
    cells: Tuple[PlannedCell, ...]

    def shard_cells(self, shard_index: int) -> List[PlannedCell]:
        """The cells assigned to one shard, in expansion order."""
        if not 0 <= shard_index < self.shard_count:
            raise ValueError(
                f"shard index {shard_index} outside [0, {self.shard_count})")
        return [cell for cell in self.cells if cell.shard == shard_index]

    def shard_sizes(self) -> List[int]:
        """Cell count per shard (hash-uniform, not balanced)."""
        sizes = [0] * self.shard_count
        for cell in self.cells:
            sizes[cell.shard] += 1
        return sizes

    def manifest(self, shard_index: int) -> Dict[str, object]:
        """The JSON-serializable manifest for one shard."""
        return {
            "sweep": self.sweep,
            "shard_index": shard_index,
            "shard_count": self.shard_count,
            "cache_schema": CACHE_SCHEMA_VERSION,
            "stats_schema": STATS_SCHEMA_VERSION,
            "cells": [{
                "cores": cell.cores,
                "scale": cell.scale,
                "protocol": cell.protocol,
                "workload": cell.workload,
                "key": cell.key,
            } for cell in self.shard_cells(shard_index)],
        }

    def write(self, out_dir: Union[str, Path]) -> List[Path]:
        """Write one ``shard-<i>-of-<n>.json`` manifest per shard."""
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        paths = []
        for shard_index in range(self.shard_count):
            path = out_dir / f"shard-{shard_index}-of-{self.shard_count}.json"
            path.write_text(
                json.dumps(self.manifest(shard_index), indent=2,
                           sort_keys=True) + "\n",
                encoding="utf-8")
            paths.append(path)
        return paths


def plan_sweep(spec, shard_count: int) -> ShardPlan:
    """Partition a spec's cell expansion into ``shard_count`` shards.

    Accepts any object with the :class:`~repro.analysis.parallel.MatrixSpec`
    surface (``name``, ``cells()``, ``max_cycles``, and optionally
    ``cell_kind``): sweeps and fuzz campaigns plan alike.  The plan is
    fully deterministic: the same spec and shard count yield the same
    manifests on every machine.
    """
    kind = get_cell_kind(getattr(spec, "cell_kind", "stats"))
    configs: Dict[int, SystemConfig] = {}
    cells = []
    for cores, scale, protocol, workload in spec.cells():
        if cores not in configs:
            configs[cores] = SystemConfig().scaled(num_cores=cores)
        key = cell_key(configs[cores], protocol, workload, scale,
                       spec.max_cycles, kind=kind)
        cells.append(PlannedCell(cores=cores, scale=scale, protocol=protocol,
                                 workload=workload, key=key,
                                 shard=shard_of_key(key, shard_count)))
    return ShardPlan(sweep=spec.name, shard_count=shard_count,
                     cells=tuple(cells))


# ---------------------------------------------------------------------- merging

@dataclass
class MergeReport:
    """Outcome of merging shard result directories into one cache."""

    merged: int = 0
    already_present: int = 0
    invalid: int = 0

    @property
    def total(self) -> int:
        return self.merged + self.already_present + self.invalid


def merge_results(sources: Iterable[Union[str, Path]], dest) -> MergeReport:
    """Merge shard result directories into a destination cache.

    Every source directory is read in the
    :class:`~repro.analysis.parallel.ResultCache` on-disk layout
    (``<key[:2]>/<key>.json``).  Entries are content-addressed, so a key
    already present in ``dest`` is the same result and is skipped; entries
    with a stale schema for their cell kind or unreadable JSON are counted
    invalid and left behind.

    Args:
        sources: shard cache directories (e.g. one per CI shard job).
        dest: destination :class:`~repro.analysis.parallel.ResultCache`.

    Returns:
        A :class:`MergeReport` with merged / already-present / invalid
        counts.

    Raises:
        ValueError: if the destination cache is disabled — a merge into a
            cache that drops writes would report success without persisting
            anything.
        OSError: if the destination becomes unwritable mid-merge
            (``ResultCache.put`` disables itself on write errors).
    """
    if not dest.enabled:
        raise ValueError(
            f"destination cache at {dest.root} is disabled; merging into "
            f"it would silently drop every entry")
    report = MergeReport()
    # Keys known to hold a valid destination entry, so the same key seen in
    # several source directories is parsed against the destination once.
    settled = set()
    for source in sources:
        for path in iter_entry_files(source):
            key = path.stem
            payload = read_entry(path)
            if payload is None:
                report.invalid += 1
                continue
            if key in settled or dest.peek(key) is not None:
                settled.add(key)
                report.already_present += 1
                continue
            # Absent — or present but corrupt/stale, in which case the
            # valid shard payload replaces it (put renames atomically).
            dest.put(key, payload)
            if not dest.enabled:
                # put() swallows write errors by disabling the cache; a
                # merge must not report entries it failed to persist.
                raise OSError(
                    f"destination cache at {dest.root} became unwritable "
                    f"after merging {report.merged} entries")
            settled.add(key)
            report.merged += 1
    return report


def missing_cells(spec, cache) -> List[PlannedCell]:
    """The cells of ``spec`` that have no *valid* entry in ``cache`` —
    empty once every shard of a sweep has been run and merged.  Corrupt or
    stale-schema entries count as missing, exactly as ``ResultCache.get``
    would treat them."""
    plan = plan_sweep(spec, shard_count=1)
    return [cell for cell in plan.cells if cache.peek(cell.key) is None]
