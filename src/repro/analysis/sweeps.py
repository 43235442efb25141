"""Declarative sensitivity sweeps over the cached experiment matrix.

The paper's evaluation is dominated by sensitivity studies: ranging one
TSO-CC parameter (timestamp bits, access-counter width, decay threshold,
the SharedRO optimization) — or the protocol itself — against a workload
mix.  A :class:`SweepSpec` declares such a study as data::

    SweepSpec(
        name="timestamp-bits",
        description="timestamp width and write-group size",
        protocols=tuple(variant_group("tsocc-timestamp-bits")),
        workloads=("canneal", "radix", "intruder"),
        metrics=("cycles", "self_invalidations", "ts_resets"),
    )

and ``SweepSpec.run`` (:meth:`~repro.analysis.parallel.MatrixSpec.run`)
expands the axes (protocol variant × workload × cores × scale) into the
parallel, cache-backed :class:`~repro.analysis.parallel.MatrixExecutor`.
Because every axis point is a *registered, named* protocol configuration
(:mod:`repro.protocols.tsocc.variants`), sweep cells ship to worker
processes and persist in the content-addressed result cache exactly like
paper-figure cells — re-running an unchanged sweep performs zero new
simulations.

Sweeps register into a module-level registry (:func:`register_sweep` /
:func:`get_sweep` / :func:`list_sweeps`); the bundled families at the
bottom of this module replace the former ad-hoc ``bench_ablation_*``
scripts and drive the ``repro sweep`` CLI subcommand.

A quick sanity doctest (also exercised by CI):

>>> spec = get_sweep("timestamp-bits")
>>> len(spec.cells()) == len(spec.protocols) * len(spec.workloads)
True
>>> sorted(s.name for s in list_sweeps())[:2]
['access-counter', 'ci-smoke']
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.parallel import (MatrixSpec, ReportField,
                                     declare_report_fields)
from repro.analysis.report import FIGURE_BASELINE
from repro.protocols.registry import PAPER_CONFIGURATIONS, variant_group
from repro.sim.stats import SystemStats
from repro.workloads.benchmarks import benchmark_names
from repro.workloads.catalog import canonical_workload_name
from repro.workloads.suites import get_suite

#: Named metrics a sweep can tabulate.  Every metric maps one cell's
#: :class:`SystemStats` to a number; per-variant rows report the **sum over
#: the sweep's workloads**, so only additive quantities belong here (rates
#: are derived from the sums where needed).
METRICS: Dict[str, Callable[[SystemStats], float]] = {
    "cycles": lambda s: s.cycles,
    "flits": lambda s: s.total_flits,
    "messages": lambda s: s.network.messages,
    "l1_misses": lambda s: s.aggregate_l1().total_misses,
    "self_invalidations": lambda s: sum(s.aggregate_l1().self_inval_events.values()),
    "ts_resets": lambda s: s.aggregate_l1().ts_resets,
    "shared_decays": lambda s: s.aggregate_l2().shared_decays,
    "sro_read_hits": lambda s: s.aggregate_l1().read_hits.get("shared_ro", 0),
    "rmw_latency_total": lambda s: s.aggregate_l1().rmw_latency_total,
}

#: Better-direction of every metric with a meaningful sign convention for
#: speedup normalization; metrics absent here are purely diagnostic.
_METRIC_DIRECTIONS: Dict[str, str] = {
    "cycles": "lower",
    "flits": "lower",
    "messages": "lower",
    "l1_misses": "lower",
    "self_invalidations": "lower",
    "ts_resets": "lower",
    "sro_read_hits": "higher",
    "rmw_latency_total": "lower",
}

#: The ``"stats"`` kind's declared report fields — one per :data:`METRICS`
#: entry, so ``SweepSpec.metrics`` names select declared fields and the
#: reporting layer (:mod:`repro.analysis.report`) reproduces sweep tables
#: from cached payloads alone.
STATS_REPORT_FIELDS = declare_report_fields("stats", [
    ReportField(name=name, extract=fn, dtype="int", aggregate="sum",
                better=_METRIC_DIRECTIONS.get(name), format="{:.0f}")
    for name, fn in METRICS.items()
])


@dataclass(frozen=True)
class SweepSpec(MatrixSpec):
    """One declarative sensitivity sweep; ``run()`` comes from
    :class:`~repro.analysis.parallel.MatrixSpec`.

    Attributes:
        name: registry key (``repro sweep <name>``).
        description: one-line summary shown by ``repro list sweeps``.
        protocols: named protocol configurations forming the swept axis —
            typically a variant group
            (:func:`repro.protocols.registry.variant_group`).
        workloads: Table 3 workload names the axis is evaluated on.
        cores: core counts to expand (one platform per entry).
        scales: workload scale factors to expand.
        metrics: :data:`METRICS` keys to tabulate.
        max_cycles: per-cell watchdog bound.
        baseline: protocol name speedup/overhead columns normalize against
            (:mod:`repro.analysis.report`).  Soft metadata: it need not be
            in ``protocols`` (a ``subset()`` may drop it), in which case
            the report layer warns and emits ``—`` for normalized columns.
    """

    name: str
    description: str
    protocols: Tuple[str, ...]
    workloads: Tuple[str, ...]
    cores: Tuple[int, ...] = (8,)
    scales: Tuple[float, ...] = (0.3,)
    metrics: Tuple[str, ...] = ("cycles", "flits")
    max_cycles: int = 200_000_000
    baseline: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.protocols or not self.workloads:
            raise ValueError(f"sweep {self.name!r}: empty protocol or workload axis")
        if not self.cores or not self.scales:
            raise ValueError(f"sweep {self.name!r}: empty cores or scales axis")
        unknown = [metric for metric in self.metrics if metric not in METRICS]
        if unknown:
            raise ValueError(
                f"sweep {self.name!r}: unknown metrics {unknown}; "
                f"known: {', '.join(METRICS)}"
            )

    # ------------------------------------------------------------------ axes

    def resolved_workloads(self) -> Tuple[str, ...]:
        """The workload axis after suite expansion and canonicalization.

        ``"suite:<name>"`` entries expand to the registered suite's members
        (:mod:`repro.workloads.suites`); every name is then canonicalized
        (:func:`repro.workloads.catalog.canonical_workload_name` — trace
        names gain their content digest, generator names their full field
        spelling) and deduplicated preserving order.  Cache keys, shard
        assignments and worker processes all see only these resolved names,
        so cells(), run() and the report layer agree by construction.

        The resolution is memoized per spec instance (specs are frozen and
        the report paths re-resolve per row): within one process a
        spec resolves its axis once, so a trace file edited *while* a
        process holds a resolved spec is not re-digested — one-shot CLI
        runs always see the file as it was at first resolution.

        Raises:
            KeyError: for an unknown suite or generator scheme.
            FileNotFoundError: for a ``trace:`` member with no file.
            ValueError: for malformed names or trace digest mismatches.
        """
        cached = self.__dict__.get("_resolved_workloads")
        if cached is not None:
            return cached
        expanded: List[str] = []
        for name in self.workloads:
            if name.startswith("suite:"):
                expanded.extend(get_suite(name[len("suite:"):]).workloads)
            else:
                expanded.append(name)
        resolved: List[str] = []
        seen = set()
        for name in expanded:
            canonical = canonical_workload_name(name)
            if canonical not in seen:
                seen.add(canonical)
                resolved.append(canonical)
        result = tuple(resolved)
        object.__setattr__(self, "_resolved_workloads", result)
        return result

    def cells(self) -> List[Tuple[int, float, str, str]]:
        """The full axis expansion: ``(cores, scale, protocol, workload)``
        per cell, in deterministic order (workloads resolved via
        :meth:`resolved_workloads`)."""
        workloads = self.resolved_workloads()
        return [
            (cores, scale, protocol, workload)
            for cores in self.cores
            for scale in self.scales
            for protocol in self.protocols
            for workload in workloads
        ]

    @property
    def num_cells(self) -> int:
        """Number of independent simulations the sweep expands into."""
        return (len(self.protocols) * len(self.resolved_workloads())
                * len(self.cores) * len(self.scales))

    def subset(
        self,
        protocols: Optional[Sequence[str]] = None,
        workloads: Optional[Sequence[str]] = None,
        cores: Optional[Sequence[int]] = None,
        scales: Optional[Sequence[float]] = None,
    ) -> "SweepSpec":
        """A copy with some axes overridden (CLI ``--protocols`` etc.)."""
        return replace(
            self,
            protocols=tuple(protocols) if protocols else self.protocols,
            workloads=tuple(workloads) if workloads else self.workloads,
            cores=tuple(cores) if cores else self.cores,
            scales=tuple(scales) if scales else self.scales,
        )


def figure_spec(protocols: Optional[Sequence[str]] = None,
                workloads: Optional[Sequence[str]] = None, *,
                cores: int, scale: float) -> SweepSpec:
    """The matrix behind the paper's Figures 3–9 on one platform:
    ``protocols`` (default: the seven paper configurations, MESI first) x
    ``workloads`` (default: the 16 Table 3 stand-ins), with the figures'
    baseline (:data:`~repro.analysis.report.FIGURE_BASELINE`).
    ``repro figure`` and ``benchmarks/`` run it and render
    ``result.report().figure(n)``."""
    return SweepSpec(
        name="figures",
        description="the paper's evaluation matrix (Figures 3-9)",
        protocols=tuple(protocols or PAPER_CONFIGURATIONS),
        workloads=tuple(workloads or benchmark_names()),
        cores=(cores,),
        scales=(scale,),
        baseline=FIGURE_BASELINE,
    )


# ---------------------------------------------------------------------- registry

#: Registered sweeps by name, in registration order.
SWEEPS: Dict[str, SweepSpec] = {}


def register_sweep(spec: SweepSpec) -> SweepSpec:
    """Register a sweep under its name.

    Raises:
        ValueError: on a duplicate name.
    """
    if spec.name in SWEEPS:
        raise ValueError(f"sweep {spec.name!r} is already registered")
    SWEEPS[spec.name] = spec
    return spec


def get_sweep(name: str) -> SweepSpec:
    """Resolve a registered sweep by name.

    Raises:
        KeyError: for an unknown sweep name.
    """
    if name not in SWEEPS:
        raise KeyError(
            f"unknown sweep {name!r}; known: {', '.join(SWEEPS)}"
        )
    return SWEEPS[name]


def list_sweeps() -> List[SweepSpec]:
    """Every registered sweep, in registration order."""
    return list(SWEEPS.values())


# ---------------------------------------------------------------------- bundled sweeps

#: Timestamp width × write-group size (§3.3/§3.5, Figures 7/9 levers) on a
#: write-intensive mix.  Replaces ``bench_ablation_timestamp_bits``.
TIMESTAMP_BITS_SWEEP = register_sweep(SweepSpec(
    name="timestamp-bits",
    description="timestamp width and write-group size (Bts, Bwrite-group)",
    protocols=tuple(variant_group("tsocc-timestamp-bits")),
    workloads=("canneal", "radix", "intruder"),
    metrics=("cycles", "self_invalidations", "ts_resets"),
    baseline="TSO-CC-4-12-3",
))

#: Access-counter width ``Bmaxacc`` (§4.2) on a producer-consumer-heavy mix.
#: Replaces ``bench_ablation_access_counter``.
ACCESS_COUNTER_SWEEP = register_sweep(SweepSpec(
    name="access-counter",
    description="per-line access counter width (Bmaxacc)",
    protocols=tuple(variant_group("tsocc-access-counter")),
    workloads=("fft", "dedup", "intruder"),
    metrics=("cycles", "flits"),
    baseline="TSO-CC-4-12-3",
))

#: Shared→SharedRO decay threshold (§3.4) on read-mostly workloads.
#: Replaces ``bench_ablation_decay``.
DECAY_SWEEP = register_sweep(SweepSpec(
    name="decay",
    description="Shared->SharedRO decay threshold (writes)",
    protocols=tuple(variant_group("tsocc-decay")),
    workloads=("genome", "raytrace"),
    metrics=("cycles", "shared_decays", "sro_read_hits"),
    baseline="TSO-CC-4-12-3",
))

#: Shared read-only optimization on/off (§3.4).  Replaces
#: ``bench_ablation_sharedro``.
SHARED_RO_SWEEP = register_sweep(SweepSpec(
    name="shared-ro",
    description="shared read-only optimization on/off",
    protocols=tuple(variant_group("tsocc-shared-ro")),
    workloads=("raytrace", "blackscholes", "genome"),
    scales=(0.35,),
    metrics=("cycles", "flits", "sro_read_hits"),
    baseline="TSO-CC-4-12-3",
))

#: Timestamp-table capacity ``ts_L1`` (Table 1 / ROADMAP protocol item):
#: how small the per-core last-seen table can get before conservative
#: re-acquisitions start costing cycles and traffic.
TS_TABLE_SWEEP = register_sweep(SweepSpec(
    name="ts-table",
    description="per-core last-seen timestamp table capacity (ts_L1)",
    protocols=tuple(variant_group("tsocc-ts-table")),
    workloads=("fft", "dedup", "intruder"),
    metrics=("cycles", "l1_misses", "flits"),
    baseline="TSO-CC-4-12-3",
))

#: Protocol-family comparison: the eager directory protocols, the
#: directory-less broadcast strawman and the paper's best TSO-CC point, with
#: a core-count axis to expose the broadcast traffic scaling.
PROTOCOL_BASELINES_SWEEP = register_sweep(SweepSpec(
    name="protocol-baselines",
    description="eager variants (MSI/MESI/MOESI), broadcast strawman, TSO-CC",
    protocols=("MESI", "MSI", "MOESI", "Broadcast", "TSO-CC-4-12-3"),
    workloads=("fft", "dedup", "intruder"),
    cores=(4, 8),
    scales=(0.2,),
    metrics=("cycles", "flits", "messages"),
    baseline="MESI",
))

#: Small cross-family smoke matrix sized for CI sharding: 8 cells on a
#: 2-core platform, split across the shard jobs by ``repro shard run`` and
#: reassembled by the merge job (see the "Sharding a sweep across
#: machines/CI" guide in EXPERIMENTS.md).
CI_SMOKE_SWEEP = register_sweep(SweepSpec(
    name="ci-smoke",
    description="small cross-family matrix for sharded CI smoke jobs",
    protocols=("MESI", "MSI", "TSO-CC-4-12-3", "Broadcast"),
    workloads=("fft", "intruder"),
    cores=(2,),
    scales=(0.2,),
    metrics=("cycles", "flits", "messages"),
    baseline="MESI",
))

#: Scenario-diversity smoke: the registered ``scenario-smoke`` suite (a
#: Table 3 stand-in, zipfian and lock-storm generators, and a replayed trace
#: from ``benchmarks/traces/``) swept lazily via its ``suite:`` name, so the
#: sweep always follows the registered set.
SCENARIO_SMOKE_SWEEP = register_sweep(SweepSpec(
    name="scenario-smoke",
    description="registered suite: benchmark + generators + replayed trace",
    protocols=("MESI", "TSO-CC-4-12-3"),
    workloads=("suite:scenario-smoke",),
    cores=(2,),
    scales=(0.2,),
    metrics=("cycles", "flits", "messages"),
    baseline="MESI",
))
