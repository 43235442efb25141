"""Command-line interface.

Exposes the most common operations without writing Python::

    python -m repro list workloads                # Table 3 benchmark stand-ins
    python -m repro list protocols                # registered protocol plugins
    python -m repro run fft --protocol MESI --protocol TSO-CC-4-12-3
    python -m repro figure 3 --workloads fft,radix --scale 0.3 --jobs 8
    python -m repro list sweeps                   # registered sensitivity sweeps
    python -m repro sweep timestamp-bits --jobs 8
    python -m repro run zipf:n100000-a90-s7       # parameterised generator
    python -m repro trace capture fft --protocol MESI --cores 2 --scale 0.2
    python -m repro trace replay fft --protocol TSO-CC-4-12-3
    python -m repro trace ls                         # saved traces + digests
    python -m repro list suites                      # registered workload suites
    python -m repro sweep scenario-smoke --jobs 4    # suite incl. a trace
    python -m repro shard plan ci-smoke --shard-count 4
    python -m repro shard run ci-smoke --shard-index 1 --shard-count 4
    python -m repro shard merge ci-smoke --from shard-dir-0 --from shard-dir-1
    python -m repro storage --cores 32,64,128
    python -m repro litmus --protocol TSO-CC-4-12-3 --iterations 10
    python -m repro litmus --random 20 --seed 7      # + generated tests
    python -m repro list campaigns                   # conformance campaigns
    python -m repro sweep fuzz-smoke --jobs 8        # a campaign runs like a sweep
    python -m repro fuzz replay fuzz-smoke --seed 17 --protocol MESI
    python -m repro fuzz shrink fuzz-smoke --seed 17 --protocol MESI
    python -m repro shard merge fuzz-smoke --from dir0 --from dir1
    python -m repro report sweep ci-smoke            # normalized tables, no sims
    python -m repro report dash -o dashboard.html    # static HTML dashboard
    python -m repro report diff cacheA cacheB --fail-on changed
    python -m repro report cache --kind fuzz         # list cached cells
    python -m repro cache stats                      # per-kind totals (tree scan)
    python -m repro cache gc --max-bytes 256M --max-age 7d   # oldest-written first

Every sub-command prints a plain-text table (the same renderers the
benchmark harness uses) and exits non-zero if a correctness check fails
(invalid workload results or a forbidden litmus outcome, exit 1).  A bad
name, value or flag combination is a usage error: it prints one line and
exits 2 before any work starts.

``sweep``, ``shard plan/run/merge`` and ``report sweep/dash`` take any
registered spec by name: a sensitivity sweep (overrides ``--protocols``,
``--workloads``, ``--cores``, ``--scales``) or a conformance-fuzzing
campaign (overrides ``--protocols``, ``--seeds``, ``--seed-start``).  The
experiment commands (``run``, ``figure``, ``sweep``, ``shard run``) fan
independent simulations out over worker processes (``--jobs``, default
from ``REPRO_JOBS`` or the CPU count), one submission per cell, and reuse
previously simulated cells from the on-disk result cache in
``benchmarks/results/cache/`` unless ``--no-cache`` is given.
``--shard-index``/``--shard-count`` (or ``REPRO_SHARD=<index>/<count>``)
run only one shard of the cells.  The ``shard`` sub-command plans, runs and
merges multi-machine/CI shards of a registered spec; see EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.analysis.parallel import (DEFAULT_CACHE_DIR, MatrixExecutor,
                                     ResultCache, WorkloadValidationError,
                                     _default_results_root, collect_garbage,
                                     entry_kind, iter_entry_files)
from repro.analysis.report import (FIGURE2_CORES, FIGURE2_TITLE, FIGURES,
                                   ReportTable, SpecReport, diff_snapshots,
                                   gather_cells, render_dashboard,
                                   render_table)
from repro.analysis.shard import (merge_results, missing_cells, plan_sweep,
                                  resolve_shard)
from repro.analysis.sweeps import SWEEPS, SweepSpec, figure_spec, list_sweeps
from repro.analysis.tables import format_series_table, format_table, protocol_rows
from repro.consistency import canonical_tests, generate_random_test, verify_litmus
from repro.consistency.fuzz import (CAMPAIGNS, FuzzCampaign, failing_cells,
                                    format_test, get_campaign, replay_cell,
                                    shrink_cell)
from repro.protocols.registry import get_protocol
from repro.protocols.storage import StorageModel
from repro.protocols.tsocc.config import PAPER_TSOCC_CONFIGS
from repro.sim.config import SystemConfig
from repro.workloads.benchmarks import BENCHMARK_FAMILIES
from repro.workloads.catalog import canonical_workload_name, make_workload
from repro.workloads.suites import get_suite, list_suites as list_workload_suites
from repro.workloads.tracefile import (Trace, canonical_trace_name,
                                       capture_trace, default_trace_dir,
                                       is_trace_name, list_traces,
                                       trace_digest, trace_path,
                                       trace_workload)

#: Where ``figure --save`` writes its regenerated tables.
DEFAULT_RESULTS_DIR = _default_results_root()


class UsageError(Exception):
    """A name, value or flag combination a command cannot run with.
    Raised while resolving the arguments, before any work starts;
    :func:`main` prints it as one line and exits 2."""


@contextlib.contextmanager
def _resolving(prefix: str = ""):
    """Re-raise what a resolver raises for a bad name or value
    (``KeyError``, ``ValueError``, ``FileNotFoundError``) as a
    :class:`UsageError` whose line starts with ``prefix``."""
    try:
        yield
    except (KeyError, ValueError, FileNotFoundError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args \
            else exc
        raise UsageError(f"{prefix}{message}") from None


def _bounded_int(name: str, low: int, high: Optional[int] = None):
    """An argparse ``type=`` for an integer in ``[low, high]``.  argparse
    turns the ``ValueError`` of anything else into a usage error (exit 2)
    that names the flag and ``name``, before the command runs."""
    def parse(value: str) -> int:
        number = int(value)
        if number < low or (high is not None and number > high):
            raise ValueError(value)
        return number
    parse.__name__ = name
    return parse


def _positive_float(value: str) -> float:
    """An argparse ``type=`` for a finite float > 0."""
    number = float(value)
    if not 0 < number < float("inf"):
        raise ValueError(value)
    return number


def _comma_list(parse_item, name: str):
    """An argparse ``type=`` for a comma list of distinct ``parse_item``
    values: a repeated value would run and count its cells twice."""
    def parse(value: str) -> list:
        items = [parse_item(item.strip()) for item in value.split(",")
                 if item.strip()]
        if not items or len(set(items)) != len(items):
            raise ValueError(value)
        return items
    parse.__name__ = name
    return parse


_positive_int = _bounded_int("positive int", 1)
_nonnegative_int = _bounded_int("non-negative int", 0)
_permille = _bounded_int("permille in 0..1000", 0, 1000)
_positive_float.__name__ = "positive finite float"
_name_list = _comma_list(str, "comma list of distinct names")
_positive_int_list = _comma_list(_positive_int,
                                 "comma list of distinct positive ints")
_positive_float_list = _comma_list(
    _positive_float, "comma list of distinct positive finite floats")


# ------------------------------------------------------------------ resolution

def _check_protocols(names, flag: str) -> None:
    """Refuse the first unregistered protocol in ``names`` with the
    registry's line, naming the ``flag`` that gave it."""
    with _resolving(f"{flag}: "):
        for name in names:
            get_protocol(name)


def _resolve_shard(args: argparse.Namespace):
    """The shard coordinates of ``--shard-index``/``--shard-count``, else
    of ``REPRO_SHARD``, else ``None``."""
    with _resolving():
        return resolve_shard(args.shard_index, args.shard_count)


def _registered_spec(name: str):
    """The registered sweep or fuzz campaign called ``name``."""
    spec = SWEEPS.get(name) or CAMPAIGNS.get(name)
    if spec is None:
        raise UsageError(f"unknown sweep or campaign {name!r}; see "
                         f"'repro list sweeps' and 'repro list campaigns'")
    return spec


#: The overrides each kind of spec takes: argparse dest -> ``subset()``
#: keyword.  A flag of the other kind is refused by name.
_OVERRIDES = {
    SweepSpec: {"protocols": "protocols", "workloads": "workloads",
                "cores": "cores", "scales": "scales"},
    FuzzCampaign: {"protocols": "protocols", "seeds": "num_seeds",
                   "seed_start": "seed_start"},
}


def _resolve_spec(args: argparse.Namespace):
    """The sweep or campaign ``args.name`` names, with the overrides its
    kind has applied, for ``sweep``, ``shard`` and ``report sweep``.
    Every name the run needs is resolved here — protocols, suite members
    and trace files, an explicit ``--baseline`` — so a bad one fails
    before a cell runs or a shard manifest is written.

    Raises:
        UsageError: unknown name, a flag the spec's kind does not take,
            an unregistered protocol or unresolvable workload, or a
            ``--baseline`` off the protocol axis.
    """
    spec = _registered_spec(args.name)
    overrides = _OVERRIDES[type(spec)]
    for dest in ("protocols", "workloads", "cores", "scales", "seeds",
                 "seed_start"):
        if getattr(args, dest) is not None and dest not in overrides:
            flags = ", ".join("--" + name.replace("_", "-")
                              for name in overrides)
            raise UsageError(
                f"--{dest.replace('_', '-')} does not apply to {spec.noun} "
                f"{spec.name!r}; it takes {flags}")
    spec = spec.subset(**{keyword: getattr(args, dest)
                          for dest, keyword in overrides.items()})
    _check_protocols(spec.protocols, "--protocols")
    with _resolving():
        spec.cells()  # resolves suite members and trace files
    baseline = getattr(args, "baseline", None)
    if baseline is not None and baseline not in spec.protocols:
        raise UsageError(
            f"--baseline {baseline!r} is not on the protocol axis of "
            f"{spec.noun} {spec.name!r} ({', '.join(spec.protocols)})")
    return spec


def _make_cache(args: argparse.Namespace) -> ResultCache:
    return ResultCache(Path(args.cache_dir), enabled=not args.no_cache)


# ------------------------------------------------------------------ list

#: ``repro list`` topics.
_TOPICS = ("protocols", "workloads", "suites", "sweeps", "campaigns")


def _cell_count(spec: SweepSpec):
    # A sweep whose suite references a trace file that is absent on this
    # machine should not break the listing of *other* sweeps.
    try:
        return spec.num_cells
    except (KeyError, ValueError, FileNotFoundError):
        return "?"


def _listing(args: argparse.Namespace):
    """The title and rows of ``repro list TOPIC``: one row per entry,
    keyed by its first column."""
    if args.topic == "protocols":
        cores = 32 if args.cores is None else args.cores
        return (f"Registered protocol plugins (storage at {cores} cores)",
                protocol_rows(system_config=SystemConfig().with_cores(cores)))
    if args.topic == "workloads":
        return "Benchmark stand-ins (Table 3)", [
            {"benchmark": name, "suite": suite}
            for name, suite in BENCHMARK_FAMILIES.items()]
    if args.topic == "suites":
        return "Registered workload suites", [{
            "suite": f"suite:{registered.name}",
            "version": registered.version,
            "workloads": len(registered.workloads),
            "description": registered.description,
        } for registered in list_workload_suites()]
    if args.topic == "sweeps":
        return "Registered sensitivity sweeps", [{
            "sweep": spec.name,
            "variants": len(spec.protocols),
            "workloads": len(spec.workloads),
            "cores": ",".join(str(c) for c in spec.cores),
            "scales": ",".join(str(s) for s in spec.scales),
            "cells": _cell_count(spec),
            "description": spec.description,
        } for spec in list_sweeps()]
    return "Registered conformance-fuzzing campaigns", [{
        "campaign": spec.name,
        "protocols": len(spec.protocols),
        "seeds": f"{spec.seed_start}..{spec.seed_start + spec.num_seeds - 1}",
        "shapes": len(spec.shapes()),
        "cells": spec.num_cells,
        "iterations": spec.iterations,
        "description": spec.description,
    } for spec in CAMPAIGNS.values()]


def _suite_members(name: str):
    with _resolving():
        registered = get_suite(name.removeprefix("suite:"))
    rows = []
    for member in registered.workloads:
        try:
            canonical = canonical_workload_name(member)
        except (KeyError, ValueError, FileNotFoundError) as exc:
            canonical = f"UNRESOLVABLE: {exc.args[0] if exc.args else exc}"
        rows.append({"workload": member, "canonical": canonical})
    return (f"suite:{registered.name} v{registered.version} — "
            f"{registered.description}"), rows


def _cmd_list(args: argparse.Namespace) -> int:
    if args.cores is not None and args.topic != "protocols":
        raise UsageError("--cores applies only to 'repro list protocols'")
    if args.topic == "suites" and args.name is not None:
        title, rows = _suite_members(args.name)
    else:
        title, rows = _listing(args)
        if args.name is not None:
            rows = [row for row in rows
                    if next(iter(row.values())) == args.name]
            if not rows:
                raise UsageError(f"no entry {args.name!r} in "
                                 f"'repro list {args.topic}'")
    print(format_table(rows, title=title))
    return 0


# ------------------------------------------------------------------ run

def _cmd_run(args: argparse.Namespace) -> int:
    protocols = args.protocol or ["MESI", "TSO-CC-4-12-3"]
    _check_protocols(protocols, "--protocol")
    with _resolving():
        # Resolve the workload name eagerly (and canonicalize it for the
        # cache key) so a typo, a missing trace file or a digest mismatch
        # fails fast instead of surfacing inside a worker process.
        workload_name = canonical_workload_name(args.workload)
        make_workload(workload_name, num_cores=args.cores, scale=args.scale)
    shard = _resolve_shard(args)
    executor = MatrixExecutor(
        SystemConfig().scaled(num_cores=args.cores),
        scale=args.scale,
        max_cycles=args.max_cycles,
        jobs=args.jobs,
        cache=_make_cache(args),
        shard=shard,
    )
    results = executor.run_cells([(protocol, workload_name)
                                  for protocol in protocols])
    rows = []
    skipped = []
    for protocol in protocols:
        stats = results.get((protocol, workload_name))
        if stats is None:
            # A sharded run only executes the cells of its shard.
            skipped.append(protocol)
            continue
        summary = stats.summary()
        rows.append({
            "protocol": protocol,
            "valid": True,
            "cycles": int(summary["cycles"]),
            "flits": int(summary["flits"]),
            "l1_miss_rate": summary["l1_miss_rate"],
            "self_inval": int(summary["self_invalidations"]),
            "avg_rmw_latency": summary["avg_rmw_latency"],
        })
    print(format_table(rows, title=f"{workload_name} ({args.cores} cores, scale {args.scale})"))
    if skipped:
        print(f"(skipped by shard backend: {', '.join(skipped)})")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    views = {str(number): view for number, view in FIGURES.items()}
    if args.number == "2":
        # Analytic: the storage model over core counts, nothing simulated.
        series = StorageModel(SystemConfig()).figure2_series(
            PAPER_TSOCC_CONFIGS, core_counts=FIGURE2_CORES)
        table = format_series_table(series, title=FIGURE2_TITLE,
                                    row_label="cores")
    elif args.number not in views:
        raise UsageError(f"unknown figure {args.number!r}; choose one of 2, "
                         f"{', '.join(views)}")
    else:
        spec = figure_spec(args.protocols, args.workloads,
                           cores=args.cores, scale=args.scale)
        _check_protocols(spec.protocols, "--protocols")
        with _resolving():
            views[args.number].check(spec.protocols)
            spec.cells()
            # A malformed REPRO_SHARD raises here.
            sharded = resolve_shard() is not None
        if sharded:
            # A figure needs every cell of its matrix; refuse up front
            # instead of simulating one shard of it.
            raise UsageError("repro figure needs the full matrix and cannot "
                             "run sharded; unset REPRO_SHARD (shard a sweep "
                             "with 'repro shard run' instead)")
        result = spec.run(jobs=args.jobs, cache=_make_cache(args))
        table = result.report().figure_table(int(args.number))
    print(table)
    if args.save:
        _save(args, f"figure{args.number}", table)
    return 0


def _save(args: argparse.Namespace, stem: str, table: str) -> None:
    """``--save``: also write ``table`` to ``<results dir>/<stem>.txt``."""
    results_dir = Path(args.results_dir)
    results_dir.mkdir(parents=True, exist_ok=True)
    out = results_dir / f"{stem}.txt"
    out.write_text(table + "\n", encoding="utf-8")
    print(f"saved {out}")


# ------------------------------------------------------------------ sweeps

def _spec_table(report: SpecReport, title: str,
                per_cell: bool = False) -> ReportTable:
    """The table ``repro sweep`` and ``repro shard run`` print: each
    protocol's fields aggregated over the workload mix, or one row per
    cell for ``per_cell`` and for partial (sharded) results, where
    aggregates over an incomplete mix would be meaningless."""
    table = report.cell_table() if per_cell or not report.complete \
        else report.mix_table(normalized=False)
    table.title = title
    return table


def _spec_title(spec) -> str:
    if isinstance(spec, FuzzCampaign):
        return (f"Fuzz campaign {spec.name} — {spec.description} "
                f"({spec.num_seeds} seeds x {len(spec.shapes())} shapes x "
                f"{len(spec.protocols)} protocols)")
    return (f"Sweep {spec.name} — {spec.description} "
            f"(workloads: {', '.join(spec.workloads)})")


def _verdict(spec, result, report: SpecReport) -> int:
    """A campaign's exit status: 1 after listing every forbidden outcome
    with the ``fuzz replay``/``fuzz shrink`` lines that reproduce it,
    else 0, with a ``CONFORMANT`` line once every cell is in.  A sweep's
    is 0."""
    if not isinstance(spec, FuzzCampaign):
        return 0
    failures = failing_cells(result)
    if failures:
        print("\nFORBIDDEN OUTCOMES OBSERVED:", file=sys.stderr)
        for cell in failures:
            outcome = dict(cell.violations[0]) if cell.violations else {}
            coordinates = f"--seed {cell.seed} --protocol {cell.protocol}"
            if len(spec.shapes()) > 1:
                # Replay/shrink default to the campaign's first shape
                # point; a multi-shape campaign must pin the cell's own.
                coordinates += (" --threads {num_threads} --ops "
                                "{ops_per_thread} --vars {num_vars} --fence "
                                "{fence_permille}").format(**cell.params)
            print(f"  {cell.protocol} x {cell.workload}: "
                  f"{len(cell.violations)} forbidden outcome(s), "
                  f"e.g. {outcome}", file=sys.stderr)
            for verb in ("replay", "shrink"):
                print(f"    {verb}: repro fuzz {verb} {spec.name} "
                      f"{coordinates}", file=sys.stderr)
        return 1
    if report.complete:
        print(f"CONFORMANT: all {spec.num_cells} cells within the "
              f"x86-TSO outcome sets")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = _resolve_spec(args)
    if args.cells:
        rows = [dict(zip(("cores", "scale", "protocol", "workload"), cell))
                for cell in spec.cells()]
        print(format_table(rows, title=f"{spec.noun.capitalize()} "
                                       f"{spec.name}: {spec.num_cells} cells"))
        return 0
    shard = _resolve_shard(args)
    result = spec.run(jobs=args.jobs, cache=_make_cache(args), shard=shard)
    report = result.report(baseline=args.baseline)
    table = _spec_table(report, _spec_title(spec), args.per_cell).render()
    print(table)
    executed = len(result.cells)
    print(f"({executed} of {spec.num_cells} cells executed: "
          f"{result.simulations_run} simulated, "
          f"{executed - result.simulations_run} from cache)")
    if args.figure or args.baseline:
        if report.baseline is not None:
            print()
            print(report.mix_table().render())
        if args.figure:
            for cores, scale in report.platforms:
                print()
                print(report.figures(cores=cores, scale=scale))
        for warning in report.warnings:
            print(f"warning: {warning}", file=sys.stderr)
    if args.save:
        _save(args, f"sweep_{spec.name}", table)
    return _verdict(spec, result, report)


def _cmd_shard_plan(args: argparse.Namespace) -> int:
    spec = _resolve_spec(args)
    shard_count = args.shard_count
    if shard_count is None:
        with _resolving():
            shard = resolve_shard()
        if shard is None:
            raise UsageError("shard plan needs --shard-count "
                             "(or REPRO_SHARD=<index>/<count>)")
        shard_count = shard[1]
    plan = plan_sweep(spec, shard_count)
    if args.out_dir:
        for path in plan.write(args.out_dir):
            print(f"wrote {path}")
    else:
        rows = [{"shard": cell.shard, "cores": cell.cores,
                 "scale": cell.scale, "protocol": cell.protocol,
                 "workload": cell.workload, "key": cell.key[:12]}
                for cell in plan.cells]
        print(format_table(
            rows,
            title=f"{spec.noun.capitalize()} {spec.name}: "
                  f"{len(plan.cells)} cells over {shard_count} shards"))
    sizes = plan.shard_sizes()
    print("cells per shard: "
          + ", ".join(f"{i}:{n}" for i, n in enumerate(sizes)))
    return 0


def _cmd_shard_run(args: argparse.Namespace) -> int:
    spec = _resolve_spec(args)
    shard = _resolve_shard(args)
    if shard is None:
        raise UsageError("shard run needs --shard-index/--shard-count "
                         "or REPRO_SHARD=<index>/<count>")
    result = spec.run(jobs=args.jobs, cache=_make_cache(args), shard=shard)
    report = result.report()
    owned = {(cell.protocol, cell.workload, cell.cores, cell.scale)
             for cell in plan_sweep(spec, shard[1]).shard_cells(shard[0])}
    print(_spec_table(report, _spec_title(spec), per_cell=True).render())
    # A warm shared cache can hand back cells of *other* shards too; the
    # footer accounts only for this shard's own cells.
    owned_executed = sum(1 for cell in result.cells if cell in owned)
    print(f"(shard {shard[0]}/{shard[1]}: owns {len(owned)} of "
          f"{spec.num_cells} cells; {result.simulations_run} simulated, "
          f"{owned_executed - result.simulations_run} owned from cache)")
    return _verdict(spec, result, report)


#: Cap on the per-cell INCOMPLETE listing after a merge: a half-merged
#: tso-conformance campaign misses thousands of cells.
_MAX_MISSING_LISTED = 20


def _cmd_shard_merge(args: argparse.Namespace) -> int:
    """Merge ``args.sources`` into ``args.cache_dir`` and, given a spec
    name, verify its cells are all present (exit 1 if not)."""
    # Resolve the spec before touching the destination cache so a bad
    # name or override fails before any merging happens.
    spec = _resolve_spec(args) if args.name else None
    dest = ResultCache(Path(args.cache_dir))
    try:
        report = merge_results(args.sources, dest)
    except (OSError, ValueError) as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    print(f"merged {report.merged} entries from {len(args.sources)} "
          f"director{'y' if len(args.sources) == 1 else 'ies'} into "
          f"{dest.root} ({report.already_present} already present, "
          f"{report.invalid} invalid)")
    if spec is None:
        return 0
    missing = missing_cells(spec, dest)
    if missing:
        print(f"INCOMPLETE: {len(missing)} of {spec.num_cells} cells of "
              f"{spec.noun} {spec.name!r} missing after merge:",
              file=sys.stderr)
        for cell in missing[:_MAX_MISSING_LISTED]:
            print(f"  {cell.protocol} x {cell.workload} "
                  f"(cores {cell.cores}, scale {cell.scale})", file=sys.stderr)
        if len(missing) > _MAX_MISSING_LISTED:
            print(f"  ... and {len(missing) - _MAX_MISSING_LISTED} more",
                  file=sys.stderr)
        return 1
    print(f"complete: all {spec.num_cells} cells of {spec.noun} "
          f"{spec.name!r} present")
    return 0


# ------------------------------------------------------------------ report

def _cmd_report_sweep(args: argparse.Namespace) -> int:
    spec = _resolve_spec(args)
    report = SpecReport.from_cache(spec, Path(args.cache_dir),
                                   baseline=args.baseline)
    if report.num_present == 0:
        print(f"no cached cells for {spec.name!r} under {args.cache_dir}; "
              f"run the sweep/campaign (or merge shard caches) first",
              file=sys.stderr)
        return 1
    table = report.cell_table() if args.per_cell else \
        report.mix_table(normalized=not args.no_normalize)
    output = render_table(table, args.format)
    if args.figure:
        for cores, scale in report.platforms:
            output += "\n\n" + report.figures(cores=cores, scale=scale)
    if args.format == "terminal":
        output += (f"\n({report.num_present} of {len(spec.cells())} cells "
                   f"cached under {args.cache_dir})")
    if args.out:
        Path(args.out).write_text(output + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(output)
    if args.html:
        Path(args.html).write_text(
            render_dashboard([report],
                             title=f"repro report: {spec.name}",
                             generated=_dashboard_stamp(args.cache_dir)),
            encoding="utf-8")
        print(f"wrote {args.html}")
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return 0


def _cmd_report_cache(args: argparse.Namespace) -> int:
    tables = gather_cells(Path(args.cache_dir), kind=args.kind,
                          protocol=args.protocol, workload=args.workload)
    if not tables:
        print(f"no cached cells match under {args.cache_dir}")
        return 0
    print("\n\n".join(render_table(table, args.format).rstrip("\n")
                      for table in tables.values()))
    return 0


def _dashboard_stamp(cache_dir) -> str:
    return (f"generated {time.strftime('%Y-%m-%d %H:%M:%S %Z')} "
            f"from cache {cache_dir}")


def _cmd_report_dash(args: argparse.Namespace) -> int:
    specs = [_registered_spec(name) for name in args.sweeps] \
        if args.sweeps else list_sweeps()
    reports = []
    for spec in specs:
        report = SpecReport.from_cache(spec, Path(args.cache_dir))
        # An explicitly requested spec renders even when empty (the
        # dashboard shows 0/N cached); the default all-sweeps scan keeps
        # only specs the cache knows anything about.
        if args.sweeps or report.num_present:
            reports.append(report)
    Path(args.out).write_text(
        render_dashboard(reports, title=args.title,
                         generated=_dashboard_stamp(args.cache_dir)),
        encoding="utf-8")
    print(f"wrote {args.out} ({len(reports)} section"
          f"{'' if len(reports) == 1 else 's'})")
    return 0


#: ``report diff --fail-on`` classes, mapped to the diff fields they gate.
_DIFF_FAIL_CLASSES = ("changed", "added", "removed", "invalid", "any")


def _cmd_report_diff(args: argparse.Namespace) -> int:
    for label, root in (("A", args.snapshot_a), ("B", args.snapshot_b)):
        if not Path(root).is_dir():
            raise UsageError(f"snapshot {label} is not a directory: {root}")
    diff = diff_snapshots(args.snapshot_a, args.snapshot_b, kind=args.kind)
    print(diff.to_json() if args.json else diff.describe())
    fail_on = set(args.fail_on or [])
    if "any" in fail_on:
        fail_on = {"changed", "added", "removed", "invalid"}
    tripped = []
    for cls in ("changed", "added", "removed"):
        if cls in fail_on and getattr(diff, cls):
            tripped.append(cls)
    if "invalid" in fail_on and (diff.invalid_a or diff.invalid_b):
        tripped.append("invalid")
    if tripped:
        print(f"FAIL: snapshot drift in class(es): {', '.join(tripped)}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_storage(args: argparse.Namespace) -> int:
    core_counts = args.cores or [16, 32, 64, 128]
    series = StorageModel(SystemConfig()).figure2_series(
        PAPER_TSOCC_CONFIGS, core_counts=core_counts)
    print(format_series_table(series, title="Coherence storage overhead (MB)",
                              row_label="cores"))
    return 0


# ------------------------------------------------------------------ litmus

def _cmd_litmus(args: argparse.Namespace) -> int:
    _check_protocols([args.protocol], "--protocol")
    tests = canonical_tests()
    if args.tests:
        unknown = [name for name in args.tests
                   if name not in {test.name for test in tests}]
        if unknown:
            raise UsageError(
                f"--tests: unknown litmus tests {', '.join(unknown)}; "
                f"known: {', '.join(test.name for test in tests)}")
        tests = [test for test in tests if test.name in args.tests]
    tests += [generate_random_test(args.seed + index)
              for index in range(args.random)]
    passed, results = verify_litmus(tests, protocol=args.protocol,
                                    iterations=args.iterations)
    for result in results:
        print(result.summary())
    print("ALL PASS" if passed else "FORBIDDEN OUTCOME OBSERVED")
    return 0 if passed else 1


def _replay_target(args: argparse.Namespace):
    """Resolve ``fuzz replay``/``fuzz shrink``'s campaign and cell shape:
    the ``--threads/--ops/--vars/--fence`` given, the rest from the
    campaign's first shape point (``None`` if none is given)."""
    with _resolving():
        spec = get_campaign(args.name)
    _check_protocols([args.protocol], "--protocol")
    values = (args.threads, args.ops, args.vars, args.fence)
    if all(value is None for value in values):
        return spec, None
    shape = tuple(value if value is not None else fallback
                  for value, fallback in zip(values, spec.shapes()[0]))
    if shape not in spec.shapes():
        raise UsageError(f"shape {shape!r} is not a point of campaign "
                         f"{spec.name!r}; points: {spec.shapes()}")
    return spec, shape


def _cmd_fuzz_replay(args: argparse.Namespace) -> int:
    spec, shape = _replay_target(args)
    test, result = replay_cell(spec, args.protocol, args.seed, shape=shape)
    print(format_test(test))
    print()
    rows = [{"outcome": dict(outcome), "count": count,
             "verdict": "FORBIDDEN" if outcome in result.violations
             else "allowed"}
            for outcome, count in sorted(result.observed.items())]
    print(format_table(rows, title=result.summary()))
    return 0 if result.passed else 1


def _cmd_fuzz_shrink(args: argparse.Namespace) -> int:
    spec, shape = _replay_target(args)
    outcome = shrink_cell(spec, args.protocol, args.seed, shape=shape)
    if outcome is None:
        print(f"cell (seed {args.seed}, {args.protocol}) passes on replay; "
              f"nothing to shrink")
        return 0
    original, shrunk, shrunk_result = outcome
    original_ops = sum(len(t.ops) for t in original.threads)
    shrunk_ops = sum(len(t.ops) for t in shrunk.threads)
    print(f"shrunk {original_ops} ops / {len(original.threads)} threads "
          f"-> {shrunk_ops} ops / {len(shrunk.threads)} threads\n")
    print(format_test(shrunk))
    print()
    for violation in sorted(shrunk_result.violations):
        print(f"  forbidden outcome still reproduced: {dict(violation)}")
    return 1


# ------------------------------------------------------------------ cache

_BYTE_SUFFIXES = {"": 1, "k": 1024, "m": 1024 ** 2, "g": 1024 ** 3}
_AGE_SUFFIXES = {"": 1, "s": 1, "m": 60, "h": 3600, "d": 86400, "w": 604800}


def _parse_scaled(value: str, suffixes, what: str) -> float:
    value = value.strip().lower().rstrip("b" if what == "size" else "")
    suffix = value[-1:] if value[-1:] in suffixes and value[-1:] != "" else ""
    number = value[:-1] if suffix else value
    malformed = ValueError(
        f"malformed {what} {value!r}; examples: 1048576, 64M, 2G"
        if what == "size" else
        f"malformed {what} {value!r}; examples: 3600, 90m, 12h, 7d"
    )
    try:
        result = float(number) * suffixes[suffix]
    except (ValueError, KeyError):
        raise malformed from None
    if result <= 0:
        # A zero or negative budget/age would flow into the GC policy as
        # an evict-everything bound; reject it like any malformed value.
        raise malformed
    return result


def parse_bytes(value: str) -> int:
    """Parse a byte budget: plain bytes or a K/M/G suffix (``64M``)."""
    return int(_parse_scaled(value, _BYTE_SUFFIXES, "size"))


def parse_age(value: str) -> float:
    """Parse an age: seconds or an s/m/h/d/w suffix (``12h``, ``7d``)."""
    return _parse_scaled(value, _AGE_SUFFIXES, "age")


def _cmd_cache_stats(args: argparse.Namespace) -> int:
    now = time.time()
    rows = {}
    for path in iter_entry_files(args.cache_dir):
        try:
            stat = path.stat()
        except OSError:
            continue  # removed by a concurrent gc
        age = int(now - stat.st_mtime)
        for kind in (entry_kind(path), "TOTAL"):
            row = rows.setdefault(kind, {
                "kind": kind, "entries": 0, "bytes": 0,
                "oldest_write_age_s": age, "newest_write_age_s": age})
            row["entries"] += 1
            row["bytes"] += stat.st_size
            row["oldest_write_age_s"] = max(row["oldest_write_age_s"], age)
            row["newest_write_age_s"] = min(row["newest_write_age_s"], age)
    total = rows.pop("TOTAL", {
        "kind": "TOTAL", "entries": 0, "bytes": 0,
        "oldest_write_age_s": "-", "newest_write_age_s": "-"})
    print(format_table([rows[kind] for kind in sorted(rows)] + [total],
                       title=f"Result cache at {args.cache_dir}"))
    return 0


def _cmd_cache_gc(args: argparse.Namespace) -> int:
    with _resolving():
        max_bytes = parse_bytes(args.max_bytes) if args.max_bytes else None
        max_age = parse_age(args.max_age) if args.max_age else None
    if max_bytes is None and max_age is None and not args.dry_run:
        raise UsageError("cache gc needs --max-bytes and/or --max-age "
                         "(or --dry-run to preview orphan-tmp cleanup)")
    report = collect_garbage(Path(args.cache_dir), max_bytes=max_bytes,
                             max_age=max_age, kinds=args.kind or None,
                             dry_run=args.dry_run)
    print(report.describe())
    for error in report.errors:
        print(f"  error: {error}", file=sys.stderr)
    return 1 if report.errors else 0


# ------------------------------------------------------------------ trace

def _trace_directory(args: argparse.Namespace) -> Path:
    return Path(args.trace_dir) if args.trace_dir else default_trace_dir()


def _stats_blob(result) -> str:
    """Canonical JSON of a run's statistics, for byte-identity checks."""
    return json.dumps(result.stats.to_dict(), sort_keys=True)


def _replay_result(workload, protocol: str, max_cycles: int,
                   workload_name: Optional[str] = None):
    """Run a replay workload directly (no cache) and return the result."""
    from repro.sim.system import build_system

    config = SystemConfig().scaled(num_cores=workload.num_cores)
    system = build_system(config, protocol)
    name = workload.name if workload_name is None else workload_name
    return system.run(workload.programs, params=workload.params,
                      max_cycles=max_cycles, workload_name=name)


def _cmd_trace_capture(args: argparse.Namespace) -> int:
    _check_protocols([args.protocol], "--protocol")
    with _resolving():
        workload = make_workload(args.workload, num_cores=args.cores,
                                 scale=args.scale)
    trace, result = capture_trace(
        workload, args.protocol, max_cycles=args.max_cycles,
        scale=args.scale, description=args.description)
    if not result.finished:
        print(f"FAIL: {workload.name} did not finish within "
              f"{args.max_cycles} cycles; the trace would be truncated",
              file=sys.stderr)
        return 1
    if not workload.validate(result):
        print(f"FAIL: {workload.name} failed functional validation under "
              f"{args.protocol}; not saving a trace of a broken run",
              file=sys.stderr)
        return 1
    stem = args.output or "".join(
        ch if (ch.isalnum() or ch in "-_.") else "-" for ch in args.workload)
    directory = _trace_directory(args)
    path = directory / f"{stem}.trace"
    digest = trace.save(path)
    print(f"captured {trace.num_ops} ops on {trace.num_cores} cores from "
          f"{workload.name!r} under {args.protocol}")
    print(f"saved {path} (trace:{stem}@{digest})")
    if args.no_verify:
        return 0
    # Replay the file we just wrote on an identical platform and insist on
    # byte-identical statistics; a trace that cannot reproduce its own
    # capture run is worthless as a workload.
    replay = trace_workload(f"trace:{stem}", directory=directory)
    replay_run = _replay_result(replay, args.protocol, args.max_cycles,
                                workload_name=workload.name)
    if _stats_blob(replay_run) != _stats_blob(result):
        print("FAIL: replay of the saved trace does not reproduce the "
              "capture run's statistics", file=sys.stderr)
        return 1
    print("verified: replay reproduces the capture run byte-identically")
    return 0


def _cmd_trace_replay(args: argparse.Namespace) -> int:
    name = args.trace if is_trace_name(args.trace) else f"trace:{args.trace}"
    with _resolving():
        workload = trace_workload(name, directory=_trace_directory(args))
    protocols = args.protocol or ["MESI", "TSO-CC-4-12-3"]
    _check_protocols(protocols, "--protocol")
    rows = []
    for protocol in protocols:
        result = _replay_result(workload, protocol, args.max_cycles)
        summary = result.stats.summary()
        rows.append({
            "protocol": protocol,
            "finished": result.finished,
            "cycles": int(summary["cycles"]),
            "flits": int(summary["flits"]),
            "l1_miss_rate": summary["l1_miss_rate"],
            "self_inval": int(summary["self_invalidations"]),
        })
    print(format_table(rows, title=f"{workload.name} "
                                   f"({workload.num_cores} cores)"))
    return 0


def _cmd_trace_ls(args: argparse.Namespace) -> int:
    directory = _trace_directory(args)
    entries = list_traces(directory)
    if not entries:
        print(f"no traces in {directory}")
        return 0
    rows = []
    for stem, path in entries:
        data = path.read_bytes()
        try:
            trace = Trace.from_bytes(data, where=path.name)
        except ValueError as exc:
            rows.append({"trace": stem, "digest": "?", "cores": "?",
                         "ops": "?", "source": f"unreadable: {exc}"})
            continue
        rows.append({
            "trace": stem,
            "digest": trace_digest(data),
            "cores": trace.num_cores,
            "ops": trace.num_ops,
            "source": trace.source,
        })
    print(format_table(rows, title=f"Traces in {directory}"))
    return 0


def _cmd_trace_info(args: argparse.Namespace) -> int:
    name = args.trace if is_trace_name(args.trace) else f"trace:{args.trace}"
    directory = _trace_directory(args)
    with _resolving():
        canonical = canonical_trace_name(name, directory=directory)
        workload = trace_workload(name, directory=directory)
    path = trace_path(name, directory)
    trace = Trace.load(path)
    print(f"trace:     {canonical}")
    print(f"path:      {path} ({path.stat().st_size} bytes)")
    print(f"source:    {trace.source}")
    print(f"protocol:  {trace.protocol} (capture run; replays under any)")
    print(f"scale:     {trace.scale}")
    if trace.description:
        print(f"about:     {trace.description}")
    print(f"cores:     {trace.num_cores}")
    print(f"ops:       {trace.num_ops} "
          f"({', '.join(str(len(s)) for s in trace.streams)} per core)")
    kinds = {}
    for stream in trace.streams:
        for op in stream:
            kinds[op.kind] = kinds.get(op.kind, 0) + 1
    print("mix:       " + ", ".join(f"{kind}={count}"
                                    for kind, count in sorted(kinds.items())))
    print(f"replay as: repro run {workload.name.split('@')[0]} ...")
    return 0


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for testing and documentation)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TSO-CC reproduction: run workloads, figures and litmus tests",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(subparsers, name: str, help: str, handler=None):
        command = subparsers.add_parser(name, help=help)
        if handler is not None:
            command.set_defaults(handler=handler)
        return command

    def add_group(name: str, help: str):
        return add(sub, name, help).add_subparsers(
            dest=f"{name}_command", required=True)

    def add_executor_flags(command: argparse.ArgumentParser) -> None:
        command.add_argument("--jobs", type=_positive_int, default=None,
                             help="worker processes (default: REPRO_JOBS or CPU count)")
        command.add_argument("--no-cache", action="store_true",
                             help="ignore and do not update the on-disk result cache")
        add_cache_dir(command)

    def add_cache_dir(command: argparse.ArgumentParser,
                      what: str = "result cache directory") -> None:
        command.add_argument("--cache-dir", default=str(DEFAULT_CACHE_DIR),
                             help=f"{what} (default: benchmarks/results/cache)")

    def add_shard_flags(command: argparse.ArgumentParser) -> None:
        command.add_argument("--shard-index", type=_nonnegative_int,
                             default=None,
                             help="run only this shard of the cell list "
                                  "(default: REPRO_SHARD=<index>/<count>)")
        command.add_argument("--shard-count", type=_positive_int,
                             default=None,
                             help="total number of disjoint shards")

    def add_spec_args(command: argparse.ArgumentParser,
                      default: Optional[str],
                      help: Optional[str] = None) -> None:
        command.add_argument(
            "name", nargs="?", default=default,
            help=help or f"registered sweep or campaign (default: "
                         f"{default}; see 'repro list sweeps' and 'repro "
                         f"list campaigns')")
        command.add_argument("--protocols", type=_name_list,
                             help="override: comma-separated protocol names")
        command.add_argument("--workloads", type=_name_list,
                             help="sweep override: comma-separated workload "
                                  "subset")
        command.add_argument("--cores", type=_positive_int_list,
                             help="sweep override: comma-separated core counts")
        command.add_argument("--scales", type=_positive_float_list,
                             help="sweep override: comma-separated scale "
                                  "factors")
        command.add_argument("--seeds", type=_positive_int, default=None,
                             help="campaign override: number of seeds per "
                                  "shape point")
        command.add_argument("--seed-start", type=_nonnegative_int,
                             default=None,
                             help="campaign override: first seed of the range")

    def add_output_flags(command: argparse.ArgumentParser) -> None:
        command.add_argument("--save", action="store_true",
                             help="also write the table to the results "
                                  "directory")
        command.add_argument("--results-dir", default=str(DEFAULT_RESULTS_DIR),
                             help="directory for --save (default: benchmarks/results)")

    def add_platform_flags(command: argparse.ArgumentParser) -> None:
        command.add_argument("--cores", type=_positive_int, default=8)
        command.add_argument("--scale", type=_positive_float, default=0.35)
        command.add_argument("--max-cycles", type=_positive_int,
                             default=200_000_000)

    def add_format(command: argparse.ArgumentParser) -> None:
        command.add_argument("--format", choices=["terminal", "csv", "json"],
                             default="terminal",
                             help="table output format (default: terminal)")

    listing = add(sub, "list", "list registered protocols, workloads, suites, "
                  "sweeps or campaigns", _cmd_list)
    listing.add_argument("topic", choices=_TOPICS)
    listing.add_argument("name", nargs="?", default=None,
                         help="show only this entry (a suite, with or "
                              "without the suite: prefix: its members)")
    listing.add_argument("--cores", type=_positive_int, default=None,
                         help="core count for the protocols' "
                              "storage-overhead column (default: 32)")

    run = add(sub, "run", "run one workload (benchmark, generator or trace) "
              "under one or more protocols", _cmd_run)
    run.add_argument("workload", metavar="WORKLOAD",
                     help="benchmark name (see 'repro list workloads'), "
                          "generator name (zipf:…, pipeline:…, lockstorm:…) "
                          "or saved trace (trace:<stem>[@digest])")
    run.add_argument("--protocol", action="append",
                     help="protocol configuration (repeatable)")
    add_platform_flags(run)
    add_executor_flags(run)
    add_shard_flags(run)

    figure = add(sub, "figure", "regenerate one figure of the paper",
                 _cmd_figure)
    figure.add_argument("number", help="figure number (2-9)")
    figure.add_argument("--workloads", type=_name_list,
                        help="comma-separated workload subset")
    figure.add_argument("--protocols", type=_name_list,
                        help="comma-separated protocol subset")
    figure.add_argument("--cores", type=_positive_int, default=8)
    figure.add_argument("--scale", type=_positive_float, default=0.35)
    add_output_flags(figure)
    add_executor_flags(figure)

    sweep = add(sub, "sweep", "run a registered sweep or fuzz campaign, or "
                "print its cells", _cmd_sweep)
    add_spec_args(sweep, "timestamp-bits")
    sweep.add_argument("--cells", action="store_true",
                       help="print the cell expansion without running")
    sweep.add_argument("--per-cell", action="store_true",
                       help="tabulate per (variant, workload) cell instead of "
                            "summing over the workload mix")
    sweep.add_argument("--figure", action="store_true",
                       help="also print figure-style per-workload series "
                            "tables (one column per variant)")
    sweep.add_argument("--baseline", default=None, metavar="PROTOCOL",
                       help="also print the mix table normalized against "
                            "this variant, which must be on the protocol "
                            "axis (default: the sweep's declared baseline "
                            "when --figure is given)")
    add_output_flags(sweep)
    add_executor_flags(sweep)
    add_shard_flags(sweep)

    shard_sub = add_group("shard", "plan, run and merge sharded executions "
                          "of a registered sweep or campaign")
    shard_plan = add(shard_sub, "plan", "partition a spec's cells into N "
                     "disjoint shard manifests", _cmd_shard_plan)
    add_spec_args(shard_plan, "timestamp-bits")
    shard_plan.add_argument("--shard-count", type=_positive_int, default=None,
                            help="number of disjoint shards (default: the "
                                 "count of REPRO_SHARD=<index>/<count>)")
    shard_plan.add_argument("--out-dir", default=None,
                            help="write shard-<i>-of-<n>.json manifests "
                                 "here instead of printing the assignment")

    shard_run = add(shard_sub, "run", "run one shard of a sweep or campaign "
                    "(no coordinator needed)", _cmd_shard_run)
    add_spec_args(shard_run, "timestamp-bits")
    add_shard_flags(shard_run)
    add_executor_flags(shard_run)

    shard_merge = add(shard_sub, "merge", "merge shard result directories "
                      "into one result cache", _cmd_shard_merge)
    add_spec_args(shard_merge, None,
                  "registered sweep or campaign to verify completeness "
                  "against after merging (exit 1 if cells are missing)")
    shard_merge.add_argument("--from", dest="sources", action="append",
                             required=True, metavar="DIR",
                             help="shard result directory (repeatable)")
    add_cache_dir(shard_merge, "destination result cache")

    report_sub = add_group("report", "aggregate, normalize, render and diff "
                           "cached results without simulating anything")
    report_sweep = add(report_sub, "sweep", "aggregate a sweep's (or fuzz "
                       "campaign's) cached cells into mix tables with "
                       "speedup-vs-baseline columns and geomean rows",
                       _cmd_report_sweep)
    add_spec_args(report_sweep, "ci-smoke")
    add_cache_dir(report_sweep, "result cache root")
    report_sweep.add_argument("--baseline", default=None, metavar="PROTOCOL",
                              help="variant normalized columns divide "
                                   "against, which must be on the protocol "
                                   "axis (default: the spec's declared "
                                   "baseline)")
    report_sweep.add_argument("--no-normalize", action="store_true",
                              help="omit speedup columns and geomean rows")
    report_sweep.add_argument("--per-cell", action="store_true",
                              help="one row per cached cell instead of "
                                   "aggregating over the workload mix")
    report_sweep.add_argument("--figure", action="store_true",
                              help="append figure-style per-workload series "
                                   "tables")
    add_format(report_sweep)
    report_sweep.add_argument("--html", default=None, metavar="PATH",
                              help="also write a self-contained HTML "
                                   "dashboard for this spec to PATH")
    report_sweep.add_argument("--out", default=None, metavar="PATH",
                              help="write the table to PATH instead of "
                                   "stdout")

    report_cache = add(report_sub, "cache", "tabulate every cached cell "
                       "matching a filter, one table per cell kind (declared "
                       "report fields as columns)", _cmd_report_cache)
    add_cache_dir(report_cache, "result cache root")
    report_cache.add_argument("--kind", default=None,
                              help="only cells of this cell kind")
    report_cache.add_argument("--protocol", default=None,
                              help="only cells of this protocol "
                                   "configuration")
    report_cache.add_argument("--workload", default=None,
                              help="only cells of this workload")
    add_format(report_cache)

    report_dash = add(report_sub, "dash", "render a static self-contained "
                      "HTML dashboard over the cache (one section per sweep)",
                      _cmd_report_dash)
    add_cache_dir(report_dash, "result cache root")
    report_dash.add_argument("--out", "-o", required=True, metavar="PATH",
                             help="output HTML file")
    report_dash.add_argument("--sweeps", type=_name_list, default=None,
                             help="comma-separated sweep/campaign names "
                                  "(default: every registered sweep with "
                                  "cached cells)")
    report_dash.add_argument("--title", default="repro report dashboard",
                             help="dashboard page title")

    report_diff = add(report_sub, "diff", "compare two cache snapshots "
                      "cell-by-cell and classify added/removed/changed/"
                      "invalid entries", _cmd_report_diff)
    report_diff.add_argument("snapshot_a", metavar="A",
                             help="reference cache tree")
    report_diff.add_argument("snapshot_b", metavar="B",
                             help="candidate cache tree (keys only in B "
                                  "count as added)")
    report_diff.add_argument("--kind", default=None,
                             help="restrict the comparison to one cell kind")
    report_diff.add_argument("--fail-on", action="append", default=None,
                             choices=list(_DIFF_FAIL_CLASSES),
                             metavar="CLASS",
                             help="exit 1 if this drift class is non-empty "
                                  f"(repeatable; one of: "
                                  f"{', '.join(_DIFF_FAIL_CLASSES)})")
    report_diff.add_argument("--json", action="store_true",
                             help="emit the full diff as JSON instead of "
                                  "the text summary")

    storage = add(sub, "storage", "print the Figure 2 storage model",
                  _cmd_storage)
    storage.add_argument("--cores", type=_positive_int_list,
                         help="comma-separated core counts")

    litmus = add(sub, "litmus", "run litmus tests against x86-TSO",
                 _cmd_litmus)
    litmus.add_argument("--protocol", default="TSO-CC-4-12-3")
    litmus.add_argument("--iterations", type=_positive_int, default=10)
    litmus.add_argument("--tests", type=_name_list,
                        help="comma-separated litmus test names")
    litmus.add_argument("--random", type=_nonnegative_int, default=0,
                        metavar="N",
                        help="also run N diy-style generated tests")
    litmus.add_argument("--seed", type=_nonnegative_int, default=0,
                        help="first generator seed for --random (default 0)")

    fuzz_sub = add_group("fuzz", "replay and shrink one cell of a "
                         "conformance-fuzzing campaign (run a campaign with "
                         "'repro sweep')")

    def add_cell_coordinates(command: argparse.ArgumentParser) -> None:
        command.add_argument("name", nargs="?", default="fuzz-smoke",
                             help="registered campaign name (default: "
                                  "fuzz-smoke; see 'repro list campaigns')")
        command.add_argument("--seed", type=_nonnegative_int, required=True,
                             help="generator seed of the cell")
        command.add_argument("--protocol", default="TSO-CC-4-12-3",
                             help="protocol configuration name")
        command.add_argument("--threads", type=_positive_int, default=None,
                             help="generator thread count (default: the "
                                  "campaign's first shape point)")
        command.add_argument("--ops", type=_positive_int, default=None,
                             help="generator ops per thread")
        command.add_argument("--vars", type=_positive_int, default=None,
                             help="generator shared-variable count")
        command.add_argument("--fence", type=_permille, default=None,
                             help="generator fence probability (permille)")

    add_cell_coordinates(add(fuzz_sub, "replay",
                             "re-run one campaign cell outside the cache "
                             "and print every observed outcome",
                             _cmd_fuzz_replay))
    add_cell_coordinates(add(fuzz_sub, "shrink",
                             "minimize a violating cell's test by op/thread "
                             "deletion while the violation reproduces",
                             _cmd_fuzz_shrink))

    cache_sub = add_group("cache", "summarize and garbage-collect the "
                          "result cache by write age")
    add_cache_dir(add(cache_sub, "stats", "per-kind entry/byte totals and "
                      "write ages from a tree scan", _cmd_cache_stats),
                  "result cache root")
    cache_gc = add(cache_sub, "gc", "evict the oldest-written entries first "
                   "(--max-bytes/--max-age/--kind) and reap orphaned tmp "
                   "files", _cmd_cache_gc)
    add_cache_dir(cache_gc, "result cache root")
    cache_gc.add_argument("--max-bytes", default=None, metavar="SIZE",
                          help="shrink the cache to at most SIZE "
                               "(plain bytes or 64M/2G)")
    cache_gc.add_argument("--max-age", default=None, metavar="AGE",
                          help="drop entries written more than AGE ago "
                               "(seconds or 90m/12h/7d)")
    cache_gc.add_argument("--kind", action="append", default=None,
                          help="restrict eviction to this cell kind "
                               "(repeatable)")
    cache_gc.add_argument("--dry-run", action="store_true",
                          help="report what would be removed without "
                               "touching the tree")

    trace_sub = add_group("trace", "capture, replay and inspect "
                          "instruction-stream traces")

    def add_trace_dir(command: argparse.ArgumentParser) -> None:
        command.add_argument("--trace-dir", default=None,
                             help="trace directory (default: REPRO_TRACE_DIR "
                                  "or benchmarks/traces)")

    trace_capture = add(trace_sub, "capture", "run a workload with the "
                        "instruction-stream observer and save the trace "
                        "(verified by replay unless --no-verify)",
                        _cmd_trace_capture)
    trace_capture.add_argument("workload", metavar="WORKLOAD",
                               help="benchmark or generator name to capture")
    trace_capture.add_argument("--protocol", default="MESI",
                               help="protocol configuration of the capture "
                                    "run (default: MESI)")
    add_platform_flags(trace_capture)
    trace_capture.add_argument("-o", "--output", default=None, metavar="STEM",
                               help="file stem (default: derived from the "
                                    "workload name)")
    trace_capture.add_argument("--description", default="",
                               help="free-form note stored in the header")
    trace_capture.add_argument("--no-verify", action="store_true",
                               help="skip the replay verification pass")
    add_trace_dir(trace_capture)

    trace_replay = add(trace_sub, "replay", "replay a saved trace directly "
                       "(no cache) under one or more protocols",
                       _cmd_trace_replay)
    trace_replay.add_argument("trace", metavar="TRACE",
                              help="trace stem or trace:<stem>[@digest]")
    trace_replay.add_argument("--protocol", action="append",
                              help="protocol configuration (repeatable; "
                                   "default: MESI and TSO-CC-4-12-3)")
    trace_replay.add_argument("--max-cycles", type=_positive_int,
                              default=200_000_000)
    add_trace_dir(trace_replay)

    add_trace_dir(add(trace_sub, "ls", "list saved traces", _cmd_trace_ls))

    trace_info = add(trace_sub, "info", "show one trace's header, op mix "
                     "and canonical name", _cmd_trace_info)
    trace_info.add_argument("trace", metavar="TRACE",
                            help="trace stem or trace:<stem>[@digest]")
    add_trace_dir(trace_info)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    The one error boundary.  argparse refuses a malformed flag value
    (exit 2) before any handler runs; a :class:`UsageError` from resolving
    names prints one line and exits 2, also before any work; a
    :class:`WorkloadValidationError` (a protocol produced functionally
    invalid results) prints ``FAIL:`` and exits 1."""
    args = build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        # Flush inside the try, so a reader that left early is handled
        # here and not by the interpreter's final flush.
        sys.stdout.flush()
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 2
    except WorkloadValidationError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout's reader closed the pipe (``repro sweep tso-conformance
        # --cells | head``).  Point stdout at the null device so the final
        # flush cannot raise again, and exit 1 as Python does on EPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
