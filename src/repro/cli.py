"""Command-line interface.

Exposes the most common operations without writing Python::

    python -m repro list                          # workloads & protocol configs
    python -m repro protocols                     # registered protocol plugins
    python -m repro run fft --protocol MESI --protocol TSO-CC-4-12-3
    python -m repro figure 3 --workloads fft,radix --scale 0.3 --jobs 8
    python -m repro sweep --list                  # registered sensitivity sweeps
    python -m repro sweep timestamp-bits --jobs 8
    python -m repro run zipf:n100000-a90-s7       # parameterised generator
    python -m repro trace capture fft --protocol MESI --cores 2 --scale 0.2
    python -m repro trace replay fft --protocol TSO-CC-4-12-3
    python -m repro trace ls                         # saved traces + digests
    python -m repro suites                           # registered workload suites
    python -m repro sweep scenario-smoke --jobs 4    # suite incl. a trace
    python -m repro shard plan ci-smoke --shard-count 4
    python -m repro shard run ci-smoke --shard-index 1 --shard-count 4
    python -m repro shard merge ci-smoke --from shard-dir-0 --from shard-dir-1
    python -m repro storage --cores 32,64,128
    python -m repro litmus --protocol TSO-CC-4-12-3 --iterations 10
    python -m repro litmus --random 20 --seed 7      # + generated tests
    python -m repro fuzz list                        # conformance campaigns
    python -m repro fuzz run fuzz-smoke --jobs 8
    python -m repro fuzz replay fuzz-smoke --seed 17 --protocol MESI
    python -m repro fuzz shrink fuzz-smoke --seed 17 --protocol MESI
    python -m repro fuzz merge fuzz-smoke --from dir0 --from dir1
    python -m repro report sweep ci-smoke            # normalized tables, no sims
    python -m repro report dash -o dashboard.html    # static HTML dashboard
    python -m repro report diff cacheA cacheB --fail-on changed
    python -m repro report cache --kind fuzz         # list cached cells
    python -m repro cache stats                      # per-kind totals (tree scan)
    python -m repro cache gc --max-bytes 256M --max-age 7d   # oldest-written first

Every sub-command prints a plain-text table (the same renderers the
benchmark harness uses) and exits non-zero if a correctness check fails
(invalid workload results or a forbidden litmus outcome).

The experiment commands (``run``, ``figure``, ``sweep``, ``fuzz run``)
fan independent simulations out over worker processes (``--jobs``, default
from ``REPRO_JOBS`` or the CPU count), one submission per cell, and reuse
previously simulated cells from the on-disk result cache in
``benchmarks/results/cache/`` unless ``--no-cache`` is given.
``--shard-index``/``--shard-count`` (or ``REPRO_SHARD=<index>/<count>``)
run only one shard of the cells.  The ``shard`` sub-command plans, runs and
merges multi-machine/CI shards of a registered sweep; see EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
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
from repro.analysis.sweeps import (SWEEPS, SweepSpec, figure_spec, get_sweep,
                                   list_sweeps)
from repro.analysis.tables import format_series_table, format_table, protocol_rows
from repro.consistency import canonical_tests, generate_random_test, verify_litmus
from repro.consistency.fuzz import (failing_cells, format_test, get_campaign,
                                    list_campaigns, replay_cell, shrink_cell)
from repro.protocols.registry import list_protocol_names
from repro.protocols.storage import StorageModel
from repro.protocols.tsocc.config import PAPER_TSOCC_CONFIGS
from repro.sim.config import SystemConfig
from repro.workloads.benchmarks import BENCHMARK_FAMILIES, benchmark_names
from repro.workloads.catalog import canonical_workload_name, make_workload
from repro.workloads.suites import get_suite, list_suites as list_workload_suites
from repro.workloads.tracefile import (Trace, canonical_trace_name,
                                       capture_trace, default_trace_dir,
                                       is_trace_name, list_traces,
                                       trace_digest, trace_workload)

#: Where ``figure --save`` writes its regenerated tables.
DEFAULT_RESULTS_DIR = _default_results_root()


def _split(value: Optional[str]) -> Optional[List[str]]:
    if not value:
        return None
    return [item.strip() for item in value.split(",") if item.strip()]


def _positive_int(value: str) -> int:
    """An argparse ``type=`` for an integer >= 1.  argparse turns the
    ``ValueError`` of anything else into a usage error (exit 2) that names
    the flag and this function's ``__name__``, before the command runs."""
    number = int(value)
    if number < 1:
        raise ValueError(value)
    return number


def _positive_float(value: str) -> float:
    """An argparse ``type=`` for a finite float > 0."""
    number = float(value)
    if not 0 < number < float("inf"):
        raise ValueError(value)
    return number


def _comma_list(parse_item, name: str):
    """An argparse ``type=`` for a comma list of ``parse_item`` values."""
    def parse(value: str) -> list:
        return [parse_item(item) for item in _split(value) or [value]]
    parse.__name__ = name
    return parse


_positive_int.__name__ = "positive int"
_positive_float.__name__ = "positive finite float"
_positive_int_list = _comma_list(_positive_int, "comma list of positive ints")
_positive_float_list = _comma_list(_positive_float,
                                   "comma list of positive finite floats")


def _cmd_list(_args: argparse.Namespace) -> int:
    print("Protocol configurations:")
    for name in list_protocol_names():
        print(f"  {name}")
    print("\nBenchmark stand-ins (Table 3):")
    rows = [{"benchmark": name, "suite": suite}
            for name, suite in BENCHMARK_FAMILIES.items()]
    print(format_table(rows))
    return 0


def _cmd_protocols(args: argparse.Namespace) -> int:
    config = SystemConfig().with_cores(args.cores)
    rows = protocol_rows(system_config=config)
    print(format_table(
        rows,
        title=f"Registered protocol plugins (storage at {args.cores} cores)",
    ))
    return 0


def _make_cache(args: argparse.Namespace) -> ResultCache:
    return ResultCache(Path(args.cache_dir), enabled=not args.no_cache)


def _cmd_run(args: argparse.Namespace) -> int:
    protocols = args.protocol or ["MESI", "TSO-CC-4-12-3"]
    try:
        # Resolve the workload name eagerly (and canonicalize it for the
        # cache key) so a typo, a missing trace file or a digest mismatch
        # fails fast instead of surfacing inside a worker process.
        workload_name = canonical_workload_name(args.workload)
        make_workload(workload_name, num_cores=args.cores, scale=args.scale)
    except (KeyError, ValueError, FileNotFoundError) as exc:
        print(exc.args[0] if exc.args else exc, file=sys.stderr)
        return 2
    try:
        # Shard flags, or REPRO_SHARD alone, can be malformed.
        executor = MatrixExecutor(
            SystemConfig().scaled(num_cores=args.cores),
            scale=args.scale,
            max_cycles=args.max_cycles,
            jobs=args.jobs,
            cache=_make_cache(args),
            shard=resolve_shard(args.shard_index, args.shard_count),
        )
    except ValueError as exc:
        print(exc.args[0] if exc.args else exc, file=sys.stderr)
        return 2
    try:
        results = executor.run_cells([(protocol, workload_name)
                                      for protocol in protocols])
    except WorkloadValidationError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
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
        print(f"unknown figure {args.number!r}; choose one of 2, "
              f"{', '.join(views)}", file=sys.stderr)
        return 2
    else:
        spec = figure_spec(_split(args.protocols), _split(args.workloads),
                           cores=args.cores, scale=args.scale)
        try:
            views[args.number].check(spec.protocols)
            # A malformed REPRO_SHARD raises here.
            sharded = resolve_shard() is not None
        except (ValueError, KeyError) as exc:
            print(exc.args[0] if exc.args else exc, file=sys.stderr)
            return 2
        if sharded:
            # A figure needs every cell of its matrix; refuse up front
            # instead of simulating one shard of it.
            print("repro figure needs the full matrix and cannot run "
                  "sharded; unset REPRO_SHARD (shard a sweep with "
                  "'repro shard run' instead)", file=sys.stderr)
            return 2
        try:
            result = spec.run(jobs=args.jobs, cache=_make_cache(args))
        except KeyError as exc:
            # Unregistered protocol names in --protocols.
            print(exc.args[0], file=sys.stderr)
            return 2
        except WorkloadValidationError as exc:
            print(f"FAIL: {exc}", file=sys.stderr)
            return 1
        table = result.report().figure_table(int(args.number))
    print(table)
    if args.save:
        results_dir = Path(args.results_dir)
        results_dir.mkdir(parents=True, exist_ok=True)
        out = results_dir / f"figure{args.number}.txt"
        out.write_text(table + "\n", encoding="utf-8")
        print(f"saved {out}")
    return 0


def _spec_table(report: SpecReport, title: str,
                per_cell: bool = False) -> ReportTable:
    """The table ``repro sweep``, ``repro shard run`` and ``repro fuzz run``
    print: each protocol's fields aggregated over the workload mix, or one
    row per cell for ``per_cell`` and for partial (sharded) results, where
    aggregates over an incomplete mix would be meaningless."""
    table = report.cell_table() if per_cell or not report.complete \
        else report.mix_table(normalized=False)
    table.title = title
    return table


def _sweep_title(spec: SweepSpec) -> str:
    return (f"Sweep {spec.name} — {spec.description} "
            f"(workloads: {', '.join(spec.workloads)})")


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.list:
        def cell_count(spec: SweepSpec):
            # A sweep whose suite references a trace file that is absent on
            # this machine should not break the listing of *other* sweeps.
            try:
                return spec.num_cells
            except (KeyError, ValueError, FileNotFoundError):
                return "?"

        rows = [{
            "sweep": spec.name,
            "variants": len(spec.protocols),
            "workloads": len(spec.workloads),
            "cores": ",".join(str(c) for c in spec.cores),
            "scales": ",".join(str(s) for s in spec.scales),
            "cells": cell_count(spec),
            "description": spec.description,
        } for spec in list_sweeps()]
        print(format_table(rows, title="Registered sensitivity sweeps"))
        return 0
    try:
        spec = _sharded_spec(args)
    except KeyError as exc:
        # Unknown sweep name, or unregistered --protocols.
        print(exc.args[0], file=sys.stderr)
        return 2
    if args.cells:
        rows = [{"cores": cores, "scale": scale, "protocol": protocol,
                 "workload": workload}
                for cores, scale, protocol, workload in spec.cells()]
        print(format_table(rows, title=f"Sweep {spec.name}: {spec.num_cells} cells"))
        return 0
    cache = _make_cache(args)
    try:
        result = spec.run(jobs=args.jobs, cache=cache,
                          shard=resolve_shard(args.shard_index,
                                              args.shard_count))
    except ValueError as exc:
        # Bad shard flags.
        print(exc, file=sys.stderr)
        return 2
    except KeyError as exc:
        # e.g. a typo in --protocols: unregistered configuration names.
        print(exc.args[0], file=sys.stderr)
        return 2
    except WorkloadValidationError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    report = result.report(baseline=args.baseline)
    table = _spec_table(report, _sweep_title(spec), args.per_cell).render()
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
        results_dir = Path(args.results_dir)
        results_dir.mkdir(parents=True, exist_ok=True)
        out = results_dir / f"sweep_{spec.name}.txt"
        out.write_text(table + "\n", encoding="utf-8")
        print(f"saved {out}")
    return 0


def _sharded_spec(args: argparse.Namespace):
    """Resolve a named sweep with its axis overrides (shared by ``repro
    sweep`` and the ``repro shard`` sub-commands).  argparse has already
    range-checked ``--cores``/``--scales``.

    Raises:
        KeyError: unknown sweep name, or ``--protocols`` naming an
            unregistered configuration (caught here so ``shard plan`` does
            not emit manifests that can only fail at run time).
    """
    spec = get_sweep(args.name).subset(
        protocols=_split(args.protocols),
        workloads=_split(args.workloads),
        cores=args.cores,
        scales=args.scales,
    )
    spec.check_protocols()
    return spec


def _cmd_shard_plan(args: argparse.Namespace) -> int:
    try:
        spec = _sharded_spec(args)
        shard_count = args.shard_count
        if shard_count is None:
            shard = resolve_shard()
            shard_count = shard[1] if shard is not None else None
    except (KeyError, ValueError) as exc:
        print(exc.args[0] if exc.args else exc, file=sys.stderr)
        return 2
    if shard_count is None:
        print("shard plan needs --shard-count (or REPRO_SHARD=<index>/<count>)",
              file=sys.stderr)
        return 2
    if shard_count < 1:
        print(f"shard count must be >= 1, got {shard_count}", file=sys.stderr)
        return 2
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
            title=f"Sweep {spec.name}: {len(plan.cells)} cells "
                  f"over {shard_count} shards"))
    sizes = plan.shard_sizes()
    print("cells per shard: "
          + ", ".join(f"{i}:{n}" for i, n in enumerate(sizes)))
    return 0


def _cmd_shard_run(args: argparse.Namespace) -> int:
    try:
        spec = _sharded_spec(args)
        shard = resolve_shard(args.shard_index, args.shard_count)
        if shard is None:
            raise ValueError(
                "shard run needs --shard-index/--shard-count "
                "or REPRO_SHARD=<index>/<count>")
    except (KeyError, ValueError) as exc:
        print(exc.args[0] if exc.args else exc, file=sys.stderr)
        return 2
    try:
        result = spec.run(jobs=args.jobs, cache=_make_cache(args),
                          shard=shard)
    except KeyError as exc:
        # Unregistered protocol names that slipped past the subset check.
        print(exc.args[0], file=sys.stderr)
        return 2
    except WorkloadValidationError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    owned = {(cell.protocol, cell.workload, cell.cores, cell.scale)
             for cell in plan_sweep(spec, shard[1]).shard_cells(shard[0])}
    print(_spec_table(result.report(), _sweep_title(spec),
                      per_cell=True).render())
    # A warm shared cache can hand back cells of *other* shards too; the
    # footer accounts only for this shard's own cells.
    owned_executed = sum(1 for cell in result.cells if cell in owned)
    print(f"(shard {shard[0]}/{shard[1]}: owns {len(owned)} of "
          f"{spec.num_cells} cells; {result.simulations_run} simulated, "
          f"{owned_executed - result.simulations_run} owned from cache)")
    return 0


#: Cap on the per-cell INCOMPLETE listing after a merge: a half-merged
#: tso-conformance campaign misses thousands of cells.
_MAX_MISSING_LISTED = 20


def _merge_into_cache(args: argparse.Namespace, spec, describe_cell) -> int:
    """Merge ``args.sources`` into ``args.cache_dir`` and (when ``spec``
    is not None) verify the sweep's/campaign's cells are fully covered —
    the shared core of ``repro shard merge`` and ``repro fuzz merge``.

    Returns the process exit code (1 on merge failure or missing cells).
    """
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
            print(f"  {describe_cell(cell)}", file=sys.stderr)
        if len(missing) > _MAX_MISSING_LISTED:
            print(f"  ... and {len(missing) - _MAX_MISSING_LISTED} more",
                  file=sys.stderr)
        return 1
    print(f"complete: all {spec.num_cells} cells of {spec.noun} "
          f"{spec.name!r} present")
    return 0


def _cmd_shard_merge(args: argparse.Namespace) -> int:
    spec = None
    if args.name:
        # Resolve the sweep before touching the destination cache so a bad
        # name or protocol override fails before any merging happens.
        try:
            spec = _sharded_spec(args)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
    return _merge_into_cache(
        args, spec,
        lambda cell: (f"{cell.protocol} x {cell.workload} "
                      f"(cores {cell.cores}, scale {cell.scale})"))


def _cmd_shard(args: argparse.Namespace) -> int:
    handlers = {
        "plan": _cmd_shard_plan,
        "run": _cmd_shard_run,
        "merge": _cmd_shard_merge,
    }
    return handlers[args.shard_command](args)


# ------------------------------------------------------------------ report

def _report_spec(args: argparse.Namespace):
    """Resolve the reported spec: a registered sweep (honoring the axis
    overrides) or, failing that, a fuzz campaign — both report through the
    same declared-field pipeline.

    Raises:
        KeyError: the name matches neither registry, or an override names
            an unregistered protocol.
    """
    if args.name in SWEEPS:
        return _sharded_spec(args)
    try:
        return get_campaign(args.name)
    except KeyError:
        raise KeyError(
            f"unknown sweep or campaign {args.name!r}; see "
            f"'repro sweep --list' and 'repro fuzz list'") from None


def _cmd_report_sweep(args: argparse.Namespace) -> int:
    try:
        spec = _report_spec(args)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
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
    names = _split(args.sweeps)
    reports = []
    for name in names or [spec.name for spec in list_sweeps()]:
        try:
            spec = SWEEPS[name] if name in SWEEPS else get_campaign(name)
        except KeyError:
            print(f"unknown sweep or campaign {name!r}; see "
                  f"'repro sweep --list' and 'repro fuzz list'",
                  file=sys.stderr)
            return 2
        report = SpecReport.from_cache(spec, Path(args.cache_dir))
        # An explicitly requested spec renders even when empty (the
        # dashboard shows 0/N cached); the default all-sweeps scan keeps
        # only specs the cache knows anything about.
        if names or report.num_present:
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
            print(f"snapshot {label} is not a directory: {root}",
                  file=sys.stderr)
            return 2
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


def _cmd_report(args: argparse.Namespace) -> int:
    handlers = {
        "sweep": _cmd_report_sweep,
        "cache": _cmd_report_cache,
        "dash": _cmd_report_dash,
        "diff": _cmd_report_diff,
    }
    return handlers[args.report_command](args)


def _cmd_storage(args: argparse.Namespace) -> int:
    core_counts = args.cores or [16, 32, 64, 128]
    series = StorageModel(SystemConfig()).figure2_series(
        PAPER_TSOCC_CONFIGS, core_counts=core_counts)
    print(format_series_table(series, title="Coherence storage overhead (MB)",
                              row_label="cores"))
    return 0


def _cmd_litmus(args: argparse.Namespace) -> int:
    tests = canonical_tests()
    if args.tests:
        wanted = set(_split(args.tests) or [])
        tests = [t for t in tests if t.name in wanted]
        if not tests:
            print(f"no litmus tests match {args.tests!r}", file=sys.stderr)
            return 2
    if args.random:
        if args.random < 0:
            print("--random must be >= 0", file=sys.stderr)
            return 2
        tests += [generate_random_test(args.seed + index)
                  for index in range(args.random)]
    passed, results = verify_litmus(tests, protocol=args.protocol,
                                    iterations=args.iterations)
    for result in results:
        print(result.summary())
    print("ALL PASS" if passed else "FORBIDDEN OUTCOME OBSERVED")
    return 0 if passed else 1


# ------------------------------------------------------------------ fuzz

def _fuzz_spec(args: argparse.Namespace):
    """Resolve a named campaign with its overrides.

    Raises:
        KeyError: unknown campaign name, or ``--protocols`` naming an
            unregistered configuration.
        ValueError: malformed overrides (negative seed counts etc.).
    """
    spec = get_campaign(args.name).subset(
        protocols=_split(getattr(args, "protocols", None)),
        num_seeds=getattr(args, "seeds", None),
        seed_start=getattr(args, "seed_start", None),
    )
    spec.check_protocols()
    return spec


def _cmd_fuzz_list(_args: argparse.Namespace) -> int:
    rows = [{
        "campaign": spec.name,
        "protocols": len(spec.protocols),
        "seeds": f"{spec.seed_start}..{spec.seed_start + spec.num_seeds - 1}",
        "shapes": len(spec.shapes()),
        "cells": spec.num_cells,
        "iterations": spec.iterations,
        "description": spec.description,
    } for spec in list_campaigns()]
    print(format_table(rows, title="Registered conformance-fuzzing campaigns"))
    return 0


def _cmd_fuzz_cells(args: argparse.Namespace) -> int:
    try:
        spec = _fuzz_spec(args)
    except (KeyError, ValueError) as exc:
        print(exc.args[0] if exc.args else exc, file=sys.stderr)
        return 2
    rows = [{"cores": cores, "protocol": protocol, "workload": workload}
            for cores, _scale, protocol, workload in spec.cells()]
    print(format_table(rows, title=f"Campaign {spec.name}: "
                                   f"{spec.num_cells} cells"))
    return 0


def _cmd_fuzz_run(args: argparse.Namespace) -> int:
    try:
        spec = _fuzz_spec(args)
        shard = resolve_shard(args.shard_index, args.shard_count)
    except (KeyError, ValueError) as exc:
        print(exc.args[0] if exc.args else exc, file=sys.stderr)
        return 2
    try:
        result = spec.run(jobs=args.jobs, cache=_make_cache(args),
                          shard=shard)
    except (KeyError, ValueError) as exc:
        print(exc.args[0] if exc.args else exc, file=sys.stderr)
        return 2
    report = result.report()
    print(_spec_table(report, f"Fuzz campaign {spec.name} — "
                              f"{spec.description} ({spec.num_seeds} seeds "
                              f"x {len(spec.shapes())} shapes x "
                              f"{len(spec.protocols)} protocols)").render())
    executed = len(result.cells)
    print(f"({executed} of {spec.num_cells} cells executed: "
          f"{result.simulations_run} simulated, "
          f"{executed - result.simulations_run} from cache)")
    failures = failing_cells(result)
    if failures:
        print("\nFORBIDDEN OUTCOMES OBSERVED:", file=sys.stderr)
        for cell in failures:
            outcome = dict(cell.violations[0]) if cell.violations else {}
            params = cell.params
            coordinates = (f"--seed {cell.seed} --protocol {cell.protocol}")
            if len(spec.shapes()) > 1:
                # Replay/shrink default to the campaign's first shape
                # point; a multi-shape campaign must pin the cell's own.
                coordinates += (
                    f" --threads {params['num_threads']}"
                    f" --ops {params['ops_per_thread']}"
                    f" --vars {params['num_vars']}"
                    f" --fence {params['fence_permille']}")
            print(f"  {cell.protocol} x {cell.workload}: "
                  f"{len(cell.violations)} forbidden outcome(s), "
                  f"e.g. {outcome}", file=sys.stderr)
            print(f"    replay: repro fuzz replay {spec.name} {coordinates}",
                  file=sys.stderr)
            print(f"    shrink: repro fuzz shrink {spec.name} {coordinates}",
                  file=sys.stderr)
        return 1
    if report.complete:
        print(f"CONFORMANT: all {spec.num_cells} cells within the "
              f"x86-TSO outcome sets")
    return 0


def _replay_shape(args: argparse.Namespace, spec):
    """Resolve the optional --threads/--ops/--vars/--fence overrides into a
    shape tuple (default: the campaign's first shape point)."""
    default = spec.shapes()[0]
    values = [getattr(args, attr, None) for attr in
              ("threads", "ops", "vars", "fence")]
    if all(value is None for value in values):
        return None
    return tuple(value if value is not None else fallback
                 for value, fallback in zip(values, default))


def _cmd_fuzz_replay(args: argparse.Namespace) -> int:
    try:
        spec = _fuzz_spec(args)
        test, result = replay_cell(spec, args.protocol, args.seed,
                                   shape=_replay_shape(args, spec))
    except (KeyError, ValueError) as exc:
        print(exc.args[0] if exc.args else exc, file=sys.stderr)
        return 2
    print(format_test(test))
    print()
    rows = [{"outcome": dict(outcome), "count": count,
             "verdict": "FORBIDDEN" if outcome in result.violations
             else "allowed"}
            for outcome, count in sorted(result.observed.items())]
    print(format_table(rows, title=result.summary()))
    return 0 if result.passed else 1


def _cmd_fuzz_shrink(args: argparse.Namespace) -> int:
    try:
        spec = _fuzz_spec(args)
        outcome = shrink_cell(spec, args.protocol, args.seed,
                              shape=_replay_shape(args, spec))
    except (KeyError, ValueError) as exc:
        print(exc.args[0] if exc.args else exc, file=sys.stderr)
        return 2
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


def _cmd_fuzz_merge(args: argparse.Namespace) -> int:
    try:
        spec = _fuzz_spec(args)
    except (KeyError, ValueError) as exc:
        print(exc.args[0] if exc.args else exc, file=sys.stderr)
        return 2
    return _merge_into_cache(
        args, spec,
        lambda cell: f"{cell.protocol} x {cell.workload}")


def _cmd_fuzz(args: argparse.Namespace) -> int:
    handlers = {
        "list": _cmd_fuzz_list,
        "cells": _cmd_fuzz_cells,
        "run": _cmd_fuzz_run,
        "replay": _cmd_fuzz_replay,
        "shrink": _cmd_fuzz_shrink,
        "merge": _cmd_fuzz_merge,
    }
    return handlers[args.fuzz_command](args)


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
    try:
        max_bytes = parse_bytes(args.max_bytes) if args.max_bytes else None
        max_age = parse_age(args.max_age) if args.max_age else None
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if max_bytes is None and max_age is None and not args.dry_run:
        print("cache gc needs --max-bytes and/or --max-age "
              "(or --dry-run to preview orphan-tmp cleanup)", file=sys.stderr)
        return 2
    report = collect_garbage(Path(args.cache_dir), max_bytes=max_bytes,
                             max_age=max_age, kinds=args.kind or None,
                             dry_run=args.dry_run)
    print(report.describe())
    for error in report.errors:
        print(f"  error: {error}", file=sys.stderr)
    return 1 if report.errors else 0


def _cmd_cache(args: argparse.Namespace) -> int:
    handlers = {
        "stats": _cmd_cache_stats,
        "gc": _cmd_cache_gc,
    }
    return handlers[args.cache_command](args)


def _trace_directory(args: argparse.Namespace) -> Path:
    if getattr(args, "trace_dir", None):
        return Path(args.trace_dir)
    return default_trace_dir()


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
    try:
        workload = make_workload(args.workload, num_cores=args.cores,
                                 scale=args.scale)
        trace, result = capture_trace(
            workload, args.protocol, max_cycles=args.max_cycles,
            scale=args.scale, description=args.description)
    except (KeyError, ValueError, FileNotFoundError) as exc:
        print(exc.args[0] if exc.args else exc, file=sys.stderr)
        return 2
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
    try:
        workload = trace_workload(name, directory=_trace_directory(args))
    except (ValueError, FileNotFoundError) as exc:
        print(exc.args[0] if exc.args else exc, file=sys.stderr)
        return 2
    protocols = args.protocol or ["MESI", "TSO-CC-4-12-3"]
    rows = []
    for protocol in protocols:
        try:
            result = _replay_result(workload, protocol, args.max_cycles)
        except KeyError as exc:
            print(exc.args[0] if exc.args else exc, file=sys.stderr)
            return 2
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
    try:
        canonical = canonical_trace_name(name, directory=directory)
        workload = trace_workload(name, directory=directory)
    except (ValueError, FileNotFoundError) as exc:
        print(exc.args[0] if exc.args else exc, file=sys.stderr)
        return 2
    from repro.workloads.tracefile import trace_path

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


def _cmd_trace(args: argparse.Namespace) -> int:
    handlers = {
        "capture": _cmd_trace_capture,
        "replay": _cmd_trace_replay,
        "ls": _cmd_trace_ls,
        "info": _cmd_trace_info,
    }
    return handlers[args.trace_command](args)


def _cmd_suites(args: argparse.Namespace) -> int:
    if args.name:
        name = args.name[len("suite:"):] if args.name.startswith("suite:") \
            else args.name
        try:
            registered = get_suite(name)
        except KeyError as exc:
            print(exc.args[0] if exc.args else exc, file=sys.stderr)
            return 2
        rows = []
        for member in registered.workloads:
            try:
                canonical = canonical_workload_name(member)
            except (KeyError, ValueError, FileNotFoundError) as exc:
                canonical = f"UNRESOLVABLE: {exc.args[0] if exc.args else exc}"
            rows.append({"workload": member, "canonical": canonical})
        print(format_table(
            rows,
            title=f"suite:{registered.name} v{registered.version} — "
                  f"{registered.description}"))
        return 0
    rows = [{
        "suite": f"suite:{registered.name}",
        "version": registered.version,
        "workloads": len(registered.workloads),
        "description": registered.description,
    } for registered in list_workload_suites()]
    print(format_table(rows, title="Registered workload suites"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for testing and documentation)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TSO-CC reproduction: run workloads, figures and litmus tests",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_executor_flags(command: argparse.ArgumentParser) -> None:
        command.add_argument("--jobs", type=int, default=None,
                             help="worker processes (default: REPRO_JOBS or CPU count)")
        command.add_argument("--no-cache", action="store_true",
                             help="ignore and do not update the on-disk result cache")
        command.add_argument("--cache-dir", default=str(DEFAULT_CACHE_DIR),
                             help="result cache directory (default: benchmarks/results/cache)")

    def add_shard_flags(command: argparse.ArgumentParser) -> None:
        command.add_argument("--shard-index", type=int, default=None,
                             help="run only this shard of the cell list "
                                  "(default: REPRO_SHARD=<index>/<count>)")
        command.add_argument("--shard-count", type=int, default=None,
                             help="total number of disjoint shards")

    def add_axis_overrides(command: argparse.ArgumentParser) -> None:
        command.add_argument("--protocols", help="override: comma-separated variant names")
        command.add_argument("--workloads", help="override: comma-separated workload subset")
        command.add_argument("--cores", type=_positive_int_list,
                             help="override: comma-separated core counts")
        command.add_argument("--scales", type=_positive_float_list,
                             help="override: comma-separated scale factors")

    sub.add_parser("list", help="list protocol configurations and workloads")

    protocols = sub.add_parser(
        "protocols",
        help="list registered protocol plugins with metadata and storage bits")
    protocols.add_argument("--cores", type=_positive_int, default=32,
                           help="core count for the storage-overhead column")

    run = sub.add_parser(
        "run",
        help="run one workload (benchmark, generator or trace) under one "
             "or more protocols")
    run.add_argument("workload", metavar="WORKLOAD",
                     help="benchmark name (see 'repro list'), generator "
                          "name (zipf:…, pipeline:…, lockstorm:…) or saved "
                          "trace (trace:<stem>[@digest])")
    run.add_argument("--protocol", action="append",
                     help="protocol configuration (repeatable)")
    run.add_argument("--cores", type=int, default=8)
    run.add_argument("--scale", type=_positive_float, default=0.35)
    run.add_argument("--max-cycles", type=_positive_int, default=200_000_000)
    add_executor_flags(run)
    add_shard_flags(run)

    figure = sub.add_parser("figure", help="regenerate one figure of the paper")
    figure.add_argument("number", help="figure number (2-9)")
    figure.add_argument("--workloads", help="comma-separated workload subset")
    figure.add_argument("--protocols", help="comma-separated protocol subset")
    figure.add_argument("--cores", type=_positive_int, default=8)
    figure.add_argument("--scale", type=_positive_float, default=0.35)
    figure.add_argument("--save", action="store_true",
                        help="also write the table to the results directory")
    figure.add_argument("--results-dir", default=str(DEFAULT_RESULTS_DIR),
                        help="directory for --save (default: benchmarks/results)")
    add_executor_flags(figure)

    sweep = sub.add_parser(
        "sweep",
        help="list, inspect and run declarative sensitivity sweeps")
    sweep.add_argument("name", nargs="?", default="timestamp-bits",
                       help="registered sweep name (default: timestamp-bits; "
                            "see --list)")
    sweep.add_argument("--list", action="store_true",
                       help="list registered sweeps and exit")
    sweep.add_argument("--cells", action="store_true",
                       help="print the sweep's cell expansion without running")
    sweep.add_argument("--per-cell", action="store_true",
                       help="tabulate per (variant, workload) cell instead of "
                            "summing over the workload mix")
    sweep.add_argument("--figure", action="store_true",
                       help="also print figure-style per-workload series "
                            "tables (one column per variant)")
    sweep.add_argument("--baseline", default=None, metavar="PROTOCOL",
                       help="also print the mix table normalized against "
                            "this variant (default: the sweep's declared "
                            "baseline when --figure is given)")
    add_axis_overrides(sweep)
    sweep.add_argument("--save", action="store_true",
                       help="also write the table to the results directory")
    sweep.add_argument("--results-dir", default=str(DEFAULT_RESULTS_DIR),
                       help="directory for --save (default: benchmarks/results)")
    add_executor_flags(sweep)
    add_shard_flags(sweep)

    shard = sub.add_parser(
        "shard",
        help="plan, run and merge sharded executions of a registered sweep")
    shard_sub = shard.add_subparsers(dest="shard_command", required=True)

    shard_plan = shard_sub.add_parser(
        "plan",
        help="partition a sweep's cells into N disjoint shard manifests")
    shard_plan.add_argument("name", nargs="?", default="timestamp-bits",
                            help="registered sweep name (default: "
                                 "timestamp-bits; see 'repro sweep --list')")
    shard_plan.add_argument("--shard-count", type=int, default=None,
                            help="number of disjoint shards (default: the "
                                 "count of REPRO_SHARD=<index>/<count>)")
    shard_plan.add_argument("--out-dir", default=None,
                            help="write shard-<i>-of-<n>.json manifests "
                                 "here instead of printing the assignment")
    add_axis_overrides(shard_plan)

    shard_run = shard_sub.add_parser(
        "run", help="run one shard of a sweep (no coordinator needed)")
    shard_run.add_argument("name", nargs="?", default="timestamp-bits",
                           help="registered sweep name (default: "
                                "timestamp-bits; see 'repro sweep --list')")
    add_shard_flags(shard_run)
    add_axis_overrides(shard_run)
    add_executor_flags(shard_run)

    shard_merge = shard_sub.add_parser(
        "merge",
        help="merge shard result directories into one result cache")
    shard_merge.add_argument("name", nargs="?", default=None,
                             help="sweep to verify completeness against "
                                  "after merging (exit 1 if cells missing)")
    shard_merge.add_argument("--from", dest="sources", action="append",
                             required=True, metavar="DIR",
                             help="shard result directory (repeatable)")
    shard_merge.add_argument("--cache-dir", default=str(DEFAULT_CACHE_DIR),
                             help="destination result cache "
                                  "(default: benchmarks/results/cache)")
    add_axis_overrides(shard_merge)

    report = sub.add_parser(
        "report",
        help="aggregate, normalize, render and diff cached results "
             "without simulating anything")
    report_sub = report.add_subparsers(dest="report_command", required=True)

    def add_report_cache_dir(command: argparse.ArgumentParser) -> None:
        command.add_argument("--cache-dir", default=str(DEFAULT_CACHE_DIR),
                             help="result cache root "
                                  "(default: benchmarks/results/cache)")

    report_sweep = report_sub.add_parser(
        "sweep",
        help="aggregate a sweep's (or fuzz campaign's) cached cells into "
             "mix tables with speedup-vs-baseline columns and geomean rows")
    report_sweep.add_argument("name", nargs="?", default="ci-smoke",
                              help="registered sweep or campaign name "
                                   "(default: ci-smoke)")
    add_axis_overrides(report_sweep)
    add_report_cache_dir(report_sweep)
    report_sweep.add_argument("--baseline", default=None, metavar="PROTOCOL",
                              help="variant normalized columns divide "
                                   "against (default: the spec's declared "
                                   "baseline)")
    report_sweep.add_argument("--no-normalize", action="store_true",
                              help="omit speedup columns and geomean rows")
    report_sweep.add_argument("--per-cell", action="store_true",
                              help="one row per cached cell instead of "
                                   "aggregating over the workload mix")
    report_sweep.add_argument("--figure", action="store_true",
                              help="append figure-style per-workload series "
                                   "tables")
    report_sweep.add_argument("--format",
                              choices=["terminal", "csv", "json"],
                              default="terminal",
                              help="table output format (default: terminal)")
    report_sweep.add_argument("--html", default=None, metavar="PATH",
                              help="also write a self-contained HTML "
                                   "dashboard for this spec to PATH")
    report_sweep.add_argument("--out", default=None, metavar="PATH",
                              help="write the table to PATH instead of "
                                   "stdout")

    report_cache = report_sub.add_parser(
        "cache",
        help="tabulate every cached cell matching a filter, one table per "
             "cell kind (declared report fields as columns)")
    add_report_cache_dir(report_cache)
    report_cache.add_argument("--kind", default=None,
                              help="only cells of this cell kind")
    report_cache.add_argument("--protocol", default=None,
                              help="only cells of this protocol "
                                   "configuration")
    report_cache.add_argument("--workload", default=None,
                              help="only cells of this workload")
    report_cache.add_argument("--format",
                              choices=["terminal", "csv", "json"],
                              default="terminal",
                              help="table output format (default: terminal)")

    report_dash = report_sub.add_parser(
        "dash",
        help="render a static self-contained HTML dashboard over the cache "
             "(one section per sweep)")
    add_report_cache_dir(report_dash)
    report_dash.add_argument("--out", "-o", required=True, metavar="PATH",
                             help="output HTML file")
    report_dash.add_argument("--sweeps", default=None,
                             help="comma-separated sweep/campaign names "
                                  "(default: every registered sweep with "
                                  "cached cells)")
    report_dash.add_argument("--title", default="repro report dashboard",
                             help="dashboard page title")

    report_diff = report_sub.add_parser(
        "diff",
        help="compare two cache snapshots cell-by-cell and classify "
             "added/removed/changed/invalid entries")
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

    storage = sub.add_parser("storage", help="print the Figure 2 storage model")
    storage.add_argument("--cores", type=_positive_int_list,
                         help="comma-separated core counts")

    litmus = sub.add_parser("litmus", help="run litmus tests against x86-TSO")
    litmus.add_argument("--protocol", default="TSO-CC-4-12-3")
    litmus.add_argument("--iterations", type=_positive_int, default=10)
    litmus.add_argument("--tests", help="comma-separated litmus test names")
    litmus.add_argument("--random", type=int, default=0, metavar="N",
                        help="also run N diy-style generated tests")
    litmus.add_argument("--seed", type=int, default=0,
                        help="first generator seed for --random (default 0)")

    fuzz = sub.add_parser(
        "fuzz",
        help="differential conformance fuzzing: seeded litmus campaigns "
             "as cached, shardable matrix cells")
    fuzz_sub = fuzz.add_subparsers(dest="fuzz_command", required=True)

    def add_campaign_overrides(command: argparse.ArgumentParser) -> None:
        command.add_argument("name", nargs="?", default="fuzz-smoke",
                             help="registered campaign name (default: "
                                  "fuzz-smoke; see 'repro fuzz list')")
        command.add_argument("--protocols",
                             help="override: comma-separated protocol names")
        command.add_argument("--seeds", type=int, default=None,
                             help="override: number of seeds per shape point")
        command.add_argument("--seed-start", type=int, default=None,
                             help="override: first seed of the range")

    fuzz_sub.add_parser("list", help="list registered campaigns")

    fuzz_cells = fuzz_sub.add_parser(
        "cells", help="print a campaign's cell expansion without running")
    add_campaign_overrides(fuzz_cells)

    fuzz_run = fuzz_sub.add_parser(
        "run",
        help="run a campaign through the cached, shardable matrix "
             "(exit 1 on any forbidden outcome)")
    add_campaign_overrides(fuzz_run)
    add_executor_flags(fuzz_run)
    add_shard_flags(fuzz_run)

    def add_cell_coordinates(command: argparse.ArgumentParser) -> None:
        command.add_argument("--seed", type=int, required=True,
                             help="generator seed of the cell")
        command.add_argument("--protocol", default="TSO-CC-4-12-3",
                             help="protocol configuration name")
        command.add_argument("--threads", type=int, default=None,
                             help="generator thread count (default: the "
                                  "campaign's first shape point)")
        command.add_argument("--ops", type=int, default=None,
                             help="generator ops per thread")
        command.add_argument("--vars", type=int, default=None,
                             help="generator shared-variable count")
        command.add_argument("--fence", type=int, default=None,
                             help="generator fence probability (permille)")

    fuzz_replay = fuzz_sub.add_parser(
        "replay",
        help="re-run one campaign cell outside the cache and print every "
             "observed outcome")
    add_campaign_overrides(fuzz_replay)
    add_cell_coordinates(fuzz_replay)

    fuzz_shrink = fuzz_sub.add_parser(
        "shrink",
        help="minimize a violating cell's test by op/thread deletion "
             "while the violation reproduces")
    add_campaign_overrides(fuzz_shrink)
    add_cell_coordinates(fuzz_shrink)

    fuzz_merge = fuzz_sub.add_parser(
        "merge",
        help="merge shard result directories and verify campaign coverage")
    add_campaign_overrides(fuzz_merge)
    fuzz_merge.add_argument("--from", dest="sources", action="append",
                            required=True, metavar="DIR",
                            help="shard result directory (repeatable)")
    fuzz_merge.add_argument("--cache-dir", default=str(DEFAULT_CACHE_DIR),
                            help="destination result cache "
                                 "(default: benchmarks/results/cache)")

    cache = sub.add_parser(
        "cache",
        help="summarize and garbage-collect the result cache by write age")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)

    def add_cache_dir(command: argparse.ArgumentParser) -> None:
        command.add_argument("--cache-dir", default=str(DEFAULT_CACHE_DIR),
                             help="result cache root "
                                  "(default: benchmarks/results/cache)")

    cache_stats = cache_sub.add_parser(
        "stats",
        help="per-kind entry/byte totals and write ages from a tree scan")
    add_cache_dir(cache_stats)

    cache_gc = cache_sub.add_parser(
        "gc",
        help="evict the oldest-written entries first "
             "(--max-bytes/--max-age/--kind) and reap orphaned tmp files")
    add_cache_dir(cache_gc)
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

    trace = sub.add_parser(
        "trace",
        help="capture, replay and inspect instruction-stream traces")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    def add_trace_dir(command: argparse.ArgumentParser) -> None:
        command.add_argument("--trace-dir", default=None,
                             help="trace directory (default: REPRO_TRACE_DIR "
                                  "or benchmarks/traces)")

    trace_capture = trace_sub.add_parser(
        "capture",
        help="run a workload with the instruction-stream observer and save "
             "the trace (verified by replay unless --no-verify)")
    trace_capture.add_argument("workload", metavar="WORKLOAD",
                               help="benchmark or generator name to capture")
    trace_capture.add_argument("--protocol", default="MESI",
                               help="protocol configuration of the capture "
                                    "run (default: MESI)")
    trace_capture.add_argument("--cores", type=int, default=8)
    trace_capture.add_argument("--scale", type=_positive_float, default=0.35)
    trace_capture.add_argument("--max-cycles", type=_positive_int,
                               default=200_000_000)
    trace_capture.add_argument("-o", "--output", default=None, metavar="STEM",
                               help="file stem (default: derived from the "
                                    "workload name)")
    trace_capture.add_argument("--description", default="",
                               help="free-form note stored in the header")
    trace_capture.add_argument("--no-verify", action="store_true",
                               help="skip the replay verification pass")
    add_trace_dir(trace_capture)

    trace_replay = trace_sub.add_parser(
        "replay",
        help="replay a saved trace directly (no cache) under one or more "
             "protocols")
    trace_replay.add_argument("trace", metavar="TRACE",
                              help="trace stem or trace:<stem>[@digest]")
    trace_replay.add_argument("--protocol", action="append",
                              help="protocol configuration (repeatable; "
                                   "default: MESI and TSO-CC-4-12-3)")
    trace_replay.add_argument("--max-cycles", type=_positive_int,
                              default=200_000_000)
    add_trace_dir(trace_replay)

    trace_ls = trace_sub.add_parser("ls", help="list saved traces")
    add_trace_dir(trace_ls)

    trace_info = trace_sub.add_parser(
        "info", help="show one trace's header, op mix and canonical name")
    trace_info.add_argument("trace", metavar="TRACE",
                            help="trace stem or trace:<stem>[@digest]")
    add_trace_dir(trace_info)

    suites = sub.add_parser(
        "suites",
        help="list registered workload suites, or show one suite's members")
    suites.add_argument("name", nargs="?", default=None,
                        help="suite name (with or without the suite: prefix)")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "protocols": _cmd_protocols,
        "run": _cmd_run,
        "figure": _cmd_figure,
        "sweep": _cmd_sweep,
        "shard": _cmd_shard,
        "report": _cmd_report,
        "storage": _cmd_storage,
        "litmus": _cmd_litmus,
        "fuzz": _cmd_fuzz,
        "cache": _cmd_cache,
        "trace": _cmd_trace,
        "suites": _cmd_suites,
    }
    try:
        code = handlers[args.command](args)
        # Flush inside the try, so a reader that left early is handled
        # here and not by the interpreter's final flush.
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout's reader closed the pipe (``repro ... | head``).  Point
        # stdout at the null device so the final flush cannot raise again,
        # and exit 1 as Python does on EPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
