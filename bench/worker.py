"""Run one workload in this fresh process and print its result as JSON.

Invoked by ``run.py``; not a user entry point.  ``--setup`` builds every
cell's inputs and exits (``run.py`` times the whole process).  Otherwise:
an untimed warmup pass that also counts the simulated work, timed passes
until ``--seconds`` have passed (at least :data:`MIN_TIMED_PASSES`), and,
with ``--trace 1``, one pass under cProfile.  Every pass checks every
cell's payload.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

import cells
import layers
import measure

BENCH_DIR = Path(__file__).resolve().parent
DIGESTS_FILE = BENCH_DIR / "digests.json"
#: Scratch space for the warm-cache result cache, inside the checkout.
WORK_DIR = BENCH_DIR.parent / ".bench_work"

#: Timed passes a run makes however short ``--seconds`` is.
MIN_TIMED_PASSES = 4
#: Errors quoted in the result (the count is exact).
MAX_ERRORS = 10


class Checker:
    """Checks payloads against the pinned digests and across passes."""

    def __init__(self, pinned: Dict[str, str], require_pinned: bool) -> None:
        self.pinned = pinned
        self.require_pinned = require_pinned
        self.seen: Dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def record(self, cell, data, error: str = "") -> None:
        self.attempted += 1
        if not error:
            error = cells.check(cell, data)
        if not error:
            digest = cells.digest(data)
            first = self.seen.setdefault(cell.id, digest)
            pinned = self.pinned.get(cell.id)
            if digest != first:
                error = f"payload changed between passes ({first} -> {digest})"
            elif pinned is not None and digest != pinned:
                error = f"digest {digest} != pinned {pinned}"
            elif pinned is None and self.require_pinned:
                error = "no pinned digest (run with --update-digests)"
        if error:
            self.failed += 1
            if len(self.errors) < MAX_ERRORS:
                self.errors.append(f"{cell.id}: {error}")


def run_pass(prepared, checker: Checker, profiler=None) -> List[float]:
    """Run every cell once; return the per-cell seconds."""
    gc.collect()
    _clear_outcome_memo()
    latencies = []
    for cell, work in prepared:
        error, result = "", None
        if profiler is not None:
            profiler.enable()
        start = time.perf_counter()
        try:
            result = work()
        except Exception as exc:  # a failing cell is a result, not a crash
            error = f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - start)
        if profiler is not None:
            profiler.disable()
        checker.record(cell, None if error else cells.payload(cell, result),
                       error)
    return latencies


def _clear_outcome_memo() -> None:
    """Empty the x86-TSO outcome memo, so every pass pays the reference
    model as a fresh campaign process does."""
    from repro.consistency import tso_model

    clear = getattr(tso_model, "clear_outcome_cache", None)
    if clear is not None:
        clear()


# ------------------------------------------------------------------ counting

COUNT_FIELDS = ("runs", "events", "ops", "cycles", "wb_full_stalls",
                "l1_accesses", "l1_misses", "l2_mem_reads", "flits",
                "messages", "self_invals")


def add_counts(totals: Dict[str, int], stats: Dict[str, object]) -> None:
    """Accumulate one run's ``SystemStats.to_dict()`` payload."""
    l1 = stats.get("l1", [])
    network = stats.get("network", {})
    totals["runs"] += 1
    totals["events"] += stats.get("events", 0)
    totals["cycles"] += stats.get("cycles", 0)
    totals["ops"] += sum(core.get("memory_ops", 0) for core in stats["cores"])
    totals["wb_full_stalls"] += sum(core.get("wb_full_stalls", 0)
                                    for core in stats["cores"])
    for name in ("read_hits", "write_hits", "read_misses", "write_misses"):
        count = sum(sum(entry.get(name, {}).values()) for entry in l1)
        totals["l1_accesses"] += count
        if name.endswith("misses"):
            totals["l1_misses"] += count
    totals["self_invals"] += sum(sum(entry.get("self_inval_events", {}).values())
                                 for entry in l1)
    totals["l2_mem_reads"] += sum(entry.get("memory_reads", 0)
                                  for entry in stats.get("l2", []))
    totals["flits"] += network.get("flits", 0)
    totals["messages"] += network.get("messages", 0)


@contextlib.contextmanager
def counting(totals: Dict[str, int]):
    """Count the simulated work of every ``System.run`` in the block --
    matrix cells, fuzz iterations and litmus iterations alike."""
    from repro.sim.system import System

    original = System.run

    def run(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        add_counts(totals, result.stats.to_dict())
        return result

    System.run = run
    try:
        yield totals
    finally:
        System.run = original


def count_metrics(counts: Dict[str, int], pass_s: float) -> Dict[str, float]:
    """The exact simulated counts of one pass, as per-layer metrics."""
    ops = max(1, counts["ops"])
    return {
        "sim.engine.events_per_s": counts["events"] / pass_s,
        "sim.engine.events_per_op": counts["events"] / ops,
        "sim.system.cycles_total": counts["cycles"],
        "cpu.wb_full_stalls_per_kop": counts["wb_full_stalls"] * 1e3 / ops,
        "memsys.l1_miss_rate": counts["l1_misses"] / max(1, counts["l1_accesses"]),
        "memsys.l2_mem_reads_per_kop": counts["l2_mem_reads"] * 1e3 / ops,
        "interconnect.flits_per_op": counts["flits"] / ops,
        "interconnect.msgs_per_op": counts["messages"] / ops,
        "protocols.self_invals_per_kop": counts["self_invals"] * 1e3 / ops,
    }


# ------------------------------------------------------------------ the run

def measure_workload(workload: str, seed: int, seconds: float, trace: bool,
                     smoke: bool, record: bool, src: Path) -> Dict[str, object]:
    """Run ``workload`` and return the result dict ``run.py`` reads."""
    todo = cells.cells(workload, seed)
    if smoke:
        todo = _smoke_cells(todo)
    pinned = json.loads(DIGESTS_FILE.read_text(encoding="utf-8"))
    use_pinned = seed == pinned["seed"] and not record
    checker = Checker(pinned["digests"] if use_pinned else {},
                      require_pinned=use_pinned)
    counts = dict.fromkeys(COUNT_FIELDS, 0)
    cache_root: Optional[Path] = None
    try:
        cache = None
        if workload == "warm-cache":
            WORK_DIR.mkdir(exist_ok=True)
            cache_root = Path(tempfile.mkdtemp(prefix="warm-", dir=WORK_DIR))
            cache = _prefill(todo, cache_root, counts)
        prepared = [(cell, cells.prepare(cell, cache)) for cell in todo]

        if cache is None:
            with counting(counts):
                run_pass(prepared, checker)
        else:
            run_pass(prepared, checker)

        per_cell: List[List[float]] = [[] for _ in todo]
        pass_seconds: List[float] = []
        started = time.perf_counter()
        min_passes = 1 if smoke else MIN_TIMED_PASSES
        while (len(pass_seconds) < min_passes
               or time.perf_counter() - started < seconds):
            cell_s = run_pass(prepared, checker)
            for latencies, latency in zip(per_cell, cell_s):
                latencies.append(latency)
            pass_seconds.append(sum(cell_s))

        median_s = statistics.median(pass_seconds)
        n = len(todo)
        latencies = measure.latency_samples(per_cell)
        tail_p = measure.tail_percentile(len(latencies))
        metrics: Dict[str, float] = {
            "cells_per_s": statistics.median(n / s for s in pass_seconds),
            "sim_kops_per_s": statistics.median(counts["ops"] / (s * 1e3)
                                                for s in pass_seconds),
            "cell_p50_ms": measure.percentile(latencies, 50) * 1e3,
            "cell_tail_ms": measure.percentile(latencies, tail_p) * 1e3,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics.update(count_metrics(counts, median_s))
        detail: Dict[str, float] = {}
        if trace:
            import cProfile
            import pstats

            profiler = cProfile.Profile()
            traced_s = sum(run_pass(prepared, checker, profiler))
            fold = layers.Fold(pstats.Stats(profiler).stats, src / "repro")
            reported, detail = layers.layer_metrics(
                fold, counts["events"], traced_s, median_s)
            metrics.update(reported)
            detail["trace.total_s"] = fold.total_s
            detail["trace.unattributed_s"] = fold.unattributed_s
    finally:
        if cache_root is not None:
            shutil.rmtree(cache_root, ignore_errors=True)

    return {
        "workload": workload,
        "seed": seed,
        "cells": len(todo),
        "attempted": checker.attempted,
        "failed": checker.failed,
        "errors": checker.errors,
        "metrics": metrics,
        "detail": detail,
        "samples": {"pass_s": pass_seconds},
        "tail_percentile": tail_p,
        "tail_samples": len(latencies),
        "counts": counts,
        "digests": checker.seen if record else {},
    }


def _smoke_cells(todo):
    """One cell per workload; for warm-cache, one per filled workload."""
    kept, kinds = [], set()
    for cell in todo:
        group = (cell.kind, cell.cores, cell.scale)
        if group not in kinds:
            kinds.add(group)
            kept.append(cell)
    return kept[:1] if not todo[0].lookup else kept


def _prefill(todo, root: Path, counts: Dict[str, int]):
    """Fill a fresh result cache with every cell ``todo`` will look up,
    one ``MatrixExecutor`` per platform, counting the simulated work.

    The cache keeps no metadata index (``track=False``).  The index is
    never consulted on a lookup, but keeping it rewrites the whole index
    file every 256 hits, which tied the workload's timing to disk
    writeback: in interleaved runs cells/s spread 23% with the index and
    7% without.
    """
    from repro.analysis.parallel import MatrixExecutor, ResultCache

    cache = ResultCache(root=root, track=False)
    groups: Dict[tuple, list] = {}
    for cell in todo:
        groups.setdefault((cell.kind, cell.cores, cell.scale, cell.seed,
                           cell.max_cycles), []).append(cell)
    with counting(counts):
        for group in groups.values():
            first = group[0]
            executor = MatrixExecutor(first.config(), scale=first.scale,
                                      max_cycles=first.max_cycles, jobs=1,
                                      cache=cache, backend="local",
                                      kind=first.kind)
            executor.run_cells([(cell.protocol, cell.workload)
                                for cell in group])
    return cache


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    parser.add_argument("--setup", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src))

    if args.setup:
        import repro.cli  # noqa: F401  (what every user entry point pays)

        cells.set_up(args.workload, args.seed)
        return 0
    try:
        cells.cells(args.workload, args.seed)
    except (ImportError, AttributeError, TypeError) as exc:
        print(json.dumps({"skipped": f"{type(exc).__name__}: {exc}"}))
        return 0
    result = measure_workload(args.workload, args.seed, args.seconds,
                              args.trace, args.smoke, args.record_digests,
                              args.src)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
