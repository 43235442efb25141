"""Benchmark of the TSO-CC simulator: end-to-end host time and per-layer cost.

    python3 bench/run.py [--workload W[,W...]] [--seed S] [--seconds T]
                         [--trace 0|1] [--src PATH] [--out FILE]
                         [--smoke] [--update-digests]

Each workload runs in its own fresh subprocess, single-threaded.  With
``--trace 0`` a run reports the end-to-end metrics: set-up time (median of
fresh processes that import ``repro.cli`` and build every cell's inputs),
then cells/s, simulated kops/s, per-cell p50 and tail latency and peak RSS
over timed passes lasting ``--seconds``.  With ``--trace 1`` it reports
the per-layer metrics of one extra pass under cProfile.  Without
``--trace`` it reports both.  Every pass checks every cell's payload (see
README.md); the run exits 1 when any check failed and 2 when it could not
run at all.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from cells import WORKLOADS  # noqa: E402
from layers import LAYERS, SPANS  # noqa: E402

REPO_ROOT = BENCH_DIR.parent
DEFAULT_SECONDS = 15.0
#: Fresh processes timed for ``setup_s``.
SETUP_LAUNCHES = 7
#: Wall-clock cap of one workload's subprocesses, in seconds.
TIME_LIMIT = 170.0

#: End-to-end metrics: name -> (unit, better).
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "cells_per_s": ("cells/s", "higher"),
    "sim_kops_per_s": ("kops/s", "higher"),
    "cell_p50_ms": ("ms", "lower"),
    "cell_tail_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Per-layer metrics: name -> unit.
PER_LAYER: Dict[str, str] = {}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_share"] = "share"
    PER_LAYER[f"{_layer}.calls_per_event"] = "calls/event"
for _span in SPANS:
    PER_LAYER[f"span.{_span}.share"] = "share"
PER_LAYER.update({
    "trace.ns_per_event": "ns/event",
    "trace.overhead_x": "x",
    "trace.attributed_share": "share",
    "sim.engine.events_per_s": "1/s",
    "sim.engine.events_per_op": "events/op",
    "sim.system.cycles_total": "cycles",
    "cpu.wb_full_stalls_per_kop": "1/kop",
    "memsys.l1_miss_rate": "share",
    "memsys.l2_mem_reads_per_kop": "1/kop",
    "interconnect.flits_per_op": "flits/op",
    "interconnect.msgs_per_op": "msgs/op",
    "protocols.self_invals_per_kop": "1/kop",
})


class RunError(RuntimeError):
    """The benchmark could not run (as opposed to a cell failing)."""


def _subprocess(args: List[str], src: Path, timeout: float,
                capture: bool) -> Tuple[int, str]:
    """Run ``worker.py`` with ``args``, wait for it to end and return its
    exit code and stdout.

    The wait blocks in ``waitpid`` and a timer kills an overrunning child:
    ``subprocess.run(timeout=...)`` polls with sleeps of up to 50 ms,
    which would quantize the set-up times measured around this call.
    """
    command = [sys.executable, str(BENCH_DIR / "worker.py"),
               "--src", str(src)] + args
    env = dict(os.environ, PYTHONPATH=str(src))
    with subprocess.Popen(command, env=env, text=True,
                          stdout=subprocess.PIPE if capture
                          else subprocess.DEVNULL) as child:
        timer = threading.Timer(max(1.0, timeout), child.kill)
        timer.start()
        try:
            stdout, _ = child.communicate()
        finally:
            timer.cancel()
    if child.returncode == -signal.SIGKILL:
        raise RunError(f"{' '.join(args)}: no result within "
                       f"{timeout:.0f} s")
    return child.returncode, stdout or ""


def time_setup(workload: str, seed: int, src: Path, launches: int,
               deadline: float) -> List[float]:
    """Wall seconds of ``launches`` fresh set-up processes."""
    samples = []
    for _ in range(launches):
        start = time.perf_counter()
        code, _ = _subprocess(["--setup", "--workload", workload,
                               "--seed", str(seed)], src,
                              deadline - time.monotonic(), capture=False)
        samples.append(time.perf_counter() - start)
        if code != 0:
            raise RunError(f"set-up of {workload} exited {code}")
    return samples


def run_workload(workload: str, seed: int, seconds: float,
                 trace: Optional[int], src: Path, smoke: bool,
                 record: bool) -> Optional[Dict[str, object]]:
    """Measure one workload; ``None`` when the source tree lacks its APIs."""
    deadline = time.monotonic() + TIME_LIMIT
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    if trace != 0:
        args.append("--trace")
    if smoke:
        args.append("--smoke")
    if record:
        args.append("--record-digests")
    code, stdout = _subprocess(args, src, deadline - time.monotonic(),
                               capture=True)
    lines = stdout.strip().splitlines()
    if code != 0 or not lines:
        raise RunError(f"{workload} worker exited {code}")
    result = json.loads(lines[-1])
    if "skipped" in result:
        print(f"skipping {workload}: this source tree lacks its API "
              f"({result['skipped']})", file=sys.stderr)
        return None
    if trace != 1:
        setup = time_setup(workload, seed, src, 1 if smoke else SETUP_LAUNCHES,
                           deadline)
        result["metrics"]["setup_s"] = statistics.median(setup)
        result["samples"]["setup_s"] = setup
    return result


def reported(result: Dict[str, object], trace: Optional[int]) -> Dict[str, dict]:
    """The metrics a run reports, each as ``{"value", "unit"}``."""
    names: Dict[str, str] = {}
    if trace != 1:
        names.update((name, unit) for name, (unit, _) in END_TO_END.items())
    if trace != 0:
        names.update(PER_LAYER)
    metrics = result["metrics"]
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in names.items()}


def update_digests(results: List[Dict[str, object]]) -> int:
    """Merge the recorded seed-1 digests into ``digests.json``."""
    path = BENCH_DIR / "digests.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    for result in results:
        data["digests"].update(result["digests"])
    data["digests"] = dict(sorted(data["digests"].items()))
    path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return len(data["digests"])


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", "--workloads", default=",".join(WORKLOADS),
                        help="comma-separated workloads (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="length of the timed passes of one workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only; 1: per-layer only")
    parser.add_argument("--src", type=Path, default=REPO_ROOT / "src",
                        help="source tree to import repro from")
    parser.add_argument("--out", type=Path, help="write the full report here")
    parser.add_argument("--smoke", action="store_true",
                        help="one cell per workload, one timed pass")
    parser.add_argument("--update-digests", action="store_true",
                        help="rewrite the pinned seed-1 payload digests")
    args = parser.parse_args(argv)
    args.workloads = [name for name in args.workload.split(",") if name]
    unknown = [name for name in args.workloads if name not in WORKLOADS]
    if unknown or not args.workloads:
        parser.error(f"unknown workload(s) {', '.join(unknown)}; "
                     f"choose from {', '.join(WORKLOADS)}")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.update_digests and args.seed != 1:
        parser.error("--update-digests pins seed 1 only")
    if args.smoke:
        args.seconds = 0.0
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    src = args.src.resolve()
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}", file=sys.stderr)
        return 2
    results: List[Dict[str, object]] = []
    try:
        for workload in args.workloads:
            print(f"== {workload} (seed {args.seed})", file=sys.stderr)
            result = run_workload(workload, args.seed, args.seconds,
                                  args.trace, src, args.smoke,
                                  args.update_digests)
            if result is not None:
                results.append(result)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not results:
        print("error: no workload ran", file=sys.stderr)
        return 2

    metrics: Dict[str, dict] = {}
    for result in results:
        prefix = f"{result['workload']}/" if len(results) > 1 else ""
        for name, metric in reported(result, args.trace).items():
            metrics[prefix + name] = metric
            print(f"{result['workload']:14s} {name:38s} "
                  f"{metric['value']:>16.6g} {metric['unit']}")
        print(f"{result['workload']:14s} {'cells checked':38s} "
              f"{result['attempted']:>16d} ({result['failed']} failed; tail = "
              f"p{result['tail_percentile']:g} of {result['tail_samples']})")
        for error in result["errors"]:
            print(f"  FAILED {error}")
    if args.update_digests:
        print(f"pinned {update_digests(results)} digests", file=sys.stderr)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "src": str(src), "python": platform.python_version(),
            "machine": platform.machine(), "results": results,
        }, indent=1) + "\n", encoding="utf-8")
    attempted = sum(result["attempted"] for result in results)
    failed = sum(result["failed"] for result in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
