#!/usr/bin/env python3
"""Compare every protocol configuration of the paper on a few benchmarks.

Runs a subset of the Table 3 benchmark stand-ins across all seven protocol
configurations (MESI, CC-shared-to-L2, TSO-CC-4-basic/noreset/12-3/12-0/9-3)
and prints execution time and network traffic normalized to MESI — a small
interactive version of Figures 3 and 4.

Independent (workload, protocol) simulations are fanned out over worker
processes and previously simulated cells are reused from the on-disk result
cache in ``benchmarks/results/cache/`` (see EXPERIMENTS.md).

Run with::

    python examples/protocol_comparison.py                  # default subset
    python examples/protocol_comparison.py intruder radix fft
    python examples/protocol_comparison.py --jobs 8 --no-cache fft radix
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.analysis import ResultCache
from repro.analysis.parallel import DEFAULT_CACHE_DIR
from repro.analysis.sweeps import figure_spec


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workloads", nargs="*",
                        default=["fft", "lu_noncontig", "radix", "intruder"])
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default: REPRO_JOBS or CPU count)")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore and do not update the on-disk result cache")
    args = parser.parse_args()

    spec = figure_spec(workloads=args.workloads, cores=8, scale=0.4)
    result = spec.run(jobs=args.jobs,
                      cache=ResultCache(DEFAULT_CACHE_DIR,
                                        enabled=not args.no_cache))
    report = result.report()
    print(report.figure_table(3))
    print()
    print(report.figure_table(4))
    executed = result.simulations_run
    total = spec.num_cells
    print(f"\n[{executed} of {total} cells simulated, "
          f"{total - executed} served from cache]")

if __name__ == "__main__":
    main()
