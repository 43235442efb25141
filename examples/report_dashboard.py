#!/usr/bin/env python3
"""Report over a result cache programmatically: speedup tables, an HTML
dashboard and a snapshot drift-diff.

Runs a tiny two-protocol sweep into a temporary cache, then rebuilds its
table purely from the cached cells with :class:`~repro.analysis.report
.SpecReport` (no re-simulation — the report is a pure function of the
cache tree), writes a self-contained HTML dashboard, and diffs the cache
against itself to show the drift-gate contract CI relies on.

Run with::

    python examples/report_dashboard.py [--jobs N] [--out dashboard.html]

See the "Reporting & dashboards" guide in EXPERIMENTS.md and the
``repro report`` CLI for the full surface (cache-wide gathers, kind
filters, ``--fail-on`` gating).
"""

import argparse
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.analysis.parallel import ResultCache
from repro.analysis.report import SpecReport, diff_snapshots, render_dashboard
from repro.analysis.sweeps import SweepSpec


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default: REPRO_JOBS or CPUs)")
    parser.add_argument("--out", default="dashboard.html",
                        help="where to write the HTML dashboard")
    args = parser.parse_args()

    spec = SweepSpec(
        name="example-report",
        description="MESI vs TSO-CC on two kernels",
        protocols=("MESI", "TSO-CC-4-12-3"),
        workloads=("fft", "radix"),
        cores=(2,),
        scales=(0.2,),
        metrics=("cycles", "flits", "messages"),
        baseline="MESI",
    )
    with tempfile.TemporaryDirectory() as tmp:
        cache_dir = Path(tmp) / "cache"
        result = spec.run(jobs=args.jobs, cache=ResultCache(cache_dir))
        print(f"simulated {result.simulations_run} cells\n")

        # The report is rebuilt from the cache alone — same numbers as the
        # live run's result, plus <metric>_speedup columns and a geomean row.
        report = SpecReport.from_cache(spec, cache_dir)
        assert report.complete
        print(report.mix_table().render())
        print()
        print(report.figures(cores=2, scale=0.2))

        Path(args.out).write_text(
            render_dashboard([report], title="example dashboard"),
            encoding="utf-8")
        print(f"\nwrote {args.out}")

        # The CI drift gate in one call: a cache always self-diffs clean.
        diff = diff_snapshots(cache_dir, cache_dir)
        print(diff.describe())
        assert diff.clean


if __name__ == "__main__":
    main()
