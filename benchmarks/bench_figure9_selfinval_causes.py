"""Figure 9: breakdown of L1 self-invalidation causes.

Splits self-invalidation events into invalid-timestamp, potential acquire
(non-SharedRO), potential acquire (SharedRO) and fence causes.  Without
timestamps everything is an invalid-timestamp event; with them the
potential-acquire categories dominate.
"""

from repro.analysis.report import FIGURE_BASELINE

from bench_utils import write_result


def test_figure9_selfinval_causes(benchmark, bench_report, results_dir):
    series = benchmark.pedantic(bench_report.figure, args=(9,),
                                rounds=1, iterations=1)
    write_result(results_dir, "figure9_selfinval_causes.txt",
                 bench_report.figure_table(9))

    workloads = bench_report.workloads
    # Cause fractions sum to ~100% wherever any self-invalidation occurred.
    protocols = [p for p in bench_report.protocols if p != FIGURE_BASELINE]
    for protocol in protocols:
        for workload in workloads:
            parts = [series.get(f"{protocol}:{cause}", {}).get(workload, 0.0)
                     for cause in ("invalid_ts", "acquire", "acquire_sro", "fence")]
            total = sum(parts)
            assert total == 0.0 or abs(total - 100.0) < 1.0, (protocol, workload, total)
    # Without timestamps, no event can be classified as a potential acquire
    # on a non-SharedRO line.
    if "TSO-CC-4-basic" in protocols:
        for workload in workloads:
            assert series.get("TSO-CC-4-basic:acquire", {}).get(workload, 0.0) == 0.0
