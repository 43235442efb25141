"""Figure 8: RMW (atomic) latencies normalized to MESI.

In the paper, TSO-CC's RMWs to shared lines avoid MESI's invalidation
fan-out, which shows up as lower normalized RMW latency for write-shared
workloads (radix and the STAMP applications).
"""

from repro.analysis.report import FIGURE_BASELINE

from bench_utils import write_result


def test_figure8_rmw_latency(benchmark, bench_report, results_dir):
    series = benchmark.pedantic(bench_report.figure, args=(8,),
                                rounds=1, iterations=1)
    write_result(results_dir, "figure8_rmw_latency.txt",
                 bench_report.figure_table(8))

    assert all(abs(v - 1.0) < 1e-9 for k, v in series[FIGURE_BASELINE].items()
               if k != "gmean")
    # RMW latencies must be finite and positive for every configuration.
    for protocol, per_workload in series.items():
        for workload, value in per_workload.items():
            assert value > 0.0, (protocol, workload)
