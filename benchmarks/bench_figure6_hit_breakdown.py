"""Figure 6: L1 cache hits and misses, hits split by Shared / SharedRO /
private state.

The key visual of the paper's Figure 6 is that under the TSO-CC family a
substantial fraction of read hits comes from SharedRO lines (the §3.4
optimization), while CC-shared-to-L2 converts shared read hits into misses.
"""

from bench_utils import write_result


def test_figure6_hit_breakdown(benchmark, bench_report, results_dir):
    series = benchmark.pedantic(bench_report.figure, args=(6,),
                                rounds=1, iterations=1)
    write_result(results_dir, "figure6_hit_breakdown.txt",
                 bench_report.figure_table(6))

    # Every (protocol, workload) column must roughly sum to 100% of accesses.
    for protocol in bench_report.protocols:
        for workload in bench_report.workloads:
            components = [
                series.get(f"{protocol}:{part}", {}).get(workload, 0.0)
                for part in ("read_miss", "write_miss", "read_hit_shared",
                             "read_hit_shared_ro", "read_hit_private",
                             "write_hit_private")
            ]
            assert abs(sum(components) - 100.0) < 1.0, (protocol, workload)
