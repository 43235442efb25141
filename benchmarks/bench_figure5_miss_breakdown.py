"""Figure 5: detailed breakdown of L1 cache misses by state.

The paper splits L1 misses into read/write misses occurring in Invalid,
Shared and SharedRO states; the strawman and the basic protocol shift a
large fraction of misses into the Shared category (forced re-requests).
"""

from bench_utils import write_result


def test_figure5_miss_breakdown(benchmark, bench_report, results_dir):
    series = benchmark.pedantic(bench_report.figure, args=(5,),
                                rounds=1, iterations=1)
    write_result(results_dir, "figure5_miss_breakdown.txt",
                 bench_report.figure_table(5))

    protocols = bench_report.protocols
    workload = bench_report.workloads[0]
    # Shared-state misses exist only for the TSO-CC family (MESI re-reads
    # shared lines freely), and CC-shared-to-L2 must have at least as many
    # shared read misses as the configurations that allow bounded hits.
    if "MESI" in protocols:
        assert series.get("MESI:read_miss_shared", {}).get(workload, 0.0) == 0.0
    if "CC-shared-to-L2" in protocols and "TSO-CC-4-12-3" in protocols:
        total_strawman = sum(
            series[f"CC-shared-to-L2:read_miss_{cat}"].get(workload, 0.0)
            for cat in ("invalid", "shared", "shared_ro"))
        total_full = sum(
            series[f"TSO-CC-4-12-3:read_miss_{cat}"].get(workload, 0.0)
            for cat in ("invalid", "shared", "shared_ro"))
        assert total_strawman >= total_full * 0.95
