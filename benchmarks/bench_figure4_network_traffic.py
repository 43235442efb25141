"""Figure 4: on-chip network traffic (total flits) normalized to MESI.

Expected shape (paper): CC-shared-to-L2 blows traffic up massively (average
+137%, with multi-x worst cases), TSO-CC-4-basic is clearly above MESI, and
the timestamped configurations are close to MESI.
"""

from bench_utils import write_result


def test_figure4_network_traffic(benchmark, bench_report, results_dir):
    series = benchmark.pedantic(bench_report.figure, args=(4,),
                                rounds=1, iterations=1)
    write_result(results_dir, "figure4_network_traffic.txt",
                 bench_report.figure_table(4))

    if "TSO-CC-4-12-3" in series and "CC-shared-to-L2" in series:
        # The strawman must generate more traffic than the full protocol.
        assert series["CC-shared-to-L2"]["gmean"] > \
            series["TSO-CC-4-12-3"]["gmean"]
    if "TSO-CC-4-12-3" in series and "TSO-CC-4-basic" in series:
        assert series["TSO-CC-4-12-3"]["gmean"] <= \
            series["TSO-CC-4-basic"]["gmean"] * 1.05
