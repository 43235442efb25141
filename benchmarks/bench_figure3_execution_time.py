"""Figure 3: execution time normalized to MESI, per benchmark plus gmean.

Expected shape (paper): CC-shared-to-L2 is the clear loser (average ~14%
slowdown), TSO-CC-4-basic is slightly slower than MESI, and the timestamped
configurations are comparable to MESI on average.
"""

from repro.analysis.report import FIGURE_BASELINE

from bench_utils import write_result


def test_figure3_execution_time(benchmark, bench_report, results_dir):
    series = benchmark.pedantic(bench_report.figure, args=(3,),
                                rounds=1, iterations=1)
    write_result(results_dir, "figure3_execution_time.txt",
                 bench_report.figure_table(3))

    # Shape assertions: the baseline normalizes to exactly 1.0 everywhere,
    # and the best realistic configuration (TSO-CC-4-12-3) is no worse than
    # both the strawman and the basic protocol on average.
    assert all(abs(v - 1.0) < 1e-9 for k, v in series[FIGURE_BASELINE].items()
               if k != "gmean")
    if "TSO-CC-4-12-3" in series and "CC-shared-to-L2" in series:
        best = series["TSO-CC-4-12-3"]["gmean"]
        strawman = series["CC-shared-to-L2"]["gmean"]
        assert best <= strawman * 1.02
    if "TSO-CC-4-12-3" in series and "TSO-CC-4-basic" in series:
        assert series["TSO-CC-4-12-3"]["gmean"] <= \
            series["TSO-CC-4-basic"]["gmean"] * 1.02
