"""Figure 7: percentage of L1 data responses that trigger self-invalidation.

Expected shape (paper): the basic protocol self-invalidates on a large
fraction of responses (no timestamps to prove anything); the noreset
configuration cuts that dramatically (-87% in the paper); the realistic
timestamped configurations sit in between, with the invalid-timestamp
category shrinking and the potential-acquire categories remaining.
"""

from bench_utils import write_result


def _total_trigger_rate(series, protocol, workloads):
    causes = ("invalid_ts", "acquire", "acquire_sro")
    total = 0.0
    count = 0
    for workload in workloads:
        value = sum(series.get(f"{protocol}:{cause}", {}).get(workload, 0.0)
                    for cause in causes)
        total += value
        count += 1
    return total / count if count else 0.0


def test_figure7_selfinval_triggers(benchmark, bench_report, results_dir):
    series = benchmark.pedantic(bench_report.figure, args=(7,),
                                rounds=1, iterations=1)
    write_result(results_dir, "figure7_selfinval_triggers.txt",
                 bench_report.figure_table(7))

    protocols = bench_report.protocols
    workloads = bench_report.workloads
    if "TSO-CC-4-basic" in protocols and "TSO-CC-4-noreset" in protocols:
        basic = _total_trigger_rate(series, "TSO-CC-4-basic", workloads)
        noreset = _total_trigger_rate(series, "TSO-CC-4-noreset", workloads)
        # Transitive reduction must substantially reduce self-invalidations.
        assert noreset < basic
    if "TSO-CC-4-12-3" in protocols and "TSO-CC-4-basic" in protocols:
        full = _total_trigger_rate(series, "TSO-CC-4-12-3", workloads)
        basic = _total_trigger_rate(series, "TSO-CC-4-basic", workloads)
        assert full <= basic
