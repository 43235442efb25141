"""Ablation: the per-line access counter width ``Bmaxacc`` (§4.2).

The paper picked 4 bits (16 consecutive Shared hits) as the sweet spot.
Larger counters do not consistently help; 0 bits degenerates into the
CC-shared-to-L2 strawman.  This ablation sweeps the counter width on a
producer-consumer-heavy workload mix and records execution time and traffic.

A thin declaration over the registered ``access-counter``
:class:`~repro.analysis.sweeps.SweepSpec`.
"""

from bench_utils import write_result


def test_ablation_access_counter(benchmark, results_dir, run_sweep):
    table = benchmark.pedantic(lambda: run_sweep("access-counter"),
                               rounds=1, iterations=1)
    write_result(results_dir, "ablation_access_counter.txt", table.render())
    by = {row["protocol"]: row for row in table.rows}
    # Allowing bounded Shared hits must reduce traffic versus no hits at all
    # (the paper's CC-shared-to-L2 versus TSO-CC-4-basic comparison).
    assert by["TSO-CC-4-12-3"]["flits"] < by["TSO-CC-0-12-3"]["flits"]
