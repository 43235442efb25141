"""Ablation: the Shared -> SharedRO decay threshold (§3.4, §4.2).

The paper fixes the decay threshold at 256 writes.  This ablation sweeps the
threshold on read-mostly workloads and records how many lines decay and how
the SharedRO hit fraction responds.

A thin declaration over the registered ``decay``
:class:`~repro.analysis.sweeps.SweepSpec`.
"""

from bench_utils import write_result


def test_ablation_decay_threshold(benchmark, results_dir, run_sweep):
    table = benchmark.pedantic(lambda: run_sweep("decay"),
                               rounds=1, iterations=1)
    write_result(results_dir, "ablation_decay.txt", table.render())
    by = {row["protocol"]: row for row in table.rows}
    # A more aggressive threshold can only decay at least as many lines.
    assert by["TSO-CC-4-12-3-decay32"]["shared_decays"] >= \
        by["TSO-CC-4-12-3"]["shared_decays"]
    # Disabling decay decays nothing.
    assert by["TSO-CC-4-12-3-nodecay"]["shared_decays"] == 0
