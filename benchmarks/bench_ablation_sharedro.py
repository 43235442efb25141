"""Ablation: the shared read-only optimization (§3.4).

The paper reports that the SharedRO optimization improves average execution
time by >35% and traffic by >75% for the TSO-CC family, which is why every
evaluated configuration includes it.  This ablation disables it on the best
realistic configuration and measures the damage on read-mostly workloads.

A thin declaration over the registered ``shared-ro``
:class:`~repro.analysis.sweeps.SweepSpec`.  One deliberate scope change
from the pre-sweep version: the distilled ``read_mostly`` synthetic
microbenchmark is no longer summed in — sweep axes expand Table 3 workload
names only — so the totals in ``ablation_sharedro.txt`` cover exactly the
three named read-mostly stand-ins.  The paper-shaped assertions hold on
that mix alone.
"""

from bench_utils import write_result


def test_ablation_shared_ro(benchmark, results_dir, run_sweep):
    table = benchmark.pedantic(lambda: run_sweep("shared-ro"),
                               rounds=1, iterations=1)
    by = {row["protocol"]: row for row in table.rows}
    with_sro = by["TSO-CC-4-12-3"]
    no_sro = by["TSO-CC-4-12-3-noSRO"]
    report = (
        table.render() + "\n"
        f"traffic increase without SRO: {no_sro['flits'] / with_sro['flits']:.2f}x\n"
        f"slowdown without SRO:         {no_sro['cycles'] / with_sro['cycles']:.2f}x"
    )
    write_result(results_dir, "ablation_sharedro.txt", report)
    # The optimization must help on read-mostly workloads (paper: strongly),
    # and disabling it must eliminate SharedRO hits entirely.
    assert no_sro["sro_read_hits"] == 0 and with_sro["sro_read_hits"] > 0
    assert no_sro["flits"] > with_sro["flits"]
    assert no_sro["cycles"] >= with_sro["cycles"] * 0.98
