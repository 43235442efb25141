"""Ablation: timestamp width and write-group size (§3.3, §3.5, §4.2).

Sweeps the (Bts, Bwrite-group) space around the paper's configurations
(12-3, 12-0, 9-3, plus unbounded) on a write-intensive workload mix and
records self-invalidations and timestamp resets — the quantities Figures 7
and 9 attribute the differences between those configurations to.

A thin declaration over the sweep subsystem: the axis lives in the
registered ``timestamp-bits`` :class:`~repro.analysis.sweeps.SweepSpec`
(variants from ``repro.protocols.tsocc.variants``); this file only runs it
and asserts the paper-shaped relationships.
"""

from bench_utils import write_result


def test_ablation_timestamp_bits(benchmark, results_dir, run_sweep):
    table = benchmark.pedantic(lambda: run_sweep("timestamp-bits"),
                               rounds=1, iterations=1)
    write_result(results_dir, "ablation_timestamp_bits.txt", table.render())
    by = {row["protocol"]: row for row in table.rows}
    # Unbounded timestamps never reset; narrow timestamps reset more often
    # than wide ones (8x in the paper for 9 vs 12 bits at equal grouping).
    assert by["TSO-CC-4-noreset"]["ts_resets"] == 0
    assert by["TSO-CC-4-6-3"]["ts_resets"] >= by["TSO-CC-4-12-3"]["ts_resets"]
    # More resets / coarser groups must not reduce self-invalidations below
    # the unbounded ideal.
    assert by["TSO-CC-4-12-3"]["self_invalidations"] >= \
        by["TSO-CC-4-noreset"]["self_invalidations"] * 0.9
