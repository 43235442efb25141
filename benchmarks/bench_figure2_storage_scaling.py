"""Figure 2: coherence storage overhead (MB) versus core count.

The paper's headline scalability result: MESI's sharing vector grows
linearly with the core count while TSO-CC's per-line overhead grows
logarithmically, so the storage gap widens from ~40% at 32 cores to >80% at
128 cores for the best realistic configuration.
"""

from repro.analysis.report import FIGURE2_CORES, FIGURE2_TITLE
from repro.analysis.tables import format_series_table
from repro.protocols.tsocc.config import PAPER_TSOCC_CONFIGS, TSO_CC_4_12_3
from repro.protocols.storage import StorageModel
from repro.sim.config import SystemConfig

from bench_utils import write_result


def test_figure2_storage_scaling(benchmark, results_dir):
    model = StorageModel(SystemConfig())
    series = benchmark.pedantic(model.figure2_series,
                                args=(PAPER_TSOCC_CONFIGS, FIGURE2_CORES),
                                rounds=1, iterations=1)
    write_result(results_dir, "figure2_storage_scaling.txt",
                 format_series_table(series, title=FIGURE2_TITLE,
                                     row_label="cores"))

    # Shape assertions from the paper: MESI grows superlinearly with cores,
    # TSO-CC-4-12-3 saves more at 128 cores than at 32, and the 128-core
    # saving is large (>60%; the paper reports 82%).
    assert series["MESI"][128] > 4 * series["MESI"][32]
    r32 = model.reduction_vs_mesi(32, TSO_CC_4_12_3)
    r128 = model.reduction_vs_mesi(128, TSO_CC_4_12_3)
    assert r128 > r32 > 0.2
    assert r128 > 0.6
