#!/usr/bin/env python3
"""Reproduce Figure 2: coherence storage overhead vs core count.

Uses the Table 1 storage model to compute the extra on-chip storage required
for coherence by MESI (full sharing vector) and every TSO-CC configuration,
for core counts up to 128 with the paper's cache geometry (1MB of L2 per
core, 64B lines, 32KB L1 per core), and prints the Figure 2 series together
with the headline reduction percentages quoted in §4.2.

The series comes from ``StorageModel.figure2_series``, the same call behind
``repro figure 2`` and the Figure 2 benchmark (Figure 2 is analytic — no
simulation, so no ``--jobs``).

Run with::

    python examples/storage_scaling.py
    python examples/storage_scaling.py --cores 16,64,256
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.analysis import format_series_table
from repro.analysis.report import FIGURE2_TITLE
from repro.protocols.tsocc.config import (CC_SHARED_TO_L2, PAPER_TSOCC_CONFIGS,
                                          TSO_CC_4_12_3, TSO_CC_4_BASIC)
from repro.protocols.storage import StorageModel
from repro.sim.config import SystemConfig


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cores", default="16,32,48,64,80,96,112,128",
                        help="comma-separated core counts")
    args = parser.parse_args()
    core_counts = tuple(int(c) for c in args.cores.split(",") if c.strip())

    model = StorageModel(SystemConfig())
    series = model.figure2_series(PAPER_TSOCC_CONFIGS, core_counts=core_counts)
    print(format_series_table(series, title=FIGURE2_TITLE, row_label="cores"))
    print("\nHeadline reductions vs MESI (paper §4.2 in parentheses):")
    for config, cores_at, paper in ((TSO_CC_4_12_3, 32, "38%"),
                                    (TSO_CC_4_12_3, 128, "82%"),
                                    (TSO_CC_4_BASIC, 32, "75%"),
                                    (CC_SHARED_TO_L2, 32, "76%")):
        reduction = model.reduction_vs_mesi(cores_at, config)
        print(f"  {config.name:18s} @ {cores_at:3d} cores: {reduction:6.1%}  (paper: {paper})")


if __name__ == "__main__":
    main()
