#!/usr/bin/env python3
"""Run a differential conformance-fuzzing campaign programmatically.

Declares a small :class:`~repro.consistency.fuzz.FuzzCampaign` (seeded
random litmus tests x protocol list), runs it twice through the cached
experiment matrix to show the warm-cache contract (the second run
simulates nothing), and replays one cell to show every outcome the
simulator explored against the x86-TSO reference model's verdicts.

Run with::

    python examples/fuzz_campaign.py [--jobs N]

See the "Fuzzing TSO conformance" guide in EXPERIMENTS.md and the
``repro fuzz`` CLI for the full surface (sharding, replay, shrinking).
"""

import argparse
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.analysis.parallel import ResultCache
from repro.consistency.fuzz import FuzzCampaign, format_test, replay_cell


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default: REPRO_JOBS or CPUs)")
    args = parser.parse_args()

    campaign = FuzzCampaign(
        name="example",
        description="20 generated scenarios, differential across 3 protocols",
        protocols=("MESI", "TSO-CC-4-12-3", "Broadcast"),
        num_seeds=20,
        ops_per_thread=(5,),
        iterations=5,
        max_jitter=40,
    )
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(Path(tmp) / "cache")
        result = campaign.run(jobs=args.jobs, cache=cache)
        print(result.report().mix_table(normalized=False).render())
        print(f"cold run: {result.simulations_run} simulated")
        warm = campaign.run(jobs=args.jobs, cache=cache)
        print(f"warm run: {warm.simulations_run} simulated "
              f"({len(warm.cells)} cells from cache)\n")
        assert warm.simulations_run == 0

    test, litmus = replay_cell(campaign, "TSO-CC-4-12-3", seed=0)
    print(format_test(test))
    print()
    for outcome, count in sorted(litmus.observed.items()):
        verdict = "FORBIDDEN" if outcome in litmus.violations else "allowed"
        print(f"  {dict(outcome)}  x{count}  {verdict}")
    print(f"\n=> {litmus.summary()}")


if __name__ == "__main__":
    main()
