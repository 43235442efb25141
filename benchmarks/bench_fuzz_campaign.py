"""Conformance-fuzzing benchmarks: the reference-model hot path and a
campaign slice through the cached matrix.

Two measurements back the fuzz subsystem's design claims (see the
"Fuzzing TSO conformance" guide in EXPERIMENTS.md):

* the reduced suffix DP in ``enumerate_tso_outcomes`` (packed register
  assignments, eager independent steps, branching only on flushes of live
  variables and loads of contended ones) beats the naive exhaustive walk
  on campaign-shaped tests (the enumeration is every cell's fixed cost,
  paid once per test thanks to the cross-call memo), and
* a campaign slice runs end-to-end through the cached ``MatrixExecutor``
  with the usual warm-cache contract: a second run simulates nothing.
"""

from repro.analysis.parallel import ResultCache
from repro.consistency.fuzz import FuzzCampaign, failing_cells
from repro.consistency.litmus import generate_random_test
from repro.consistency.tso_model import (clear_outcome_cache,
                                         enumerate_tso_outcomes,
                                         enumerate_tso_outcomes_exhaustive)

from bench_utils import RESULTS_DIR, write_result

#: Campaign-shaped tests: the fuzz campaigns' default/maximal envelope.
ENUM_SEEDS = tuple(range(12))
ENUM_SHAPE = dict(num_threads=3, ops_per_thread=5, num_vars=2)


def _enumerate_with(enumerator):
    clear_outcome_cache()
    total = 0
    for seed in ENUM_SEEDS:
        test = generate_random_test(seed, **ENUM_SHAPE)
        total += len(enumerator(test))
    return total


def test_tso_enumerator_dp(benchmark, results_dir):
    outcomes = benchmark.pedantic(
        _enumerate_with, args=(enumerate_tso_outcomes,), rounds=3,
        iterations=1)
    write_result(results_dir, "fuzz_enumerator_dp.txt",
                 f"{len(ENUM_SEEDS)} tests ({ENUM_SHAPE}), "
                 f"{outcomes} outcomes")
    assert outcomes > 0


def test_tso_enumerator_exhaustive_reference(benchmark, results_dir):
    """The exhaustive walk, kept as the differential oracle — benchmarked
    so the speedup stays visible in ``benchmarks/results/``."""
    outcomes = benchmark.pedantic(
        _enumerate_with, args=(enumerate_tso_outcomes_exhaustive,), rounds=1,
        iterations=1)
    write_result(results_dir, "fuzz_enumerator_exhaustive.txt",
                 f"{len(ENUM_SEEDS)} tests ({ENUM_SHAPE}), "
                 f"{outcomes} outcomes")
    assert outcomes == _enumerate_with(enumerate_tso_outcomes)


def test_fuzz_campaign_slice(benchmark, results_dir):
    """A 24-cell campaign slice through the cached executor; the warm
    re-run must perform zero new simulations."""
    spec = FuzzCampaign(
        name="bench-slice",
        description="benchmark slice of the conformance campaign",
        protocols=("MESI", "TSO-CC-4-12-3"),
        num_seeds=12,
        ops_per_thread=(5,),
        iterations=4,
        max_jitter=40,
    )
    cache = ResultCache(RESULTS_DIR / "cache")
    result = benchmark.pedantic(
        lambda: spec.run(jobs=1, cache=cache), rounds=1, iterations=1)
    report = result.report()
    assert report.complete and not failing_cells(result)
    warm = spec.run(jobs=1, cache=cache)
    assert warm.simulations_run == 0
    write_result(results_dir, "fuzz_campaign_slice.txt",
                 report.mix_table(normalized=False).render())
