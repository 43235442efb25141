"""Tests for the x86-TSO reference model, litmus tests, checkers and the
litmus runner."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.consistency.checkers import HistoryRecorder, Observation, check_coherence_per_location
from repro.consistency.fuzz import generate_cell_test, get_campaign, list_campaigns
from repro.consistency.litmus import (LitmusTest, LitmusThread,
                                      canonical_tests, generate_random_test,
                                      load, store)
from repro.consistency.runner import run_litmus_on_simulator
from repro.consistency.tso_model import (
    any_outcome_matches,
    clear_outcome_cache,
    enumerate_sc_outcomes,
    enumerate_tso_outcomes,
    enumerate_tso_outcomes_exhaustive,
)


def _test_by_name(name):
    return next(t for t in canonical_tests() if t.name == name)


# ------------------------------------------------------------------ reference model

def test_sb_relaxation_is_tso_only():
    """Store buffering: r0=r1=0 is allowed under TSO but not under SC."""
    sb = _test_by_name("SB")
    tso = enumerate_tso_outcomes(sb)
    sc = enumerate_sc_outcomes(sb)
    both_zero = {"r0": 0, "r1": 0}
    assert any_outcome_matches(tso, both_zero)
    assert not any_outcome_matches(sc, both_zero)
    # TSO is a relaxation of SC: every SC outcome is also TSO-allowed.
    assert sc <= tso


def test_fences_restore_sc_for_sb():
    fenced = _test_by_name("SB+mfences")
    tso = enumerate_tso_outcomes(fenced)
    assert not any_outcome_matches(tso, {"r0": 0, "r1": 0})


def test_textbook_verdicts_for_all_canonical_tests():
    """Every canonical test's 'interesting' outcome must have exactly the
    allowed/forbidden status the literature assigns it.

    Outcomes are enumerated with final memory values included because some
    tests (R, S, CoWR) constrain the final value of a variable as well as
    the registers.
    """
    for test in canonical_tests():
        if test.interesting is None:
            continue
        tso = enumerate_tso_outcomes(test, include_memory=True)
        observed = any_outcome_matches(tso, test.interesting)
        assert observed == test.interesting_allowed, test.name


def test_store_forwarding_outcome_allowed():
    test = _test_by_name("SB+rfi")
    tso = enumerate_tso_outcomes(test)
    assert any_outcome_matches(tso, {"r0": 1, "r2": 1})


def test_final_memory_values_enumerated():
    test = _test_by_name("2+2W")
    outcomes = enumerate_tso_outcomes(test, include_memory=True)
    finals = {(dict(o)["[x]"], dict(o)["[y]"]) for o in outcomes}
    # Some serialization always leaves each variable at 1 or 2, and the
    # "both lose" outcome (x=2,y=2) and (x=1,y=1) are possible; but x must
    # never end at 0.
    assert all(x in (1, 2) and y in (1, 2) for x, y in finals)
    assert (1, 2) in finals and (2, 1) in finals


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_random_tests_tso_is_superset_of_sc(seed):
    test = generate_random_test(seed, num_threads=2, ops_per_thread=3)
    assert enumerate_sc_outcomes(test) <= enumerate_tso_outcomes(test)


# ------------------------------------------------- fast enumerator (the DP)

def test_dp_enumerator_matches_exhaustive_on_canonical_tests():
    """The memoized register-free DP is an exact state-space reduction:
    its outcome sets equal the naive exhaustive walk's on every canonical
    test, with and without final memory."""
    clear_outcome_cache()
    for test in canonical_tests():
        for include_memory in (False, True):
            assert enumerate_tso_outcomes(test, include_memory) == \
                enumerate_tso_outcomes_exhaustive(test, include_memory), \
                (test.name, include_memory)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_dp_enumerator_matches_exhaustive_on_random_tests(seed):
    test = generate_random_test(seed, num_threads=2 + seed % 2,
                                ops_per_thread=3 + seed % 2,
                                num_vars=1 + seed % 3)
    assert enumerate_tso_outcomes(test) == \
        enumerate_tso_outcomes_exhaustive(test)
    assert enumerate_tso_outcomes(test, include_memory=True) == \
        enumerate_tso_outcomes_exhaustive(test, include_memory=True)


def test_tso_oracle_matches_exhaustive_on_campaign_shapes():
    """The reduced DP's eager steps are exact on every test shape a
    registered campaign generates: the first two seeds of each shape point,
    plus forty seeds of fuzz-smoke's 2 threads x 5 ops shape, where a load
    that forwards from its own buffer must still branch."""
    cells = set()
    for campaign in list_campaigns():
        for shape in campaign.shapes():
            cells.update((seed,) + shape for seed in campaign.seeds[:2])
    smoke = get_campaign("fuzz-smoke")
    (smoke_shape,) = smoke.shapes()
    cells.update((seed,) + smoke_shape
                 for seed in smoke.subset(num_seeds=40).seeds)
    clear_outcome_cache()
    for seed, threads, ops, variables, fence in sorted(cells):
        test = generate_cell_test({
            "seed": seed, "num_threads": threads, "ops_per_thread": ops,
            "num_vars": variables, "fence_permille": fence})
        for include_memory in (False, True):
            assert enumerate_tso_outcomes(test, include_memory) == \
                enumerate_tso_outcomes_exhaustive(test, include_memory), \
                (seed, threads, ops, variables, fence, include_memory)


def test_enumerator_memoizes_across_calls():
    """Campaigns enumerate the same test once per protocol; the cross-call
    memo makes every repeat a dictionary hit (same object contents)."""
    clear_outcome_cache()
    test = generate_random_test(42, num_threads=2, ops_per_thread=4)
    first = enumerate_tso_outcomes(test)
    again = enumerate_tso_outcomes(test)
    assert first == again
    # A renamed but structurally identical test hits the same memo entry
    # (names are not part of the canonical encoding).
    renamed = LitmusTest(name="other", threads=test.threads)
    assert enumerate_tso_outcomes(renamed) == first
    # Mutating the returned set must not poison the memo.
    first.clear()
    assert enumerate_tso_outcomes(test) == again


def test_aliased_registers_fall_back_to_exhaustive():
    """A test loading twice into the same register is outside the DP's
    precondition; enumerate_tso_outcomes must still be exact (it falls
    back to the exhaustive walk)."""
    aliased = LitmusTest(name="aliased", threads=[
        LitmusThread((load("x", "r0"), load("y", "r0"))),
        LitmusThread((store("x", 1), store("y", 1))),
    ])
    assert enumerate_tso_outcomes(aliased) == \
        enumerate_tso_outcomes_exhaustive(aliased)


# ------------------------------------------------------------------ litmus generator

def test_generated_tests_are_deterministic_and_well_formed():
    a = generate_random_test(7)
    b = generate_random_test(7)
    assert a.threads == b.threads
    assert len(a.threads) == 2
    regs = a.registers
    assert len(regs) == len(set(regs))


# ------------------------------------------------------------------ checkers

def test_coherence_checker_accepts_monotone_history():
    history = [
        Observation(core=0, kind="store", address=0x40, value=1, time=1),
        Observation(core=1, kind="load", address=0x40, value=0, time=2),
        Observation(core=1, kind="load", address=0x40, value=1, time=3),
        Observation(core=0, kind="load", address=0x40, value=1, time=4),
    ]
    ok, problems = check_coherence_per_location(history)
    assert ok, problems


def test_coherence_checker_rejects_backwards_read():
    history = [
        Observation(core=0, kind="store", address=0x40, value=1, time=1),
        Observation(core=1, kind="load", address=0x40, value=1, time=2),
        Observation(core=1, kind="load", address=0x40, value=0, time=3),
    ]
    ok, problems = check_coherence_per_location(history)
    assert not ok and "coherence" in problems[0]


def test_coherence_checker_rejects_value_out_of_thin_air():
    history = [
        Observation(core=0, kind="store", address=0x40, value=1, time=1),
        Observation(core=1, kind="load", address=0x40, value=7, time=2),
    ]
    ok, problems = check_coherence_per_location(history)
    assert not ok and "never written" in problems[0]


def test_history_recorder_groups_by_address():
    recorder = HistoryRecorder()
    recorder.observer(0, "store", 0x40, 1, 5)
    recorder.observer(1, "load", 0x80, 0, 6)
    grouped = recorder.per_address()
    assert set(grouped) == {0x40, 0x80}


# ------------------------------------------------------------------ runner (simulator in the loop)

@pytest.mark.parametrize("protocol", ["MESI", "MSI", "TSO-CC-4-12-3"])
def test_mp_litmus_never_shows_forbidden_outcome(protocol):
    result = run_litmus_on_simulator(_test_by_name("MP"), protocol=protocol,
                                     iterations=6, seed=11)
    assert result.passed, result.violations
    assert result.observed


@pytest.mark.parametrize("protocol", ["TSO-CC-4-12-3", "TSO-CC-4-basic", "CC-shared-to-L2"])
def test_canonical_forbidden_tests_pass_on_tsocc(protocol):
    for name in ("SB+mfences", "LB", "CoRR"):
        result = run_litmus_on_simulator(_test_by_name(name), protocol=protocol,
                                         iterations=4, seed=3)
        assert result.passed, (name, result.violations)


def test_litmus_result_summary_format():
    result = run_litmus_on_simulator(_test_by_name("SB"), protocol="TSO-CC-4-12-3",
                                     iterations=3, seed=1)
    text = result.summary()
    assert "SB" in text and ("PASS" in text or "FAIL" in text)
    assert 0.0 <= result.coverage <= 1.0
