"""Consistency verification: x86-TSO reference model, litmus tests, checkers.

The paper validates TSO-CC by running diy-generated litmus tests on the
full-system simulator (§4.3).  This package reproduces that methodology:

* :mod:`repro.consistency.tso_model` — an operational x86-TSO reference
  model (per-core FIFO store buffers + shared memory) that exhaustively
  enumerates all final outcomes a litmus test may produce under TSO.
* :mod:`repro.consistency.litmus` — the litmus-test container plus the
  canonical tests (SB, MP, LB, WRC, IRIW, RWC, 2+2W, CoRR ...) with their
  textbook allowed/forbidden outcomes, and a diy-style random test
  generator.
* :mod:`repro.consistency.runner` — runs litmus tests on the simulated CMP
  under any protocol configuration (with timing perturbation across seeds)
  and checks every observed outcome against the reference model.
* :mod:`repro.consistency.checkers` — execution-history checkers
  (coherence / SC-per-location, and single-writer occupancy invariants used
  by the tests).
* :mod:`repro.consistency.fuzz` — differential conformance fuzzing at
  scale: seeded random litmus campaigns as cached, shardable matrix cells
  (``repro fuzz``), with replay and counterexample shrinking.
"""

from repro.consistency.litmus import (
    LitmusTest,
    LitmusThread,
    canonical_tests,
    generate_random_test,
)
from repro.consistency.runner import LitmusResult, run_litmus_on_simulator, verify_litmus
from repro.consistency.tso_model import enumerate_tso_outcomes, enumerate_sc_outcomes
from repro.consistency.checkers import check_coherence_per_location
from repro.consistency.fuzz import (
    FuzzCampaign,
    FuzzCellResult,
    get_campaign,
    list_campaigns,
    register_campaign,
    replay_cell,
    shrink_cell,
    shrink_test,
)

__all__ = [
    "LitmusTest",
    "LitmusThread",
    "canonical_tests",
    "generate_random_test",
    "enumerate_tso_outcomes",
    "enumerate_sc_outcomes",
    "run_litmus_on_simulator",
    "verify_litmus",
    "LitmusResult",
    "check_coherence_per_location",
    "FuzzCampaign",
    "FuzzCellResult",
    "register_campaign",
    "get_campaign",
    "list_campaigns",
    "replay_cell",
    "shrink_cell",
    "shrink_test",
]
