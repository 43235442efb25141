"""Run litmus tests on the simulated CMP and check outcomes against x86-TSO.

This mirrors the verification methodology of §4.3 of the paper: litmus tests
(canonical + diy-style generated) are executed on the full simulator under a
given protocol configuration, many times with perturbed timing, and every
observed final state must be a member of the outcome set enumerated by the
operational x86-TSO model.  Timing is perturbed by inserting random ``Work``
delays between instructions and by varying the address layout seed, which
explores different interleavings of the protocol's message races.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.consistency.litmus import LitmusTest
from repro.consistency.tso_model import Outcome, enumerate_tso_outcomes
from repro.cpu.instruction import Fence, Load, Store, Work
from repro.sim.config import SystemConfig
from repro.sim.system import build_system


@dataclass
class LitmusResult:
    """Result of running one litmus test many times on the simulator.

    Attributes:
        test: the litmus test.
        protocol: protocol configuration name.
        allowed: outcomes allowed by the x86-TSO reference model.
        observed: outcomes observed on the simulator (with counts).
        violations: observed outcomes that the model forbids.
    """

    test: LitmusTest
    protocol: str
    allowed: Set[Outcome]
    observed: Dict[Outcome, int] = field(default_factory=dict)
    violations: Set[Outcome] = field(default_factory=set)

    @property
    def passed(self) -> bool:
        """``True`` iff no forbidden outcome was observed."""
        return not self.violations

    @property
    def coverage(self) -> float:
        """Fraction of TSO-allowed outcomes actually observed (diagnostic —
        low coverage is not a failure, but high coverage strengthens the
        verdict)."""
        if not self.allowed:
            return 1.0
        return len(set(self.observed) & self.allowed) / len(self.allowed)

    def summary(self) -> str:
        """One-line human-readable verdict."""
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} {self.test.name:12s} on {self.protocol:16s} "
                f"observed={len(self.observed)} allowed={len(self.allowed)} "
                f"coverage={self.coverage:.0%}")


def _litmus_programs(test: LitmusTest, addresses: Dict[str, int],
                     rng: random.Random, max_jitter: int):
    """Build one simulator program per litmus thread, with random timing
    jitter baked in (deterministically, from ``rng``).

    The pre-first-op jitter draws from a 4x wider range than the
    inter-instruction jitter: staggering whole threads against each other
    explores races (e.g. one thread's load caching a line well before
    another thread's store takes it away) that per-instruction jitter of
    the same magnitude as a miss latency rarely reaches."""
    programs = []
    for thread in test.threads:
        jitters = [rng.randrange(4 * max_jitter + 1)]
        jitters += [rng.randrange(max_jitter + 1) for _ in range(len(thread.ops))]

        def make_program(ops=thread.ops, jitters=jitters):
            def program(ctx):
                if jitters[0]:
                    yield Work(jitters[0])
                for index, op in enumerate(ops):
                    if op.kind == "store":
                        yield Store(addresses[op.var], op.value)
                    elif op.kind == "load":
                        value = yield Load(addresses[op.var])
                        ctx.record(op.register, value)
                    elif op.kind == "fence":
                        yield Fence()
                    jitter = jitters[index + 1]
                    if jitter:
                        yield Work(jitter)
            return program

        programs.append(make_program())
    return programs


def run_litmus_on_simulator(
    test: LitmusTest,
    protocol: str = "TSO-CC-4-12-3",
    iterations: int = 20,
    system_config: Optional[SystemConfig] = None,
    seed: int = 0,
    max_jitter: int = 60,
    max_cycles: int = 5_000_000,
) -> LitmusResult:
    """Run ``test`` on the simulator ``iterations`` times and check outcomes.

    Args:
        test: the litmus test to run.
        protocol: protocol configuration name (or spec / TSOCCConfig).
        iterations: number of runs with different timing jitter.
        system_config: platform to simulate (default: a small scaled one
            sized to the number of litmus threads).
        seed: base PRNG seed for jitter / layout perturbation.
        max_jitter: maximum inter-instruction delay inserted, in cycles.
        max_cycles: per-run watchdog bound.
    """
    allowed = enumerate_tso_outcomes(test)
    num_threads = len(test.threads)
    result = LitmusResult(test=test, protocol=str(protocol), allowed=allowed)

    for iteration in range(iterations):
        rng = random.Random((seed << 16) ^ iteration)
        config = system_config or SystemConfig().scaled(
            num_cores=max(2, num_threads), l1_size_bytes=2048,
            l2_tile_size_bytes=16 * 1024, seed=iteration + 1)
        # Perturb the variable layout: either one line per variable or all
        # variables packed into a single line (false sharing), alternating.
        pack = iteration % 2 == 1
        addresses = {}
        base = 0x8000
        for index, var in enumerate(test.variables):
            addresses[var] = base + index * (8 if pack else config.line_size)
        programs = _litmus_programs(test, addresses, rng, max_jitter)
        system = build_system(config, protocol)
        run = system.run(programs, max_cycles=max_cycles, workload_name=test.name)

        registers: Dict[str, int] = {}
        for context in run.contexts:
            registers.update({k: v for k, v in context.results.items()
                              if isinstance(v, int)})
        outcome: Outcome = tuple(sorted(registers.items()))
        result.observed[outcome] = result.observed.get(outcome, 0) + 1
        if outcome not in allowed:
            result.violations.add(outcome)
    return result


def verify_litmus(
    tests: List[LitmusTest],
    protocol: str = "TSO-CC-4-12-3",
    iterations: int = 15,
    seed: int = 0,
) -> Tuple[bool, List[LitmusResult]]:
    """Run a batch of litmus tests; return (all_passed, per-test results)."""
    results = [
        run_litmus_on_simulator(test, protocol=protocol, iterations=iterations,
                                seed=seed + index)
        for index, test in enumerate(tests)
    ]
    return all(result.passed for result in results), results
