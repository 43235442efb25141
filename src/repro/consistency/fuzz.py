"""Differential conformance fuzzing: litmus campaigns as matrix cells.

The paper's verification story (§4.3) is that TSO-CC, for all its laziness,
still implements x86-TSO — checked by running diy-generated litmus tests on
the simulator and comparing every observed outcome against the operational
reference model.  This module scales that methodology from a handful of
hand-written tests to **campaigns of thousands of generated scenarios** by
making each (generated test, protocol) pair a first-class experiment-matrix
cell:

* A :class:`FuzzCampaign` declares a campaign as data — a seed range, the
  generator's shape axes (threads × ops × variables × fence density) and a
  protocol list.  Every axis point expands to one cell whose *workload
  name* encodes the full generator input (:func:`fuzz_workload_name`), so
  the cell is a pure function of its name and flows through the cached,
  parallel, shardable :class:`~repro.analysis.parallel.MatrixExecutor`
  exactly like a paper-figure cell: campaigns cache by content-addressed
  key, parallelize locally, and shard across machines/CI with no
  coordinator (``repro fuzz run --shard-index I --shard-count N``).
* :func:`simulate_fuzz_cell` is the campaign's
  :class:`~repro.analysis.parallel.CellKind` work function: regenerate the
  test from the encoded name, enumerate its TSO-allowed outcomes
  (:func:`~repro.consistency.tso_model.enumerate_tso_outcomes` — the
  memoized DP, since enumeration is the hot path at campaign scale), run
  the test on the simulator with timing perturbation, and return a
  JSON-serializable conformance verdict (:class:`FuzzCellResult`).
* **Differential teeth**: every registered protocol must pass the same
  campaign, and a deliberately broken protocol (``tests/_mutant.py`` drops
  invalidations) must be *caught* — a campaign that cannot fail proves
  nothing.  A caught violation is replayable (:func:`replay_cell`) and
  shrinkable (:func:`shrink_test` deletes ops/threads while the violation
  still reproduces) down to a minimal counterexample.

A failing cell is a *result*, not an error: the verdict payload (including
the forbidden outcomes observed) is cached like any other, so re-examining
a red campaign costs zero simulations.

See the "Fuzzing TSO conformance" guide in EXPERIMENTS.md.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.parallel import (CellKind, MatrixSpec, ReportField,
                                     SpecResult, declare_report_fields,
                                     register_cell_kind)
from repro.consistency.litmus import (LitmusTest, LitmusThread,
                                      generate_random_test)
from repro.consistency.runner import LitmusResult, run_litmus_on_simulator
from repro.consistency.tso_model import Outcome, enumerate_tso_outcomes
from repro.sim.config import SystemConfig

#: Version of the fuzz-cell payload layout.  Mixed into every fuzz cell's
#: cache key (unlike the stats kind, whose schema predates kinds), so a
#: bump re-runs every cached campaign cell.
FUZZ_SCHEMA_VERSION = 1

#: Largest total op count (threads x ops per thread) a campaign may ask
#: for: beyond this the reference enumeration is intractable (the state
#: space is exponential in the op count even with the DP's reductions).
MAX_TOTAL_OPS = 16


# --------------------------------------------------------------------- naming

#: ``fuzz:s<seed>:t<threads>:o<ops>:v<vars>:f<fence permille>:i<iters>:j<jitter>``
_WORKLOAD_RE = re.compile(
    r"^fuzz:s(\d+):t(\d+):o(\d+):v(\d+):f(\d+):i(\d+):j(\d+)$")


def fuzz_workload_name(seed: int, num_threads: int, ops_per_thread: int,
                       num_vars: int, fence_permille: int, iterations: int,
                       max_jitter: int) -> str:
    """Encode one fuzz cell's full generator + runner input as a workload
    name.  The name is the *only* channel through which a cell's identity
    reaches worker processes and the cache key, so everything that affects
    the verdict is in it (fence probability as an integer permille — float
    formatting must never enter a cache key)."""
    return (f"fuzz:s{seed}:t{num_threads}:o{ops_per_thread}:v{num_vars}"
            f":f{fence_permille}:i{iterations}:j{max_jitter}")


def parse_fuzz_workload(name: str) -> Dict[str, int]:
    """Decode :func:`fuzz_workload_name`.

    Raises:
        ValueError: if ``name`` is not a fuzz workload name.
    """
    match = _WORKLOAD_RE.match(name)
    if match is None:
        raise ValueError(f"not a fuzz workload name: {name!r}")
    seed, threads, ops, variables, fence, iterations, jitter = \
        (int(group) for group in match.groups())
    return {
        "seed": seed,
        "num_threads": threads,
        "ops_per_thread": ops,
        "num_vars": variables,
        "fence_permille": fence,
        "iterations": iterations,
        "max_jitter": jitter,
    }


def generate_cell_test(params: Dict[str, int]) -> LitmusTest:
    """The litmus test of one fuzz cell (deterministic in ``params``)."""
    return generate_random_test(
        params["seed"],
        num_threads=params["num_threads"],
        ops_per_thread=params["ops_per_thread"],
        num_vars=params["num_vars"],
        fence_probability=params["fence_permille"] / 1000.0,
    )


# ------------------------------------------------------------------ cell kind

def simulate_fuzz_cell(config: SystemConfig, protocol: str,
                       workload_name: str, scale: float,
                       max_cycles: int) -> Dict[str, object]:
    """Run one fuzz conformance cell (the ``"fuzz"`` kind's work function).

    Regenerates the litmus test from the encoded ``workload_name``, runs it
    ``iterations`` times on the simulator under ``protocol`` (the litmus
    runner perturbs timing and address layout per iteration) and checks
    every observed outcome against the x86-TSO reference model.  The
    verdict payload is JSON-canonical: outcomes are sorted, so serial,
    parallel and cross-process executions produce byte-identical cache
    entries.  ``config``/``scale`` are part of the executor's cache-key
    contract but the platform is derived from the test's thread count, as
    in :func:`~repro.consistency.runner.run_litmus_on_simulator`.
    """
    params = parse_fuzz_workload(workload_name)
    test = generate_cell_test(params)
    result = run_litmus_on_simulator(
        test,
        protocol=protocol,
        iterations=params["iterations"],
        seed=params["seed"],
        max_jitter=params["max_jitter"],
        max_cycles=max_cycles,
    )
    observed = sorted(([list(pair) for pair in outcome], count)
                      for outcome, count in result.observed.items())
    violations = sorted([list(pair) for pair in outcome]
                        for outcome in result.violations)
    return {
        "schema": FUZZ_SCHEMA_VERSION,
        "kind": "fuzz",
        "workload": workload_name,
        "protocol": protocol,
        "passed": result.passed,
        "num_allowed": len(result.allowed),
        "coverage": result.coverage,
        "observed": [[outcome, count] for outcome, count in observed],
        "violations": violations,
    }


@dataclass(frozen=True)
class FuzzCellResult:
    """Decoded verdict of one (generated test, protocol) conformance cell.

    Attributes:
        workload: the encoded fuzz workload name (cell identity).
        protocol: protocol configuration name.
        passed: no forbidden outcome was observed.
        num_allowed: size of the TSO-allowed outcome set.
        coverage: fraction of allowed outcomes actually observed.
        observed: observed outcomes with counts.
        violations: observed outcomes the reference model forbids.
    """

    workload: str
    protocol: str
    passed: bool
    num_allowed: int
    coverage: float
    observed: Tuple[Tuple[Outcome, int], ...]
    violations: Tuple[Outcome, ...]

    @property
    def params(self) -> Dict[str, int]:
        """The cell's decoded generator/runner parameters."""
        return parse_fuzz_workload(self.workload)

    @property
    def seed(self) -> int:
        return self.params["seed"]

    @staticmethod
    def from_dict(payload: Dict[str, object]) -> "FuzzCellResult":
        """Reconstruct a verdict from a cached JSON payload.

        Raises:
            ValueError: on a stale or foreign payload schema.
        """
        if payload.get("schema") != FUZZ_SCHEMA_VERSION or \
                payload.get("kind") != "fuzz":
            raise ValueError(
                f"not a current fuzz-cell payload (schema "
                f"{payload.get('schema')!r}, kind {payload.get('kind')!r})")
        observed = tuple(
            (tuple((name, value) for name, value in outcome), count)
            for outcome, count in payload["observed"])
        violations = tuple(
            tuple((name, value) for name, value in outcome)
            for outcome in payload["violations"])
        return FuzzCellResult(
            workload=payload["workload"],
            protocol=payload["protocol"],
            passed=bool(payload["passed"]),
            num_allowed=int(payload["num_allowed"]),
            coverage=float(payload["coverage"]),
            observed=observed,
            violations=violations,
        )


#: The fuzz conformance cell kind: registered so the executor and the
#: shard planner treat campaign cells like any other.
FUZZ_CELL_KIND = register_cell_kind(CellKind(
    name="fuzz",
    simulate=simulate_fuzz_cell,
    decode=FuzzCellResult.from_dict,
    schema=FUZZ_SCHEMA_VERSION,
))

#: Declared report fields for fuzz verdicts, so conformance campaigns flow
#: through the same :mod:`repro.analysis.report` pipeline as stats cells:
#: ``passed`` aggregates with *all* (one failing cell fails the mix row),
#: ``violations`` counts sum, ``coverage`` averages.
FUZZ_REPORT_FIELDS = declare_report_fields("fuzz", [
    ReportField(name="passed", extract=lambda r: r.passed,
                dtype="bool", aggregate="all", better="higher",
                format="{}"),
    ReportField(name="violations", extract=lambda r: len(r.violations),
                dtype="int", aggregate="sum", better="lower",
                format="{:.0f}"),
    ReportField(name="coverage", extract=lambda r: r.coverage,
                dtype="float", aggregate="mean", better="higher",
                format="{:.3f}"),
    ReportField(name="num_allowed", extract=lambda r: r.num_allowed,
                dtype="int", aggregate="sum", format="{:.0f}"),
])


# ------------------------------------------------------------------ campaigns

@dataclass(frozen=True)
class FuzzCampaign(MatrixSpec):
    """One declarative conformance-fuzzing campaign; ``run()`` comes from
    :class:`~repro.analysis.parallel.MatrixSpec`.  A failing cell — the
    simulator showed an outcome the reference model forbids — is a result,
    not an error: red campaigns cache exactly like green ones, and
    :func:`failing_cells` lists them.

    Attributes:
        name: registry key (``repro fuzz run <name>``).
        description: one-line summary shown by ``repro fuzz list``.
        protocols: protocol configuration names checked differentially —
            every one must pass every cell.
        num_seeds: seeds per shape point (``seed_start ..
            seed_start + num_seeds - 1``).
        seed_start: first seed of the range.
        num_threads: generator thread-count axis.
        ops_per_thread: generator ops-per-thread axis.
        num_vars: generator shared-variable-count axis.
        fence_permille: generator fence probability axis, in permille
            (integer, so it can live in names and cache keys).
        iterations: simulator runs per cell (timing perturbation).
        max_jitter: maximum inter-instruction delay inserted, in cycles.
        max_cycles: per-run watchdog bound.
    """

    name: str
    description: str
    protocols: Tuple[str, ...]
    num_seeds: int
    seed_start: int = 0
    num_threads: Tuple[int, ...] = (2,)
    ops_per_thread: Tuple[int, ...] = (4,)
    num_vars: Tuple[int, ...] = (2,)
    fence_permille: Tuple[int, ...] = (150,)
    iterations: int = 6
    max_jitter: int = 40
    max_cycles: int = 5_000_000

    cell_kind = "fuzz"
    noun = "campaign"

    def __post_init__(self) -> None:
        if not self.protocols:
            raise ValueError(f"campaign {self.name!r}: empty protocol list")
        if self.num_seeds < 1:
            raise ValueError(f"campaign {self.name!r}: num_seeds must be >= 1")
        if self.seed_start < 0:
            raise ValueError(f"campaign {self.name!r}: seed_start must be >= 0")
        for axis_name in ("num_threads", "ops_per_thread", "num_vars",
                          "fence_permille"):
            axis = getattr(self, axis_name)
            if not axis:
                raise ValueError(
                    f"campaign {self.name!r}: empty {axis_name} axis")
            if any(value < 0 for value in axis):
                raise ValueError(
                    f"campaign {self.name!r}: negative {axis_name} value")
        if any(t < 1 for t in self.num_threads) or \
                any(o < 1 for o in self.ops_per_thread) or \
                any(v < 1 for v in self.num_vars):
            raise ValueError(
                f"campaign {self.name!r}: thread/op/var axis values must "
                f"be >= 1")
        if any(f > 1000 for f in self.fence_permille):
            raise ValueError(
                f"campaign {self.name!r}: fence_permille values must be "
                f"<= 1000")
        if self.iterations < 1:
            raise ValueError(f"campaign {self.name!r}: iterations must be >= 1")
        worst = max(self.num_threads) * max(self.ops_per_thread)
        if worst > MAX_TOTAL_OPS:
            raise ValueError(
                f"campaign {self.name!r}: {max(self.num_threads)} threads x "
                f"{max(self.ops_per_thread)} ops = {worst} total ops; the "
                f"TSO reference enumeration is intractable beyond "
                f"{MAX_TOTAL_OPS}")

    # ------------------------------------------------------------------ axes

    @property
    def seeds(self) -> range:
        """The campaign's seed range."""
        return range(self.seed_start, self.seed_start + self.num_seeds)

    def shapes(self) -> List[Tuple[int, int, int, int]]:
        """The generator shape points: ``(threads, ops, vars, fence)``."""
        return [
            (threads, ops, variables, fence)
            for threads in self.num_threads
            for ops in self.ops_per_thread
            for variables in self.num_vars
            for fence in self.fence_permille
        ]

    def workloads(self) -> List[Tuple[int, str]]:
        """Every generated-test axis point as ``(cores, workload name)`` —
        the platform is sized to the test's thread count."""
        return [
            (max(2, threads),
             fuzz_workload_name(seed, threads, ops, variables, fence,
                                self.iterations, self.max_jitter))
            for threads, ops, variables, fence in self.shapes()
            for seed in self.seeds
        ]

    def cells(self) -> List[Tuple[int, float, str, str]]:
        """The full expansion: ``(cores, scale, protocol, workload)`` per
        cell, in deterministic order — the
        :meth:`~repro.analysis.sweeps.SweepSpec.cells` surface, so the
        shard planner partitions campaigns exactly like sweeps."""
        return [
            (cores, 1.0, protocol, workload)
            for cores, workload in self.workloads()
            for protocol in self.protocols
        ]

    @property
    def num_cells(self) -> int:
        """Number of independent conformance cells the campaign expands to."""
        return (len(self.shapes()) * self.num_seeds * len(self.protocols))

    def subset(
        self,
        protocols: Optional[Sequence[str]] = None,
        num_seeds: Optional[int] = None,
        seed_start: Optional[int] = None,
    ) -> "FuzzCampaign":
        """A copy with the protocol list or seed range overridden (CLI
        ``--protocols``/``--seeds``/``--seed-start``)."""
        return replace(
            self,
            protocols=tuple(protocols) if protocols else self.protocols,
            num_seeds=num_seeds if num_seeds is not None else self.num_seeds,
            seed_start=(seed_start if seed_start is not None
                        else self.seed_start),
        )


def failing_cells(result: SpecResult) -> List[FuzzCellResult]:
    """The failing verdicts of a campaign run, in expansion order."""
    failing = []
    for cores, scale, protocol, workload in result.spec.cells():
        cell = result.cells.get((protocol, workload, cores, scale))
        if cell is not None and not cell.passed:
            failing.append(cell)
    return failing


# ------------------------------------------------------------------ registry

#: Registered campaigns by name, in registration order.
CAMPAIGNS: Dict[str, FuzzCampaign] = {}


def register_campaign(spec: FuzzCampaign) -> FuzzCampaign:
    """Register a campaign under its name.

    Raises:
        ValueError: on a duplicate name.
    """
    if spec.name in CAMPAIGNS:
        raise ValueError(f"campaign {spec.name!r} is already registered")
    CAMPAIGNS[spec.name] = spec
    return spec


def get_campaign(name: str) -> FuzzCampaign:
    """Resolve a registered campaign by name.

    Raises:
        KeyError: for an unknown campaign name.
    """
    if name not in CAMPAIGNS:
        raise KeyError(
            f"unknown fuzz campaign {name!r}; known: {', '.join(CAMPAIGNS)}")
    return CAMPAIGNS[name]


def list_campaigns() -> List[FuzzCampaign]:
    """Every registered campaign, in registration order."""
    return list(CAMPAIGNS.values())


# ------------------------------------------------------------------ replay

def replay_cell(spec: FuzzCampaign, protocol: str, seed: int,
                shape: Optional[Tuple[int, int, int, int]] = None,
                ) -> Tuple[LitmusTest, LitmusResult]:
    """Re-run one campaign cell outside the cache (debugging a red cell).

    Args:
        spec: the campaign the cell belongs to.
        protocol: protocol configuration name.
        seed: generator seed (need not lie in the campaign's seed range —
            replay is also how new seeds are probed).
        shape: ``(threads, ops, vars, fence permille)``; default: the
            campaign's first shape point.

    Returns:
        The regenerated test and its fresh :class:`LitmusResult`.

    Raises:
        ValueError: if ``shape`` is not one of the campaign's shape points.
    """
    shapes = spec.shapes()
    if shape is None:
        shape = shapes[0]
    elif tuple(shape) not in shapes:
        raise ValueError(
            f"shape {shape!r} is not a point of campaign {spec.name!r}; "
            f"points: {shapes}")
    threads, ops, variables, fence = shape
    params = {
        "seed": seed,
        "num_threads": threads,
        "ops_per_thread": ops,
        "num_vars": variables,
        "fence_permille": fence,
        "iterations": spec.iterations,
        "max_jitter": spec.max_jitter,
    }
    test = generate_cell_test(params)
    result = run_litmus_on_simulator(
        test, protocol=protocol, iterations=spec.iterations, seed=seed,
        max_jitter=spec.max_jitter, max_cycles=spec.max_cycles)
    return test, result


# ------------------------------------------------------------------ shrinking

def _without_op(test: LitmusTest, thread_index: int,
                op_index: int) -> LitmusTest:
    """A copy of ``test`` with one op deleted (empty threads dropped).
    Variables are recomputed so dead variables disappear with their ops."""
    threads = []
    for index, thread in enumerate(test.threads):
        ops = list(thread.ops)
        if index == thread_index:
            del ops[op_index]
        if ops:
            threads.append(LitmusThread(tuple(ops)))
    base = test.name[:-len("-shrunk")] if test.name.endswith("-shrunk") \
        else test.name
    return LitmusTest(name=f"{base}-shrunk", threads=threads,
                      description=f"shrunk from {base}")


def shrink_test(test: LitmusTest,
                still_violates: Callable[[LitmusTest], bool]) -> LitmusTest:
    """Greedy delta-debugging: repeatedly delete single ops (and thereby
    empty threads) while ``still_violates`` keeps reproducing on the
    candidate.  Returns the 1-minimal counterexample — no single further
    deletion reproduces.

    The predicate must be deterministic (the campaign predicates re-run the
    simulator with the cell's own seeds, so they are); ``test`` itself is
    assumed to violate.
    """
    current = test
    improved = True
    while improved:
        improved = False
        for thread_index in range(len(current.threads)):
            for op_index in range(len(current.threads[thread_index].ops)):
                candidate = _without_op(current, thread_index, op_index)
                if not candidate.threads:
                    continue
                if still_violates(candidate):
                    current = candidate
                    improved = True
                    break
            if improved:
                break
    return current


def shrink_cell(spec: FuzzCampaign, protocol: str, seed: int,
                shape: Optional[Tuple[int, int, int, int]] = None,
                ) -> Optional[Tuple[LitmusTest, LitmusTest, LitmusResult]]:
    """Replay one cell and, if it violates, shrink the counterexample.

    Returns:
        ``None`` when the cell passes on replay; otherwise ``(original
        test, shrunk test, shrunk test's LitmusResult)`` — the shrunk
        result still contains forbidden outcomes by construction.
    """
    test, result = replay_cell(spec, protocol, seed, shape=shape)
    if result.passed:
        return None

    def still_violates(candidate: LitmusTest) -> bool:
        rerun = run_litmus_on_simulator(
            candidate, protocol=protocol, iterations=spec.iterations,
            seed=seed, max_jitter=spec.max_jitter, max_cycles=spec.max_cycles)
        return not rerun.passed

    shrunk = shrink_test(test, still_violates)
    shrunk_result = run_litmus_on_simulator(
        shrunk, protocol=protocol, iterations=spec.iterations, seed=seed,
        max_jitter=spec.max_jitter, max_cycles=spec.max_cycles)
    return test, shrunk, shrunk_result


def format_test(test: LitmusTest) -> str:
    """Render a litmus test as aligned per-thread columns (replay/shrink
    output)."""
    columns: List[List[str]] = []
    for thread in test.threads:
        rows = []
        for op in thread.ops:
            if op.kind == "store":
                rows.append(f"{op.var} = {op.value}")
            elif op.kind == "load":
                rows.append(f"{op.register} = {op.var}")
            else:
                rows.append("mfence")
        columns.append(rows)
    height = max(len(rows) for rows in columns)
    width = max((len(cell) for rows in columns for cell in rows), default=0)
    width = max(width, 8)
    header = " | ".join(f"T{i}".ljust(width) for i in range(len(columns)))
    lines = [f"{test.name}: {test.description}", header,
             "-+-".join("-" * width for _ in columns)]
    for row in range(height):
        lines.append(" | ".join(
            (rows[row] if row < len(rows) else "").ljust(width)
            for rows in columns))
    return "\n".join(lines)


# ------------------------------------------------------------------ bundled

#: The in-paper protocol set plus every additional registered family — the
#: differential axis of the conformance campaigns.  (Generated sweep
#: variants are excluded: they re-parameterize the same state machines the
#: named points already exercise, and a campaign over all ~20 of them
#: re-checks the same code paths at 4x the cost.)
CONFORMANCE_PROTOCOLS = (
    "MESI",
    "MSI",
    "MOESI",
    "Broadcast",
    "CC-shared-to-L2",
    "TSO-CC-4-basic",
    "TSO-CC-4-noreset",
    "TSO-CC-4-12-3",
    "TSO-CC-4-12-0",
    "TSO-CC-4-9-3",
)

#: Small cross-protocol campaign sized for the sharded CI matrix: 96 cells
#: (24 seeds x 4 protocols), split across the shard jobs by ``repro fuzz
#: run --shard-index`` and reassembled by the merge job exactly like the
#: ``ci-smoke`` sweep.
FUZZ_SMOKE_CAMPAIGN = register_campaign(FuzzCampaign(
    name="fuzz-smoke",
    description="small differential campaign for sharded CI smoke jobs",
    protocols=("MESI", "MSI", "TSO-CC-4-12-3", "Broadcast"),
    num_seeds=24,
    num_threads=(2,),
    ops_per_thread=(5,),
    num_vars=(2,),
    fence_permille=(150,),
    iterations=5,
    max_jitter=30,
))

#: The paper-scale conformance claim: 500 generated scenarios against every
#: registered protocol family and paper configuration (5000 cells).
TSO_CONFORMANCE_CAMPAIGN = register_campaign(FuzzCampaign(
    name="tso-conformance",
    description="500-seed differential conformance over every protocol",
    protocols=CONFORMANCE_PROTOCOLS,
    num_seeds=500,
    num_threads=(2,),
    ops_per_thread=(5,),
    num_vars=(2,),
    fence_permille=(150,),
    iterations=4,
    max_jitter=40,
))

#: Shape-diverse campaign: fewer seeds, wider generator axes (three-thread
#: tests, fence-free and fence-heavy mixes, single-variable coherence
#: torture).
FUZZ_WIDE_CAMPAIGN = register_campaign(FuzzCampaign(
    name="fuzz-wide",
    description="shape-diverse campaign (threads x ops x vars x fences)",
    protocols=("MESI", "TSO-CC-4-12-3", "Broadcast"),
    num_seeds=40,
    num_threads=(2, 3),
    ops_per_thread=(3, 4),
    num_vars=(1, 2),
    fence_permille=(0, 250),
    iterations=4,
    max_jitter=40,
))
