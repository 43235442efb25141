"""Registered workload suites: named, versioned workload sets.

The paper reports established benchmark sets end-to-end, never a
cherry-picked subset — the full-suite discipline.  A :class:`Suite` makes
such a set a first-class, addressable object: sweeps reference it either
explicitly (``SweepSpec(workloads=suite("parsec"))``, which freezes the
expansion into the spec) or lazily by the ``"suite:<name>"`` workload name,
which :meth:`SweepSpec.resolved_workloads` expands at run time.  Suite
members may be any resolvable workload name — Table 3 stand-ins, generator
names (:mod:`repro.workloads.generators`) or saved traces
(``trace:<stem>``; see :mod:`repro.workloads.tracefile`).

Suites carry a version so a changed set is visible in reports and reviews
(``repro list suites`` lists them); changing a suite's membership should bump it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.workloads.benchmarks import BENCHMARK_FAMILIES

#: Registered suites by name, in registration order.
SUITES: Dict[str, "Suite"] = {}


@dataclass(frozen=True)
class Suite:
    """One named, versioned workload set.

    Attributes:
        name: registry key (``suite:<name>`` in workload axes).
        version: bumped whenever the membership changes.
        description: one-line summary shown by ``repro list suites``.
        workloads: member workload names, in report order.
    """

    name: str
    version: int
    description: str
    workloads: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.workloads:
            raise ValueError(f"suite {self.name!r}: empty workload set")
        if len(set(self.workloads)) != len(self.workloads):
            raise ValueError(f"suite {self.name!r}: duplicate workloads")


def register_suite(spec: Suite) -> Suite:
    """Register a suite under its name.

    Raises:
        ValueError: on a duplicate name.
    """
    if spec.name in SUITES:
        raise ValueError(f"suite {spec.name!r} is already registered")
    SUITES[spec.name] = spec
    return spec


def get_suite(name: str) -> Suite:
    """Resolve a registered suite by name.

    Raises:
        KeyError: for an unknown suite name.
    """
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(SUITES)}")
    return SUITES[name]


def list_suites() -> List[Suite]:
    """Every registered suite, in registration order."""
    return list(SUITES.values())


def suite(name: str) -> Tuple[str, ...]:
    """The member workload names of a registered suite — the form
    ``SweepSpec(workloads=suite("parsec"))`` consumes."""
    return get_suite(name).workloads


def _family(family: str) -> Tuple[str, ...]:
    return tuple(name for name, fam in BENCHMARK_FAMILIES.items()
                 if fam == family)


# ------------------------------------------------------------- bundled suites

#: The three benchmark families of Table 3, plus the full table.
PARSEC_SUITE = register_suite(Suite(
    name="parsec", version=1,
    description="the PARSEC stand-ins of Table 3",
    workloads=_family("PARSEC"),
))

SPLASH2_SUITE = register_suite(Suite(
    name="splash2", version=1,
    description="the SPLASH-2 stand-ins of Table 3",
    workloads=_family("SPLASH-2"),
))

STAMP_SUITE = register_suite(Suite(
    name="stamp", version=1,
    description="the STAMP stand-ins of Table 3",
    workloads=_family("STAMP"),
))

TABLE3_SUITE = register_suite(Suite(
    name="table3", version=1,
    description="all 16 benchmark stand-ins of Table 3",
    workloads=tuple(BENCHMARK_FAMILIES),
))

#: Scenario-diversity smoke set: a Table 3 stand-in, skewed and contended
#: generators, and a replayed capture of fft (committed under
#: ``benchmarks/traces/``) — small enough for CI, wide enough to cross every
#: workload source.
SCENARIO_SMOKE_SUITE = register_suite(Suite(
    name="scenario-smoke", version=1,
    description="benchmark + zipfian/lock-storm generators + replayed trace",
    workloads=(
        "fft",
        "zipf:n800-l128-a80-r80-s1",
        "lockstorm:n60-k4-s1",
        "trace:fft-mesi-c2",
    ),
))
