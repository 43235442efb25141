"""The benchmark's four workloads: their cells, and the work of one cell.

Every cell is driven through public ``repro`` functions only:

* ``paper-table3`` -- the 16 Table-3 stand-ins x {MESI, TSO-CC-4-12-3} on
  the CLI's default 8-core platform at scale 0.35, the paper's comparison.
  Read-mostly and cache-resident: the per-event protocol/core/network chain
  does the work.
* ``contention`` -- lock storms, a pipeline and two zipf mixes x {MESI,
  MOESI, TSO-CC-4-12-3, Broadcast} at scale 1.0.  Writes, RMWs and
  invalidations; the wide zipf overflows the L2, so memory is exercised.
* ``litmus-fuzz`` -- the fuzz-smoke campaign over 240 seeds plus the
  canonical litmus tests: thousands of tiny Systems, so set-up, engine
  start/stop and the x86-TSO reference model dominate.
* ``warm-cache`` -- a result cache pre-filled with every matrix cell of the
  three workloads above; each lookup computes the cell key, reads the
  entry and decodes it, as ``MatrixExecutor.run_cells`` does on a hit.
  The simulator does no work.

``repro`` is imported lazily, so the caller can choose the source tree.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List

WORKLOADS = ("paper-table3", "contention", "litmus-fuzz", "warm-cache")

TABLE3_PROTOCOLS = ("MESI", "TSO-CC-4-12-3")
TABLE3_SCALE = 0.35
CONTENTION_PROTOCOLS = ("MESI", "MOESI", "TSO-CC-4-12-3", "Broadcast")
#: Generator names; ``{s}`` is the run's seed.
CONTENTION_WORKLOADS = (
    "lockstorm:n50-k4-s{s}",
    "pipeline:n60-s{s}",
    "zipf:n600-l256-a80-r50-s{s}",
    "zipf:n500-l16384-a20-r90-s{s}",
)
CORES = 8
#: ``MatrixExecutor``'s default watchdog, which sweeps run under.
MAX_CYCLES = 200_000_000
FUZZ_SEEDS = 240
LITMUS_PROTOCOL = "TSO-CC-4-12-3"
LITMUS_ITERATIONS = 4


@dataclass(frozen=True)
class Cell:
    """One unit of work.

    Attributes:
        kind: ``"stats"`` or ``"fuzz"`` (matrix cells, which the result
            cache can hold) or ``"litmus"`` (a canonical litmus test).
        protocol: protocol configuration name.
        workload: workload name, fuzz cell name or litmus test name.
        cores: simulated cores.
        scale: workload scale.
        seed: ``SystemConfig.seed`` of a matrix cell; the runner seed of a
            litmus cell.
        max_cycles: watchdog bound.
        lookup: served from the result cache instead of simulated.
    """

    kind: str
    protocol: str
    workload: str
    cores: int
    scale: float
    seed: int
    max_cycles: int = MAX_CYCLES
    lookup: bool = False

    @property
    def id(self) -> str:
        """Identity of the cell's payload (the pinned-digest key)."""
        return (f"{self.kind}|{self.protocol}|{self.workload}|c{self.cores}"
                f"|x{self.scale:g}|s{self.seed}")

    def config(self):
        """The cell's ``SystemConfig``, as its sweep or campaign builds it."""
        from repro.sim.config import SystemConfig

        return SystemConfig().scaled(num_cores=self.cores, seed=self.seed)


def cells(workload: str, seed: int) -> List[Cell]:
    """The cells of one pass of ``workload`` at ``seed``.

    Raises:
        KeyError: for an unknown workload.
        ImportError, AttributeError: when the ``repro`` tree lacks an API
            the workload needs (an older commit).
    """
    if workload == "paper-table3":
        from repro.workloads.suites import suite

        return [Cell("stats", protocol, name, CORES, TABLE3_SCALE, seed)
                for name in suite("table3") for protocol in TABLE3_PROTOCOLS]
    if workload == "contention":
        from repro.workloads.catalog import canonical_workload_name

        return [Cell("stats", protocol,
                     canonical_workload_name(name.format(s=seed)),
                     CORES, 1.0, seed)
                for name in CONTENTION_WORKLOADS
                for protocol in CONTENTION_PROTOCOLS]
    if workload == "litmus-fuzz":
        from repro.consistency.fuzz import FUZZ_SMOKE_CAMPAIGN
        from repro.consistency.litmus import canonical_tests

        start = max(seed - 1, 0) * FUZZ_SEEDS
        campaign = FUZZ_SMOKE_CAMPAIGN.subset(num_seeds=FUZZ_SEEDS,
                                              seed_start=start)
        fuzz = [Cell("fuzz", protocol, name, cores, scale, 1,
                     campaign.max_cycles)
                for cores, scale, protocol, name in campaign.cells()]
        litmus = [Cell("litmus", LITMUS_PROTOCOL, test.name, 2, 1.0,
                       start + index)
                  for index, test in enumerate(canonical_tests())]
        return fuzz + litmus
    if workload == "warm-cache":
        from dataclasses import replace

        return [replace(cell, lookup=True)
                for other in WORKLOADS[:-1] for cell in cells(other, seed)
                if cell.kind != "litmus"]
    raise KeyError(f"unknown workload {workload!r}; "
                   f"choose from {', '.join(WORKLOADS)}")


# ------------------------------------------------------------------ cell work

def _litmus_tests() -> Dict[str, object]:
    from repro.consistency.litmus import canonical_tests

    return {test.name: test for test in canonical_tests()}


def prepare(cell: Cell, cache=None) -> Callable[[], object]:
    """A zero-argument callable doing the cell's work through one public
    ``repro`` call (so a profiler sees no benchmark frame above it).  Its
    result goes to :func:`payload`.  ``cache`` is the result cache a
    lookup cell reads."""
    if cell.lookup:
        return partial(_lookup, cache, cell.kind, cell.config(), cell.protocol,
                       cell.workload, cell.scale, cell.max_cycles)
    if cell.kind == "stats":
        from repro.analysis.parallel import simulate_cell

        return partial(simulate_cell, cell.config(), cell.protocol,
                       cell.workload, cell.scale, cell.max_cycles)
    if cell.kind == "fuzz":
        from repro.consistency.fuzz import simulate_fuzz_cell

        return partial(simulate_fuzz_cell, cell.config(), cell.protocol,
                       cell.workload, cell.scale, cell.max_cycles)
    from repro.consistency.runner import run_litmus_on_simulator

    return partial(run_litmus_on_simulator, _litmus_tests()[cell.workload],
                   protocol=cell.protocol, iterations=LITMUS_ITERATIONS,
                   seed=cell.seed)


def _lookup(cache, kind_name, config, protocol, workload, scale, max_cycles):
    """One warm lookup: the key, the read and the decode
    ``MatrixExecutor.run_cells`` performs for a cached cell.  Returns the
    payload; a miss returns ``None``."""
    from repro.analysis.parallel import get_cell_kind

    kind = get_cell_kind(kind_name)
    key = cache.key(config, protocol, workload, scale, max_cycles, kind=kind)
    payload = cache.get(key, schema=kind.schema)
    if payload is not None:
        kind.decode(payload)
    return payload


def payload(cell: Cell, result) -> Dict[str, object]:
    """The JSON payload of a cell's result (a litmus result is reduced to
    the canonical verdict a fuzz cell would carry)."""
    if cell.kind != "litmus" or cell.lookup:
        return result
    return {
        "test": cell.workload,
        "protocol": cell.protocol,
        "passed": result.passed,
        "num_allowed": len(result.allowed),
        "observed": sorted([[list(pair) for pair in outcome], count]
                           for outcome, count in result.observed.items()),
        "violations": sorted([list(pair) for pair in outcome]
                             for outcome in result.violations),
    }


def check(cell: Cell, data) -> str:
    """Why a cell's payload is wrong, or ``""``.  A stats cell's workload
    validation already ran inside ``simulate_cell``, which raises."""
    if not isinstance(data, dict):
        return "cache miss" if cell.lookup else "no payload"
    if cell.kind in ("fuzz", "litmus") and not data.get("passed"):
        return f"non-conformant verdict: {data.get('violations')}"
    return ""


def digest(data: Dict[str, object]) -> str:
    """First 16 hex characters of the SHA-256 of the canonical JSON."""
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


# ------------------------------------------------------------------ set-up

def set_up(workload: str, seed: int) -> None:
    """Build every cell's inputs without simulating: its Workload (or
    litmus test) and System, or, for ``warm-cache``, its cell key."""
    from repro.analysis.parallel import cell_key
    from repro.sim.system import build_system

    for cell in cells(workload, seed):
        if cell.lookup:
            cell_key(cell.config(), cell.protocol, cell.workload, cell.scale,
                     cell.max_cycles, kind=cell.kind)
        elif cell.kind == "stats":
            from repro.workloads.catalog import make_workload

            make_workload(cell.workload, num_cores=cell.cores, scale=cell.scale)
            build_system(cell.config(), cell.protocol)
        else:
            build_system(_litmus_config(cell), cell.protocol)
            if cell.kind == "fuzz":
                from repro.consistency.fuzz import (generate_cell_test,
                                                    parse_fuzz_workload)

                generate_cell_test(parse_fuzz_workload(cell.workload))


def _litmus_config(cell: Cell):
    """The platform the litmus runner builds for its first iteration."""
    from repro.sim.config import SystemConfig

    return SystemConfig().scaled(num_cores=cell.cores, l1_size_bytes=2048,
                                 l2_tile_size_bytes=16 * 1024, seed=1)
