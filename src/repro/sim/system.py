"""System builder: wires cores, caches, protocol controllers, network and
memory into a runnable CMP, and runs workload programs on it.

Typical use::

    from repro.sim import SystemConfig, build_system

    system = build_system(SystemConfig().scaled(num_cores=4), "TSO-CC-4-12-3")
    result = system.run(programs)          # one generator-program per core
    print(result.stats.cycles, result.stats.total_flits)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.cpu.core_model import CoreContext, CoreModel, capturing_program
from repro.interconnect.network import Network
from repro.interconnect.topology import MeshTopology
from repro.memsys.address import AddressMap
from repro.memsys.cache import CacheArray
from repro.memsys.memory import MainMemory
from repro.memsys.write_buffer import WriteBuffer
from repro.sim.config import SystemConfig
from repro.sim.simulator import DeadlockError, Simulator, suggest_ring_size
from repro.sim.stats import CoreStats, L1Stats, L2Stats, SystemStats

# Controllers are built purely through the protocol plugin API
# (repro.protocols.registry); the registry is imported lazily inside
# build_system to keep this module free of circular imports (the controllers
# build on repro.protocols.base, which in turn uses the simulation engine).


@dataclass
class SimulationResult:
    """Outcome of one workload run.

    Attributes:
        stats: aggregated system statistics (execution time, traffic, miss
            and self-invalidation breakdowns ...).
        contexts: the per-core :class:`CoreContext` objects, whose
            ``results`` dictionaries carry whatever the programs recorded.
        finished: whether every core completed its program.
    """

    stats: SystemStats
    contexts: List[CoreContext] = field(default_factory=list)
    finished: bool = True

    def result_of(self, core_id: int, key: str, default: Any = None) -> Any:
        """Convenience accessor for a value recorded by core ``core_id``."""
        return self.contexts[core_id].results.get(key, default)


@lru_cache(maxsize=None)
def _mesh_topology(num_cores: int, num_l2_tiles: int, rows: int) -> MeshTopology:
    """The one topology of a mesh geometry.  It is frozen, so every System
    of that geometry shares it and its cached tables are computed once."""
    return MeshTopology(num_cores=num_cores, num_l2_tiles=num_l2_tiles,
                        rows=rows)


class System:
    """A simulated CMP: cores + private L1s + shared NUCA L2 + mesh + memory.

    Build one with :func:`build_system`; call :meth:`run` once per workload
    (systems are single-use — statistics and cache contents persist across
    calls, so build a fresh system for every measurement).
    """

    def __init__(self, config: SystemConfig, protocol: "Protocol") -> None:
        self.config = config
        self.protocol = protocol
        self.address_map = AddressMap(line_size=config.line_size,
                                      num_l2_tiles=config.effective_l2_tiles)
        self.topology = _mesh_topology(config.num_cores,
                                       config.effective_l2_tiles,
                                       config.mesh_rows)
        # Size the calendar ring to cover the largest single-event delay the
        # configuration can produce (worst-case network traversal plus tile
        # occupancy, or a memory access); anything longer spills to the heap.
        max_hops = self.topology.max_hops
        data_flits = max(1, -(-(config.header_bytes + config.line_size)
                              // config.flit_bytes))
        net_max = (config.router_latency * (max_hops + 1)
                   + config.link_latency * max_hops + data_flits - 1)
        max_delay = max(config.memory_latency_max,
                        net_max + config.l2_access_latency,
                        config.l1_hit_latency)
        self.sim = Simulator(ring_size=suggest_ring_size(max_delay))
        self.network = Network(
            topology=self.topology,
            scheduler=self.sim,
            link_latency=config.link_latency,
            router_latency=config.router_latency,
            flit_bytes=config.flit_bytes,
            header_bytes=config.header_bytes,
            line_bytes=config.line_size,
        )
        self.memory = MainMemory(
            address_map=self.address_map,
            latency_min=config.memory_latency_min,
            latency_max=config.memory_latency_max,
            seed=config.seed,
        )
        self.l1_stats: List[L1Stats] = [L1Stats() for _ in range(config.num_cores)]
        self.l2_stats: List[L2Stats] = [L2Stats() for _ in range(config.effective_l2_tiles)]
        self.core_stats: List[CoreStats] = [CoreStats() for _ in range(config.num_cores)]
        self.l1_controllers = [self._build_l1(core) for core in range(config.num_cores)]
        self.l2_controllers = [self._build_l2(tile) for tile in range(config.effective_l2_tiles)]
        self.cores: List[CoreModel] = []
        self._finished_cores = 0
        self._running_cores = 0
        self._ran = False

    # ------------------------------------------------------------------ construction

    def _build_l1(self, core_id: int):
        cache = CacheArray(
            size_bytes=self.config.l1_size_bytes,
            assoc=self.config.l1_assoc,
            address_map=self.address_map,
            replacement=self.config.replacement_policy,
            name=f"L1[{core_id}]",
        )
        return self.protocol.make_l1_controller(
            self.config,
            core_id=core_id,
            sim=self.sim,
            network=self.network,
            topology=self.topology,
            address_map=self.address_map,
            cache=cache,
            stats=self.l1_stats[core_id],
            hit_latency=self.config.l1_hit_latency,
        )

    def _build_l2(self, tile_id: int):
        cache = CacheArray(
            size_bytes=self.config.l2_tile_size_bytes,
            assoc=self.config.l2_assoc,
            address_map=self.address_map,
            replacement=self.config.replacement_policy,
            name=f"L2[{tile_id}]",
        )
        return self.protocol.make_l2_controller(
            self.config,
            tile_id=tile_id,
            sim=self.sim,
            network=self.network,
            topology=self.topology,
            address_map=self.address_map,
            cache=cache,
            memory=self.memory,
            stats=self.l2_stats[tile_id],
            access_latency=self.config.l2_access_latency,
        )

    # ------------------------------------------------------------------ running

    def run(
        self,
        programs: Sequence[Callable[[CoreContext], Any]],
        params: Optional[Dict[str, Any]] = None,
        observer: Optional[Callable[[int, str, int, int, int], None]] = None,
        max_cycles: Optional[int] = None,
        workload_name: str = "",
        capture_streams: Optional[Sequence[list]] = None,
    ) -> SimulationResult:
        """Run one program per core to completion and return statistics.

        Args:
            programs: one generator-function per core (cores beyond
                ``len(programs)`` stay idle).
            params: workload parameters made available to every program via
                its :class:`CoreContext`.
            observer: optional per-operation observer (used by the litmus
                runner to collect execution histories).
            max_cycles: watchdog bound on simulated time.
            workload_name: label recorded in the returned statistics.
            capture_streams: optional instruction-stream capture hook — one
                list per program; each core's issued operations are appended
                to its list as ``(kind, address, value)`` tuples in program
                order (see :func:`repro.cpu.core_model.capturing_program`).
                Default off: runs without capture are untouched.

        Raises:
            DeadlockError: if the event queue drains before every core
                finished (a protocol deadlock).
            RuntimeError: if ``max_cycles`` is exceeded (livelock watchdog).
        """
        if self._ran:
            raise RuntimeError("System.run() may only be called once per System")
        self._ran = True
        if len(programs) > self.config.num_cores:
            raise ValueError(
                f"{len(programs)} programs supplied for {self.config.num_cores} cores"
            )
        if capture_streams is not None:
            if len(capture_streams) != len(programs):
                raise ValueError(
                    f"{len(capture_streams)} capture streams supplied for "
                    f"{len(programs)} programs"
                )
            programs = [capturing_program(program, stream)
                        for program, stream in zip(programs, capture_streams)]
        contexts: List[CoreContext] = []
        for core_id in range(self.config.num_cores):
            context = CoreContext(
                core_id=core_id,
                num_cores=self.config.num_cores,
                params=dict(params or {}),
                observer=observer,
            )
            contexts.append(context)
        running_cores = len(programs)
        self._running_cores = running_cores
        for core_id, program in enumerate(programs):
            write_buffer = WriteBuffer(capacity=self.config.write_buffer_entries)
            core = CoreModel(
                core_id=core_id,
                sim=self.sim,
                l1=self.l1_controllers[core_id],
                write_buffer=write_buffer,
                stats=self.core_stats[core_id],
                program=program,
                context=contexts[core_id],
                on_finish=self._core_finished,
            )
            self.cores.append(core)
            core.start()

        # Completion is signalled by _core_finished() flipping the engine's
        # stop flag, checked as one attribute load per event.
        self.sim.run(max_cycles=max_cycles)
        finished = self._finished_cores >= running_cores
        if not finished:
            busy = [core for core in self.cores if not core.done]
            raise DeadlockError(
                f"simulation ended at cycle {self.sim.now} with unfinished "
                f"cores {[core.core_id for core in busy]} (protocol deadlock "
                f"or starved workload)\n"
                + "\n".join(f"  {core.describe_stall()}" for core in busy)
            )
        return self._collect(contexts, workload_name, finished)

    def _core_finished(self, _core_id: int) -> None:
        self._finished_cores += 1
        if self._finished_cores >= self._running_cores:
            self.sim.request_stop()

    def _collect(self, contexts: List[CoreContext], workload_name: str,
                 finished: bool) -> SimulationResult:
        stats = SystemStats(
            protocol=self.protocol.name,
            workload=workload_name,
            cycles=max((core.finish_time for core in self.core_stats), default=self.sim.now),
            events=self.sim.events_executed,
            l1=self.l1_stats,
            l2=self.l2_stats,
            cores=self.core_stats,
            network=self.network.stats,
        )
        return SimulationResult(stats=stats, contexts=contexts, finished=finished)


def build_system(config: SystemConfig, protocol) -> System:
    """Build a :class:`System` for ``protocol`` (a registered name such as
    ``"TSO-CC-4-12-3"`` or ``"MSI"``, a
    :class:`~repro.protocols.registry.Protocol` plugin, or an ad-hoc
    :class:`~repro.protocols.tsocc.config.TSOCCConfig`)."""
    from repro.protocols.registry import get_protocol

    return System(config=config, protocol=get_protocol(protocol))
