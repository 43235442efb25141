"""repro — a complete Python reproduction of *TSO-CC: Consistency directed
cache coherence for TSO* (Elver & Nagarajan, HPCA 2014).

The package contains:

* :mod:`repro.protocols` — the protocol plugin framework
  (:class:`~repro.protocols.registry.Protocol`, ``@register_protocol``,
  :func:`~repro.protocols.registry.get_protocol`) and the bundled
  protocols: the TSO-CC family (:mod:`repro.protocols.tsocc` — basic
  protocol, timestamp transitive reduction, SharedRO optimization,
  timestamp resets/epochs, plus the storage model of Table 1 / Figure 2),
  the MESI directory baseline and an MSI demonstrator;
* :mod:`repro.memsys`, :mod:`repro.interconnect`, :mod:`repro.cpu`,
  :mod:`repro.sim` — the simulated CMP substrate (caches, write buffers,
  mesh network, TSO cores, event-driven engine, system builder);
* :mod:`repro.workloads` — synthetic program generators standing in for the
  SPLASH-2 / PARSEC / STAMP benchmarks of Table 3;
* :mod:`repro.consistency` — an operational x86-TSO reference model, litmus
  tests and checkers;
* :mod:`repro.analysis` — the experiment harness that regenerates every
  table and figure of the paper's evaluation.

Quick start::

    from repro import build_system, SystemConfig
    from repro.workloads import producer_consumer

    workload = producer_consumer(num_cores=4)
    system = build_system(SystemConfig().scaled(num_cores=4), "TSO-CC-4-12-3")
    result = system.run(workload.programs, params=workload.params)
    print(result.stats.summary())
"""

from repro.protocols.registry import (
    PAPER_CONFIGURATIONS,
    Protocol,
    get_protocol,
    list_protocol_names,
    register_configuration,
    register_protocol,
)
from repro.protocols.storage import StorageModel
from repro.protocols.tsocc.config import (
    CC_SHARED_TO_L2,
    TSO_CC_4_12_0,
    TSO_CC_4_12_3,
    TSO_CC_4_9_3,
    TSO_CC_4_BASIC,
    TSO_CC_4_NORESET,
    TSOCCConfig,
)
from repro.sim.config import SystemConfig
from repro.sim.system import SimulationResult, System, build_system

__version__ = "1.1.0"

__all__ = [
    "TSOCCConfig",
    "CC_SHARED_TO_L2",
    "TSO_CC_4_BASIC",
    "TSO_CC_4_NORESET",
    "TSO_CC_4_12_3",
    "TSO_CC_4_12_0",
    "TSO_CC_4_9_3",
    "StorageModel",
    "SystemConfig",
    "System",
    "SimulationResult",
    "build_system",
    "Protocol",
    "PAPER_CONFIGURATIONS",
    "get_protocol",
    "list_protocol_names",
    "register_protocol",
    "register_configuration",
    "__version__",
]
