"""Coherence storage-overhead model (Table 1 and Figure 2 of the paper).

The per-protocol inventories live on the protocol plugins
(:meth:`repro.protocols.registry.Protocol.overhead_bits`): the full-map
directory formula on the MESI/MSI plugins and the Table 1 inventory on the
TSO-CC plugin (:mod:`repro.protocols.tsocc.storage`).  This module provides
:class:`StorageModel`, the protocol-agnostic calculator used by the
Figure 2 / Table 1 benchmarks, examples and the CLI; any registered
protocol (or ad-hoc ``TSOCCConfig``) can be queried through it.

The headline result reproduced by Figure 2 is that MESI's overhead grows
linearly with the core count (the sharing vector) while TSO-CC's per-line
overhead grows only logarithmically (the owner pointer), so the gap widens
from tens of percent at 32 cores to >80% at 128 cores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence

from repro.protocols.registry import get_protocol
from repro.sim.config import SystemConfig


def log2_ceil(value: int) -> int:
    """Number of bits needed to encode ``value`` distinct identifiers."""
    return max(1, math.ceil(math.log2(max(2, value))))


@dataclass
class StorageModel:
    """Storage-overhead calculator over the registered protocol plugins.

    Args:
        system: platform parameters (core count is overridden per query).
    """

    system: SystemConfig

    def _system_for(self, num_cores: int) -> SystemConfig:
        return self.system.with_cores(num_cores)

    def bits(self, protocol, num_cores: int) -> int:
        """Coherence storage in bits of ``protocol`` (a name, plugin or
        ``TSOCCConfig``) at ``num_cores`` cores."""
        return get_protocol(protocol).overhead_bits(self._system_for(num_cores))

    def mesi_bits(self, num_cores: int) -> int:
        """MESI coherence storage in bits at ``num_cores`` cores."""
        return self.bits("MESI", num_cores)

    def overhead_mbytes(self, num_cores: int, protocol=None) -> float:
        """Coherence storage in megabytes (``None`` selects MESI)."""
        bits = self.bits("MESI" if protocol is None else protocol, num_cores)
        return bits / 8 / (1024 * 1024)

    def reduction_vs_mesi(self, num_cores: int, protocol) -> float:
        """Fractional storage reduction of ``protocol`` relative to MESI."""
        mesi = self.mesi_bits(num_cores)
        other = self.bits(protocol, num_cores)
        return 1.0 - (other / mesi) if mesi else 0.0

    def figure2_series(
        self,
        configs: Iterable,
        core_counts: Sequence[int] = (2, 4, 8, 16, 32, 48, 64, 80, 96, 112, 128),
    ) -> Dict[str, Dict[int, float]]:
        """Return the Figure 2 data, ``{protocol: {cores: overhead MB}}``,
        for MESI and every protocol in ``configs`` (names, plugins or
        configs)."""
        series = {"MESI": {c: self.overhead_mbytes(c) for c in core_counts}}
        for config in configs:
            protocol = get_protocol(config)
            series[protocol.name] = {c: self.overhead_mbytes(c, protocol)
                                     for c in core_counts}
        return series

    def table1_breakdown(self, config, num_cores: Optional[int] = None) -> Dict[str, float]:
        """Return a per-component breakdown (bits) mirroring Table 1 for a
        TSO-CC configuration.

        Raises:
            TypeError: for non-TSO-CC protocols (Table 1 only inventories
                the TSO-CC structures).
        """
        from repro.protocols.tsocc.storage import tsocc_table1_breakdown

        cores = num_cores if num_cores is not None else self.system.num_cores
        protocol = get_protocol(config)
        if protocol.kind != "tsocc" or protocol.config is None:
            raise TypeError(
                f"table1_breakdown is TSO-CC-only; got {protocol.name!r} "
                f"(kind {protocol.kind!r})"
            )
        return tsocc_table1_breakdown(self._system_for(cores), protocol.config)
