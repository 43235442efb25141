"""TSO-CC protocol plugin: registration and per-configuration metadata."""

from __future__ import annotations

from typing import Any, Dict, Sequence

from repro.protocols.registry import Protocol, register_protocol
from repro.protocols.tsocc.config import PAPER_TSOCC_CONFIGS, TSOCCConfig
from repro.protocols.tsocc.l1_controller import TSOCCL1Controller
from repro.protocols.tsocc.l2_controller import TSOCCL2Controller
from repro.protocols.tsocc.storage import tsocc_overhead_bits


@register_protocol
class TSOCCProtocol(Protocol):
    """The paper's lazy, consistency-directed coherence protocol.

    One instance per named configuration (``TSO-CC-4-12-3`` etc.); ad-hoc
    :class:`TSOCCConfig` objects resolve to unregistered instances through
    :func:`repro.protocols.registry.get_protocol`.
    """

    kind = "tsocc"
    self_invalidates = True
    l1_controller_cls = TSOCCL1Controller
    l2_controller_cls = TSOCCL2Controller

    def __init__(self, config: TSOCCConfig) -> None:
        if not isinstance(config, TSOCCConfig):
            raise TypeError(f"TSOCCProtocol requires a TSOCCConfig, got {config!r}")
        self.config = config

    @classmethod
    def configurations(cls) -> Sequence["TSOCCProtocol"]:
        return tuple(cls(config) for config in PAPER_TSOCC_CONFIGS)

    def l1_extra_args(self, system_config) -> Dict[str, Any]:
        return {
            "protocol_config": self.config,
            "num_cores": system_config.num_cores,
            "num_l2_tiles": system_config.effective_l2_tiles,
        }

    def l2_extra_args(self, system_config) -> Dict[str, Any]:
        return {
            "protocol_config": self.config,
            "num_cores": system_config.num_cores,
        }

    def overhead_bits(self, system_config) -> int:
        return tsocc_overhead_bits(system_config, self.config)
