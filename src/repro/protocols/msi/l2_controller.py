"""MSI shared-cache (L2) tile controller.

The whole difference between MSI and MESI lives in the read-grant policy:
where the MESI directory hands an uncontended reader an Exclusive copy
(saving the later upgrade for private read-write data), MSI always grants a
Shared copy and tracks the reader in the sharing vector.  Every write —
including the first access to an uncached line via ``GetX`` — still takes
the exclusive-owner path.
"""

from __future__ import annotations

from repro.interconnect.message import MessageType
from repro.memsys.cacheline import CacheLine
from repro.protocols.mesi.l2_controller import MESIL2Controller
from repro.protocols.msi.states import MSIDirState


class MSIL2Controller(MESIL2Controller):
    """Directory / shared-cache controller for one L2 tile (MSI)."""

    protocol_label = "MSI"

    def grant_read(self, line: CacheLine, requester: int) -> None:
        """Grant a Shared copy (never Exclusive) and track the sharer."""
        line.state = MSIDirState.SHARED
        line.owner = None
        line.sharers = {requester}
        self.send(MessageType.DATA_S, self.l1_nodes[requester],
                  address=line.address, data=line.copy_data(),
                  delay=self.access_latency)
