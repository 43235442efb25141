"""A protocol deadlock is reported with the work each stuck core is waiting
for, not just the core ids.

The negative control is a test-only MESI whose L2 drops every ``GETS``
(following the pattern of ``tests/_mutant.py``, but never registered): a
load miss then waits forever, the event queue drains, and the
``DeadlockError`` must name the core, the ``load``, its line and the L2
tile it waits on.
"""

import pytest

from repro.cpu.instruction import Load, Store
from repro.protocols.mesi.l2_controller import MESIL2Controller
from repro.protocols.mesi.protocol import MESIProtocol
from repro.sim.config import SystemConfig
from repro.sim.simulator import DeadlockError
from repro.sim.system import build_system


class DropGetsL2Controller(MESIL2Controller):
    """MESI L2 that silently drops every read request (a deliberate bug)."""

    def _on_gets(self, msg):
        self.stats.requests["GetS"] += 1


class DropGetsProtocol(MESIProtocol):
    """Unregistered plugin around :class:`DropGetsL2Controller`."""

    l2_controller_cls = DropGetsL2Controller

    @property
    def name(self) -> str:
        return "MESI-dropgets"


def test_deadlock_error_names_core_load_and_line():
    system = build_system(SystemConfig().scaled(num_cores=2), DropGetsProtocol())

    def reader(ctx):
        yield Load(0x1048)

    def writer(ctx):
        yield Store(0x2000, 7)

    with pytest.raises(DeadlockError) as caught:
        system.run([reader, writer])
    message = str(caught.value)
    assert "unfinished cores [0]" in message
    # The stuck core's line names its pending transaction: kind, line
    # address (not the word address), issue cycle and the home L2 tile the
    # request went to (lines interleave across the 2 tiles: 0x1040 is line
    # 0x41, so tile 1), plus its write buffer.
    stuck = next(line for line in message.splitlines() if "core 0:" in line)
    assert ("pending load of line 0x1040 issued at cycle 0, awaiting L2 "
            "tile 1") in stuck
    assert "write buffer depth 0, no store in flight" in stuck
    assert "core 1:" not in message  # the writer finished
