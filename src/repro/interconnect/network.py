"""Message-level on-chip network model.

The :class:`Network` delivers :class:`~repro.interconnect.message.Message`
objects between registered node handlers after a latency proportional to the
mesh hop count, and accounts traffic in flits — the metric Figure 4 of the
paper reports.

Latency model (per message)::

    latency = router_latency * (hops + 1) + link_latency * hops
              + (flits - 1)            # serialization of multi-flit packets

with a minimum of ``min_latency`` cycles so that even a co-located L1/L2
pair pays a small cache-access round trip.

Traffic model (per message)::

    flits = 1                          # control messages (8B header, 16B flit)
    flits = ceil((8 + line) / 16)      # data messages

Broadcasts (e.g. TSO-CC timestamp resets, SharedRO invalidations) are sent as
one message per destination, each individually accounted — matching how a
mesh without hardware multicast would carry them.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Protocol

from repro.interconnect.message import (NUM_MESSAGE_TYPES, Message,
                                        MessageClass, MessageType)
from repro.interconnect.topology import MeshTopology


class MessageHandler(Protocol):
    """Anything that can receive coherence messages from the network."""

    def handle_message(self, msg: Message) -> None:
        """Process a delivered message."""


class Scheduler(Protocol):
    """Minimal scheduling interface the network needs (see
    :class:`repro.sim.simulator.Simulator`)."""

    @property
    def now(self) -> int:
        """Current simulation time in cycles."""
        ...

    def schedule(self, delay: int, callback: Callable[[], None]) -> None:
        """Run ``callback`` ``delay`` cycles in the future."""
        ...

    def schedule_call(self, delay: int, callback: Callable[..., None],
                      *args) -> None:
        """Run ``callback(*args)`` ``delay`` cycles in the future."""
        ...


class NetworkStats:
    """Aggregate traffic statistics.

    The per-type and per-class breakdowns are kept as flat lists indexed by
    ``MessageType.index`` on the hot path (two list increments per message in
    :meth:`Network.send`, which does all of the accounting) and folded into
    the public enum-keyed dictionaries lazily, the first time
    :attr:`by_type` / :attr:`by_class` / :attr:`flits_by_class` is read.
    Readers and writers of those dictionaries (tests, :meth:`from_dict`)
    see exactly the old interface.

    Attributes:
        messages: total messages delivered.
        flits: total flits delivered (the Figure 4 metric).
        hops_weighted_flits: sum of ``flits * max(1, hops)``, a
            finer-grained energy proxy.  Note the floor: a co-located
            (hops=0) L1/L2 pair still crosses the tile-local interconnect
            once, so zero-hop messages are charged one link traversal.
            Goldens pin these numbers; see DESIGN.md "Traffic accounting".
        by_type: messages per :class:`MessageType` (property).
        by_class: messages per :class:`MessageClass` (property).
        flits_by_class: flits per :class:`MessageClass` (property).
    """

    __slots__ = ("messages", "flits", "hops_weighted_flits",
                 "_by_class", "_flits_by_class", "_by_type",
                 "_type_counts", "_type_flits", "_dirty")

    def __init__(self, messages: int = 0, flits: int = 0,
                 hops_weighted_flits: int = 0) -> None:
        self.messages = messages
        self.flits = flits
        self.hops_weighted_flits = hops_weighted_flits
        self._by_class: Dict[MessageClass, int] = defaultdict(int)
        self._flits_by_class: Dict[MessageClass, int] = defaultdict(int)
        self._by_type: Dict[MessageType, int] = defaultdict(int)
        self._type_counts = [0] * NUM_MESSAGE_TYPES
        self._type_flits = [0] * NUM_MESSAGE_TYPES
        self._dirty = False

    def _fold(self) -> None:
        """Fold the flat hot-path counters into the enum-keyed dicts.

        No-op unless something was recorded since the last fold — stats
        rebuilt from the result cache (``from_dict``) never touch the flat
        counters, and the warm-cache path reads these properties per cell.
        """
        if not self._dirty:
            return
        self._dirty = False
        counts = self._type_counts
        type_flits = self._type_flits
        for mtype in MessageType:
            index = mtype.index
            count = counts[index]
            if count:
                self._by_type[mtype] += count
                self._by_class[mtype.msg_class] += count
                counts[index] = 0
            fl = type_flits[index]
            if fl:
                self._flits_by_class[mtype.msg_class] += fl
                type_flits[index] = 0

    @property
    def by_type(self) -> Dict[MessageType, int]:
        """Messages per :class:`MessageType` (folds pending counters)."""
        self._fold()
        return self._by_type

    @property
    def by_class(self) -> Dict[MessageClass, int]:
        """Messages per :class:`MessageClass` (folds pending counters)."""
        self._fold()
        return self._by_class

    @property
    def flits_by_class(self) -> Dict[MessageClass, int]:
        """Flits per :class:`MessageClass` (folds pending counters)."""
        self._fold()
        return self._flits_by_class

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NetworkStats):
            return NotImplemented
        return (self.messages == other.messages
                and self.flits == other.flits
                and self.hops_weighted_flits == other.hops_weighted_flits
                and dict(self.by_type) == dict(other.by_type)
                and dict(self.by_class) == dict(other.by_class)
                and dict(self.flits_by_class) == dict(other.flits_by_class))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"NetworkStats(messages={self.messages}, flits={self.flits}, "
                f"hops_weighted_flits={self.hops_weighted_flits})")

    def as_dict(self) -> Dict[str, float]:
        """Return a flat summary dictionary for reporting."""
        summary: Dict[str, float] = {
            "messages": self.messages,
            "flits": self.flits,
            "hops_weighted_flits": self.hops_weighted_flits,
        }
        for cls, count in self.flits_by_class.items():
            summary[f"flits_{cls.value}"] = count
        return summary

    def to_dict(self) -> Dict[str, object]:
        """Return a JSON-serializable representation (enum keys by name).

        The inverse of :meth:`from_dict`; used to ship statistics across
        process boundaries and to persist them in the on-disk result cache.
        """
        return {
            "messages": self.messages,
            "flits": self.flits,
            "hops_weighted_flits": self.hops_weighted_flits,
            "by_class": {cls.name: count for cls, count in self.by_class.items()},
            "flits_by_class": {cls.name: count
                               for cls, count in self.flits_by_class.items()},
            "by_type": {mtype.name: count for mtype, count in self.by_type.items()},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "NetworkStats":
        """Rebuild a :class:`NetworkStats` from :meth:`to_dict` output."""
        stats = cls(
            messages=int(data["messages"]),
            flits=int(data["flits"]),
            hops_weighted_flits=int(data["hops_weighted_flits"]),
        )
        for name, count in data.get("by_class", {}).items():
            stats.by_class[MessageClass[name]] = int(count)
        for name, count in data.get("flits_by_class", {}).items():
            stats.flits_by_class[MessageClass[name]] = int(count)
        for name, count in data.get("by_type", {}).items():
            stats.by_type[MessageType[name]] = int(count)
        return stats


class Network:
    """Mesh network connecting L1 controllers and L2 tiles.

    Args:
        topology: node placement and hop counts.
        scheduler: the simulation engine used to schedule deliveries.
        link_latency: cycles per link traversal.
        router_latency: cycles per router traversal.
        min_latency: lower bound on end-to-end latency.
        flit_bytes: flit size in bytes (Table 2: 16B).
        header_bytes: control/header size in bytes.
        line_bytes: cache line size in bytes (payload of data messages).
    """

    def __init__(
        self,
        topology: MeshTopology,
        scheduler: Scheduler,
        link_latency: int = 1,
        router_latency: int = 1,
        min_latency: int = 1,
        flit_bytes: int = 16,
        header_bytes: int = 8,
        line_bytes: int = 64,
    ) -> None:
        self.topology = topology
        self.scheduler = scheduler
        self.link_latency = link_latency
        self.router_latency = router_latency
        self.min_latency = min_latency
        self.flit_bytes = flit_bytes
        self.header_bytes = header_bytes
        self.line_bytes = line_bytes
        self.stats = NetworkStats()
        self._handlers: Dict[int, MessageHandler] = {}
        self._in_flight = 0
        # Message free list.  Messages are the dominant allocation of a
        # coherence simulation, but almost all are dead once their handler
        # returns, so `_deliver` recycles each one (unless the handler
        # retained it) and `send` refills it field by field.  A missed
        # recycle is only a slow path; every retain site is explicit.
        self._free: List[Message] = []
        # Hot-path precomputation: hop counts are a frozen property of the
        # topology, and flit counts take only two values (control vs. full
        # line), so `send` reduces to table lookups + one heap push.
        self._hops = topology.hops_table
        self._ctrl_flits = max(1, -(-header_bytes // flit_bytes))
        self._data_flits = max(1, -(-(header_bytes + line_bytes) // flit_bytes))
        self._base_latency = tuple(
            router_latency * (h + 1) + link_latency * h
            for h in range(topology.max_hops + 1)
        )

    # -- registration ------------------------------------------------------

    def register(self, node_id: int, handler: MessageHandler) -> None:
        """Attach ``handler`` to network endpoint ``node_id``."""
        if node_id in self._handlers:
            raise ValueError(f"node {node_id} already registered")
        self._handlers[node_id] = handler

    @property
    def in_flight(self) -> int:
        """Number of messages currently travelling through the network."""
        return self._in_flight

    # -- transmission ------------------------------------------------------

    def latency(self, src: int, dst: int, flits: int) -> int:
        """End-to-end latency of a ``flits``-sized message from ``src`` to
        ``dst``."""
        hops = self.topology.hops(src, dst)
        raw = self.router_latency * (hops + 1) + self.link_latency * hops + (flits - 1)
        return max(self.min_latency, raw)

    def send(
        self,
        mtype: MessageType,
        src: int,
        dst: int,
        address: Optional[int] = None,
        data: Optional[Dict[int, int]] = None,
        info: Optional[Dict[str, Any]] = None,
        delay: int = 0,
    ) -> Message:
        """Send a message from ``src`` to ``dst`` and return it.

        The message comes from the free list, is accounted in :attr:`stats`
        and is delivered to the destination handler's ``handle_message``
        after its latency plus ``delay`` (controllers use it to model their
        own occupancy / access latencies without scheduling separate
        events).  It is recycled after delivery; receivers that keep it
        must call :meth:`Message.retain`.
        """
        handler = self._handlers.get(dst)
        if handler is None:
            raise ValueError(f"no handler registered for destination node {dst}")
        if info is None:
            info = {}
        free = self._free
        if free:
            msg = free.pop()
            msg.mtype = mtype
            msg.src = src
            msg.dst = dst
            msg.address = address
            msg.data = data
            msg.info = info
        else:
            msg = Message(mtype, src, dst, address, data, info)
        if mtype.carries_data and data is not None:
            flits = self._data_flits
        else:
            flits = self._ctrl_flits
        hops = self._hops[src][dst]
        stats = self.stats
        stats.messages += 1
        stats.flits += flits
        stats.hops_weighted_flits += flits * (hops if hops > 1 else 1)
        index = mtype.index
        stats._type_counts[index] += 1
        stats._type_flits[index] += flits
        stats._dirty = True
        raw = self._base_latency[hops] + (flits - 1)
        latency = raw if raw > self.min_latency else self.min_latency
        if delay > 0:
            latency += delay
        self._in_flight += 1
        self.scheduler.schedule_call(latency, self._deliver, handler, msg)
        return msg

    def _deliver(self, handler: MessageHandler, msg: Message) -> None:
        self._in_flight -= 1
        handler.handle_message(msg)
        # Recycle the message unless the handler kept a reference
        # (Message.retain).
        if not msg.retained:
            msg.data = None
            self._free.append(msg)

    def broadcast(
        self,
        template: Message,
        destinations: Iterable[int],
        exclude: Optional[int] = None,
        extra_delay: int = 0,
    ) -> int:
        """Send a copy of ``template`` to every node in ``destinations``.

        Args:
            template: message to replicate (each copy is sent to one
                destination; the template itself is never sent).
            destinations: target node ids.
            exclude: optional node id to skip (typically the sender).
            extra_delay: forwarded to :meth:`send` for each copy.

        Returns:
            The number of copies sent.
        """
        count = 0
        for dst in destinations:
            if exclude is not None and dst == exclude:
                continue
            self.send(template.mtype, template.src, dst, template.address,
                      dict(template.data) if template.data is not None else None,
                      dict(template.info), extra_delay)
            count += 1
        return count
