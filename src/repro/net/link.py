"""Egress ports, and the full-duplex link built from two of them.

Every wire in the simulator is one :class:`Egress`: both directions of a
back-to-back :class:`Link` (the paper's testbed, two hosts over 100 Gb/s),
each host's uplink into a fabric, and every switch port and trunk.  An
egress holds 8 strict-priority queues (Homa's network priorities; priority
7 is highest, matching typical DSCP mappings), serialises one packet at a
time at line rate, then adds the propagation delay.

``loss_fn`` lets tests inject deterministic loss: it sees every packet
and returns True to drop it.  For richer adversarial conditions (reorder,
duplication, corruption, burst loss, flaps) attach a seeded
:class:`repro.net.faults.FaultInjector` with :meth:`Link.inject_faults`.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import SimulationError
from repro.net.packet import Packet
from repro.sim.event_loop import EventLoop
from repro.units import GBPS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.faults import FaultInjector

NUM_PRIORITIES = 8

Receiver = Callable[[Packet], None]
LossFn = Callable[[Packet], bool]
#: Capture tap: called with (packet, verdict) at delivery time.
Tap = Callable[[Packet, str], None]


class Egress:
    """One egress port: priority queues, a serialiser, a propagation delay.

    The port only queues and transmits.  Whatever decides *whether* a
    packet is queued -- a switch's routing, buffer bound, trimming and
    down state -- is the owner's policy; the port carries the state that
    policy reads and counts (``buffer_bytes``, ``down``, ``dropped``,
    ``trimmed``, ``blackholed``).
    """

    def __init__(
        self,
        loop: EventLoop,
        bandwidth_bps: float,
        delay: float,
        receiver: Optional[Receiver] = None,
        buffer_bytes: Optional[int] = None,
    ):
        self.loop = loop
        self.bandwidth = bandwidth_bps
        self.delay = delay
        self.queues: list[deque[Packet]] = [deque() for _ in range(NUM_PRIORITIES)]
        # Bitmask of non-empty priority queues: the serialiser finds the
        # highest-priority backlog with one bit_length() instead of an
        # 8-way scan per dequeue.
        self.prio_mask = 0
        # Wire bytes waiting in the queues (not the packet on the wire).
        self.queued = 0
        self.busy = False
        self.receiver = receiver
        # Domain-boundary sender (repro.sim.shard): when set, _finish hands
        # the packet and its arrival time to this callable instead of
        # scheduling the receiver locally.
        self.boundary: Optional[Callable[[Packet, float], None]] = None
        self.loss_fn: Optional[LossFn] = None
        self.fault_injector: Optional["FaultInjector"] = None
        # Passive capture tap: a ``(packet, verdict)`` callback invoked at
        # delivery time (after the injector, if any, decided the fate).
        self.tap: Optional[Tap] = None
        self.tx_packets = 0
        self.tx_bytes = 0
        self.dropped = 0
        # Switch policy state: the buffer bound admission checks against
        # (None: unbounded), and a down port blackholes what is routed to it.
        self.buffer_bytes = buffer_bytes
        self.down = False
        self.trimmed = 0
        self.blackholed = 0

    def send(self, packet: Packet, mtu: int) -> None:
        """A host puts ``packet`` on this wire; TSO must have cut it to ``mtu``."""
        if packet.size > mtu:
            raise SimulationError(
                f"packet of {packet.size} B exceeds MTU {mtu}; TSO missing?"
            )
        self.enqueue(packet)

    def enqueue(self, packet: Packet) -> None:
        prio = packet.transport.priority
        if not 0 <= prio < NUM_PRIORITIES:
            raise SimulationError(f"priority {prio} out of range")
        self.queues[prio].append(packet)
        self.prio_mask |= 1 << prio
        self.queued += packet.wire_size
        if not self.busy:
            self._start_next()

    def _start_next(self) -> None:
        mask = self.prio_mask
        if not mask:
            self.busy = False
            return
        prio = mask.bit_length() - 1
        queue = self.queues[prio]
        packet = queue.popleft()
        if not queue:
            self.prio_mask = mask & ~(1 << prio)
        self.busy = True
        size = packet.wire_size
        self.queued -= size
        self.loop.call_later((size * 8) / self.bandwidth, self._finish, packet)

    def _finish(self, packet: Packet) -> None:
        self.tx_packets += 1
        self.tx_bytes += packet.wire_size
        # The span a switch opened at admission covers queueing and
        # serialisation on this port; it closes here.
        span = packet.meta.pop("obs_span", None)
        if span is not None:
            self.loop.obs.tracer.end(span)
        if self.loss_fn is not None and self.loss_fn(packet):
            self.dropped += 1
            if self.tap is not None:
                self.tap(packet, "loss_fn_dropped")
        elif self.boundary is not None:
            # Propagation happens in the destination time domain.  The
            # arrival time now + delay is the same float call_later would
            # have produced, so a domain cut at this port is invisible to
            # the virtual-time schedule.
            self.boundary(packet, self.loop.now + self.delay)
        else:
            receiver = self.receiver
            if receiver is not None:
                if self.fault_injector is not None or self.tap is not None:
                    self.loop.call_later(self.delay, self._deliver, packet)
                else:
                    self.loop.call_later(self.delay, receiver, packet)
        self._start_next()

    def _deliver(self, packet: Packet) -> None:
        """Post-propagation delivery through the injector and/or tap."""
        receiver = self.receiver
        injector = self.fault_injector
        if injector is not None:
            verdict = injector.process(packet, receiver)
        else:
            verdict = "delivered"
            receiver(packet)
        if self.tap is not None:
            self.tap(packet, verdict)

    def flush(self) -> int:
        """Blackhole everything queued, closing any open spans.

        A packet mid-serialisation is already on the wire and still
        delivers.  Returns how many packets were flushed.
        """
        flushed = 0
        for queue in self.queues:
            while queue:
                packet = queue.popleft()
                flushed += 1
                span = packet.meta.pop("obs_span", None)
                if span is not None:
                    self.loop.obs.tracer.end(span, fate="blackholed")
                if self.tap is not None:
                    self.tap(packet, "blackholed")
        self.blackholed += flushed
        self.prio_mask = 0
        self.queued = 0
        return flushed

    def stats(self) -> dict:
        return {
            "tx_packets": self.tx_packets,
            "tx_bytes": self.tx_bytes,
            "dropped": self.dropped,
            "trimmed": self.trimmed,
            "queued": self.queued,
        }


class Link:
    """A full-duplex link between endpoints "a" and "b"."""

    def __init__(
        self,
        loop: EventLoop,
        bandwidth_bps: float = 100 * GBPS,
        delay: float = 1.0e-6,
        mtu: int = 1500,
    ):
        self.loop = loop
        self.mtu = mtu
        self._a_to_b = Egress(loop, bandwidth_bps, delay)
        self._b_to_a = Egress(loop, bandwidth_bps, delay)

    def _egress(self, side: str) -> Egress:
        """The direction transmitting *from* endpoint ``side``."""
        if side == "a":
            return self._a_to_b
        if side == "b":
            return self._b_to_a
        raise SimulationError(f"unknown link side {side!r}")

    def attach(self, side: str, receiver: Receiver) -> None:
        """Register the packet handler for endpoint ``side`` ('a' or 'b')."""
        outbound = self._egress(side)
        inbound = self._b_to_a if outbound is self._a_to_b else self._a_to_b
        inbound.receiver = receiver

    def send(self, side: str, packet: Packet) -> None:
        """Transmit ``packet`` from endpoint ``side``."""
        self._egress(side).send(packet, self.mtu)

    def send_burst(self, side: str, packets: list[Packet]) -> None:
        """Transmit a same-instant burst from ``side`` via one callback."""
        egress = self._egress(side)
        mtu = self.mtu
        for packet in packets:
            egress.send(packet, mtu)

    def set_loss_fn(self, side: str, loss_fn: Optional[LossFn]) -> None:
        """Drop packets transmitted *from* ``side`` when loss_fn returns True."""
        self._egress(side).loss_fn = loss_fn

    def inject_faults(self, side: str, injector: Optional["FaultInjector"]) -> None:
        """Adversarial conditions for packets transmitted *from* ``side``.

        The injector sees every packet that survived serialisation and the
        legacy ``loss_fn``, after the propagation delay; it may drop,
        corrupt, duplicate, or re-time delivery (``None`` uninstalls).
        """
        self._egress(side).fault_injector = injector

    def install_tap(self, side: str, tap: Optional[Tap]) -> None:
        """Passively observe packets transmitted *from* ``side``.

        The tap sees every packet that finished serialising, with the
        verdict the fault pipeline assigned ("delivered", "dropped",
        "delivered+corrupt", ... or "loss_fn_dropped"); it must not mutate
        the packet or touch the loop (``None`` uninstalls).
        """
        self._egress(side).tap = tap

    def fault_stats(self, side: str) -> dict:
        """The installed injector's counters for ``side`` (empty if none)."""
        injector = self._egress(side).fault_injector
        return {} if injector is None else injector.stats()

    def stats(self, side: str) -> dict:
        """Counters of the direction transmitting from ``side``."""
        return self._egress(side).stats()
