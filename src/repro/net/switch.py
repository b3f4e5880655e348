"""Output-queued switch for multi-host topologies.

The paper's testbed is back-to-back, but the examples and some tests run
small fan-in scenarios (incast on a key-value store), so the substrate
includes a minimal switch: ports bound to host addresses, strict-priority
output queues, bounded buffers with optional NDP-style packet trimming
(paper §7 notes SMT's compatibility with trimming because transport
metadata stays in plaintext).

Two extensions turn the single switch into a building block for
multi-tier fabrics (``repro.net.clos``): *trunk ports* — egress ports
named by string rather than bound to one destination address, feeding
another switch's ``inject`` — and a pluggable *router* that maps each
packet to the port key it should leave through (per-destination by
default).  Trunks reuse the exact same ``_Port`` machinery, so strict
priorities and bounded buffers apply at every hop -- and trimming too,
when the bed enables it (``trimming=True``; the default is to drop).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Optional, Union

from repro.errors import SimulationError
from repro.net.link import NUM_PRIORITIES
from repro.net.packet import Packet
from repro.sim.event_loop import EventLoop
from repro.units import GBPS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.faults import FaultInjector

Receiver = Callable[[Packet], None]
Tap = Callable[[Packet, str], None]
#: Ports are keyed by host address (int) or trunk name (str).
PortKey = Union[int, str]
Router = Callable[[Packet], PortKey]


class _Port:
    def __init__(self, loop: EventLoop, bandwidth_bps: float, delay: float, buffer_bytes: int):
        self.loop = loop
        self.bandwidth = bandwidth_bps
        self.delay = delay
        self.buffer_bytes = buffer_bytes
        self.queues: list[deque[Packet]] = [deque() for _ in range(NUM_PRIORITIES)]
        # Bitmask of non-empty priority queues (see link._Direction).
        self.prio_mask = 0
        self.queued = 0
        self.busy = False
        self.receiver: Optional[Receiver] = None
        # Domain-boundary sender (repro.sim.shard): when set, _finish hands
        # the packet and its arrival time to this callable instead of
        # scheduling the receiver locally.
        self.boundary: Optional[Callable[[Packet, float], None]] = None
        self.fault_injector: Optional["FaultInjector"] = None
        # Passive capture tap: (packet, verdict) at delivery time.
        self.tap: Optional[Tap] = None
        self.dropped = 0
        self.trimmed = 0
        # Failure-domain state: a down port blackholes everything routed
        # to it (replica crash: the leaf's egress toward a dead host).
        self.down = False
        self.blackholed = 0


class Switch:
    """A single switch with per-destination ports."""

    def __init__(
        self,
        loop: EventLoop,
        bandwidth_bps: float = 100 * GBPS,
        delay: float = 0.5e-6,
        buffer_bytes: int = 128 * 1024,
        trimming: bool = False,
    ):
        self.loop = loop
        self._bandwidth = bandwidth_bps
        self._delay = delay
        self._buffer_bytes = buffer_bytes
        self.trimming = trimming
        self._ports: dict[PortKey, _Port] = {}
        self._router: Optional[Router] = None
        # Failure-domain state: a down switch blackholes every injected
        # packet (spine/leaf kill).  Packets already serialising when the
        # switch dies are considered "on the wire" and still deliver;
        # queued packets are flushed and counted.
        self.down = False
        self.blackholed = 0

    def attach(self, addr: int, receiver: Receiver) -> None:
        """Bind a host address to a switch port delivering via ``receiver``."""
        port = _Port(self.loop, self._bandwidth, self._delay, self._buffer_bytes)
        port.receiver = receiver
        self._ports[addr] = port

    def add_trunk(
        self,
        name: str,
        receiver: Receiver,
        bandwidth_bps: Optional[float] = None,
        delay: Optional[float] = None,
        buffer_bytes: Optional[int] = None,
    ) -> None:
        """An inter-switch egress port shared by many destinations.

        ``receiver`` is typically the next switch's :meth:`inject`.  A
        router must be installed (:meth:`set_router`) for any packet to be
        steered onto a trunk; per-destination lookup never selects one.
        """
        port = _Port(
            self.loop,
            bandwidth_bps if bandwidth_bps is not None else self._bandwidth,
            delay if delay is not None else self._delay,
            buffer_bytes if buffer_bytes is not None else self._buffer_bytes,
        )
        port.receiver = receiver
        self._ports[name] = port

    def set_router(self, router: Optional[Router]) -> None:
        """Map each injected packet to the port key it egresses through.

        ``None`` restores the default per-destination-address routing.
        """
        self._router = router

    def inject(self, packet: Packet) -> None:
        """A host or upstream switch hands over a packet for forwarding."""
        if self.down:
            self.blackholed += 1
            return
        key: PortKey
        if self._router is not None:
            key = self._router(packet)
        else:
            key = packet.ip.dst_addr
        port = self._ports.get(key)
        if port is None:
            raise SimulationError(f"no port for destination {key}")
        if port.down:
            port.blackholed += 1
            self.blackholed += 1
            if port.tap is not None:
                port.tap(packet, "blackholed")
            return
        size = packet.wire_size
        if port.queued + size > port.buffer_bytes:
            if self.trimming and packet.payload:
                # NDP-style trimming: drop the payload, forward the headers
                # at top priority so the receiver learns the sender's demand.
                # Trimmed headers use a small reserved headroom beyond the
                # data buffer (NDP keeps a separate priority header queue).
                packet = Packet(
                    packet.ip,
                    packet.transport.with_fields(priority=NUM_PRIORITIES - 1),
                    b"",
                    dict(packet.meta, trimmed=True),
                )
                port.trimmed += 1
                size = packet.wire_size
                headroom = port.buffer_bytes + 8192
                if port.queued + size > headroom:
                    port.dropped += 1
                    if port.tap is not None:
                        port.tap(packet, "buffer_dropped")
                    return
            else:
                port.dropped += 1
                if port.tap is not None:
                    port.tap(packet, "buffer_dropped")
                return
        obs = self.loop.obs
        if obs is not None:
            # Span covering the packet's residency in this egress port:
            # its duration is queueing + serialisation on the virtual clock.
            packet.meta["obs_span"] = obs.tracer.begin(
                "switch",
                f"port{key}",
                prio=packet.transport.priority,
                qdepth=port.queued,
            )
        prio = packet.transport.priority
        port.queues[prio].append(packet)
        port.prio_mask |= 1 << prio
        port.queued += size
        if not port.busy:
            self._start_next(port)

    def inject_burst(self, packets: list[Packet]) -> None:
        """Forward a same-instant departure burst through one callback.

        Routing, buffering, trimming and serialisation are identical to
        per-packet :meth:`inject`; the saving is upstream, where the burst
        rode a single event instead of one per packet.
        """
        for packet in packets:
            self.inject(packet)

    def _start_next(self, port: _Port) -> None:
        mask = port.prio_mask
        if not mask:
            port.busy = False
            return
        prio = mask.bit_length() - 1
        queue = port.queues[prio]
        packet = queue.popleft()
        if not queue:
            port.prio_mask = mask & ~(1 << prio)
        port.busy = True
        port.queued -= packet.wire_size
        tx_time = (packet.wire_size * 8) / port.bandwidth
        self.loop.call_later(tx_time, self._finish, (port, packet))

    def _finish(self, port_and_packet: tuple) -> None:
        port, pkt = port_and_packet
        span = pkt.meta.pop("obs_span", None)
        if span is not None:
            self.loop.obs.tracer.end(span)
        boundary = port.boundary
        if boundary is not None:
            # Serialisation is done; propagation happens in the destination
            # time domain.  The arrival time now + delay is the same float
            # call_later would have produced, so a domain cut at this port
            # is invisible to the virtual-time schedule.
            boundary(pkt, self.loop.now + port.delay)
            self._start_next(port)
            return
        receiver = port.receiver
        if receiver is not None:
            injector = port.fault_injector
            if injector is not None or port.tap is not None:
                self.loop.call_later(port.delay, self._deliver_to, (port, pkt))
            else:
                self.loop.call_later(port.delay, receiver, pkt)
        self._start_next(port)

    def _deliver_to(self, port_and_packet: tuple) -> None:
        self._deliver(*port_and_packet)

    def _deliver(self, port: _Port, packet: Packet) -> None:
        """Post-propagation delivery through the injector and/or tap."""
        receiver = port.receiver
        injector = port.fault_injector
        if injector is not None:
            verdict = injector.process(packet, receiver)
        else:
            verdict = "delivered"
            receiver(packet)
        if port.tap is not None:
            port.tap(packet, verdict)

    # -- failure domains ----------------------------------------------------------

    def set_down(self, down: bool) -> None:
        """Kill or revive the whole switch (spine/leaf failure domain).

        Going down flushes every queued packet (they die with the switch's
        buffers); a packet mid-serialisation still delivers, modelling
        bits already on the wire.  Idempotent in both directions.
        """
        if down and not self.down:
            for port in self._ports.values():
                self._flush_port(port)
        self.down = down

    def set_port_down(self, key: PortKey, down: bool) -> None:
        """Kill or revive one egress port (replica crash: the downlink)."""
        port = self._ports.get(key)
        if port is None:
            raise SimulationError(f"no port for address {key}")
        if down and not port.down:
            self._flush_port(port)
        port.down = down

    def _flush_port(self, port: _Port) -> None:
        """Drop everything queued on ``port``, closing any open spans."""
        for queue in port.queues:
            while queue:
                packet = queue.popleft()
                port.blackholed += 1
                self.blackholed += 1
                span = packet.meta.pop("obs_span", None)
                if span is not None:
                    self.loop.obs.tracer.end(span, fate="blackholed")
                if port.tap is not None:
                    port.tap(packet, "blackholed")
        port.prio_mask = 0
        port.queued = 0

    def inject_faults(self, addr: PortKey, injector: Optional["FaultInjector"]) -> None:
        """Adversarial conditions on the egress port ``addr`` (host or trunk)."""
        port = self._ports.get(addr)
        if port is None:
            raise SimulationError(f"no port for address {addr}")
        port.fault_injector = injector

    def set_trunk_boundary(
        self, key: PortKey, sender: Optional[Callable[[Packet, float], None]]
    ) -> None:
        """Turn the egress port ``key`` into a time-domain boundary.

        ``sender(packet, arrival_time)`` is called at serialisation end
        (before propagation); the sender owns delivery -- typically by
        queueing the packet for the destination domain, where it is
        injected at ``arrival_time``.  ``None`` restores local delivery.
        """
        port = self._ports.get(key)
        if port is None:
            raise SimulationError(f"no port for address {key}")
        port.boundary = sender

    def install_tap(self, addr: PortKey, tap: Optional[Tap]) -> None:
        """Passively observe the egress port ``addr`` (host or trunk)."""
        port = self._ports.get(addr)
        if port is None:
            raise SimulationError(f"no port for address {addr}")
        port.tap = tap

    def stats(self, addr: PortKey) -> dict:
        port = self._ports[addr]
        return {"dropped": port.dropped, "trimmed": port.trimmed, "queued": port.queued}

    def totals(self) -> dict:
        """Drop/trim/queue/blackhole counters aggregated over every port."""
        out = {"dropped": 0, "trimmed": 0, "queued": 0,
               "blackholed": self.blackholed}
        for port in self._ports.values():
            out["dropped"] += port.dropped
            out["trimmed"] += port.trimmed
            out["queued"] += port.queued
        return out
