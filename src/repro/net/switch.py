"""Output-queued switch for multi-host topologies.

The paper's testbed is back-to-back, but the examples and some tests run
small fan-in scenarios (incast on a key-value store), so the substrate
includes a minimal switch: ports bound to host addresses, strict-priority
output queues, bounded buffers with optional NDP-style packet trimming
(paper §7 notes SMT's compatibility with trimming because transport
metadata stays in plaintext).

Every port is an :class:`~repro.net.link.Egress`, the same serialising
port a link direction is; the switch adds only policy in front of it:
routing, buffer admission, trimming and the failure-domain down state.
Two extensions turn the single switch into a building block for
multi-tier fabrics (``repro.net.clos``): *trunk ports* -- egress ports
named by string rather than bound to one destination address, feeding
another switch's ``inject`` -- and a pluggable *router* that maps each
packet to the port key it should leave through (per-destination by
default).  Strict priorities and bounded buffers apply at every hop --
and trimming too, when the bed enables it (``trimming=True``; the
default is to drop).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Union

from repro.errors import SimulationError
from repro.net.link import NUM_PRIORITIES, Egress, Receiver, Tap
from repro.net.packet import Packet
from repro.sim.event_loop import EventLoop
from repro.units import GBPS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.faults import FaultInjector

#: Ports are keyed by host address (int) or trunk name (str).
PortKey = Union[int, str]
Router = Callable[[Packet], PortKey]


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
        self._ports: dict[PortKey, Egress] = {}
        self._router: Optional[Router] = None
        # Failure-domain state: a down switch blackholes every injected
        # packet (spine/leaf kill).  Packets already serialising when the
        # switch dies are considered "on the wire" and still deliver;
        # queued packets are flushed and counted.
        self.down = False
        self.blackholed = 0

    def attach(self, addr: int, receiver: Receiver) -> None:
        """Bind a host address to a switch port delivering via ``receiver``."""
        self._ports[addr] = Egress(
            self.loop, self._bandwidth, self._delay, receiver, self._buffer_bytes
        )

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
        self._ports[name] = Egress(
            self.loop,
            bandwidth_bps if bandwidth_bps is not None else self._bandwidth,
            delay if delay is not None else self._delay,
            receiver,
            buffer_bytes if buffer_bytes is not None else self._buffer_bytes,
        )

    def set_router(self, router: Optional[Router]) -> None:
        """Map each injected packet to the port key it egresses through.

        ``None`` restores the default per-destination-address routing.
        """
        self._router = router

    def _port(self, key: PortKey) -> Egress:
        port = self._ports.get(key)
        if port is None:
            raise SimulationError(f"no port for {key!r}")
        return port

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
            port = self._port(key)  # raises: no such port
        if port.down:
            port.blackholed += 1
            self.blackholed += 1
            if port.tap is not None:
                port.tap(packet, "blackholed")
            return
        if port.queued + packet.wire_size > port.buffer_bytes:
            admit = False
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
                admit = port.queued + packet.wire_size <= port.buffer_bytes + 8192
            if not admit:
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
        port.enqueue(packet)

    def inject_burst(self, packets: list[Packet]) -> None:
        """Forward a same-instant burst, one :meth:`inject` per packet.

        Nothing in the simulator calls it: an uplink serialises a burst,
        so the packets reach the switch one at a time.  It stays only
        because the ledger's tracer wraps it as a network entry point.
        """
        for packet in packets:
            self.inject(packet)

    # -- failure domains ----------------------------------------------------------

    def set_down(self, down: bool) -> None:
        """Kill or revive the whole switch (spine/leaf failure domain).

        Going down flushes every queued packet (they die with the switch's
        buffers); a packet mid-serialisation still delivers, modelling
        bits already on the wire.  Idempotent in both directions.
        """
        if down and not self.down:
            for port in self._ports.values():
                self.blackholed += port.flush()
        self.down = down

    def set_port_down(self, key: PortKey, down: bool) -> None:
        """Kill or revive one egress port (replica crash: the downlink)."""
        port = self._port(key)
        if down and not port.down:
            self.blackholed += port.flush()
        port.down = down

    def inject_faults(self, addr: PortKey, injector: Optional["FaultInjector"]) -> None:
        """Adversarial conditions on the egress port ``addr`` (host or trunk)."""
        self._port(addr).fault_injector = injector

    def set_trunk_boundary(
        self, key: PortKey, sender: Optional[Callable[[Packet, float], None]]
    ) -> None:
        """Turn the egress port ``key`` into a time-domain boundary.

        ``sender(packet, arrival_time)`` is called at serialisation end
        (before propagation); the sender owns delivery -- typically by
        queueing the packet for the destination domain, where it is
        injected at ``arrival_time``.  ``None`` restores local delivery.
        """
        self._port(key).boundary = sender

    def install_tap(self, addr: PortKey, tap: Optional[Tap]) -> None:
        """Passively observe the egress port ``addr`` (host or trunk)."""
        self._port(addr).tap = tap

    def stats(self, addr: PortKey) -> dict:
        return self._port(addr).stats()

    def totals(self) -> dict:
        """Drop/trim/queue/blackhole counters aggregated over every port."""
        out = {"dropped": 0, "trimmed": 0, "queued": 0,
               "blackholed": self.blackholed}
        for port in self._ports.values():
            out["dropped"] += port.dropped
            out["trimmed"] += port.trimmed
            out["queued"] += port.queued
        return out
