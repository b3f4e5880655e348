"""Switch tests: forwarding, buffering, NDP-style trimming."""

import pytest

from repro.errors import SimulationError
from repro.net.clos import ClosFabric
from repro.net.headers import PROTO_SMT, IPv4Header, PacketType, TransportHeader
from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.switch import Switch
from repro.sim.event_loop import EventLoop
from repro.units import GBPS


def make_packet(dst, payload_len=100, priority=0):
    ip = IPv4Header(1, dst, PROTO_SMT, 60 + payload_len)
    transport = TransportHeader(1, 2, 3, PacketType.DATA, priority=priority)
    return Packet(ip, transport, bytes(payload_len))


class TestForwarding:
    def test_delivers_to_destination_port(self):
        loop = EventLoop()
        switch = Switch(loop)
        got = {10: [], 20: []}
        switch.attach(10, lambda p: got[10].append(p))
        switch.attach(20, lambda p: got[20].append(p))
        switch.inject(make_packet(10))
        switch.inject(make_packet(20))
        switch.inject(make_packet(20))
        loop.run()
        assert len(got[10]) == 1 and len(got[20]) == 2

    def test_unknown_destination_rejected(self):
        switch = Switch(EventLoop())
        with pytest.raises(SimulationError):
            switch.inject(make_packet(99))

    def test_priority_scheduling(self):
        loop = EventLoop()
        switch = Switch(loop, bandwidth_bps=1 * GBPS)
        order = []
        switch.attach(10, lambda p: order.append(p.transport.priority))
        switch.inject(make_packet(10, 1000, priority=0))
        switch.inject(make_packet(10, 1000, priority=0))
        switch.inject(make_packet(10, 1000, priority=7))
        loop.run()
        assert order == [0, 7, 0]


class TestBufferingAndTrimming:
    def test_overflow_drops_without_trimming(self):
        loop = EventLoop()
        switch = Switch(loop, buffer_bytes=3000, trimming=False)
        got = []
        switch.attach(10, lambda p: got.append(p))
        for _ in range(10):
            switch.inject(make_packet(10, 1400))
        loop.run()
        assert switch.stats(10)["dropped"] > 0
        assert len(got) < 10

    def test_overflow_trims_with_trimming(self):
        loop = EventLoop()
        switch = Switch(loop, buffer_bytes=3000, trimming=True)
        got = []
        switch.attach(10, lambda p: got.append(p))
        for _ in range(10):
            switch.inject(make_packet(10, 1400))
        loop.run()
        stats = switch.stats(10)
        assert stats["trimmed"] > 0
        # Trimmed packets still arrive: headers only, top priority.
        trimmed = [p for p in got if p.meta.get("trimmed")]
        assert trimmed
        assert all(len(p.payload) == 0 for p in trimmed)
        # Transport metadata survives trimming (paper §7: the receiver can
        # identify sender demand from plaintext metadata).
        assert all(p.transport.msg_id == 3 for p in trimmed)


class TestPortLookup:
    """One lookup behind every per-port call: an unknown key is one error."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda sw: sw.stats(99),
            lambda sw: sw.inject_faults(99, None),
            lambda sw: sw.install_tap(99, None),
            lambda sw: sw.set_port_down(99, True),
            lambda sw: sw.set_trunk_boundary("spine9", None),
            lambda sw: sw.inject(make_packet(99)),
        ],
        ids=["stats", "inject_faults", "install_tap", "set_port_down",
             "set_trunk_boundary", "inject"],
    )
    def test_unknown_port_raises(self, call):
        switch = Switch(EventLoop())
        switch.attach(10, lambda p: None)
        with pytest.raises(SimulationError, match="no port for"):
            call(switch)


class TestPriorityByte:
    """The wire's priority byte holds 0-255; only 0-7 name a queue."""

    def _wire_image(self, dst):
        # A priority-255 packet as it would arrive off the wire (e.g. at a
        # shard boundary), decoded from bytes rather than built in Python.
        return Packet.decode(make_packet(dst, 40, priority=255).encode())

    def test_every_egress_rejects_it_alike(self):
        packet = self._wire_image(10)
        assert packet.transport.priority == 255
        loop = EventLoop()
        switch = Switch(loop)
        switch.attach(10, lambda p: None)
        fabric = ClosFabric(loop, num_racks=1, num_spines=1)
        for addr in (1, 10):
            fabric.attach_host(0, addr).attach("x", lambda p: None)
        sends = [
            lambda: switch.inject(packet),
            lambda: Link(loop).send("a", packet),
            lambda: fabric.port(1).send("x", packet),
            lambda: fabric.leaves[0].inject(packet),
        ]
        for send in sends:
            with pytest.raises(SimulationError, match="priority 255 out of range"):
                send()
