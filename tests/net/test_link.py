"""Link model tests: serialization, priorities, loss."""

import pytest

from repro.errors import SimulationError
from repro.net.headers import PROTO_SMT, IPv4Header, PacketType, TransportHeader
from repro.net.link import Link
from repro.net.packet import Packet
from repro.sim.event_loop import EventLoop
from repro.units import GBPS


def make_packet(payload_len=100, priority=0):
    ip = IPv4Header(1, 2, PROTO_SMT, 60 + payload_len)
    transport = TransportHeader(1, 2, 3, PacketType.DATA, priority=priority)
    return Packet(ip, transport, bytes(payload_len))


class TestTiming:
    def test_delivery_includes_serialization_and_propagation(self):
        loop = EventLoop()
        link = Link(loop, bandwidth_bps=1 * GBPS, delay=1e-6)
        arrivals = []
        link.attach("b", lambda p: arrivals.append(loop.now))
        p = make_packet(100)
        link.send("a", p)
        loop.run()
        expected = (p.wire_size * 8) / (1 * GBPS) + 1e-6
        assert arrivals[0] == pytest.approx(expected)

    def test_back_to_back_packets_serialize(self):
        loop = EventLoop()
        link = Link(loop, bandwidth_bps=1 * GBPS, delay=0.0)
        arrivals = []
        link.attach("b", lambda p: arrivals.append(loop.now))
        p = make_packet(1000)
        link.send("a", p)
        link.send("a", p)
        loop.run()
        tx = (p.wire_size * 8) / (1 * GBPS)
        assert arrivals == [pytest.approx(tx), pytest.approx(2 * tx)]

    def test_directions_are_independent(self):
        loop = EventLoop()
        link = Link(loop, bandwidth_bps=1 * GBPS, delay=0.0)
        a_got, b_got = [], []
        link.attach("a", lambda p: a_got.append(loop.now))
        link.attach("b", lambda p: b_got.append(loop.now))
        p = make_packet(1000)
        link.send("a", p)
        link.send("b", p)
        loop.run()
        # Full duplex: both finish after one serialization, not two.
        assert a_got[0] == pytest.approx(b_got[0])


class TestPriorities:
    def test_higher_priority_jumps_queue(self):
        loop = EventLoop()
        link = Link(loop, bandwidth_bps=1 * GBPS, delay=0.0)
        order = []
        link.attach("b", lambda p: order.append(p.transport.priority))
        # While the first low-prio packet transmits, queue low then high.
        link.send("a", make_packet(1000, priority=0))
        link.send("a", make_packet(1000, priority=0))
        link.send("a", make_packet(1000, priority=7))
        loop.run()
        assert order == [0, 7, 0]

    def test_priority_out_of_range(self):
        loop = EventLoop()
        link = Link(loop)
        with pytest.raises(SimulationError):
            link.send("a", make_packet(10, priority=8))


class TestMtuAndLoss:
    def test_oversized_packet_rejected(self):
        loop = EventLoop()
        link = Link(loop, mtu=1500)
        with pytest.raises(SimulationError):
            link.send("a", make_packet(payload_len=1500))

    def test_loss_injection(self):
        loop = EventLoop()
        link = Link(loop)
        arrivals = []
        link.attach("b", lambda p: arrivals.append(p))
        dropped = [0]

        def drop_second(p):
            dropped[0] += 1
            return dropped[0] == 2

        link.set_loss_fn("a", drop_second)
        for _ in range(3):
            link.send("a", make_packet(100))
        loop.run()
        assert len(arrivals) == 2
        assert link.stats("a")["dropped"] == 1

    def test_stats(self):
        loop = EventLoop()
        link = Link(loop)
        link.attach("b", lambda p: None)
        p = make_packet(100)
        link.send("a", p)
        loop.run()
        stats = link.stats("a")
        assert stats["tx_packets"] == 1
        assert stats["tx_bytes"] == p.wire_size

    def test_unknown_side_rejected(self):
        with pytest.raises(SimulationError):
            Link(EventLoop()).attach("c", lambda p: None)


class TestSides:
    """Every per-side call names "a" or "b"; anything else is an error,
    never silently the b->a direction."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda link: link.send("c", make_packet(10)),
            lambda link: link.send_burst("c", [make_packet(10)]),
            lambda link: link.set_loss_fn("c", lambda p: True),
            lambda link: link.inject_faults("c", None),
            lambda link: link.install_tap("c", None),
            lambda link: link.stats("c"),
            lambda link: link.fault_stats("c"),
        ],
        ids=["send", "send_burst", "set_loss_fn", "inject_faults", "install_tap",
             "stats", "fault_stats"],
    )
    def test_unknown_side_raises(self, call):
        link = Link(EventLoop())
        with pytest.raises(SimulationError, match="unknown link side 'c'"):
            call(link)
        # Nothing reached the b->a direction on the way.
        assert link.stats("b")["tx_packets"] == 0
        assert link._b_to_a.loss_fn is None and link._b_to_a.queued == 0
