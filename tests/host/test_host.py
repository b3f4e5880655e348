"""Host-level tests: steering, registration, accounting."""

import pytest

from repro.errors import SimulationError
from repro.host.host import Host
from repro.net.headers import IPv4Header, PROTO_HOMA, PROTO_SMT, TransportHeader
from repro.net.packet import Packet
from repro.sim.event_loop import EventLoop
from repro.testbed import Testbed


def make_host():
    return Host(EventLoop(), "h", 42, num_app_cores=4, num_softirq_cores=4)


def make_packet(src_port, proto=PROTO_SMT):
    ip = IPv4Header(7, 42, proto, 100)
    return Packet(ip, TransportHeader(src_port, 20, 1))


class TestSteering:
    def test_same_flow_same_core(self):
        host = make_host()
        a = host.softirq_core_for(make_packet(100))
        b = host.softirq_core_for(make_packet(100))
        assert a is b

    def test_flows_spread_across_cores(self):
        host = make_host()
        cores = {id(host.softirq_core_for(make_packet(p))) for p in range(200)}
        assert len(cores) == 4  # all cores get some flow

    def test_flow_key_helper_matches_packet_steering(self):
        host = make_host()
        packet = make_packet(100)
        via_packet = host.softirq_core_for(packet)
        via_key = host.softirq_core_for_flow(7, 100, 20, PROTO_SMT)
        assert via_packet is via_key


class TestRegistration:
    def test_duplicate_transport_rejected(self):
        host = make_host()
        host.register_transport(PROTO_HOMA, object())
        with pytest.raises(SimulationError):
            host.register_transport(PROTO_HOMA, object())

    def test_unknown_proto_counted_as_drop(self):
        bed = Testbed.back_to_back()
        bed.client.nic.post(
            0,
            __import__("repro.nic.tso", fromlist=["TsoSegment"]).TsoSegment(
                bed.client.addr, bed.server.addr, 99,
                TransportHeader(1, 2, 3), b"x", 1440,
            ),
        )
        bed.run()
        assert bed.server.rx_dropped == 1

    def test_port_allocation_unique(self):
        host = make_host()
        ports = {host.alloc_port() for _ in range(100)}
        assert len(ports) == 100

    def test_port_space_exhaustion_fails_closed(self):
        host = make_host()
        host._next_port = 0xFFFF
        assert host.alloc_port() == 0xFFFF
        with pytest.raises(SimulationError, match="host h "):
            host.alloc_port()
        with pytest.raises(SimulationError):
            host.alloc_port()


class TestAccounting:
    def test_cpu_busy_time_groups(self):
        host = make_host()
        host.softirq_cores[0].submit(2.0, lambda _: None)
        host.loop.run()
        busy = host.cpu_busy_time()
        assert busy["softirq"] == pytest.approx(2.0)
        assert busy["app"] == 0.0

    def test_utilization(self):
        host = make_host()
        host.softirq_cores[0].submit(4.0, lambda _: None)
        host.loop.run()
        # 4 seconds busy over 8 cores * 4 seconds elapsed.
        assert host.utilization(elapsed=4.0) == pytest.approx(4.0 / 32.0)
