"""Star-bed tests: hosts behind one switch (a one-rack leaf-spine)."""

import pytest

from repro.errors import SimulationError
from repro.homa import HomaSocket, HomaTransport
from repro.net.clos import ClosFabric
from repro.net.faults import FaultConfig, FaultInjector
from repro.net.headers import HEADERS_SIZE, IPv4Header, TransportHeader
from repro.net.packet import Packet
from repro.sim.event_loop import EventLoop
from repro.testbed import StarTestbed


def _packet(src, dst, payload=b""):
    return Packet(
        IPv4Header(src, dst, 146, HEADERS_SIZE + len(payload)),
        TransportHeader(1000, 2000, 1),
        payload,
    )


class TestStarTopology:
    def test_construction(self):
        bed = StarTestbed.star(3)
        assert len(bed.clients) == 3
        addrs = {h.addr for h in bed.clients} | {bed.server.addr}
        assert len(addrs) == 4

    def test_client_to_server_echo(self):
        bed = StarTestbed.star(2)
        st = HomaTransport(bed.server)
        ssock = HomaSocket(st, 7000)

        def echo():
            thread = bed.server.app_thread(0)
            while True:
                rpc = yield from ssock.recv_request(thread)
                yield from ssock.reply(thread, rpc, rpc.payload[::-1])

        bed.loop.process(echo())
        results = {}

        def client(i):
            host = bed.clients[i]
            ct = HomaTransport(host)
            sock = HomaSocket(ct, host.alloc_port())
            thread = host.app_thread(0)
            results[i] = yield from sock.call(thread, bed.server.addr, 7000,
                                              b"client%d" % i)

        procs = [bed.loop.process(client(i)) for i in range(2)]
        bed.loop.run(until=1.0)
        assert all(p.ok for p in procs)
        assert results == {0: b"0tneilc", 1: b"1tneilc"}

    def test_cross_client_isolation(self):
        # Packets to the server do not appear at other clients' ports.
        bed = StarTestbed.star(2)
        stray = []
        bed.clients[1].nic.set_rx_handler(lambda p: stray.append(p))
        st = HomaTransport(bed.server)
        ssock = HomaSocket(st, 7000)

        def echo():
            thread = bed.server.app_thread(0)
            rpc = yield from ssock.recv_request(thread)
            yield from ssock.reply(thread, rpc, b"ok")

        bed.loop.process(echo())

        def client():
            host = bed.clients[0]
            ct = HomaTransport(host)
            sock = HomaSocket(ct, host.alloc_port())
            yield from sock.call(host.app_thread(0), bed.server.addr, 7000, b"hi")

        done = bed.loop.process(client())
        bed.loop.run(until=1.0)
        assert done.ok
        assert stray == []

    def test_mtu_enforced_on_fabric(self):
        from repro.net.headers import IPv4Header, TransportHeader
        from repro.net.packet import Packet

        bed = StarTestbed.star(1, mtu=1500)
        port = bed.fabric.port(bed.clients[0].addr)
        big = Packet(
            IPv4Header(bed.clients[0].addr, bed.server.addr, 146, 2000),
            TransportHeader(1, 2, 3),
            bytes(1940),
        )
        with pytest.raises(SimulationError):
            port.send("a", big)

    def test_port_reuse_same_object(self):
        bed = StarTestbed.star(1)
        addr = bed.clients[0].addr
        assert bed.fabric.port(addr) is bed.fabric.port(addr)

    def test_egress_stats(self):
        bed = StarTestbed.star(1)
        st = HomaTransport(bed.server)
        ssock = HomaSocket(st, 7000)

        def echo():
            thread = bed.server.app_thread(0)
            rpc = yield from ssock.recv_request(thread)
            yield from ssock.reply(thread, rpc, b"ok")

        bed.loop.process(echo())

        def client():
            host = bed.clients[0]
            ct = HomaTransport(host)
            sock = HomaSocket(ct, host.alloc_port())
            yield from sock.call(host.app_thread(0), bed.server.addr, 7000, b"x" * 500)

        done = bed.loop.process(client())
        bed.loop.run(until=1.0)
        assert done.ok
        stats = bed.fabric.port(bed.clients[0].addr).stats("a")
        assert stats["tx_packets"] >= 1
        assert stats["tx_bytes"] > 500


class TestFabricEdgePaths:
    """One-rack fabric and FabricPort behaviour off the happy path."""

    def _fabric(self, **kwargs):
        loop = EventLoop()
        fabric = ClosFabric(loop, num_racks=1, num_spines=1, **kwargs)
        received = []
        fabric.attach_host(0, 1).attach("x", lambda p: None)
        fabric.attach_host(0, 2).attach("x", received.append)
        return loop, fabric, fabric.leaves[0], received

    def test_oversized_packet_raises(self):
        loop, fabric, switch, _ = self._fabric(mtu=1500)
        with pytest.raises(SimulationError, match="exceeds MTU"):
            fabric.port(1).send("x", _packet(1, 2, payload=b"z" * 1600))

    def test_switch_rejects_unknown_destination(self):
        loop, fabric, switch, _ = self._fabric()
        with pytest.raises(SimulationError, match="destination 99"):
            switch.inject(_packet(1, 99))

    def test_stats_after_trimming(self):
        loop, fabric, switch, received = self._fabric(buffer_bytes=4096, trimming=True)
        for _ in range(10):
            switch.inject(_packet(1, 2, payload=b"z" * 1400))
        loop.run(until=1e-3)
        stats = switch.stats(2)
        assert stats["trimmed"] > 0
        assert stats["queued"] == 0  # drained
        trimmed = [p for p in received if p.meta.get("trimmed")]
        assert len(trimmed) == stats["trimmed"]
        assert all(p.payload == b"" for p in trimmed)
        totals = switch.totals()
        assert totals["trimmed"] == stats["trimmed"]
        assert len(received) == 10 - totals["dropped"]

    def test_stats_without_trimming_drops(self):
        loop, fabric, switch, received = self._fabric(buffer_bytes=4096, trimming=False)
        for _ in range(10):
            switch.inject(_packet(1, 2, payload=b"z" * 1400))
        loop.run(until=1e-3)
        stats = switch.stats(2)
        assert stats["trimmed"] == 0
        assert stats["dropped"] > 0
        assert len(received) == 10 - stats["dropped"]

    def test_fault_injector_on_switch_egress(self):
        loop, fabric, switch, received = self._fabric()
        injector = FaultInjector(loop, FaultConfig(drop_rate=1.0), seed=1)
        switch.inject_faults(2, injector)
        switch.inject(_packet(1, 2, payload=b"hi"))
        loop.run(until=1e-3)
        assert received == []
        assert injector.stats()["dropped"] == 1
        # Uninstalling restores delivery.
        switch.inject_faults(2, None)
        switch.inject(_packet(1, 2, payload=b"hi"))
        loop.run(until=2e-3)
        assert len(received) == 1

    def test_fault_injector_unknown_port_raises(self):
        loop, fabric, switch, _ = self._fabric()
        injector = FaultInjector(loop, FaultConfig(), seed=1)
        with pytest.raises(SimulationError, match="no port"):
            switch.inject_faults(99, injector)
        with pytest.raises(SimulationError, match="no port"):
            switch.install_tap(99, lambda p, v: None)

    def test_fault_injector_on_host_uplink(self):
        loop, fabric, switch, received = self._fabric()
        injector = FaultInjector(loop, FaultConfig(drop_rate=1.0), seed=1)
        port = fabric.port(1)
        port.inject_faults("x", injector)
        port.send("x", _packet(1, 2, payload=b"hi"))
        loop.run(until=1e-3)
        assert received == []
        assert injector.stats()["dropped"] == 1
