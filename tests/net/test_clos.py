"""Leaf-spine fabric: ECMP routing, trunks, and ClosTestbed parity."""

import random

import pytest

from repro.errors import SimulationError
from repro.homa import HomaSocket, HomaTransport
from repro.net import ClosFabric, ecmp_hash
from repro.net.faults import FaultConfig
from repro.net.headers import HEADERS_SIZE, IPv4Header, TransportHeader
from repro.net.packet import Packet
from repro.sim.event_loop import EventLoop
from repro.sim.shard import ShardPlan
from repro.testbed import ClosTestbed, Testbed


def _packet(src, dst, sport=1000, dport=2000, payload=b"", proto=146):
    return Packet(
        IPv4Header(src, dst, proto, HEADERS_SIZE + len(payload)),
        TransportHeader(sport, dport, 1),
        payload,
    )


class TestEcmpHash:
    def test_same_flow_same_hash(self):
        # The hash ignores payload and msg_id: every packet of a flow
        # must ride the same spine or records reorder across paths.
        a = _packet(1, 2, payload=b"x" * 100)
        b = Packet(a.ip, TransportHeader(1000, 2000, 999), b"other bytes")
        assert ecmp_hash(a) == ecmp_hash(b)

    def test_deterministic(self):
        p = _packet(7, 8, sport=42)
        assert ecmp_hash(p, salt=3) == ecmp_hash(p, salt=3)

    def test_salt_reshuffles(self):
        packets = [_packet(1, 2, sport=s) for s in range(1000, 1032)]
        base = [ecmp_hash(p, 0) % 2 for p in packets]
        salted = [ecmp_hash(p, 1) % 2 for p in packets]
        assert base != salted

    def test_flows_spread_over_spines(self):
        choices = {ecmp_hash(_packet(1, 2, sport=s)) % 2 for s in range(1000, 1032)}
        assert choices == {0, 1}


class TestClosFabric:
    def _build(self, **kwargs):
        loop = EventLoop()
        fabric = ClosFabric(loop, num_racks=2, num_spines=2, **kwargs)
        received = {}
        addrs = {}
        for rack, name in ((0, "a"), (0, "b"), (1, "c")):
            addr = 0x0A000000 + len(addrs) + 1
            addrs[name] = addr
            port = fabric.attach_host(rack, addr)
            port.attach("x", lambda p, name=name: received.setdefault(name, []).append(p))
        return loop, fabric, addrs, received

    def test_bad_topologies_rejected(self):
        with pytest.raises(SimulationError):
            ClosFabric(EventLoop(), num_racks=0, num_spines=2)
        with pytest.raises(SimulationError):
            ClosFabric(EventLoop(), num_racks=2, num_spines=0)

    def test_attach_errors(self):
        loop, fabric, addrs, _ = self._build()
        with pytest.raises(SimulationError):
            fabric.attach_host(5, 99)  # rack out of range
        with pytest.raises(SimulationError):
            fabric.attach_host(0, addrs["a"])  # duplicate address
        with pytest.raises(SimulationError):
            fabric.port(99)
        with pytest.raises(SimulationError):
            fabric.rack_of(99)

    def test_intra_rack_skips_spines(self):
        loop, fabric, addrs, received = self._build()
        fabric.port(addrs["a"]).send("x", _packet(addrs["a"], addrs["b"]))
        loop.run(until=1e-3)
        assert len(received["b"]) == 1
        assert fabric.spine_spread() == [0, 0]

    def test_cross_rack_single_flow_single_spine(self):
        loop, fabric, addrs, received = self._build()
        for _ in range(20):
            fabric.port(addrs["a"]).send("x", _packet(addrs["a"], addrs["c"]))
        loop.run(until=1e-3)
        assert len(received["c"]) == 20
        spread = fabric.spine_spread()
        assert sorted(spread) == [0, 20]  # all packets on one spine
        # and all of them were steered by rack 0's leaf.
        assert fabric.spine_packets[1] == [0, 0]

    def test_cross_rack_flows_spread(self):
        loop, fabric, addrs, received = self._build()
        for sport in range(1000, 1032):
            fabric.port(addrs["a"]).send(
                "x", _packet(addrs["a"], addrs["c"], sport=sport)
            )
        loop.run(until=1e-3)
        assert len(received["c"]) == 32
        spread = fabric.spine_spread()
        assert sum(spread) == 32
        assert min(spread) > 0

    def test_unknown_destination_raises(self):
        loop, fabric, addrs, _ = self._build()
        with pytest.raises(SimulationError):
            fabric.leaves[0].inject(_packet(addrs["a"], 0xDEAD))

    def test_stats_shape(self):
        loop, fabric, addrs, _ = self._build()
        fabric.port(addrs["a"]).send("x", _packet(addrs["a"], addrs["c"]))
        loop.run(until=1e-3)
        stats = fabric.stats()
        assert set(stats) == {"leaf", "spine", "spine_spread"}
        assert stats["leaf"]["dropped"] == 0
        assert stats["spine"]["dropped"] == 0
        assert sum(stats["spine_spread"]) == 1

    def test_trunk_overflow_trims(self):
        # A burst of one flow into a tiny trunk buffer: with trimming on,
        # overflowing packets forward headers-only instead of vanishing.
        loop, fabric, addrs, received = self._build(
            trunk_buffer_bytes=4096, trimming=True
        )
        for _ in range(10):
            fabric.leaves[0].inject(_packet(addrs["a"], addrs["c"], payload=b"z" * 1400))
        loop.run(until=1e-3)
        stats = fabric.stats()
        assert stats["leaf"]["trimmed"] > 0
        trimmed = [p for p in received["c"] if p.meta.get("trimmed")]
        full = [p for p in received["c"] if not p.meta.get("trimmed")]
        assert trimmed and full
        assert all(p.payload == b"" for p in trimmed)
        assert len(received["c"]) == 10 - stats["leaf"]["dropped"]


class TestEcmpResalt:
    """Re-salt / reconvergence correctness after spine failures."""

    N_SPINES = 4

    def _fabric(self, num_spines=N_SPINES):
        loop = EventLoop()
        fabric = ClosFabric(loop, num_racks=2, num_spines=num_spines)
        a = fabric.attach_host(0, 0x0A000001)
        fabric.attach_host(1, 0x0A010001)
        return loop, fabric

    def _flows(self, n=64):
        return [_packet(0x0A000001, 0x0A010001, sport=1000 + s) for s in range(n)]

    def test_all_flows_map_to_survivors_after_kill(self):
        loop, fabric = self._fabric()
        flows = self._flows()
        fabric.fail_spine(2)
        live = fabric.reconverge()
        assert live == (0, 1, 3)
        for p in flows:
            assert fabric.spine_for(p) in live, (
                f"flow sport={p.transport.src_port} still maps to a dead spine"
            )

    def test_surviving_flows_untouched_without_resalt(self):
        # Reconverging without a new salt migrates only the orphaned
        # flows: anything already on a surviving spine stays put as long
        # as the survivor keeps its position in the live tuple.
        loop, fabric = self._fabric()
        flows = self._flows()
        before = {p.transport.src_port: fabric.spine_for(p) for p in flows}
        fabric.fail_spine(self.N_SPINES - 1)  # survivors keep indices 0..2
        fabric.reconverge()
        moved = sum(
            1
            for p in flows
            if before[p.transport.src_port] != self.N_SPINES - 1
            and fabric.spine_for(p) != before[p.transport.src_port]
        )
        # The modulo shrink (4 -> 3) does remap some surviving flows, but
        # every flow previously on the dead spine *must* have moved and
        # every flow must land on a survivor.
        orphans = [p for p in flows if before[p.transport.src_port] == 3]
        assert orphans, "hash never used the dead spine: test is vacuous"
        for p in orphans:
            assert fabric.spine_for(p) != 3
        assert moved < len(flows)  # not a full reshuffle

    def test_identity_reconverge_is_a_noop_mapping(self):
        # All spines alive, salt unchanged: reconverge must not move a
        # single flow (salt=None keeps the current salt; the live set is
        # the full set, so indices are stable).
        loop, fabric = self._fabric()
        flows = self._flows()
        before = [fabric.spine_for(p) for p in flows]
        fabric.reconverge()
        assert [fabric.spine_for(p) for p in flows] == before
        # Explicitly re-asserting the current salt is equally identity.
        fabric.reconverge(salt=fabric.ecmp_salt)
        assert [fabric.spine_for(p) for p in flows] == before

    def test_resalt_reshuffles_and_stays_on_survivors(self):
        loop, fabric = self._fabric()
        flows = self._flows()
        fabric.fail_spine(0)
        before = [fabric.spine_for(p) for p in flows]
        live = fabric.reconverge(salt=17)
        after = [fabric.spine_for(p) for p in flows]
        assert after != before  # the salt actually reshuffled
        assert set(after) <= set(live)
        assert fabric.ecmp_salt == 17

    def test_restored_spine_rejoins_routing(self):
        loop, fabric = self._fabric(num_spines=2)
        fabric.fail_spine(1)
        assert fabric.reconverge() == (0,)
        flows = self._flows()
        assert {fabric.spine_for(p) for p in flows} == {0}
        fabric.restore_spine(1)
        # Routing tables only change at reconverge, not at revival.
        assert fabric.routing_spines() == (0,)
        assert fabric.reconverge() == (0, 1)
        assert {fabric.spine_for(p) for p in flows} == {0, 1}

    def test_no_live_spines_rejected(self):
        loop, fabric = self._fabric(num_spines=2)
        fabric.fail_spine(0)
        fabric.fail_spine(1)
        with pytest.raises(SimulationError):
            fabric.reconverge()

    def test_blackhole_window_then_clean_after_reconverge(self):
        # Packets of a flow hashed to the dead spine blackhole until the
        # tables are reprogrammed; after reconverge the same flow flows.
        loop = EventLoop()
        fabric = ClosFabric(loop, num_racks=2, num_spines=2)
        received = []
        a = fabric.attach_host(0, 0x0A000001)
        c = fabric.attach_host(1, 0x0A010001)
        c.attach("x", received.append)
        probe = _packet(0x0A000001, 0x0A010001, sport=1000)
        victim = fabric.spine_for(probe)
        fabric.fail_spine(victim)
        fabric.port(0x0A000001).send("x", probe)
        loop.run(until=1e-3)
        assert received == []
        assert fabric.stats()["spine"]["blackholed"] == 1
        fabric.reconverge()
        fabric.port(0x0A000001).send("x", _packet(0x0A000001, 0x0A010001, sport=1000))
        loop.run(until=2e-3)
        assert len(received) == 1
        assert fabric.stats()["spine"]["blackholed"] == 1  # no new losses

    def test_kill_reconverge_sequence_is_deterministic(self):
        def run_once():
            loop, fabric = self._fabric()
            mapping = []
            fabric.fail_spine(1)
            fabric.reconverge(salt=5)
            mapping.append([fabric.spine_for(p) for p in self._flows()])
            fabric.restore_spine(1)
            fabric.fail_spine(3)
            fabric.reconverge(salt=9)
            mapping.append([fabric.spine_for(p) for p in self._flows()])
            return mapping, fabric.routing_spines(), fabric.reconvergences

        assert run_once() == run_once()


class TestCutFabric:
    """A fabric cut into one domain is the uncut fabric, event for event."""

    RACKS, SLOTS, SPINES = 3, 2, 2

    def _run(self, seed, cut):
        loop = EventLoop()
        fabric = ClosFabric(
            loop, self.RACKS, self.SPINES, buffer_bytes=3 * 1024,
            trimming=bool(seed % 2), racks=range(self.RACKS) if cut else None,
        )
        rack_of_addr = {
            0x0A000001 + 256 * r + i: r
            for r in range(self.RACKS) for i in range(self.SLOTS)
        }
        log = {addr: [] for addr in rack_of_addr}
        for addr, rack in rack_of_addr.items():
            fabric.attach_host(rack, addr).attach(
                "x",
                lambda p, seen=log[addr]: seen.append(
                    (loop.now, p.ip.src_addr, p.transport.src_port, p.wire_size)
                ),
            )
        if cut:
            def emit(*boundary):
                raise AssertionError(f"one domain has no far side: {boundary}")

            fabric.cut(0, [0] * self.RACKS, dict(rack_of_addr), emit)
        rng = random.Random(seed)
        addrs = list(rack_of_addr)
        for _ in range(2000):
            src, dst = rng.sample(addrs, 2)
            packet = Packet(
                IPv4Header(src, dst, 146, HEADERS_SIZE),
                TransportHeader(
                    rng.randrange(1024, 1056), 2000, 1, priority=rng.randrange(8)
                ),
                bytes(rng.randrange(0, 1400)),
            )
            loop.call_at(
                rng.uniform(0.0, 20e-6),
                lambda p=packet: fabric.port(p.ip.src_addr).send("x", p),
            )
        loop.run(until=1.0)
        return log, loop.dispatched, fabric.stats()

    @pytest.mark.parametrize("seed", range(6))
    def test_one_domain_cut_replays_the_uncut_fabric(self, seed):
        whole_log, whole_events, whole_stats = self._run(seed, cut=False)
        cut_log, cut_events, cut_stats = self._run(seed, cut=True)
        assert cut_log == whole_log
        assert cut_events == whole_events
        assert cut_stats == whole_stats
        # The workload must overflow the 3 KB buffers and cross the spines,
        # or the comparison proves nothing about either.
        assert sum(whole_stats["spine_spread"]) > 500
        lost = "trimmed" if seed % 2 else "dropped"
        assert whole_stats["leaf"][lost] + whole_stats["spine"][lost] > 0

    def test_failure_domains_rejected_on_a_cut_fabric(self):
        loop = EventLoop()
        fabric = ClosFabric(loop, 2, 2, racks=[0])
        fabric.cut(0, [0, 1], {}, lambda *boundary: None)
        for method, args in (
            (fabric.fail_spine, (0,)),
            (fabric.restore_spine, (0,)),
            (fabric.fail_leaf, (0,)),
            (fabric.restore_leaf, (0,)),
            (fabric.reconverge, ()),
            (fabric.spine_up, (0,)),
            (fabric.leaf_up, (0,)),
        ):
            with pytest.raises(SimulationError, match="cut into time domains"):
                method(*args)
        assert not fabric.spines[0].down and not fabric.leaves[0].down

    def test_rack_subset_validated(self):
        for racks in ([], [2], [-1, 0]):
            with pytest.raises(SimulationError):
                ClosFabric(EventLoop(), 2, 2, racks=racks)
        fabric = ClosFabric(EventLoop(), 3, 2, racks=[1, 2])
        assert list(fabric.leaves) == [1, 2]
        with pytest.raises(SimulationError):
            fabric.attach_host(0, 99)  # rack 0 lives in another domain


class TestPlanValidation:
    """One parameter list, so one place a bad cluster is refused."""

    @pytest.mark.parametrize(
        "fields",
        [
            {"hosts_per_rack": 0},
            {"hosts_per_rack": -1},
            {"hosts_per_rack": 256},
            {"hosts_per_rack": 300},
            {"num_racks": 256, "hosts_per_rack": 1},
        ],
    )
    def test_bad_grids_rejected_before_anything_is_built(self, fields):
        with pytest.raises(SimulationError):
            ShardPlan(**fields)
        with pytest.raises(SimulationError):
            ClosTestbed.leaf_spine(**fields)

    def test_largest_grid_is_addressable(self):
        plan = ShardPlan(num_racks=255, hosts_per_rack=255)
        assert plan.addr_of(254, 254) == (10 << 24) | (255 << 16) | 255

    def test_leaf_spine_takes_only_plan_fields(self):
        with pytest.raises(TypeError):
            ClosTestbed.leaf_spine(num_rack=2)
        with pytest.raises(SimulationError):
            ClosTestbed.leaf_spine(num_racks=2, domains=3)

    def test_leaf_spine_is_one_loop(self):
        # A cluster cut into time domains runs through ShardPlan + ShardRunner.
        with pytest.raises(SimulationError, match="ShardPlan"):
            ClosTestbed.leaf_spine(num_racks=4, domains=2)


class TestBackToBackCtrl:
    def test_enable_ctrl_seeds_and_unpacks(self):
        from repro.ctrl import ControlPlane

        bed = Testbed.back_to_back()
        client_plane, server_plane = bed.enable_ctrl(seed=77)
        assert bed.enable_ctrl() == [client_plane, server_plane]
        assert (client_plane.host, server_plane.host) == (bed.client, bed.server)
        # Host i draws its standby keys from Random(seed + i).
        for offset, plane in enumerate(bed.ctrl_planes):
            twin = ControlPlane(
                Testbed.back_to_back().hosts[offset], random.Random(77 + offset)
            )
            assert plane.rng.getstate() == twin.rng.getstate()


class TestClosTestbed:
    def test_construction(self):
        bed = ClosTestbed.leaf_spine(num_racks=2, hosts_per_rack=2, num_spines=2)
        assert [h.name for h in bed.hosts] == ["r0h0", "r0h1", "r1h0", "r1h1"]
        assert bed.host(1, 0).name == "r1h0"
        # Rack is readable off the address: 10.(1+r).0.(1+i).
        assert bed.host(1, 1).addr == (10 << 24) | (2 << 16) | 2
        for host in bed.hosts:
            rack = bed.fabric.rack_of(host.addr)
            assert bed.host(rack, 0).addr >> 16 == host.addr >> 16

    def test_cross_rack_rpc_uses_spines(self):
        bed = ClosTestbed.leaf_spine(num_racks=2, hosts_per_rack=1, num_spines=2)
        server, client = bed.host(1, 0), bed.host(0, 0)
        st = HomaTransport(server)
        ssock = HomaSocket(st, 7000)

        def echo():
            thread = server.app_thread(0)
            rpc = yield from ssock.recv_request(thread)
            yield from ssock.reply(thread, rpc, rpc.payload[::-1])

        bed.loop.process(echo())

        def call():
            ct = HomaTransport(client)
            sock = HomaSocket(ct, client.alloc_port())
            reply = yield from sock.call(
                client.app_thread(0), server.addr, 7000, b"spine"
            )
            assert reply == b"enips"

        done = bed.loop.process(call())
        bed.run(until=1.0)
        assert done.ok
        assert sum(bed.fabric.spine_spread()) > 0

    def test_enable_obs_idempotent_with_spine_gauges(self):
        bed = ClosTestbed.leaf_spine(num_racks=2, hosts_per_rack=1, num_spines=2)
        obs = bed.enable_obs()
        assert bed.enable_obs() is obs
        snap = obs.snapshot()
        assert "clos.spine0.packets" in snap["metrics"]
        assert "clos.spine1.packets" in snap["metrics"]

    def test_enable_ctrl_idempotent(self):
        bed = ClosTestbed.leaf_spine(num_racks=2, hosts_per_rack=1, num_spines=2)
        planes = bed.enable_ctrl()
        assert len(planes) == len(bed.hosts)
        assert bed.enable_ctrl() is planes

    def test_install_faults_on_downlinks(self):
        bed = ClosTestbed.leaf_spine(num_racks=2, hosts_per_rack=1, num_spines=2)
        bed.install_faults(FaultConfig(drop_rate=1.0))
        assert set(bed.fault_injectors) == {h.addr for h in bed.hosts}
        dst = bed.host(1, 0)
        bed.fabric.leaves[1].inject(_packet(bed.host(0, 0).addr, dst.addr))
        bed.run(until=1e-3)
        stats = bed.fault_stats()
        assert stats[dst.name]["dropped"] == 1
        assert stats[dst.name]["delivered"] == 0
