"""Unit tests for the deterministic fault-injection subsystem."""

import pytest

from repro.errors import SimulationError
from repro.net.faults import FaultConfig, FaultInjector, schedule_from_seed
from repro.net.headers import IPv4Header, TransportHeader
from repro.net.link import Link
from repro.net.packet import Packet
from repro.sim.event_loop import EventLoop


def make_packet(seq: int = 0, payload: bytes = b"x" * 100) -> Packet:
    header = TransportHeader(src_port=1, dst_port=2, msg_id=seq)
    ip = IPv4Header(10, 20, 146, 60 + len(payload), ipid=seq)
    return Packet(ip, header, payload)


def pump(loop: EventLoop, injector: FaultInjector, n: int, payload=b"x" * 100):
    """Push n packets through the injector; return delivery order (ipids)."""
    out = []
    for i in range(n):
        injector.process(make_packet(i, payload), lambda p: out.append(p))
        loop.run()  # drain any delayed (reordered/duplicated) deliveries
    return out


class TestFaultConfig:
    def test_rejects_bad_probability(self):
        with pytest.raises(SimulationError):
            FaultConfig(drop_rate=1.5)
        with pytest.raises(SimulationError):
            FaultConfig(corrupt_rate=-0.1)

    def test_rejects_flap_longer_than_period(self):
        with pytest.raises(SimulationError):
            FaultConfig(flap_period=1e-3, flap_down=1e-3)

    def test_describe_names_non_defaults(self):
        assert FaultConfig().describe() == "clean"
        assert "drop_rate=0.1" in FaultConfig(drop_rate=0.1).describe()


class TestFaultInjector:
    def test_clean_config_is_transparent(self):
        loop = EventLoop()
        inj = FaultInjector(loop, FaultConfig(), seed=1)
        out = pump(loop, inj, 50)
        assert [p.ip.ipid for p in out] == list(range(50))
        assert inj.counters.delivered.value == 50
        assert inj.counters.total() == 100  # seen + delivered only

    def test_drop_rate_drops_roughly_that_fraction(self):
        loop = EventLoop()
        inj = FaultInjector(loop, FaultConfig(drop_rate=0.2), seed=2)
        out = pump(loop, inj, 1000)
        dropped = inj.counters.dropped.value
        assert len(out) == 1000 - dropped
        assert 120 <= dropped <= 280  # ~200 expected

    def test_corruption_flips_exactly_one_payload_byte(self):
        loop = EventLoop()
        inj = FaultInjector(loop, FaultConfig(corrupt_rate=1.0), seed=3)
        original = bytes(range(100))
        out = pump(loop, inj, 10, payload=original)
        assert inj.counters.corrupted.value == 10
        for p in out:
            diff = [i for i in range(100) if p.payload[i] != original[i]]
            assert len(diff) == 1  # one byte, genuinely changed

    def test_corruption_skips_payloadless_packets(self):
        loop = EventLoop()
        inj = FaultInjector(loop, FaultConfig(corrupt_rate=1.0), seed=4)
        out = pump(loop, inj, 5, payload=b"")
        assert inj.counters.corrupted.value == 0
        assert all(p.payload == b"" for p in out)

    def test_duplicates_deliver_twice(self):
        loop = EventLoop()
        inj = FaultInjector(loop, FaultConfig(duplicate_rate=1.0), seed=5)
        out = pump(loop, inj, 20)
        assert len(out) == 40
        assert inj.counters.duplicated.value == 20

    def test_reordering_changes_delivery_order(self):
        loop = EventLoop()
        inj = FaultInjector(
            loop, FaultConfig(reorder_rate=0.5, reorder_delay=50e-6), seed=6
        )
        # Feed a burst without draining between packets so held-back ones
        # can genuinely be overtaken.
        out = []
        for i in range(100):
            inj.process(make_packet(i), lambda p: out.append(p))
        loop.run()
        ipids = [p.ip.ipid for p in out]
        assert sorted(ipids) == list(range(100))  # nothing lost
        assert ipids != list(range(100))  # but not in order
        assert inj.counters.reordered.value > 0

    def test_burst_loss_drops_consecutively(self):
        loop = EventLoop()
        inj = FaultInjector(
            loop,
            FaultConfig(burst_enter=0.05, burst_exit=0.2, burst_loss_rate=1.0),
            seed=7,
        )
        delivered = []
        lost = []
        for i in range(2000):
            n0 = len(delivered)
            inj.process(make_packet(i), lambda p: delivered.append(p))
            if len(delivered) == n0:
                lost.append(i)
        assert inj.counters.burst_dropped.value == len(lost) > 0
        # Bursty: at least one run of >= 3 consecutive losses.
        runs, run = [], 1
        for a, b in zip(lost, lost[1:]):
            run = run + 1 if b == a + 1 else 1
            runs.append(run)
        assert max(runs, default=0) >= 3

    def test_flap_window_swallows_everything(self):
        loop = EventLoop()
        cfg = FaultConfig(flap_period=1e-3, flap_down=0.2e-3)
        inj = FaultInjector(loop, cfg, seed=8)
        out = []
        # Packet at t=0.5ms (link up) and one at t=0.9ms (dark window).
        loop.call_at(0.5e-3, lambda: inj.process(make_packet(0), out.append))
        loop.call_at(0.9e-3, lambda: inj.process(make_packet(1), out.append))
        loop.run()
        assert [p.ip.ipid for p in out] == [0]
        assert inj.counters.flap_dropped.value == 1

    def test_same_seed_same_fate(self):
        cfg = FaultConfig(
            drop_rate=0.1, corrupt_rate=0.1, duplicate_rate=0.1, reorder_rate=0.3
        )
        runs = []
        for _ in range(2):
            loop = EventLoop()
            inj = FaultInjector(loop, cfg, seed=99)
            out = pump(loop, inj, 500)
            runs.append(([(p.ip.ipid, p.payload) for p in out], inj.stats()))
        assert runs[0] == runs[1]

    def test_different_seeds_differ(self):
        cfg = FaultConfig(drop_rate=0.3)
        outcomes = []
        for seed in (0, 1):
            loop = EventLoop()
            inj = FaultInjector(loop, cfg, seed=seed)
            out = pump(loop, inj, 200)
            outcomes.append([p.ip.ipid for p in out])
        assert outcomes[0] != outcomes[1]


class TestLinkIntegration:
    def send_burst(self, link, n=50):
        loop = link.loop
        got = []
        link.attach("b", got.append)
        for i in range(n):
            link.send("a", make_packet(i))
        loop.run()
        return got

    def test_injector_on_link_direction(self):
        loop = EventLoop()
        link = Link(loop)
        inj = FaultInjector(loop, FaultConfig(drop_rate=1.0), seed=0)
        link.inject_faults("a", inj)
        got = self.send_burst(link)
        assert got == []
        assert link.fault_stats("a")["dropped"] == 50
        # The other direction has no injector installed.
        assert link.fault_stats("b") == {}

    def test_injector_composes_with_loss_fn(self):
        # Legacy loss_fn drops first; the injector only sees survivors.
        loop = EventLoop()
        link = Link(loop)
        link.set_loss_fn("a", lambda p: p.ip.ipid % 2 == 0)
        inj = FaultInjector(loop, FaultConfig(), seed=0)
        link.inject_faults("a", inj)
        got = self.send_burst(link, 10)
        assert [p.ip.ipid for p in got] == [1, 3, 5, 7, 9]
        assert inj.counters.seen.value == 5

    def test_uninstall(self):
        loop = EventLoop()
        link = Link(loop)
        inj = FaultInjector(loop, FaultConfig(drop_rate=1.0), seed=0)
        link.inject_faults("a", inj)
        link.inject_faults("a", None)
        got = self.send_burst(link, 10)
        assert len(got) == 10


class TestSwitchIntegration:
    def test_injector_on_switch_port(self):
        from repro.net.switch import Switch

        loop = EventLoop()
        switch = Switch(loop)
        got = []
        switch.attach(20, got.append)
        inj = FaultInjector(loop, FaultConfig(drop_rate=1.0), seed=0)
        switch.inject_faults(20, inj)
        for i in range(10):
            switch.inject(make_packet(i))
        loop.run()
        assert got == []
        assert inj.counters.dropped.value == 10

    def test_unknown_port_raises(self):
        from repro.net.switch import Switch

        loop = EventLoop()
        switch = Switch(loop)
        with pytest.raises(SimulationError):
            switch.inject_faults(99, FaultInjector(loop, FaultConfig()))


class TestScheduleFromSeed:
    def test_deterministic_and_bounded(self):
        for seed in range(100):
            a = schedule_from_seed(seed)
            assert a == schedule_from_seed(seed)
            assert 0 <= a.drop_rate <= 0.10
            assert 0 <= a.corrupt_rate <= 0.04
            if a.flap_period:
                assert a.flap_down < a.flap_period

    def test_seeds_cover_fault_mixes(self):
        schedules = [schedule_from_seed(s) for s in range(100)]
        assert any(s.burst_enter for s in schedules)
        assert any(s.flap_period for s in schedules)
        assert any(not s.burst_enter and not s.flap_period for s in schedules)
