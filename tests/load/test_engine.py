"""Open-loop engine: calibration, slowdown accounting, determinism."""

import pytest

from repro.load import ClusterHarness, FixedSize, HOMA_W4, OpenLoopEngine, wire_bytes
from repro.load.engine import offered_rate
from repro.net.headers import HEADERS_SIZE
from repro.testbed import ClosTestbed


def _engine(system="homa", load=0.2, duration=0.1e-3, seed=3, hosts_per_rack=1):
    bed = ClosTestbed.leaf_spine(
        num_racks=2, hosts_per_rack=hosts_per_rack, num_spines=2, seed=1
    )
    harness = ClusterHarness(bed, system)
    return OpenLoopEngine(
        harness, FixedSize(16384), load=load, duration=duration, seed=seed
    )


class TestWireBytes:
    def test_single_packet(self):
        assert wire_bytes(100, mtu=1500) == 100 + HEADERS_SIZE

    def test_multi_packet(self):
        mss = 1500 - HEADERS_SIZE
        size = 3 * mss + 1  # spills into a fourth packet
        assert wire_bytes(size, mtu=1500) == size + 4 * HEADERS_SIZE


class TestOfferedRate:
    """The one rate computation equals, bit for bit, the expression every
    engine used to spell out (``==``, not ``approx``: the rate seeds every
    inter-arrival gap, so one ulp would move every virtual-time number)."""

    LOAD, BANDWIDTH, MTU = 0.5, 100e9, 1500

    def test_cdf_distribution(self):
        mean_wire = sum(
            wire_bytes(s, self.MTU) * p for s, p in HOMA_W4.probabilities()
        )
        assert offered_rate(HOMA_W4, self.LOAD, self.BANDWIDTH, self.MTU) == (
            self.LOAD * self.BANDWIDTH / (8.0 * mean_wire)
        )

    def test_fixed_size_matches_the_old_mean_branch(self):
        # FixedSize had no probabilities() and took the engines' else
        # branch: the wire bytes of the integer mean, as a float.
        dist = FixedSize(4096)
        mean_wire = float(wire_bytes(int(dist.mean()), self.MTU))
        assert offered_rate(dist, self.LOAD, self.BANDWIDTH, self.MTU) == (
            self.LOAD * self.BANDWIDTH / (8.0 * mean_wire)
        )

    def test_engine_streams_use_it(self):
        engine = _engine(load=0.2)
        fabric = engine.bed.fabric
        assert engine.streams[0].rate == offered_rate(
            FixedSize(16384), 0.2, fabric.bandwidth, fabric.mtu
        )


class TestValidation:
    def test_load_fraction_bounds(self):
        for load in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                _engine(load=load)

    def test_tiny_messages_rejected(self):
        bed = ClosTestbed.leaf_spine(num_racks=2, hosts_per_rack=1, num_spines=2)
        harness = ClusterHarness(bed, "homa")
        with pytest.raises(ValueError):
            OpenLoopEngine(harness, FixedSize(8), load=0.5, duration=1e-4)


class TestCalibration:
    def test_both_path_classes_measured(self):
        engine = _engine(hosts_per_rack=2)
        baselines = engine.calibrate()
        assert set(baselines) == {(16384, False), (16384, True)}
        # Cross-rack adds two switch hops, so its unloaded RTT is larger.
        assert baselines[(16384, True)] > baselines[(16384, False)]

    def test_single_host_racks_fall_back_to_cross(self):
        engine = _engine(hosts_per_rack=1)
        baselines = engine.calibrate()
        assert baselines[(16384, False)] == baselines[(16384, True)]

    def test_cdf_support_calibrated_per_size(self):
        bed = ClosTestbed.leaf_spine(num_racks=2, hosts_per_rack=2, num_spines=2)
        harness = ClusterHarness(bed, "homa")
        engine = OpenLoopEngine(harness, HOMA_W4, load=0.5, duration=1e-4)
        baselines = engine.calibrate()
        assert {s for s, _ in baselines} == set(HOMA_W4.support())


class TestLoadedRun:
    def test_open_loop_run_completes_clean(self):
        result = _engine().run()
        assert result.issued > 0
        assert result.completed == result.issued
        assert result.failed == 0
        assert result.integrity_errors == 0
        assert result.slowdowns.count == result.completed
        assert result.per_size[16384].count == result.completed
        # Loaded RTTs can never beat the unloaded baseline.
        assert result.p50 >= 1.0
        assert result.p99 >= result.p50
        assert result.achieved_bytes > 0
        assert sum(result.spine_spread) > 0

    def test_same_seed_replays_identically(self):
        a = _engine(seed=5).run()
        b = _engine(seed=5).run()
        assert a.issued == b.issued
        assert a.completed == b.completed
        assert a.p50 == b.p50
        assert a.p99 == b.p99
        assert a.spine_spread == b.spine_spread

    def test_different_seed_differs(self):
        a = _engine(seed=5).run()
        b = _engine(seed=6).run()
        assert (a.issued, a.p99) != (b.issued, b.p99)

    def test_obs_histogram_is_shared(self):
        bed = ClosTestbed.leaf_spine(num_racks=2, hosts_per_rack=1, num_spines=2)
        obs = bed.enable_obs()
        harness = ClusterHarness(bed, "homa")
        engine = OpenLoopEngine(
            harness, FixedSize(16384), load=0.2, duration=0.1e-3, seed=3
        )
        result = engine.run()
        snap = obs.snapshot()["metrics"]["load.slowdown"]
        assert snap["count"] == result.completed
