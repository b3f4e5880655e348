"""Property tests for the resilience primitives, seeded and exhaustive.

Each component carries one load-bearing invariant the incident machinery
relies on:

- :class:`BackoffPolicy`: delays replay per seed, grow exponentially and
  stay under the cap (plus jitter) -- the re-handshake storm's spacing;
- :class:`HeartbeatMonitor`: a target that dies at ``t`` is declared
  down by ``t + interval * miss_threshold`` (the advertised
  ``detection_bound``), for every seed-randomised death time.
"""

from __future__ import annotations

import random

import pytest

from repro.resilience import BackoffPolicy, HeartbeatMonitor
from repro.sim.event_loop import EventLoop

SEEDS = list(range(30))


class TestBackoffPolicy:
    def test_deterministic_per_seed_and_capped(self):
        a = BackoffPolicy(base=10e-6, multiplier=2.0, cap=100e-6, seed=3)
        b = BackoffPolicy(base=10e-6, multiplier=2.0, cap=100e-6, seed=3)
        da = [a.delay(i) for i in range(20)]
        db = [b.delay(i) for i in range(20)]
        assert da == db
        for i, d in enumerate(da):
            assert 0 < d <= 100e-6 * 1.2 + 1e-12, f"attempt {i} delay {d}"

    def test_growth_until_cap(self):
        policy = BackoffPolicy(base=10e-6, multiplier=2.0, cap=1.0, jitter=0.0)
        assert policy.delay(0) == pytest.approx(10e-6)
        assert policy.delay(3) == pytest.approx(80e-6)
        # Huge attempt numbers neither overflow nor exceed the cap.
        assert policy.delay(10_000) <= 1.0


class TestHeartbeatDetectionBound:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_detection_within_bound_for_random_death_times(self, seed):
        rng = random.Random(seed * 977 + 5)
        loop = EventLoop()
        interval = rng.choice([10e-6, 25e-6, 40e-6])
        misses = rng.choice([1, 2, 3, 5])
        alive = [True]
        monitor = HeartbeatMonitor(
            loop, lambda: alive[0], interval=interval, miss_threshold=misses,
        ).start()
        death = rng.uniform(0, 20 * interval)

        def kill(_=None):
            alive[0] = False

        loop.call_later(death, kill)
        loop.run(until=death + monitor.detection_bound + interval)
        downs = [t for t, verdict in monitor.declarations if verdict == "down"]
        assert downs, f"seed {seed}: death at {death} never detected"
        latency = downs[0] - death
        assert latency <= monitor.detection_bound + 1e-12, (
            f"seed {seed}: detection took {latency}, bound "
            f"{monitor.detection_bound} (interval={interval}, misses={misses})"
        )

    def test_revival_declared_up_within_one_interval(self):
        loop = EventLoop()
        alive = [True]
        monitor = HeartbeatMonitor(
            loop, lambda: alive[0], interval=20e-6, miss_threshold=2,
        ).start()
        loop.call_later(50e-6, lambda _=None: alive.__setitem__(0, False))
        loop.call_later(200e-6, lambda _=None: alive.__setitem__(0, True))
        loop.run(until=300e-6)
        verdicts = [v for _, v in monitor.declarations]
        assert verdicts == ["down", "up"]
        up_at = [t for t, v in monitor.declarations if v == "up"][0]
        assert up_at - 200e-6 <= 20e-6 + 1e-12
