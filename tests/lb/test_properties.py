"""Property suites for the ``repro.lb`` layer (30 seeds each).

- consistent-hash remap bound: removing one replica moves *only* the
  keys that replica owned -- everyone else keeps their assignment --
  and the removal that matters (the least-loaded owner) moves at most
  ceil(K/N) keys;
- drain completeness: every session leaves the drained replica, and no
  session is lost or duplicated;
- health hysteresis no-flap invariant: a strictly flapping probe (no
  two consecutive equal outcomes) produces zero transitions at the 2/2
  thresholds, and the checker's verdicts match a reference streak model
  on arbitrary random schedules.
"""

from __future__ import annotations

import random
from math import ceil

import pytest

from repro.dns.resolver import InternalDns
from repro.errors import ProtocolError
from repro.lb import (
    ConnectionDrainer,
    ConsistentHashBalancer,
    FrontendSession,
    HealthChecker,
    ServiceFrontend,
    ServiceRegistry,
)
from repro.lb.health import DOWN_MISSES, UP_SUCCESSES
from repro.sim.event_loop import EventLoop

SEEDS = list(range(30))


class TestConsistentHashRemapBound:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_removal_only_moves_the_removed_replicas_keys(self, seed):
        rng = random.Random(seed)
        n = rng.randint(3, 8)
        k = rng.randint(40, 120)
        replicas = tuple(f"r{seed}-{i}" for i in range(n))
        keys = [f"key-{seed}-{j}" for j in range(k)]
        ring = ConsistentHashBalancer(vnodes=64)
        before = {key: ring.pick(key, replicas) for key in keys}
        removed = rng.choice(replicas)
        survivors = tuple(r for r in replicas if r != removed)
        after = {key: ring.pick(key, survivors) for key in keys}
        moved = [key for key in keys if before[key] != after[key]]
        # Exactly the removed replica's keys move, nobody else's.
        assert set(moved) == {key for key in keys if before[key] == removed}
        for key in moved:
            assert after[key] != removed

    @pytest.mark.parametrize("seed", SEEDS)
    def test_lightest_owner_removal_respects_k_over_n(self, seed):
        rng = random.Random(seed)
        n = rng.randint(3, 8)
        k = rng.randint(40, 120)
        replicas = tuple(f"r{seed}-{i}" for i in range(n))
        keys = [f"key-{seed}-{j}" for j in range(k)]
        ring = ConsistentHashBalancer(vnodes=64)
        before = {key: ring.pick(key, replicas) for key in keys}
        owned = {r: sum(1 for key in keys if before[key] == r) for r in replicas}
        # Pigeonhole: some replica owns <= K/N keys; removing it moves
        # at most ceil(K/N) -- the classic consistent-hashing bound.
        lightest = min(replicas, key=lambda r: owned[r])
        survivors = tuple(r for r in replicas if r != lightest)
        moved = sum(
            1 for key in keys if ring.pick(key, survivors) != before[key]
        )
        assert moved == owned[lightest]
        assert moved <= ceil(k / n)


def _stub_frontend(loop, rids):
    """A ServiceFrontend with bookkeeping only (no crypto, no fabric).

    Drain and migrate never touch the handshake machinery, so the drain
    properties run against hand-planted sessions.
    """
    registry = ServiceRegistry(loop, InternalDns(), "drain-prop", ttl=1.0)
    for rid in rids:
        registry.register(rid)

    class _Stub:
        def __init__(self, rid):
            self.rid = rid

    fe = ServiceFrontend(
        loop, registry, {rid: _Stub(rid) for rid in rids},
        tickets=None, trust_roots=(),
    )
    return fe


class TestDrainCompleteness:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_session_moves_and_none_is_lost(self, seed):
        rng = random.Random(seed)
        loop = EventLoop()
        rids = tuple(f"r{i}" for i in range(rng.randint(2, 5)))
        fe = _stub_frontend(loop, rids)
        num_sessions = rng.randint(5, 25)
        for sid in range(num_sessions):
            rid = rng.choice(rids)
            s = FrontendSession(
                sid=sid, key=f"k{sid}", replica=rid, mode="0rtt", opened_at=0.0
            )
            fe.sessions.append(s)
            fe._by_rid[rid].add(sid)
        target = rng.choice(rids)
        pre = len(fe.sessions_on(target))
        drainer = ConnectionDrainer(loop, fe)
        assert drainer.drain(target) == pre, f"seed {seed}"
        assert fe.sessions_on(target) == [], f"seed {seed}"
        # Conservation: every session still exists exactly once.
        assert sum(1 for s in fe.sessions if not s.closed) == num_sessions
        placed = sum(len(v) for v in fe._by_rid.values())
        assert placed == num_sessions, f"seed {seed}: lost or duplicated"
        for s in fe.sessions:
            assert s.replica != target, f"seed {seed}: session left behind"

    def test_drain_with_no_target_replica_raises(self):
        loop = EventLoop()
        fe = _stub_frontend(loop, ("only",))
        s = FrontendSession(sid=0, key="k", replica="only", mode="0rtt",
                            opened_at=0.0)
        fe.sessions.append(s)
        fe._by_rid["only"].add(0)
        drainer = ConnectionDrainer(loop, fe)
        with pytest.raises(ProtocolError, match="stuck"):
            drainer.drain("only")  # nowhere to migrate
        assert fe.draining == set()
        assert fe.sessions_on("only") == [s]


def _reference_transitions(schedule, down_misses, up_successes):
    """Streak reference model for HealthChecker."""
    up, ok_streak, fail_streak, transitions = True, 0, 0, 0
    for ok in schedule:
        if ok:
            ok_streak += 1
            fail_streak = 0
            if not up and ok_streak >= up_successes:
                up, transitions = True, transitions + 1
                ok_streak = fail_streak = 0
        else:
            fail_streak += 1
            ok_streak = 0
            if up and fail_streak >= down_misses:
                up, transitions = False, transitions + 1
                ok_streak = fail_streak = 0
    return transitions


def _run_checker(schedule):
    loop = EventLoop()
    registry = ServiceRegistry(loop, InternalDns(), "hc-prop", ttl=1.0)
    registry.register("r0")
    checker = HealthChecker(loop, registry, interval=10e-6)
    it = iter(schedule)
    checker.watch("r0", lambda: next(it))
    checker.start()
    loop.run(until=len(schedule) * 10e-6 + 1e-9)
    return checker


class TestHealthHysteresis:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_flapping_probe_never_flips_at_2_2(self, seed):
        rng = random.Random(seed)
        # Strict flapping: no two consecutive equal outcomes (random
        # phase and length), so neither streak ever reaches 2.
        start = rng.random() < 0.5
        length = rng.randint(20, 200)
        schedule = [(start if i % 2 == 0 else not start) for i in range(length)]
        checker = _run_checker(schedule)
        assert checker.transitions == 0, f"seed {seed}"
        assert checker.registry.live() == ("r0",), f"seed {seed}"

    @pytest.mark.parametrize("seed", SEEDS)
    def test_checker_matches_streak_reference_model(self, seed):
        rng = random.Random(seed)
        schedule = [rng.random() < 0.5 for _ in range(rng.randint(30, 150))]
        checker = _run_checker(schedule)
        assert checker.transitions == _reference_transitions(
            schedule, DOWN_MISSES, UP_SUCCESSES
        ), f"seed {seed}"
