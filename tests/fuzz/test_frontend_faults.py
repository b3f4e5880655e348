"""Seeded front-end fault fuzz: replica crashes racing ticket refresh.

Fifty seed-derived schedules, each crashing one replica of a two-replica
service behind the ``repro.lb`` front end at a random time -- chosen to
race the :class:`~repro.ctrl.rotation.SharedShareRotator` period and the
ticket record's DNS TTL -- then reviving it and resyncing the shared
share after a random control-plane delay, while seed-timed session opens
flow through the balancer.  The invariants, per seed:

- no session open ever raises: stale membership degrades to the last
  snapshot, a reaped ticket record degrades to the cached ticket then to
  a 1-RTT fallback, a revived-but-unsynced replica rejects 0-RTT and the
  open falls back -- but the client always gets a session;
- conservation: every open resolves as exactly one of 0-RTT accept or
  1-RTT fallback (``zero_rtt_accepts + fallbacks_1rtt == opens``);
- zero client/server traffic-key mismatches on accepted 0-RTT opens;
- the health checker sees exactly one down and one up transition, and
  both replicas are live again at the end;
- the run is byte-identical on replay: same seed, same open outcomes,
  same counters, same membership and incident logs.

Failures print ``REPRODUCING SEED: <seed>`` plus the incident log; the
whole run re-derives from that one integer.
"""

from __future__ import annotations

import random

import pytest

from repro.bench.frontend import TIMELINE_SCALE
from repro.core.zero_rtt import ZeroRttServer
from repro.crypto.ca import fixed_pki
from repro.ctrl import CtrlConfig, SharedShareRotator, TicketCache
from repro.dns.resolver import InternalDns
from repro.lb import (
    HealthChecker,
    ReplicaServer,
    ServiceFrontend,
    ServiceRegistry,
)
from repro.testbed import ClosTestbed
from repro.units import USEC

FRONTEND_SEEDS = list(range(50))
#: Seeds replayed twice for byte-identical determinism (each costs a
#: second full run, so the replay set is a sample, not all fifty).
REPLAY_SEEDS = [0, 11, 23, 37, 49]

SERVICE = "svc.fuzz.internal"
N_OPENS = 12
REPLICA_INDICES = (2, 3)

#: Compressed share/TTL timeline (virtual seconds), tuned so a crash in
#: the schedule window below races both the rotation period and the
#: record TTL: refreshes can find the record reaped and rotations can
#: fire while the crashed replica cannot take the install.  Every time
#: in it and in the schedule is scaled by the bench's factor, because
#: each open runs a real handshake (0.7-1.6 ms).
SCALE = TIMELINE_SCALE
PERIOD = 600 * USEC * SCALE
TTL = 150 * USEC * SCALE
LIFETIME = 400 * USEC * SCALE
MARGIN = 200 * USEC * SCALE
DNS_LATENCY = 2e-6



def run_frontend_seed(seed: int):
    """One fuzz iteration; returns the full comparable outcome tuple."""
    rng = random.Random(seed * 31 + 7)
    crash_idx = rng.choice(REPLICA_INDICES)
    crash_at = rng.uniform(100 * USEC, 400 * USEC) * SCALE
    revive_at = crash_at + rng.uniform(100 * USEC, 300 * USEC) * SCALE
    resync_delay = rng.uniform(50 * USEC, 150 * USEC) * SCALE
    horizon = revive_at + resync_delay + 300 * USEC * SCALE
    plan = [
        (serial, rng.uniform(10 * USEC * SCALE, horizon), f"key-{rng.randrange(6)}")
        for serial in range(N_OPENS)
    ]

    bed = ClosTestbed.leaf_spine(
        num_racks=2, hosts_per_rack=2, num_spines=2, seed=5
    )
    bed.enable_ctrl(config=CtrlConfig(), seed=2025)
    ca, chain, key = fixed_pki(SERVICE)
    roots = (ca.certificate,)
    dns = InternalDns(lookup_latency=DNS_LATENCY)
    replica_hosts = [bed.hosts[i] for i in REPLICA_INDICES]
    zservers = [
        ZeroRttServer(
            SERVICE, chain, key, random.Random(100 + i),
            lifetime=LIFETIME, grace_window=LIFETIME / 2,
        )
        for i in range(len(replica_hosts))
    ]
    replicas = {
        h.addr: ReplicaServer(h, z, plane=bed.ctrl_planes[idx])
        for h, z, idx in zip(replica_hosts, zservers, REPLICA_INDICES)
    }
    controller = bed.domain_controller()
    rotator = SharedShareRotator(
        bed.loop, zservers, dns, SERVICE,
        rng=random.Random(9), period=PERIOD, ttl=TTL,
        up_fn=lambda i: controller.is_host_up(replica_hosts[i].addr),
    )
    rotator.start()
    registry = ServiceRegistry(bed.loop, dns, SERVICE)
    for h in replica_hosts:
        registry.register(h.addr)
    registry.start()
    checker = HealthChecker(bed.loop, registry, interval=20e-6)
    for h in replica_hosts:
        checker.watch(h.addr, lambda addr=h.addr: controller.is_host_up(addr))
    checker.start()
    cache = TicketCache(dns, roots, refresh_margin=MARGIN)
    fe = ServiceFrontend(
        bed.hosts[0], registry, replicas, cache, roots,
        minter_rid=replica_hosts[0].addr, seed=seed,
    )
    controller.on_replica_revive(
        lambda idx: bed.loop.timer_later(
            resync_delay, rotator.resync, zservers[REPLICA_INDICES.index(idx)]
        )
    )
    bed.loop.timer_later(crash_at, controller.replica_crash, crash_idx)
    bed.loop.timer_later(revive_at, controller.replica_revive, crash_idx)

    rid_index = {h.addr: i for i, h in enumerate(replica_hosts)}
    outcomes: list = []
    failures: list = []

    def one_open(serial, at, key_name):
        yield bed.loop.timeout(at)
        thread = bed.hosts[0].app_thread(serial % 4)
        try:
            session = yield from fe.open_session(thread, key_name)
        except Exception as exc:  # noqa: BLE001 -- the invariant under test
            failures.append((serial, round(bed.loop.now, 12), repr(exc)))
            return
        outcomes.append(
            (serial, round(bed.loop.now, 12),
             rid_index[session.replica], session.mode)
        )

    for item in plan:
        bed.loop.process(one_open(*item))
    # Drain window: a late open can queue behind another open's keygen
    # on the same app thread, so leave room for two full 1-RTT opens.
    bed.run(until=horizon + 600 * USEC * SCALE)
    rotator.stop()
    checker.stop()

    context = (
        f"REPRODUCING SEED: {seed} -- crash r{crash_idx} @ "
        f"{crash_at * 1e6:.1f}us, revive @ {revive_at * 1e6:.1f}us, "
        f"resync +{resync_delay * 1e6:.1f}us\n{controller.render_log()}"
    )
    c = fe.counters
    assert not failures, f"{context}\nopens raised: {failures}"
    assert len(outcomes) == N_OPENS, (
        f"{context}\nlost opens: {len(outcomes)} of {N_OPENS}"
    )
    assert c.zero_rtt_accepts + c.fallbacks_1rtt == c.opens == N_OPENS, (
        f"{context}\nconservation broke: "
        f"{c.zero_rtt_accepts} 0-RTT + {c.fallbacks_1rtt} 1-RTT != {c.opens}"
    )
    assert c.key_mismatches == 0, f"{context}\ntraffic keys diverged"
    assert checker.transitions == 2, (
        f"{context}\nexpected one down + one up transition, "
        f"saw {checker.transitions}: {checker.declarations}"
    )
    assert set(registry.live()) == {h.addr for h in replica_hosts}, (
        f"{context}\nreplicas not all live at end: {registry.live()}"
    )
    return (
        sorted(outcomes),
        (c.opens, c.zero_rtt_accepts, c.fallbacks_1rtt, c.cross_attempts,
         c.cross_accepts, c.stale_membership),
        (cache.hits, cache.refreshes, cache.stale_served, cache.unavailable),
        (rotator.rotations, rotator.resyncs, rotator.missed_installs),
        tuple(registry.log),
        tuple(controller.log),
    )


class TestFrontendFaultFuzz:
    @pytest.mark.parametrize("seed", FRONTEND_SEEDS)
    def test_crash_during_refresh_never_drops_an_open(self, seed):
        outcomes, counters, _cache, _rot, _reg, log = run_frontend_seed(seed)
        assert len(outcomes) == N_OPENS, f"REPRODUCING SEED: {seed}"
        # The schedule actually did something: the crash and the revival
        # both landed inside the run.
        assert len(log) >= 2, f"REPRODUCING SEED: {seed} -- empty schedule"
        # Every recorded open resolved to one of the two modes.
        assert all(mode in ("0rtt", "1rtt") for *_rest, mode in outcomes), (
            f"REPRODUCING SEED: {seed}"
        )

    @pytest.mark.parametrize("seed", REPLAY_SEEDS)
    def test_replay_is_byte_identical(self, seed):
        first = run_frontend_seed(seed)
        second = run_frontend_seed(seed)
        assert first == second, (
            f"REPRODUCING SEED: {seed} -- replay diverged "
            "(open outcomes, counters, membership or incident log differ)"
        )
