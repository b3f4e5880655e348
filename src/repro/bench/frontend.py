"""Replicated-service front end: §4.5 ticket portability and staleness.

Two deterministic scenarios over the ``repro.lb`` layer, each reading a
property of the paper's DNS-distributed 0-RTT tickets (§4.5.2):

1. **Ticket portability** -- N replicas behind one DNS name.  With a
   :class:`~repro.ctrl.rotation.SharedShareRotator` (one long-term share
   service-wide) every cross-replica 0-RTT attempt is accepted: a ticket
   minted by replica A opens replica B with zero handshake RTTs, and
   both sides derive identical traffic keys.  With per-replica shares
   (plain :class:`~repro.ctrl.rotation.TicketRotator` each, one ticket
   published) *every* cross-replica attempt is rejected and falls back
   to the 1-RTT handshake -- DNS-distributed 0-RTT silently degrades to
   session affinity.  The bands pin 100% vs 0% cross-acceptance.  A
   connection drain rides along: one replica leaves rotation and every
   one of its sessions migrates, none dropped.

2. **DNS-TTL staleness** -- the ticket record's TTL races the share
   lifetime across a replica crash (``DomainFaultController``): refresh
   inside the margin finds the record reaped (cached ticket served while
   verifiable, counted), then nothing usable (1-RTT fallback, counted);
   the rotation that fires mid-crash cannot install on the dead replica
   (counted), so the revived replica rejects 0-RTT until the rotator
   resyncs it.  Every session open still succeeds.
"""

from __future__ import annotations

import random

from repro.bench.report import ExperimentReport
from repro.core.zero_rtt import ZeroRttServer
from repro.crypto.ca import fixed_pki
from repro.ctrl import CtrlConfig, SharedShareRotator, TicketCache, TicketRotator
from repro.dns.resolver import InternalDns
from repro.lb import (
    ConnectionDrainer,
    HealthChecker,
    ReplicaServer,
    ServiceFrontend,
    ServiceRegistry,
)
from repro.testbed import ClosTestbed
from repro.units import USEC

SERVICE = "svc.dc.internal"
SEED = 17
DNS_LATENCY = 2e-6
TICKET_LIFETIME = 5e-3
GRACE_WINDOW = 2e-3
REFRESH_MARGIN = 1e-3


# -- part 1: ticket portability (+ drain) -----------------------------------------


def _run_portability(shared: bool, opens: int) -> dict:
    bed = ClosTestbed.leaf_spine(
        num_racks=2, hosts_per_rack=3, num_spines=2, seed=5
    )
    ca, chain, key = fixed_pki(SERVICE)
    roots = (ca.certificate,)
    dns = InternalDns(lookup_latency=DNS_LATENCY)
    replica_hosts = bed.hosts[3:]
    zservers = [
        ZeroRttServer(
            SERVICE, chain, key, random.Random(100 + i),
            lifetime=TICKET_LIFETIME, grace_window=GRACE_WINDOW,
        )
        for i in range(len(replica_hosts))
    ]
    replicas = {
        h.addr: ReplicaServer(h, z) for h, z in zip(replica_hosts, zservers)
    }
    if shared:
        rotator = SharedShareRotator(
            bed.loop, zservers, dns, SERVICE,
            rng=random.Random(9), ttl=TICKET_LIFETIME,
        )
        rotator.start()
    else:
        # Independent per-replica shares; the service name carries the
        # first replica's ticket (whichever the operator published).
        for i, z in enumerate(zservers):
            TicketRotator(bed.loop, z, dns, f"{SERVICE}.r{i}",
                          ttl=TICKET_LIFETIME).start()
        dns.publish(SERVICE, dns.query(f"{SERVICE}.r0", bed.loop.now),
                    bed.loop.now, ttl=TICKET_LIFETIME)
    registry = ServiceRegistry(bed.loop, dns, SERVICE)
    for h in replica_hosts:
        registry.register(h.addr)
    registry.start()
    cache = TicketCache(dns, roots, refresh_margin=REFRESH_MARGIN)
    fe = ServiceFrontend(
        bed.loop, registry, replicas, cache, roots,
        minter_rid=replica_hosts[0].addr, seed=SEED,
    )
    drainer = ConnectionDrainer(bed.loop, fe)
    out: dict = {}

    def client():
        thread = bed.hosts[0].app_thread(0)
        for k in range(opens):
            yield from fe.open_session(thread, f"client-key-{k}")
        # Drain the busiest replica; completeness = every session moved.
        target = max(replicas, key=lambda rid: len(fe.sessions_on(rid)))
        out["pre_drain"] = len(fe.sessions_on(target))
        out["moved"] = drainer.drain(target)
        out["left"] = len(fe.sessions_on(target))

    done = bed.loop.process(client())
    bed.run(until=bed.loop.now + 0.1)
    if not done.triggered:
        raise AssertionError("portability scenario deadlocked")
    if not done.ok:
        raise done.value
    out["counters"] = fe.counters
    out["alive"] = sum(1 for s in fe.sessions if not s.closed)
    return out


# -- part 2: DNS-TTL staleness across a replica crash -----------------------------

#: Compressed timeline (all virtual seconds).  The ticket record's TTL
#: expires well before the share does (stale window), the share expires
#: before the next rotation (unavailable window), and the crash covers
#: the rotation so the dead replica misses the install.
STALE_PERIOD = 600 * USEC
STALE_TTL = 150 * USEC
STALE_LIFETIME = 400 * USEC
STALE_MARGIN = 200 * USEC
CRASH_AT = 250 * USEC
REVIVE_AT = 700 * USEC
RESYNC_DELAY = 200 * USEC
STALE_HORIZON = 1250 * USEC


def _run_staleness() -> dict:
    bed = ClosTestbed.leaf_spine(
        num_racks=2, hosts_per_rack=2, num_spines=2, seed=5
    )
    bed.enable_ctrl(config=CtrlConfig(), seed=2025)
    ca, chain, key = fixed_pki(SERVICE)
    roots = (ca.certificate,)
    dns = InternalDns(lookup_latency=DNS_LATENCY)
    replica_hosts = bed.hosts[2:]
    replica_indices = [2, 3]
    zservers = [
        ZeroRttServer(
            SERVICE, chain, key, random.Random(100 + i),
            lifetime=STALE_LIFETIME, grace_window=STALE_LIFETIME / 2,
        )
        for i in range(len(replica_hosts))
    ]
    replicas = {
        h.addr: ReplicaServer(h, z, plane=bed.ctrl_planes[idx])
        for h, z, idx in zip(replica_hosts, zservers, replica_indices)
    }
    controller = bed.domain_controller()
    rotator = SharedShareRotator(
        bed.loop, zservers, dns, SERVICE,
        rng=random.Random(9), period=STALE_PERIOD, ttl=STALE_TTL,
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
    cache = TicketCache(dns, roots, refresh_margin=STALE_MARGIN)
    fe = ServiceFrontend(
        bed.loop, registry, replicas, cache, roots,
        minter_rid=replica_hosts[0].addr, seed=SEED,
    )
    # The crashed replica misses the mid-crash rotation; on revival the
    # rotator resyncs it after a control-plane catch-up delay, closing
    # the forced-1-RTT window the frontend counters expose.
    controller.on_replica_revive(
        lambda idx: bed.loop.timer_later(
            RESYNC_DELAY, rotator.resync, zservers[replica_indices.index(idx)]
        )
    )
    bed.loop.timer_later(CRASH_AT, controller.replica_crash, replica_indices[1])
    bed.loop.timer_later(REVIVE_AT, controller.replica_revive, replica_indices[1])

    step = 40e-6
    failures = []

    def client():
        thread = bed.hosts[0].app_thread(0)
        k = 0
        yield bed.loop.timeout(10e-6)
        while bed.loop.now < STALE_HORIZON:
            try:
                yield from fe.open_session(thread, f"key-{k % 6}")
            except Exception as exc:  # every open must degrade, not raise
                failures.append((bed.loop.now, repr(exc)))
            k += 1
            yield bed.loop.timeout(step)

    done = bed.loop.process(client())
    bed.run(until=STALE_HORIZON + 200e-6)
    if not done.triggered:
        raise AssertionError("staleness scenario deadlocked")
    if not done.ok:
        raise done.value
    return {
        "counters": fe.counters,
        "cache": cache,
        "rotator": rotator,
        "checker": checker,
        "revived_rejects": replicas[replica_hosts[1].addr].zero_rtt_rejects,
        "revived_accepts": replicas[replica_hosts[1].addr].zero_rtt_accepts,
        "failures": failures,
        "controller": controller,
    }


# -- the report -------------------------------------------------------------------


def run(quick: bool = False) -> ExperimentReport:
    report = ExperimentReport(
        "Replicated-service front end: §4.5 0-RTT ticket portability across "
        "replicas and ticket staleness across a crash"
        + (" (quick)" if quick else "")
    )

    # 1. Ticket portability across replicas, plus the drain ride-along.
    opens = 10 if quick else 18
    port = {
        mode: _run_portability(mode == "shared", opens)
        for mode in ("shared", "per-replica")
    }
    report.add_table(
        ["share mode", "opens", "0-RTT", "cross att", "cross acc",
         "1-RTT fallbacks", "key mismatch"],
        [
            (
                mode,
                r["counters"].opens,
                r["counters"].zero_rtt_accepts,
                r["counters"].cross_attempts,
                r["counters"].cross_accepts,
                r["counters"].fallbacks_1rtt,
                r["counters"].key_mismatches,
            )
            for mode, r in port.items()
        ],
    )
    shared_c = port["shared"]["counters"]
    per_c = port["per-replica"]["counters"]
    report.check(
        "shared share: cross-replica 0-RTT attempts occurred",
        shared_c.cross_attempts, 1, opens,
    )
    report.check(
        "shared share: cross-replica 0-RTT acceptance (%)",
        100.0 * shared_c.cross_accepts / max(1, shared_c.cross_attempts),
        100.0, 100.0,
    )
    report.check(
        "shared share: 1-RTT fallbacks", shared_c.fallbacks_1rtt, 0, 0
    )
    report.check(
        "per-replica shares: cross-replica 0-RTT acceptance (%)",
        100.0 * per_c.cross_accepts / max(1, per_c.cross_attempts), 0.0, 0.0,
    )
    report.check(
        "per-replica shares: every cross attempt fell back to 1-RTT",
        per_c.fallbacks_1rtt, per_c.cross_attempts, per_c.cross_attempts,
    )
    report.check(
        "client/server traffic-key mismatches",
        shared_c.key_mismatches + per_c.key_mismatches, 0, 0,
    )
    report.check(
        "drain completeness: sessions moved == sessions present",
        port["shared"]["moved"], port["shared"]["pre_drain"],
        port["shared"]["pre_drain"],
    )
    report.check(
        "drain leaves zero sessions behind", port["shared"]["left"], 0, 0
    )
    report.check(
        "no session lost across open+drain",
        port["shared"]["alive"], opens, opens,
    )

    # 2. DNS-TTL staleness racing a replica crash.
    stale = _run_staleness()  # a fixed timeline: quick runs it whole
    sc = stale["counters"]
    cache = stale["cache"]
    rotator = stale["rotator"]
    report.add_table(
        ["opens", "0-RTT", "1-RTT fallbacks", "stale served", "unavailable",
         "missed installs", "resyncs", "revived rejects", "unhandled"],
        [(
            sc.opens, sc.zero_rtt_accepts, sc.fallbacks_1rtt,
            cache.stale_served, cache.unavailable,
            rotator.missed_installs, rotator.resyncs,
            stale["revived_rejects"], len(stale["failures"]),
        )],
    )
    report.check(
        "staleness: unhandled errors during opens",
        len(stale["failures"]), 0, 0,
    )
    report.check(
        "staleness: refresh raced TTL but cached ticket served (count)",
        cache.stale_served, 1, sc.opens,
    )
    report.check(
        "staleness: windows with no usable ticket (1-RTT fallback)",
        cache.unavailable, 1, sc.opens,
    )
    report.check(
        "staleness: 1-RTT fallbacks cover every unavailable window",
        float(sc.fallbacks_1rtt >= cache.unavailable), 1, 1,
    )
    report.check(
        "crashed replica missed the mid-crash rotation (installs)",
        rotator.missed_installs, 1, 4,
    )
    report.check(
        "revived replica rejected 0-RTT before resync",
        stale["revived_rejects"], 1, sc.opens,
    )
    report.check("rotator resyncs on revival", rotator.resyncs, 1, 2)
    report.check(
        "revived replica accepts 0-RTT after resync",
        stale["revived_accepts"], 1, sc.opens,
    )
    report.check(
        "staleness: traffic-key mismatches", sc.key_mismatches, 0, 0
    )
    report.check(
        "health detected the crash and the revival (transitions)",
        stale["checker"].transitions, 2, 2,
    )
    report.check(
        "staleness: every open resolved 0-RTT or 1-RTT (conservation)",
        sc.zero_rtt_accepts + sc.fallbacks_1rtt, sc.opens, sc.opens,
    )
    report.check(
        "staleness: 0-RTT still taken when a usable ticket existed",
        sc.zero_rtt_accepts, 2, sc.opens,
    )
    return report
