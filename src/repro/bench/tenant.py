"""Noisy neighbor: two tenants, one fabric, isolation off vs on.

The tenancy subsystem's headline experiment.  A victim tenant offers a
light open-loop load while an aggressor offers ~90% of every host's
uplink over the *same* hosts, NICs and spines.  The run repeats twice
from identical seeds — per-tenant arrival streams are seeded by (engine
seed, tenant id, sender), so both runs sample the same arrival processes
— differing only in the host-side isolation primitives:

- **off**: service slots are one shared FIFO pool per host and egress is
  unshaped; the aggressor's backlog head-of-line blocks the victim both
  at the host and in the fabric queues.
- **on**: the same number of service slots, partitioned into weighted
  bulkhead compartments, plus a per-(host, tenant) token bucket shaping
  the aggressor to its entitlement.  Excess aggressor load queues in the
  aggressor's own shaper instead of the shared fabric.

Band checks are deterministic (virtual-time and count based):

- *victim tail*: victim p99 slowdown with isolation on is strictly below
  victim p99 with isolation off — the subsystem's reason to exist;
- *aggressor pays*: with isolation on, the shaper actually engaged
  (throttle events > 0) and the aggressor's own tail absorbs its excess;
- *no loss, no mixing*: every issued RPC completes in all four
  (tenant, mode) cells and zero integrity-fill errors — per-tenant AEAD
  contexts and partitioned sessions never cross records between tenants;
- *compartment hygiene*: the victim's session compartment sees zero
  evictions and zero admission refusals in both modes — aggressor churn
  cannot spill into the victim's control-plane budget;
- *dcache epilogue*: a compact read-through/write-behind workload on the
  SMT cache tier, checked by exact counts (fills equal origin reads,
  write-behind coalesces overwrites, drain leaves zero dirty keys and an
  origin consistent with every acknowledged PUT).

The isolated run is observed (``enable_obs``): ``tenant.*`` gauges and
``tenant.throttle`` spans land in the report's obs snapshot.
"""

from __future__ import annotations

import random

from repro.apps.dcache import DCacheCluster
from repro.bench.loaded import LOAD_HOMA_CONFIG
from repro.bench.report import ExperimentReport
from repro.homa import HomaConfig
from repro.load import HOMA_W4, TenantLoadEngine, TenantWorkload
from repro.tenancy import IsolationConfig, Tenant
from repro.tenancy.harness import TenantFabric
from repro.testbed import ClosTestbed
from repro.units import KB, USEC

SEED = 11
FABRIC_SEED = 3
VICTIM_LOAD = 0.10
AGGRESSOR_LOAD = 0.90
#: The aggressor's egress entitlement as a fraction of the host uplink.
AGGRESSOR_ENTITLEMENT = 0.40

#: The loaded bench's receiver-driven pacing, plus exponential resend
#: backoff: a 90%-offered-load shared-mode tail legitimately passes the
#: flat-rate resend budget (100 x 200 us = 20 ms), and the
#: completed==issued band is the point — every RPC must finish (slowly)
#: rather than fail.  Backoff stretches the same resend count over ~2 s
#: of virtual time while bounding retransmission amplification: a
#: grant-starved 128 KB message is re-requested at most once per
#: :data:`~repro.homa.constants.MAX_RESEND_INTERVAL` instead of 5000 times
#: per second.
#: The sender frees unacked outbound state only after ``sender_timeout``
#: with no receiver forward progress (no grant).  Under backoff the gap
#: between consecutive grants on a backlogged message can approach the
#: 20 ms :data:`~repro.homa.constants.MAX_RESEND_INTERVAL`, so the quiet
#: window must comfortably exceed that gap or a grant-starved message
#: would be freed alive between two backed-off resend rounds.
TENANT_HOMA_CONFIG = HomaConfig(
    unscheduled_bytes=16 * KB,
    grant_window=16 * KB,
    resend_interval=200 * USEC,
    resend_backoff=2.0,
    sender_timeout=50_000 * USEC,
)


def _tenants() -> list[Tenant]:
    # The victim is unshaped (its load is far below any fair share); the
    # aggressor is shaped to its entitlement when isolation is on.
    return [
        Tenant("victim", 0, weight=1.0),
        Tenant("aggr", 1, weight=1.0, rate_fraction=AGGRESSOR_ENTITLEMENT),
    ]


def _run_mode(enabled: bool, quick: bool):
    bed = ClosTestbed.leaf_spine(
        num_racks=2 if quick else 3,
        hosts_per_rack=2,
        num_spines=2,
        num_app_cores=4,
        seed=1,
    )
    obs = bed.enable_obs() if enabled else None
    fabric = TenantFabric(
        bed,
        _tenants(),
        isolation=IsolationConfig(enabled=enabled),
        config=TENANT_HOMA_CONFIG,
        seed=FABRIC_SEED,
    )
    if obs is not None:
        obs.observe_tenant_fabric(fabric)
    workloads = [
        TenantWorkload(fabric.registry.by_name("victim"), HOMA_W4, VICTIM_LOAD),
        TenantWorkload(fabric.registry.by_name("aggr"), HOMA_W4, AGGRESSOR_LOAD),
    ]
    engine = TenantLoadEngine(
        fabric,
        workloads,
        duration=0.15e-3 if quick else 0.4e-3,
        seed=SEED,
    )
    results = engine.run()
    snapshot = obs.snapshot() if obs is not None else None
    return fabric, results, snapshot


def _run_dcache(quick: bool) -> dict:
    """Scripted cache workload; every number below is an exact count."""
    bed = ClosTestbed.leaf_spine(
        num_racks=2,
        hosts_per_rack=2,
        num_spines=2,
        num_app_cores=4,
        seed=1,
    )
    cluster = DCacheCluster(
        bed, cache_capacity=16, flush_batch=4, config=LOAD_HOMA_CONFIG
    )
    num_warm = 12
    num_keys = 24 if quick else 48
    num_ops = 120 if quick else 300
    cluster.origin.preload({
        b"warm%d" % i: b"v%d" % i * 16 for i in range(num_warm)
    })
    client = cluster.client(0)
    loop = bed.loop
    rng = random.Random(SEED)
    acked: dict[bytes, bytes] = {}

    def body():
        thread = bed.hosts[0].app_thread(3)
        # Warm reads: first pass fills, second pass hits (capacity
        # permitting) -- the read-through path.
        for i in range(num_warm):
            value = yield from client.get(thread, b"warm%d" % i)
            assert value == b"v%d" % i * 16
        # Mixed PUT/GET churn driving coalescing and LRU eviction.
        for _ in range(num_ops):
            key = b"k%d" % rng.randrange(num_keys)
            if rng.random() < 0.6:
                value = b"x" * rng.randrange(32, 256)
                yield from client.put(thread, key, value)
                acked[key] = value
            else:
                value = yield from client.get(thread, key)
                if key in acked:
                    assert value == acked[key], key

    done = loop.process(body())
    bed.run(until=loop.now + 1.0)
    if not done.triggered:
        raise RuntimeError("dcache phase deadlocked")
    if not done.ok:
        raise done.value
    cluster.drain()
    stats = cluster.stats()
    stats["client_gets"] = client.gets
    stats["client_puts"] = client.puts
    stats["client_hits"] = client.hits
    stats["client_fills"] = client.fills
    stats["acked_keys"] = len(acked)
    stats["durable_acked"] = sum(
        cluster.origin.get(k) == v for k, v in acked.items()
    )
    stats["dirty_after_drain"] = sum(
        n.store.dirty_count for n in cluster.nodes
    )
    return stats


def run(quick: bool = False) -> ExperimentReport:
    report = ExperimentReport(
        "Noisy neighbor: victim tail with tenant isolation off vs on"
        + (" (quick)" if quick else "")
    )
    modes = {}
    for enabled in (False, True):
        fabric, results, snapshot = _run_mode(enabled, quick)
        label = "isolated" if enabled else "shared"
        modes[label] = (fabric, results)
        if snapshot is not None:
            report.obs[f"tenant/{label}"] = snapshot

    rows = []
    for label in ("shared", "isolated"):
        fabric, results = modes[label]
        for name in ("victim", "aggr"):
            r = results[name]
            throttle = fabric.throttle_stats(name)
            bulkhead = fabric.bulkhead_stats(name)
            rows.append((
                label,
                name,
                r.issued,
                r.completed,
                round(r.p50, 2),
                round(r.p99, 2),
                round(r.mean, 2),
                throttle["throttled"],
                bulkhead["waited"],
                r.integrity_errors,
            ))
    report.add_table(
        ["mode", "tenant", "issued", "done", "p50 slow", "p99 slow",
         "mean", "throttled", "bh waited", "integ errs"],
        rows,
    )

    shared = modes["shared"][1]
    isolated = modes["isolated"][1]
    report.check(
        "victim p99 slowdown: isolated strictly below shared",
        float(isolated["victim"].p99 < shared["victim"].p99), 1, 1,
    )
    report.check(
        "victim p99 improvement under isolation (ratio shared/isolated)",
        shared["victim"].p99 / isolated["victim"].p99, 1.05, 100.0,
    )
    report.check(
        "aggressor egress shaper engaged (throttle events, isolated)",
        float(modes["isolated"][0].throttle_stats("aggr")["throttled"] > 0),
        1, 1,
    )
    report.check(
        "victim never throttled (both modes)",
        sum(
            fabric.throttle_stats("victim")["throttled"]
            for fabric, _ in modes.values()
        ),
        0, 0,
    )
    all_results = [r for _, results in modes.values() for r in results.values()]
    report.check(
        "RPCs completed (all tenants, both modes)",
        sum(r.completed for r in all_results),
        sum(r.issued for r in all_results),
        sum(r.issued for r in all_results),
    )
    report.check(
        "integrity-fill errors across tenants and modes",
        sum(r.integrity_errors for r in all_results), 0, 0,
    )
    victim_ctrl = [
        fabric.ctrl_stats("victim") for fabric, _ in modes.values()
    ]
    report.check(
        "victim session compartment evictions (both modes)",
        sum(c["evicted"] for c in victim_ctrl), 0, 0,
    )
    report.check(
        "victim session admissions refused (both modes)",
        sum(c["admission_refused"] for c in victim_ctrl), 0, 0,
    )

    cache = _run_dcache(quick)
    report.add_table(
        ["metric", "count"],
        [(k, cache[k]) for k in sorted(cache)],
    )
    report.check(
        "dcache: client fills equal shard read-throughs",
        float(
            cache["client_fills"] == cache["read_throughs"]
            and cache["origin_reads"] >= cache["read_throughs"]
        ),
        1, 1,
    )
    report.check(
        "dcache: every acknowledged PUT durable at the origin after drain",
        cache["durable_acked"], cache["acked_keys"], cache["acked_keys"],
    )
    report.check(
        "dcache: zero dirty keys after drain",
        cache["dirty_after_drain"], 0, 0,
    )
    report.check(
        "dcache: write-behind coalesces (origin writes below client puts)",
        float(0 < cache["origin_writes"] < cache["client_puts"]), 1, 1,
    )
    report.check(
        "dcache: shard hits observed (read-through populated the LRU)",
        float(cache["client_hits"] > 0), 1, 1,
    )
    return report
