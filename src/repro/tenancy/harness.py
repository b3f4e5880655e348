"""Per-tenant SMT meshes over one shared Clos fabric.

:class:`TenantFabric` is the tenancy subsystem's integration point: it
takes a built :class:`~repro.testbed.ClosTestbed` plus a tenant list and
wires, per tenant,

- one SMT :class:`~repro.homa.HomaSocket` per host on a tenant-specific
  port, all sharing the host's single Homa/SMT transport (one kernel
  stack per machine, many tenants above it — the paper's
  one-socket-per-application shape, §5.3);
- **per-tenant AEAD contexts**: pairwise traffic keys derived from the
  tenant id and both hosts' *tenant shares*, where each host draws its
  share for a tenant through that tenant's
  :class:`~repro.ctrl.PartitionedKeyPool` compartment (per-connection
  keying rooted in pre-generated keys, §4.5.1, accounted per tenant);
- session registration in a per-host
  :class:`~repro.ctrl.PartitionedSessionTable`, so tenant compartments
  hold tenant sessions and one tenant's churn cannot evict another's;
- **ingress bulkheads**: a per-host
  :class:`~repro.tenancy.WeightedBulkhead` over the host's service
  slots.  Total concurrency is identical with isolation on or off; the
  toggle only changes whether the slots are one shared FIFO pool
  (aggressor backlog head-of-line blocks victims) or weighted reserved
  compartments;
- **egress rate limiters**: with isolation on, a per-(host, tenant)
  :class:`~repro.tenancy.TokenBucket` shapes each tenant's uplink bytes
  to its entitlement, moving excess queueing off the shared fabric and
  into the aggressor's private backlog.

RPCs reuse the loaded bench's position-dependent integrity-fill
protocol (:mod:`repro.load.cluster`), so any cross-tenant, cross-path
or cross-session byte mixup — including a packet decrypted under the
wrong tenant's keys — surfaces as a counted integrity error rather than
a silent pass.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Any, Generator, Optional

from repro.core.codec import SmtCodec
from repro.ctrl.partition import PartitionedKeyPool, PartitionedSessionTable
from repro.homa import HomaConfig, HomaSocket, HomaTransport
from repro.load.cluster import LOAD_AEAD, handle_request
from repro.load.engine import wire_bytes
from repro.net.headers import PROTO_SMT
from repro.tenancy.bulkhead import WeightedBulkhead
from repro.tenancy.limiter import TokenBucket
from repro.tenancy.tenant import Tenant, TenantRegistry
from repro.testbed import ClosTestbed
from repro.tls.keyschedule import TrafficKeys

#: Tenant ``tid`` t serves on port ``TENANT_PORT_BASE + t`` on every host.
TENANT_PORT_BASE = 7100


def tenant_pair_keys(
    tid: int, tx_addr: int, rx_addr: int, share_tx: bytes, share_rx: bytes
) -> TrafficKeys:
    """Per-tenant, per-direction traffic keys.

    Mixes the tenant id, both endpoint addresses and both hosts' tenant
    shares (public keys drawn from the tenant's key-pool compartment), so
    two tenants talking over the identical host pair hold disjoint AEAD
    contexts — a record landing in the wrong tenant's socket cannot
    authenticate.
    """
    packed = struct.pack("!III", tid, tx_addr, rx_addr) + share_tx + share_rx
    return TrafficKeys(
        key=hashlib.blake2b(packed, digest_size=16, key=b"tenant-key").digest(),
        iv=hashlib.blake2b(packed, digest_size=12, key=b"tenant-iv").digest(),
    )


#: Concurrent request-service slots per host (shared or partitioned).
SERVICE_SLOTS = 4
#: Per-host standby-key budget, split across tenant compartments.
KEYPOOL_CAPACITY = 8
#: Server reader loops per (host, tenant).
READERS_PER_TENANT = 4


@dataclass
class IsolationConfig:
    """Host-side isolation knobs shared by every host of the fabric.

    :data:`SERVICE_SLOTS` bounds concurrent request service per host in
    both modes; ``enabled`` decides whether the slots and the uplink are
    partitioned per tenant (bulkhead + token bucket) or contended freely.
    """

    enabled: bool = False
    #: Token-bucket burst, in bytes, for each (host, tenant) egress shaper.
    burst_bytes: int = 64 * 1024
    #: Per-host session-table budget, split across tenant compartments.
    session_capacity: int = 64


class _TenantMesh:
    """One tenant's sockets and per-peer codecs across every host."""

    __slots__ = ("tenant", "port", "socks", "codecs")

    def __init__(self, tenant: Tenant, port: int):
        self.tenant = tenant
        self.port = port
        self.socks: list[HomaSocket] = []
        self.codecs: list[dict[int, SmtCodec]] = []


class TenantFabric:
    """Many tenants, one Clos fabric, isolation primitives at each host."""

    def __init__(
        self,
        bed: ClosTestbed,
        tenants: list[Tenant],
        isolation: Optional[IsolationConfig] = None,
        config: Optional[HomaConfig] = None,
        seed: int = 0,
    ):
        self.bed = bed
        self.loop = bed.loop
        self.hosts = bed.hosts
        self.registry = TenantRegistry(tenants)
        self.isolation = isolation or IsolationConfig()
        weights = self.registry.weights()
        num_tenants = len(self.registry)

        #: Per-tenant served-request and integrity counters.
        self.requests_served = {t.name: 0 for t in self.registry}
        self.server_integrity_errors = {t.name: 0 for t in self.registry}
        self._inflight: dict[tuple[str, int], int] = {}

        # -- per-host control-plane partitions and isolation primitives ----
        iso = self.isolation
        self.session_tables = [
            PartitionedSessionTable(
                self.loop, weights, capacity=iso.session_capacity
            )
            for _ in self.hosts
        ]
        self.keypools = [
            PartitionedKeyPool(
                self.loop,
                weights,
                seed=seed * 7919 + h,
                capacity=KEYPOOL_CAPACITY,
            )
            for h in range(len(self.hosts))
        ]
        self.bulkheads = [
            WeightedBulkhead(
                self.loop, SERVICE_SLOTS, weights, partitioned=iso.enabled
            )
            for _ in self.hosts
        ]
        self.limiters: dict[tuple[int, str], TokenBucket] = {}
        if iso.enabled:
            for h, host in enumerate(self.hosts):
                for tenant in self.registry:
                    if tenant.rate_fraction is None:
                        continue
                    self.limiters[(h, tenant.name)] = TokenBucket(
                        self.loop,
                        rate_bps=tenant.rate_fraction * bed.fabric.bandwidth,
                        burst_bytes=iso.burst_bytes,
                        name=f"{host.name}.{tenant.name}.egress",
                    )

        # -- per-(host, tenant) shares: drawn through the tenant's key-pool
        # compartment, so standby-key consumption is charged per tenant.
        self._shares: dict[tuple[int, str], bytes] = {}
        for h in range(len(self.hosts)):
            for tenant in self.registry:
                keypair = self.keypools[h].take_or_generate(tenant.name)
                self._shares[(h, tenant.name)] = keypair.public_bytes()

        # -- one SMT transport per host, one socket per (host, tenant) -----
        self._index_of = {host.addr: i for i, host in enumerate(self.hosts)}
        self._transports = [
            HomaTransport(host, config, proto=PROTO_SMT) for host in self.hosts
        ]
        self._meshes: dict[str, _TenantMesh] = {}
        for tenant in self.registry:
            mesh = _TenantMesh(tenant, TENANT_PORT_BASE + tenant.tid)
            for h, host in enumerate(self.hosts):
                codecs: dict[int, SmtCodec] = {}
                provider = self._codec_provider(tenant, h, host, codecs)
                mesh.socks.append(
                    HomaSocket(self._transports[h], mesh.port, codec_provider=provider)
                )
                mesh.codecs.append(codecs)
            self._meshes[tenant.name] = mesh
        for tenant in self.registry:
            for h in range(len(self.hosts)):
                for k in range(READERS_PER_TENANT):
                    self.loop.process(self._serve(tenant, h, k))
        self._num_tenants = num_tenants
        self.obs = None

    # -- codecs / sessions -----------------------------------------------------

    def _codec_provider(self, tenant: Tenant, h: int, host, codecs: dict):
        """:meth:`SmtCodec.per_peer`'s codec cache, keyed per tenant, with
        every codec it builds registered in the host's session table."""
        name = tenant.name

        def keys_for(addr: int) -> tuple[TrafficKeys, TrafficKeys]:
            mine = self._shares[(h, name)]
            theirs = self._shares[(self._index_of[addr], name)]
            return (
                tenant_pair_keys(tenant.tid, host.addr, addr, mine, theirs),
                tenant_pair_keys(tenant.tid, addr, host.addr, theirs, mine),
            )

        build = SmtCodec.per_peer(host, codecs, keys_for, LOAD_AEAD)

        def provider(addr: int, port: int) -> SmtCodec:
            codec = codecs.get(addr)
            if codec is None:
                codec = build(addr, port)
                self._register_session(tenant, h, addr, codecs)
            return codec

        return provider

    def _register_session(
        self, tenant: Tenant, h: int, peer_addr: int, codecs: dict
    ) -> None:
        """Track this tenant session in the host's partitioned table.

        Eviction (LRU inside the tenant's compartment only) drops the
        codec; per-tenant traffic keys are deterministic, so a later RPC
        transparently re-derives the identical AEAD context.
        """
        key = (tenant.name, peer_addr)
        inflight = self._inflight
        busy_key = (h, tenant.name, peer_addr)
        inflight.setdefault(busy_key, 0)
        self.session_tables[h].insert(
            tenant.name,
            key,
            on_evict=lambda: codecs.pop(peer_addr, None),
            busy=lambda: inflight[busy_key] > 0,
            now=self.loop.now,
        )

    # -- server side -------------------------------------------------------------

    def _serve(self, tenant: Tenant, h: int, k: int):
        """One reader loop: recv, acquire a service slot, serve, release."""
        mesh = self._meshes[tenant.name]
        sock = mesh.socks[h]
        thread = self.hosts[h].app_thread(tenant.tid * READERS_PER_TENANT + k)
        bulkhead = self.bulkheads[h]
        name = tenant.name
        while True:
            rpc = yield from sock.recv_request(thread)
            yield from bulkhead.acquire(name)
            try:
                response, ok = handle_request(rpc.payload)
                self.requests_served[name] += 1
                if not ok:
                    self.server_integrity_errors[name] += 1
                reply = sock.reply(thread, rpc, response)
                del rpc, response  # not held while this reader waits for more
                yield from reply
            finally:
                bulkhead.release(name)

    # -- client side -------------------------------------------------------------

    def thread_for(self, tenant: Tenant, src: int, serial: int):
        """A client app thread on host ``src``, spread across tenants.

        Offsetting by the tenant id keeps two tenants' client threads on
        different cores when cores are plentiful and in honest contention
        when they are scarce.
        """
        base = self._num_tenants * READERS_PER_TENANT
        return self.hosts[src].app_thread(
            base + serial * self._num_tenants + tenant.tid
        )

    def call(
        self,
        tenant_name: str,
        src: int,
        dst: int,
        thread,
        payload: bytes,
        shaped: bool = True,
    ) -> Generator[Any, Any, bytes]:
        """One tenant RPC ``src`` -> ``dst``, shaped at egress when isolated.

        ``shaped=False`` bypasses the tenant's token bucket — used by
        baseline calibration, which measures the idle fabric, not the
        shaper.
        """
        mesh = self._meshes[tenant_name]
        limiter = self.limiters.get((src, tenant_name)) if shaped else None
        if limiter is not None:
            delay = limiter.reserve(wire_bytes(len(payload), self.bed.fabric.mtu))
            if delay > 0:
                obs = self.obs
                span = None
                if obs is not None:
                    span = obs.tracer.begin(
                        "tenant.throttle", tenant_name, delay_us=delay * 1e6
                    )
                yield self.loop.timeout(delay)
                if span is not None:
                    obs.tracer.end(span)
        dst_addr = self.hosts[dst].addr
        busy_key = (src, tenant_name, dst_addr)
        self._inflight[busy_key] = self._inflight.get(busy_key, 0) + 1
        try:
            call = mesh.socks[src].call(thread, dst_addr, mesh.port, payload)
            del payload  # not held while the response is awaited
            response = yield from call
        finally:
            self._inflight[busy_key] -= 1
            self.session_tables[src].touch(tenant_name, (tenant_name, dst_addr))
        return response

    # -- bookkeeping --------------------------------------------------------------

    def throttle_stats(self, tenant_name: str) -> dict:
        """Summed egress-shaper counters for one tenant across hosts."""
        totals = {"conforming": 0, "throttled": 0, "throttle_wait_total": 0.0}
        for (_, name), bucket in self.limiters.items():
            if name != tenant_name:
                continue
            for k, v in bucket.stats().items():
                totals[k] += v
        return totals

    def bulkhead_stats(self, tenant_name: str) -> dict:
        totals = {"admitted": 0, "waited": 0}
        for bulkhead in self.bulkheads:
            stats = bulkhead.stats()[tenant_name]
            totals["admitted"] += stats["admitted"]
            totals["waited"] += stats["waited"]
        return totals

    def ctrl_stats(self, tenant_name: str) -> dict:
        """Per-tenant control-plane compartment counters across hosts."""
        sessions = inserted = evicted = refused = 0
        taken = misses = 0
        for table in self.session_tables:
            stats = table.stats()[tenant_name]
            sessions += stats["sessions"]
            inserted += stats["inserted"]
            evicted += stats["evicted_lru"] + stats["evicted_idle"]
            refused += stats["admission_refused"]
        for pool in self.keypools:
            stats = pool.stats()[tenant_name]
            taken += stats["taken"]
            misses += stats["misses"]
        return {
            "sessions": sessions,
            "inserted": inserted,
            "evicted": evicted,
            "admission_refused": refused,
            "keys_taken": taken,
            "key_misses": misses,
        }

    def bind_obs(self, obs) -> None:
        """Export ``tenant.<name>.*`` gauges; remember the tracer for
        ``tenant.throttle`` spans."""
        self.obs = obs
        m = obs.metrics
        for tenant in self.registry:
            n = tenant.name
            m.gauge(f"tenant.{n}.served", lambda n=n: self.requests_served[n])
            m.gauge(
                f"tenant.{n}.integrity_errors",
                lambda n=n: self.server_integrity_errors[n],
            )
            m.gauge(
                f"tenant.{n}.throttled",
                lambda n=n: self.throttle_stats(n)["throttled"],
            )
            m.gauge(
                f"tenant.{n}.throttle_wait_us",
                lambda n=n: self.throttle_stats(n)["throttle_wait_total"] * 1e6,
            )
            m.gauge(
                f"tenant.{n}.bulkhead.waited",
                lambda n=n: self.bulkhead_stats(n)["waited"],
            )
            m.gauge(
                f"tenant.{n}.sessions", lambda n=n: self.ctrl_stats(n)["sessions"]
            )
            m.gauge(
                f"tenant.{n}.sessions.evicted",
                lambda n=n: self.ctrl_stats(n)["evicted"],
            )
            m.gauge(
                f"tenant.{n}.keypool.taken",
                lambda n=n: self.ctrl_stats(n)["keys_taken"],
            )
            m.gauge(
                f"tenant.{n}.keypool.misses",
                lambda n=n: self.ctrl_stats(n)["key_misses"],
            )
