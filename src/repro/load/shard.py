"""Per-domain open-loop workloads for the sharded cluster.

:class:`~repro.load.cluster.ClusterHarness` assumes every host shares one
event loop; under :mod:`repro.sim.shard` each time domain owns only its
racks' hosts, so :class:`ShardedClusterHarness` builds the same
any-to-any RPC mesh one domain slice at a time, and
:class:`ShardedOpenLoopEngine` is the open-loop engine with the seams
that make a host's traffic independent of the partitioning:

- each domain constructs *its own* endpoints only.  The message mesh is
  the shared one (:func:`~repro.load.cluster.start_message_mesh`): its
  sockets key peers by address alone.  A cross-domain stream connection
  is built one-sided in each domain from deterministic ports (both sides
  derive the identical flow tuple, so the fabric wires them together
  without any cross-domain setup traffic).
- each sender's arrival process is seeded from its *global* host index,
  and message serials are namespaced per sender, so the traffic a host
  offers is a pure function of (plan, seed, host) -- independent of how
  the cluster is partitioned into domains.
- baselines are measured once, up front, by the engine's own calibration
  on a pristine 2x2 one-domain mini-cluster with the target plan's link
  parameters (the unloaded best-case RTT is topology-size independent),
  then passed into every domain.  This keeps the slowdown denominators
  bit-identical across domain counts.
- per-domain completion records merge in canonical ``(t, src, serial)``
  order, so the merged histogram accumulates samples in the same order
  no matter the partitioning -- means as well as percentiles are then
  bit-identical across domain counts, which is what the CI shard gate
  diffs.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Generator, Optional

from repro.crypto.aead import SIM_AEAD
from repro.homa import HomaConfig, HomaSocket
from repro.ktls.ktls import KtlsConnection
from repro.load.cluster import (
    SERVER_PORT,
    SYSTEMS,
    StreamRpcClient,
    pair_keys,
    serve_stream,
    start_message_mesh,
)
from repro.load.distributions import SizeDistribution
from repro.load.engine import DEFAULT_RESPONSE, LoadResult, OpenLoopEngine
from repro.sim.shard.domain import ShardDomain
from repro.sim.shard.plan import ShardPlan
from repro.sim.trace import Histogram
from repro.tcp.transport import TcpConnection, TcpTransport

#: Deterministic client-side ports for the one-sided stream mesh (the
#: shared-loop mesh uses ``Host.alloc_port``, which both sides would have
#: to agree on; here the pair ordinal pins the flow tuple instead).
_CLIENT_PORT_BASE = 40000
#: Serials are namespaced per sender so no two senders can collide no
#: matter how windows interleave; fits the wire header's 64-bit serial.
_SERIAL_STRIDE = 1 << 32


def _pair_ordinal(src: int, dst: int, num_hosts: int) -> int:
    """Dense rank of the ordered pair, same order the shared-loop mesh
    enumerates pairs in (``src`` major, ``dst`` minor, self skipped)."""
    return src * (num_hosts - 1) + (dst if dst < src else dst - 1)


class ShardedClusterHarness:
    """One domain's slice of a system's any-to-any RPC mesh.

    The mesh spans the whole cluster; this object owns the endpoints,
    verifying echo servers and client stubs of the domain's local hosts.
    """

    def __init__(
        self,
        domain: ShardDomain,
        system: str,
        config: Optional[HomaConfig] = None,
        num_server_threads: int = 4,
    ):
        if system not in SYSTEMS:
            raise ValueError(f"unknown system {system!r}; pick from {SYSTEMS}")
        #: The domain, under the name the engine reads a testbed by: it
        #: has the ``loop``, ``fabric`` and ``obs`` a testbed has.
        self.bed = domain
        self.plan = domain.plan
        self.system = system
        self.loop = domain.loop
        self.hosts = domain.hosts
        self.global_indices = domain.global_indices
        self.num_hosts = self.plan.num_hosts
        self._local_of = {g: i for i, g in enumerate(self.global_indices)}
        plan = self.plan
        self._addr_of = [
            plan.addr_of(g // plan.hosts_per_rack, g % plan.hosts_per_rack)
            for g in range(self.num_hosts)
        ]
        self.server_integrity_errors = 0
        #: Served-request counts by *global* host index (local hosts only).
        self.requests_served = {g: 0 for g in self.global_indices}
        self._socks: dict[int, HomaSocket] = {}
        self._stream_clients: dict[tuple[int, int], StreamRpcClient] = {}
        if system in ("homa", "smt"):
            self._socks = start_message_mesh(
                self, self.global_indices, config, num_server_threads
            )
        else:
            self._build_stream_mesh()

    def _build_stream_mesh(self) -> None:
        """Local ends of every stream whose client or server lives here.

        Ports are a pure function of the pair ordinal, so the two domains
        holding the two ends construct matching flow tuples independently
        -- no handshake crosses the boundary, exactly like the shared-loop
        mesh's established-by-construction pairs.
        """
        mode = "sw" if self.system == "ktls" else None
        n = self.num_hosts
        for src_g in range(n):
            for dst_g in range(n):
                if src_g == dst_g:
                    continue
                src_i = self._local_of.get(src_g)
                dst_i = self._local_of.get(dst_g)
                if src_i is None and dst_i is None:
                    continue
                ordinal = _pair_ordinal(src_g, dst_g, n)
                server_port = SERVER_PORT + 1 + ordinal
                client_port = _CLIENT_PORT_BASE + ordinal
                client_keys = pair_keys(
                    self._addr_of[src_g], self._addr_of[dst_g], server_port
                )
                server_keys = pair_keys(
                    self._addr_of[dst_g], self._addr_of[src_g], server_port
                )
                if src_i is not None:
                    src = self.hosts[src_i]
                    conn = TcpConnection(
                        src, client_port, self._addr_of[dst_g], server_port
                    )
                    TcpTransport.for_host(src).add_connection(conn)
                    chan = KtlsConnection(
                        conn, mode, client_keys, server_keys, SIM_AEAD
                    )
                    self._stream_clients[(src_g, dst_g)] = StreamRpcClient(
                        self.loop, src.app_thread(ordinal), chan
                    )
                if dst_i is not None:
                    dst = self.hosts[dst_i]
                    conn = TcpConnection(
                        dst, server_port, self._addr_of[src_g], client_port
                    )
                    TcpTransport.for_host(dst).add_connection(conn)
                    chan = KtlsConnection(
                        conn, mode, server_keys, client_keys, SIM_AEAD
                    )
                    self.loop.process(
                        serve_stream(self, dst_g, chan, dst.app_thread(ordinal))
                    )

    # -- engine-facing ------------------------------------------------------------

    def thread_for(self, src_g: int, serial: int):
        """A source-host app thread, rotated per RPC serial."""
        return self.hosts[self._local_of[src_g]].app_thread(serial)

    def call(
        self,
        src_g: int,
        dst_g: int,
        thread,
        payload: bytes,
    ) -> Generator[Any, Any, bytes]:
        """One RPC from local host ``src_g`` to any host ``dst_g``."""
        if self._socks:
            return self._socks[src_g].call(
                thread, self._addr_of[dst_g], SERVER_PORT, payload
            )
        return self._stream_clients[(src_g, dst_g)].call(payload)


class ShardedOpenLoopEngine(OpenLoopEngine):
    """Open-loop load from one domain's hosts, shard-deterministically.

    :class:`~repro.load.engine.OpenLoopEngine` with what makes the
    offered traffic a pure per-host function: only the domain's hosts
    send, seeded from their global indices; serials are namespaced per
    sender; baselines arrive pre-measured instead of being calibrated
    in-band; and completions are kept as records for the coordinator to
    merge, not folded into histograms here.  Doubles as the domain
    workload object (``done()`` / ``result()``).
    """

    def __init__(
        self,
        harness: ShardedClusterHarness,
        distribution: SizeDistribution,
        load: float,
        duration: float,
        baselines: dict,
        seed: int = 0,
        response_size: int = DEFAULT_RESPONSE,
        max_drain: float = 0.5,
    ):
        # Not super().__init__: it would bind the LoadResult to
        # ``self.result``, the name the workload protocol calls.
        self._bind(harness, duration, seed, response_size, max_drain)
        self.plan = harness.plan
        self.senders = harness.global_indices
        self.num_hosts = harness.num_hosts
        self.book = self._harness_stream(distribution, load).result
        self.book.baseline_rtt.update(baselines)
        self._sent = dict.fromkeys(self.senders, 0)
        #: ``(t_complete, src_global, serial, size, cross, slowdown)`` --
        #: the picklable evidence the coordinator merges canonically.
        self.completions: list[tuple] = []

    def _rack_of(self, index: int) -> int:
        return self.plan.rack_of_index(index)

    def _next_serial(self, src: int) -> int:
        # Strided per sender, so a host's serials -- and the app threads
        # they rotate over -- do not depend on how arrivals from other
        # hosts, possibly in other domains, interleave with its own.
        self._sent[src] += 1
        return src * _SERIAL_STRIDE + self._sent[src]

    def _completed(self, stream, src, dst, size, serial, t0, slowdown):
        self.completions.append(
            (self.loop.now, src, serial, size, self._is_cross(src, dst), slowdown)
        )
        if self.bed.obs is not None:
            # The registry's histogram; without one nobody reads it.
            stream.result.slowdowns.record(slowdown)

    # -- workload protocol ---------------------------------------------------------

    def done(self) -> bool:
        now = self.loop.now
        if now < self.end_time:
            return False
        # Bounded drain, like run(): in-flight RPCs (including loss
        # recovery) get max_drain seconds, then we stop and the
        # stragglers count as neither completed nor failed.
        return not self._outstanding() or now >= self.end_time + self.max_drain

    def result(self) -> dict:
        book = self.book
        return {
            "issued": book.issued,
            "completed": book.completed,
            "failed": book.failed,
            "integrity_errors": book.integrity_errors
            + self.harness.server_integrity_errors,
            "achieved_bytes": book.achieved_bytes,
            "requests_served": dict(self.harness.requests_served),
            "completions": list(self.completions),
        }


def build_domain_workload(domain: ShardDomain, args: dict):
    """Workload factory (``repro.load.shard:build_domain_workload``).

    ``args`` must carry ``system``, ``distribution``, ``load``,
    ``duration`` and pre-measured ``baselines``; optional keys mirror the
    engine's keyword arguments.
    """
    harness = ShardedClusterHarness(
        domain,
        args["system"],
        config=args.get("config"),
        num_server_threads=args.get("num_server_threads", 4),
    )
    engine = ShardedOpenLoopEngine(
        harness,
        args["distribution"],
        args["load"],
        args["duration"],
        args["baselines"],
        seed=args.get("seed", 0),
        response_size=args.get("response_size", DEFAULT_RESPONSE),
        max_drain=args.get("max_drain", 0.5),
    )
    engine.start()
    return engine


def measure_baselines(
    plan: ShardPlan,
    system: str,
    distribution: SizeDistribution,
    config: Optional[HomaConfig] = None,
    response_size: int = DEFAULT_RESPONSE,
    num_server_threads: int = 4,
) -> dict:
    """Unloaded best-case RTT per ``(size, cross_rack)`` for ``system``.

    The engine's own calibration, run on a pristine 2-rack x 2-host
    one-domain mini-cluster sharing the target plan's link parameters --
    unloaded RTT does not depend on the cluster's size, and measuring
    outside the real run keeps the denominators identical for every
    domain count.
    """
    mini = replace(plan, num_racks=2, hosts_per_rack=2, domains=1, observe=False)
    harness = ShardedClusterHarness(
        ShardDomain(mini, 0), system, config=config,
        num_server_threads=num_server_threads,
    )
    # Calibration offers no load; any valid fraction builds the engine.
    engine = ShardedOpenLoopEngine(
        harness, distribution, 0.5, 0.0, {}, response_size=response_size
    )
    return engine.calibrate()


def merge_load_results(
    system: str,
    load: float,
    duration: float,
    payloads: list[dict],
    baselines: dict,
    spine_spread: list = (),
) -> LoadResult:
    """Fold per-domain workload payloads into one :class:`LoadResult`.

    Completion records sort by ``(t_complete, src, serial)`` before any
    histogram sees them, so sample order -- and therefore every float the
    result exposes -- is independent of the partitioning.
    """
    result = LoadResult(system=system, load=load, duration=duration)
    result.baseline_rtt = dict(baselines)
    result.spine_spread = list(spine_spread)
    records: list[tuple] = []
    for payload in payloads:
        result.issued += payload["issued"]
        result.completed += payload["completed"]
        result.failed += payload["failed"]
        result.integrity_errors += payload["integrity_errors"]
        result.achieved_bytes += payload["achieved_bytes"]
        records.extend(payload["completions"])
    records.sort(key=lambda r: (r[0], r[1], r[2]))
    for _t, _src, _serial, size, _cross, slowdown in records:
        result.slowdowns.record(slowdown)
        result.per_size.setdefault(size, Histogram()).record(slowdown)
    return result


def merged_requests_served(payloads: list[dict]) -> dict[int, int]:
    """Served-request counts by global host index, all domains."""
    served: dict[int, int] = {}
    for payload in payloads:
        for g, count in payload["requests_served"].items():
            served[g] = served.get(g, 0) + count
    return dict(sorted(served.items()))
