"""Wiring a cache tier over a :class:`ClosTestbed`, all hops on SMT.

Layout: one host runs the authoritative :class:`OriginServer`, every
other host runs a :class:`DCacheNode` shard, and clients (anywhere on
the fabric, including shard hosts) route each key to its shard by
deterministic hash (:func:`shard_of`).  All three sockets — client,
shard, origin — live on the same per-host SMT transport with
deterministic pairwise traffic keys, so cache traffic exercises exactly
the paper's per-message encryption path.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Any, Generator, Optional

from repro.apps.dcache.cache import CacheStore
from repro.apps.dcache.node import DCacheNode, OriginServer
from repro.apps.dcache.protocol import (
    OP_DELETE,
    OP_GET,
    OP_PUT,
    STATUS_FILLED,
    STATUS_HIT,
    STATUS_NOT_FOUND,
    STATUS_OK,
    decode_reply,
    encode_request,
)
from repro.core.codec import SmtCodec
from repro.errors import ProtocolError, ReproError
from repro.homa import HomaConfig, HomaSocket, HomaTransport
from repro.net.headers import PROTO_SMT
from repro.testbed import ClosTestbed
from repro.tls.keyschedule import TrafficKeys

CACHE_PORT = 7200
ORIGIN_PORT = 7300
CLIENT_PORT = 7400
#: Index, in the testbed's host order, of the host that runs the origin.
ORIGIN_HOST = 0


def shard_of(key: bytes, num_shards: int) -> int:
    """Deterministic shard index for a key (blake2b, not Python hash)."""
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return int.from_bytes(digest, "big") % num_shards


def _pair_keys(tx_addr: int, rx_addr: int) -> TrafficKeys:
    packed = struct.pack("!II", tx_addr, rx_addr)
    return TrafficKeys(
        key=hashlib.blake2b(packed, digest_size=16, key=b"dcache-key").digest(),
        iv=hashlib.blake2b(packed, digest_size=12, key=b"dcache-iv").digest(),
    )


class DCacheClient:
    """Key-routed client API: get/put/delete against the shard ring."""

    def __init__(self, cluster: "DCacheCluster", host_index: int):
        self.cluster = cluster
        self.socket = cluster._client_socket(host_index)
        self.host_index = host_index
        self.gets = 0
        self.puts = 0
        self.hits = 0
        self.fills = 0
        self.not_found = 0

    def _shard_addr(self, key: bytes) -> int:
        return self.cluster.shard_addrs[
            shard_of(key, len(self.cluster.shard_addrs))
        ]

    def _call(self, thread, key: bytes, op: int,
              value: bytes = b"") -> Generator[Any, Any, tuple[int, bytes]]:
        raw = yield from self.socket.call(
            thread, self._shard_addr(key), CACHE_PORT,
            encode_request(op, key, value),
        )
        return decode_reply(raw)

    def get(self, thread, key: bytes) -> Generator[Any, Any, Optional[bytes]]:
        self.gets += 1
        status, value = yield from self._call(thread, key, OP_GET)
        if status == STATUS_HIT:
            self.hits += 1
            return value
        if status == STATUS_FILLED:
            self.fills += 1
            return value
        if status == STATUS_NOT_FOUND:
            self.not_found += 1
            return None
        raise ProtocolError(f"unexpected GET status {status}")

    def put(self, thread, key: bytes, value: bytes) -> Generator[Any, Any, None]:
        self.puts += 1
        status, _ = yield from self._call(thread, key, OP_PUT, value)
        if status != STATUS_OK:
            raise ProtocolError(f"unexpected PUT status {status}")

    def delete(self, thread, key: bytes) -> Generator[Any, Any, bool]:
        status, _ = yield from self._call(thread, key, OP_DELETE)
        return status == STATUS_OK


class DCacheCluster:
    """Origin + shards + client sockets over one testbed."""

    def __init__(
        self,
        bed: ClosTestbed,
        cache_capacity: int = 64,
        flush_interval: float = 200e-6,
        flush_batch: int = 16,
        write_penalty: float = 2e-6,
        config: Optional[HomaConfig] = None,
    ):
        if len(bed.hosts) < 2:
            raise ReproError("dcache needs an origin host plus >= 1 shard")
        self.bed = bed
        self.hosts = bed.hosts
        self._transports: list[HomaTransport] = []
        self._client_socks: dict[int, HomaSocket] = {}
        for host in self.hosts:
            transport = HomaTransport(host, config, proto=PROTO_SMT)
            self._transports.append(transport)
        self.origin = OriginServer(
            self._make_socket(ORIGIN_HOST, ORIGIN_PORT),
            write_penalty=write_penalty,
        )
        origin_addr = self.hosts[ORIGIN_HOST].addr
        self.nodes: list[DCacheNode] = []
        self.shard_addrs: list[int] = []
        for i, host in enumerate(self.hosts):
            if i == ORIGIN_HOST:
                continue
            node = DCacheNode(
                self._make_socket(i, CACHE_PORT),
                CacheStore(cache_capacity),
                origin_addr,
                ORIGIN_PORT,
                flush_interval=flush_interval,
                flush_batch=flush_batch,
            )
            self.nodes.append(node)
            self.shard_addrs.append(host.addr)
        loop = bed.loop
        loop.process(self.origin.run(self.hosts[ORIGIN_HOST].app_thread(0)))
        for node in self.nodes:
            host = node.socket.transport.host
            loop.process(node.run(host.app_thread(0)))
            loop.process(node.flusher(host.app_thread(1)))

    def _make_socket(self, host_index: int, port: int) -> HomaSocket:
        host = self.hosts[host_index]
        provider = SmtCodec.per_peer(
            host, {},
            lambda addr: (_pair_keys(host.addr, addr), _pair_keys(addr, host.addr)),
            "fast",  # host-time choice; virtual cost is AES-128-GCM either way
        )
        return HomaSocket(
            self._transports[host_index], port, codec_provider=provider
        )

    def _client_socket(self, host_index: int) -> HomaSocket:
        sock = self._client_socks.get(host_index)
        if sock is None:
            sock = self._make_socket(host_index, CLIENT_PORT)
            self._client_socks[host_index] = sock
        return sock

    def client(self, host_index: int) -> DCacheClient:
        """A client stationed on ``host_index`` (shard hosts included)."""
        return DCacheClient(self, host_index)

    def drain(self) -> None:
        """Flush every shard's dirty keys synchronously (end of run)."""
        loop = self.bed.loop
        done = []
        for node in self.nodes:
            host = node.socket.transport.host
            done.append(loop.process(node.flush_now(host.app_thread(2))))
        self.bed.run(until=loop.now + 0.5)
        for ev in done:
            if not ev.triggered:
                raise ReproError("dcache drain deadlocked")
            if not ev.ok:
                raise ev.value

    def stats(self) -> dict:
        return {
            "origin_reads": self.origin.reads,
            "origin_writes": self.origin.writes,
            "origin_batches": self.origin.batches,
            "shard_hits": sum(n.store.hits for n in self.nodes),
            "shard_misses": sum(n.store.misses for n in self.nodes),
            "read_throughs": sum(n.read_throughs for n in self.nodes),
            "flushes": sum(n.flushes for n in self.nodes),
            "flushed_writes": sum(n.flushed_writes for n in self.nodes),
            "eviction_flushes": sum(n.eviction_flushes for n in self.nodes),
            "requests_served": sum(n.requests_served for n in self.nodes),
        }
