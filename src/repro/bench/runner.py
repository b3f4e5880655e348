"""Shared experiment machinery: RPC stacks over every compared system.

``SYSTEMS`` names the transport/encryption combinations of the paper's
evaluation.  :func:`build_rpc_harness` wires a complete client/server RPC
stack for one of them on a fresh testbed; :func:`unloaded_rtt` and
:func:`throughput` run the §5.1 and §5.2 experiment shapes.

Sessions are pre-established (keys pre-shared) for data-plane experiments,
exactly like the paper's measurements, which run long after connection
setup; key-exchange latency has its own experiment (Figure 12).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

from repro.apps.rpc import RpcChannel
from repro.core.codec import SmtCodec
from repro.crypto.aead import SIM_AEAD
from repro.homa import HomaConfig, HomaSocket, HomaTransport
from repro.ktls import KtlsConnection
from repro.net.headers import PROTO_HOMA, PROTO_SMT
from repro.nic.tso import TsoMode
from repro.sim.trace import Histogram, RateMeter
from repro.tcp import connect_pair
from repro.tcpls import tcpls_pair
from repro.testbed import Testbed
from repro.tls.keyschedule import TrafficKeys
from repro.units import USEC

SYSTEMS = ("tcp", "ktls-sw", "ktls-hw", "tcpls", "homa", "smt-sw", "smt-hw")
MESSAGE_SYSTEMS = ("homa", "smt-sw", "smt-hw")
SERVER_PORT = 7000

# kTLS mode per bytestream system (tcpls carries its own record layer).
_STREAM_MODES = {"tcp": None, "tcpls": None, "ktls-sw": "sw", "ktls-hw": "hw"}

CLIENT_KEYS = TrafficKeys(key=b"\xc1" * 16, iv=b"\xc2" * 12)
SERVER_KEYS = TrafficKeys(key=b"\xd1" * 16, iv=b"\xd2" * 12)


@dataclass
class RpcHarness:
    """One ready-to-run RPC stack (client + echo server)."""

    bed: Testbed
    system: str
    call_factory: Any  # call_factory(slot_index) -> call(payload, response_size)

    def client_slot(
        self,
        slot: int,
        payload_size: int,
        response_size: int,
        meter: RateMeter,
        latencies: Histogram,
        end_time: float,
    ) -> Generator[Any, Any, None]:
        """Closed loop: one outstanding RPC, repeated until ``end_time``."""
        loop = self.bed.loop
        call = self.call_factory(slot)
        payload = bytes(payload_size)
        while loop.now < end_time:
            t0 = loop.now
            response = yield from call(payload, response_size)
            if len(response) != response_size:
                raise AssertionError(
                    f"{self.system}: bad response size {len(response)}"
                )
            latencies.record(loop.now - t0)
            meter.record(payload_size + response_size)


def message_pair(
    bed: Testbed, system: str, port: int, config: Optional[HomaConfig] = None,
    **client_codec_kw,
) -> tuple[HomaSocket, HomaSocket]:
    """Both sockets of one message stack: ``homa``, ``smt-sw`` or ``smt-hw``.

    The client socket takes an ephemeral port, the server socket ``port``.
    ``client_codec_kw`` reaches the client's :class:`SmtCodec` only (the
    flow-context ablation's ``context_per_message``).  Client transport
    before server transport: construction order is event order.
    """
    encrypted = system.startswith("smt")
    proto = PROTO_SMT if encrypted else PROTO_HOMA
    ct = HomaTransport(bed.client, config, proto=proto)
    st = HomaTransport(bed.server, config, proto=proto)
    if not encrypted:
        return HomaSocket(ct, bed.client.alloc_port()), HomaSocket(st, port)
    offload = system == "smt-hw"
    client_codec = SmtCodec.for_host(
        bed.client, CLIENT_KEYS, SERVER_KEYS, offload=offload,
        aead_kind=SIM_AEAD, **client_codec_kw,
    )
    server_codec = SmtCodec.for_host(
        bed.server, SERVER_KEYS, CLIENT_KEYS, offload=offload,
        aead_kind=SIM_AEAD,
    )
    if bed.obs is not None:
        client_codec.bind_obs(bed.obs, "client.smt")
        server_codec.bind_obs(bed.obs, "server.smt")
    csock = HomaSocket(ct, bed.client.alloc_port(),
                       codec_provider=lambda a, p: client_codec)
    ssock = HomaSocket(st, port, codec_provider=lambda a, p: server_codec)
    return csock, ssock


def stream_pairs(bed: Testbed, system: str, port: int, n: int, channel=KtlsConnection):
    """Yield ``n`` established ``(client, server)`` bytestream channels.

    ``tcp``, ``ktls-sw``, ``ktls-hw`` (as ``channel`` instances, so a
    subclass can add per-operation costs) or ``tcpls``, on ports ``port``
    up.  A generator on purpose: construction order is event order, and
    every caller spawns pair *i*'s server before pair *i+1* connects.
    """
    mode = _STREAM_MODES[system]
    for i in range(n):
        conn_c, conn_s = connect_pair(bed.client, bed.server, port + i)
        # Keys of its own: every connection counts records from 0.
        salt = (port + i).to_bytes(2, "big")
        client_keys = TrafficKeys.from_secret(CLIENT_KEYS.key + salt)
        server_keys = TrafficKeys.from_secret(SERVER_KEYS.key + salt)
        if system == "tcpls":
            yield tcpls_pair(conn_c, conn_s, client_keys, server_keys,
                             aead_kind=SIM_AEAD)
        else:
            yield (
                channel(conn_c, mode, client_keys, server_keys, SIM_AEAD),
                channel(conn_s, mode, server_keys, client_keys, SIM_AEAD),
            )


def _request(payload: bytes, response_size: int) -> bytes:
    """``payload`` with its first 4 bytes replaced by ``response_size``,
    which the echo servers read back: one copy (the slice is a view)."""
    return b"".join((response_size.to_bytes(4, "big"), memoryview(payload)[4:]))


def _message_harness(bed: Testbed, system: str, config: Optional[HomaConfig]) -> RpcHarness:
    csock, ssock = message_pair(bed, system, SERVER_PORT, config)

    def server_thread(i: int) -> Generator[Any, Any, None]:
        thread = bed.server.app_thread(i)
        while True:
            rpc = yield from ssock.recv_request(thread)
            response_size = int.from_bytes(rpc.payload[:4], "big") or len(rpc.payload)
            reply = ssock.reply(thread, rpc, bytes(response_size))
            del rpc  # not held while this thread waits for the next request
            yield from reply

    for i in range(12):
        bed.loop.process(server_thread(i))

    def call_factory(slot: int):
        thread = bed.client.app_thread(slot % 12)

        def call(payload: bytes, response_size: int):
            return csock.call(
                thread, bed.server.addr, SERVER_PORT, _request(payload, response_size)
            )

        return call

    return RpcHarness(bed, system, call_factory)


class _PipelinedStreamClient:
    """Pipelined RPCs over one bytestream channel (one reader loop)."""

    def __init__(self, bed: Testbed, thread, channel):
        self.bed = bed
        self.thread = thread
        self.rpc = RpcChannel(channel)
        self._pending: dict[int, Any] = {}
        self._reader_running = False

    def call(self, payload: bytes, response_size: int):
        req_id = yield from self.rpc.send_request(
            self.thread, _request(payload, response_size)
        )
        event = self.bed.loop.event()
        self._pending[req_id] = event
        if not self._reader_running:
            self._reader_running = True
            self.bed.loop.process(self._reader())
        response = yield event
        return response

    def _reader(self):
        while self._pending:
            req_id, payload = yield from self.rpc.recv_response(self.thread)
            event = self._pending.pop(req_id, None)
            if event is not None:
                event.succeed(payload)
        self._reader_running = False


def _stream_harness(bed: Testbed, system: str) -> RpcHarness:
    clients = []
    for i, (c, s) in enumerate(stream_pairs(bed, system, SERVER_PORT + 1, 12)):
        clients.append(_PipelinedStreamClient(bed, bed.client.app_thread(i), c))

        def server_thread(channel=s, i=i) -> Generator[Any, Any, None]:
            thread = bed.server.app_thread(i)
            rpc = RpcChannel(channel)
            while True:
                req_id, payload = yield from rpc.recv_request(thread)
                response_size = int.from_bytes(payload[:4], "big") or len(payload)
                del payload  # not held while the response is sent or after
                yield from rpc.send_response(thread, req_id, bytes(response_size))

        bed.loop.process(server_thread())

    def call_factory(slot: int):
        return clients[slot % len(clients)].call

    return RpcHarness(bed, system, call_factory)


def build_rpc_harness(
    system: str,
    mtu: int = 1500,
    tso_mode: TsoMode = TsoMode.FULL,
    config: Optional[HomaConfig] = None,
    seed: int = 0,
    observe: bool = False,
) -> RpcHarness:
    """A fresh testbed plus a complete RPC stack for ``system``.

    ``observe=True`` enables the observability layer before the stack is
    wired, so spans, metrics and the packet capture cover the whole run;
    observation is passive and does not perturb measured results.
    """
    if system not in SYSTEMS:
        raise ValueError(f"unknown system {system!r}; pick from {SYSTEMS}")
    bed = Testbed.back_to_back(mtu=mtu, tso_mode=tso_mode, seed=seed)
    if observe:
        bed.enable_obs()
    if system in MESSAGE_SYSTEMS:
        return _message_harness(bed, system, config)
    return _stream_harness(bed, system)


# -- experiment shapes ---------------------------------------------------------


@dataclass
class RttResult:
    system: str
    size: int
    mean: float
    p99: float
    samples: int
    # Observability snapshot (metrics + per-layer span summary) when the
    # run was observed; None otherwise.
    obs: Optional[dict] = None

    @property
    def mean_us(self) -> float:
        return self.mean / USEC


def unloaded_rtt(
    system: str,
    size: int,
    repetitions: int = 40,
    mtu: int = 1500,
    tso_mode: TsoMode = TsoMode.FULL,
    warmup: int = 5,
    observe: bool = False,
) -> RttResult:
    """§5.1: RTT of a single RPC with no concurrency."""
    harness = build_rpc_harness(system, mtu=mtu, tso_mode=tso_mode, observe=observe)
    bed = harness.bed
    latencies = Histogram()
    call = harness.call_factory(0)

    def body():
        payload = bytes(size)
        for i in range(repetitions + warmup):
            t0 = bed.loop.now
            yield from call(payload, size)
            if i >= warmup:
                latencies.record(bed.loop.now - t0)

    done = bed.loop.process(body())
    bed.loop.run(until=10.0)
    if not done.triggered:
        raise AssertionError(f"{system}/{size}: unloaded RTT run deadlocked")
    if not done.ok:
        raise done.value
    return RttResult(
        system, size, latencies.mean(), latencies.p99(), len(latencies),
        obs=bed.obs.snapshot() if bed.obs is not None else None,
    )


@dataclass
class ThroughputResult:
    system: str
    size: int
    concurrency: int
    rate: float  # RPC/s
    mean_latency: float
    p99_latency: float
    client_cpu: float  # utilisation fractions over the window
    server_cpu: float


def throughput(
    system: str,
    size: int,
    concurrency: int,
    duration: float = 4e-3,
    warmup: float = 1e-3,
    mtu: int = 1500,
    tso_mode: TsoMode = TsoMode.FULL,
    rate_limit: Optional[float] = None,
) -> ThroughputResult:
    """§5.2: concurrent RPC throughput, closed loop.

    ``rate_limit`` (RPC/s) throttles the offered load for the CPU-usage
    comparison the paper runs at a fixed request rate.
    """
    harness = build_rpc_harness(system, mtu=mtu, tso_mode=tso_mode)
    bed = harness.bed
    meter = RateMeter()
    latencies = Histogram()
    end_time = warmup + duration

    if rate_limit is None:
        for slot in range(concurrency):
            bed.loop.process(
                harness.client_slot(slot, size, size, meter, latencies, end_time)
            )
    else:
        interval = concurrency / rate_limit

        def paced_slot(slot: int):
            call = harness.call_factory(slot)
            payload = bytes(size)
            yield bed.loop.timeout((slot / concurrency) * interval)
            while bed.loop.now < end_time:
                t0 = bed.loop.now
                yield from call(payload, size)
                latencies.record(bed.loop.now - t0)
                meter.record(2 * size)
                remaining = interval - (bed.loop.now - t0)
                if remaining > 0:
                    yield bed.loop.timeout(remaining)

        for slot in range(concurrency):
            bed.loop.process(paced_slot(slot))

    client_busy0 = sum(bed.client.cpu_busy_time().values())
    server_busy0 = sum(bed.server.cpu_busy_time().values())
    bed.loop.run(until=warmup)
    meter.start(bed.loop.now)
    # Reset busy-time baseline at the measurement window start.
    client_busy0 = sum(bed.client.cpu_busy_time().values())
    server_busy0 = sum(bed.server.cpu_busy_time().values())
    bed.loop.run(until=end_time)
    meter.stop(bed.loop.now)
    client_cores = len(bed.client.app_cores) + len(bed.client.softirq_cores)
    server_cores = len(bed.server.app_cores) + len(bed.server.softirq_cores)
    client_cpu = (sum(bed.client.cpu_busy_time().values()) - client_busy0) / (
        duration * client_cores
    )
    server_cpu = (sum(bed.server.cpu_busy_time().values()) - server_busy0) / (
        duration * server_cores
    )
    return ThroughputResult(
        system, size, concurrency, meter.rate(),
        latencies.mean(), latencies.p99() if len(latencies) else 0.0,
        client_cpu, server_cpu,
    )
