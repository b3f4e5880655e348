"""Per-system RPC stacks across every host of a :class:`ClosTestbed`.

The loaded-slowdown experiments compare the paper's contestants under
identical fabric conditions, so this module wires one complete
any-to-any RPC mesh per system:

- ``homa`` / ``smt`` — one :class:`HomaTransport` + single
  :class:`HomaSocket` per host (the paper's one-socket-for-all-peers
  property); ``smt`` adds a pre-keyed :class:`SmtCodec` per peer with
  deterministic pairwise traffic keys.
- ``tcp`` / ``ktls`` — one established bytestream connection per
  *ordered* host pair with pipelined RPC framing
  (:class:`repro.apps.rpc.RpcChannel`); ``ktls`` encrypts in software
  mode.

Every RPC carries an integrity protocol: the request body is a
position-dependent fill derived from the message serial, the server
verifies it before echoing a response fill back, and the client verifies
that.  A single swapped, duplicated or cross-wired record anywhere in
segmentation, ECMP forwarding or reassembly surfaces as a counted
integrity error instead of a silent pass — this is the check behind the
``loaded`` benchmark's "no cross-path reordering" band.

The pieces of the message mesh -- one socket per host, the verifying
echo-server loops -- are module-level functions, because two harnesses
build from them: :class:`ClusterHarness` here and the per-domain harness
in :mod:`repro.load.shard`.  The per-peer codec cache behind an ``smt``
socket is :meth:`SmtCodec.per_peer <repro.core.codec.SmtCodec.per_peer>`.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Any, Generator, Optional

from repro.apps.rpc import RpcChannel
from repro.core.codec import SmtCodec
from repro.crypto.aead import SIM_AEAD
from repro.homa import HomaConfig, HomaSocket, HomaTransport
from repro.ktls import ktls_pair
from repro.net.headers import PROTO_HOMA, PROTO_SMT
from repro.tcp import connect_pair
from repro.testbed import ClosTestbed
from repro.tls.keyschedule import TrafficKeys

SYSTEMS = ("tcp", "ktls", "homa", "smt")
SERVER_PORT = 7000

# -- message integrity protocol ---------------------------------------------------

#: serial (8) + response size (4) + status (4): 0=request, 1=ok, 2=bad request.
_HDR = struct.Struct("!QII")
HEADER_SIZE = _HDR.size
MIN_MESSAGE = HEADER_SIZE + 8
_RESP_SALT = 0xA5A5_5A5A_0F0F_F0F0

#: ``_LANES[j][i]`` is byte ``j`` of block position ``i`` as a big-endian
#: 8-byte word; grown (doubling) to the longest message asked for.
_LANES = [b""] * 8
#: ``_XOR[k]`` maps each byte to itself XOR ``k``.
_XOR = [bytes(b ^ k for b in range(256)) for k in range(256)]


def _fill(serial: int, n: int) -> bytearray:
    """``n`` bytes where every 8-byte block depends on position and serial.

    Block ``i`` is ``i XOR serial``, both as big-endian 8-byte words.
    Position dependence means a swapped pair of blocks anywhere in the
    message changes the bytes — reassembly must put every record at its
    exact offset for the fill to verify.  Built as the serial repeated,
    then one translated lane per byte a position can set.
    """
    global _LANES
    blocks = (n + 7) >> 3
    if len(_LANES[7]) < blocks:
        size = max(blocks, 2 * len(_LANES[7]))
        words = struct.pack(f">{size}Q", *range(size))
        _LANES = [words[j::8] for j in range(8)]
    word = serial.to_bytes(8, "big")
    out = bytearray(word) * blocks
    for j in range(8 - (max(blocks - 1, 0).bit_length() + 7) // 8, 8):
        out[j::8] = _LANES[j][:blocks].translate(_XOR[word[j]])
    del out[n:]
    return out


def _message(header: bytes, serial: int, n: int) -> bytes:
    """``header`` then the fill of ``(serial, n)`` past it."""
    body = _fill(serial, max(n, HEADER_SIZE))
    body[:HEADER_SIZE] = header
    return bytes(body)


def _fill_follows(payload, serial: int) -> bool:
    """Whether ``payload`` past its header is the fill of ``(serial,
    len(payload))``: one ``memcmp``, no slice copied."""
    return _fill(serial, len(payload)).startswith(
        memoryview(payload)[HEADER_SIZE:], HEADER_SIZE
    )


def build_request(serial: int, size: int, response_size: int) -> bytes:
    """A ``size``-byte request asking for a ``response_size``-byte reply."""
    if size < MIN_MESSAGE or response_size < MIN_MESSAGE:
        raise ValueError(f"message sizes below {MIN_MESSAGE} B")
    return _message(_HDR.pack(serial, response_size, 0), serial, size)


def handle_request(payload: bytes) -> tuple[bytes, bool]:
    """Server side: verify the request fill, build the response.

    Returns ``(response, request_ok)``; a corrupted request is still
    answered (status 2) so the client can count it rather than time out.
    """
    serial, response_size, _status = _HDR.unpack_from(payload)
    ok = _fill_follows(payload, serial)
    header = _HDR.pack(serial, response_size, 1 if ok else 2)
    return _message(header, serial ^ _RESP_SALT, response_size), ok


def verify_response(payload: bytes, serial: int, response_size: int) -> bool:
    """Client side: serial echo, server verdict and response fill intact."""
    if len(payload) != response_size:
        return False
    got_serial, got_size, status = _HDR.unpack_from(payload)
    if got_serial != serial or got_size != response_size or status != 1:
        return False
    return _fill_follows(payload, serial ^ _RESP_SALT)


def pair_keys(tx_addr: int, rx_addr: int, port: int = 0) -> TrafficKeys:
    """Deterministic per-direction traffic keys for a host pair; a stream
    connection adds its server ``port``, as each counts records from 0."""
    packed = struct.pack("!IIH", tx_addr, rx_addr, port)
    return TrafficKeys(
        key=hashlib.blake2b(packed, digest_size=16, key=b"load-key").digest(),
        iv=hashlib.blake2b(packed, digest_size=12, key=b"load-iv").digest(),
    )


class StreamRpcClient:
    """Pipelined RPCs over one bytestream channel (one reader loop).

    Sends are serialised through a tiny cooperative mutex: a kTLS
    ``send`` spans several simulation steps (encrypt, then stream
    writes), so two open-loop senders interleaving mid-record would
    corrupt the framing — real sockets serialise concurrent writers the
    same way.
    """

    def __init__(self, loop, thread, channel):
        self.loop = loop
        self.thread = thread
        self.rpc = RpcChannel(channel)
        self._pending: dict[int, Any] = {}
        self._reader_running = False
        self._send_busy = False
        self._send_waiters: list = []

    def call(self, payload: bytes) -> Generator[Any, Any, bytes]:
        while self._send_busy:
            gate = self.loop.event()
            self._send_waiters.append(gate)
            yield gate
        self._send_busy = True
        send = self.rpc.send_request(self.thread, payload)
        del payload  # not held while the response is awaited
        try:
            req_id = yield from send
        finally:
            self._send_busy = False
            if self._send_waiters:
                self._send_waiters.pop(0).succeed(None)
        event = self.loop.event()
        self._pending[req_id] = event
        if not self._reader_running:
            self._reader_running = True
            self.loop.process(self._reader())
        response = yield event
        return response

    def _reader(self):
        while self._pending:
            req_id, payload = yield from self.rpc.recv_response(self.thread)
            event = self._pending.pop(req_id, None)
            if event is not None:
                event.succeed(payload)
        self._reader_running = False


def message_socket(host, system: str, config: Optional[HomaConfig]) -> HomaSocket:
    """``host``'s one socket for all peers on :data:`SERVER_PORT`."""
    encrypted = system == "smt"
    transport = HomaTransport(host, config, proto=PROTO_SMT if encrypted else PROTO_HOMA)
    if not encrypted:
        return HomaSocket(transport, SERVER_PORT)
    provider = SmtCodec.per_peer(
        host, {},
        lambda addr: (pair_keys(host.addr, addr), pair_keys(addr, host.addr)),
        SIM_AEAD,
    )
    return HomaSocket(transport, SERVER_PORT, codec_provider=provider)


def start_message_mesh(harness, keys, config, num_server_threads: int) -> dict:
    """A socket per ``harness.hosts`` entry, then its verifying echo servers.

    ``keys[i]`` names host ``i``: its key in the returned socket map and
    its slot in ``harness.requests_served``.  Every socket exists before
    the first server process is spawned, and servers spawn host-major --
    process creation order is event order.
    """
    loop = harness.bed.loop
    socks = {
        key: message_socket(host, harness.system, config)
        for key, host in zip(keys, harness.hosts)
    }
    for key, host in zip(keys, harness.hosts):
        for k in range(num_server_threads):
            loop.process(
                serve_messages(harness, key, socks[key], host.app_thread(k))
            )
    return socks


def _answer(harness, key, payload: bytes) -> bytes:
    """Verify one request, book it under ``key``, build the response."""
    response, ok = handle_request(payload)
    harness.requests_served[key] += 1
    if not ok:
        harness.server_integrity_errors += 1
    return response


def serve_messages(harness, key, sock: HomaSocket, thread):
    """Verifying echo server on one message socket (one server thread)."""
    while True:
        rpc = yield from sock.recv_request(thread)
        reply = sock.reply(thread, rpc, _answer(harness, key, rpc.payload))
        del rpc  # not held while this thread waits for the next request
        yield from reply


def serve_stream(harness, key, channel, thread):
    """Verifying echo server on the passive end of one bytestream."""
    rpc = RpcChannel(channel)
    while True:
        req_id, payload = yield from rpc.recv_request(thread)
        send = rpc.send_response(thread, req_id, _answer(harness, key, payload))
        del payload  # not held while this thread waits for the next request
        yield from send


class ClusterHarness:
    """One system's any-to-any RPC mesh plus verifying echo servers."""

    def __init__(
        self,
        bed: ClosTestbed,
        system: str,
        config: Optional[HomaConfig] = None,
        num_server_threads: int = 4,
    ):
        if system not in SYSTEMS:
            raise ValueError(f"unknown system {system!r}; pick from {SYSTEMS}")
        self.bed = bed
        self.system = system
        self.hosts = bed.hosts
        #: Requests whose fill failed server-side verification.
        self.server_integrity_errors = 0
        #: Per-host served-request counts -- the replica-side evidence the
        #: frontend experiments read (which replica actually absorbed the
        #: balanced load, independent of client-side bookkeeping).
        self.requests_served = [0] * len(self.hosts)
        self._socks: dict[int, HomaSocket] = {}
        self._stream_clients: dict[tuple[int, int], StreamRpcClient] = {}
        if system in ("homa", "smt"):
            self._socks = start_message_mesh(
                self, range(len(self.hosts)), config, num_server_threads
            )
        else:
            self._build_stream_mesh()

    def _build_stream_mesh(self) -> None:
        # Kept apart from the sharded harness's stream mesh on purpose:
        # this one takes client ports from ``Host.alloc_port``, that one
        # derives both ports from the pair ordinal, and the port pair is
        # in the flow tuple the fabric's ECMP hash reads -- merging them
        # would move flows between spines.
        mode = "sw" if self.system == "ktls" else None
        port = SERVER_PORT
        for i, src in enumerate(self.hosts):
            for j, dst in enumerate(self.hosts):
                if i == j:
                    continue
                port += 1
                conn_c, conn_s = connect_pair(src, dst, port)
                client_keys = pair_keys(src.addr, dst.addr, port)
                server_keys = pair_keys(dst.addr, src.addr, port)
                chan_c, chan_s = ktls_pair(
                    conn_c, conn_s, mode, client_keys, server_keys,
                    aead_kind=SIM_AEAD,
                )
                ordinal = len(self._stream_clients)
                self._stream_clients[(i, j)] = StreamRpcClient(
                    self.bed.loop, src.app_thread(ordinal), chan_c
                )
                self.bed.loop.process(
                    serve_stream(self, j, chan_s, dst.app_thread(ordinal))
                )

    # -- engine-facing ------------------------------------------------------------

    def thread_for(self, src: int, serial: int):
        """A source-host app thread, rotated per RPC serial."""
        return self.hosts[src].app_thread(serial)

    def call(
        self,
        src: int,
        dst: int,
        thread,
        payload: bytes,
    ) -> Generator[Any, Any, bytes]:
        """One RPC from host ``src`` to host ``dst``; returns the response."""
        if self._socks:
            return self._socks[src].call(
                thread, self.hosts[dst].addr, SERVER_PORT, payload
            )
        return self._stream_clients[(src, dst)].call(payload)
