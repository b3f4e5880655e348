"""SMT endpoints: sockets plus TLS 1.3 session establishment (§4.2).

The handshake is "performed by the application" (paper §4.2): handshake
flights travel as plaintext messages on a reserved handshake port of the
same SMT transport, and the negotiated keys are then registered with the
data socket (the paper's ``setsockopt``, like kTLS).  After the client
has processed the server's flight it can already send encrypted data --
the Finished flight and the first data message race down the same pipe,
which is how TLS 1.3 achieves its 1-RTT setup.

Handshake CPU is charged from :class:`repro.tls.timing.HandshakeCostModel`
(Table 2 costs); handshake *bytes* travel through the full simulated
stack, so Figure 12's latencies combine real transport RTTs with costed
crypto operations.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any, Generator, Optional

from repro.core.codec import SmtCodec
from repro.core.seqspace import BitAllocation
from repro.core.session import SmtSession
from repro.crypto.ec import ECPoint
from repro.crypto.ecdh import EcdhKeyPair
from repro.errors import ProtocolError
from repro.homa.constants import HomaConfig
from repro.homa.engine import HomaTransport
from repro.homa.socket import HomaSocket
from repro.host.cpu import AppThread
from repro.host.host import Host
from repro.net.headers import PROTO_SMT
from repro.tls.handshake import (
    ClientHandshake,
    HandshakeConfig,
    ServerCredentials,
    ServerHandshake,
    SessionTicket,
)
from repro.tls.keyschedule import TrafficKeys
from repro.tls.timing import HandshakeCostModel

HANDSHAKE_PORT = 443


class SmtSocket(HomaSocket):
    """A message socket whose per-peer codecs encrypt (SMT data socket)."""


@dataclass
class HandshakeStats:
    """Timing facts about one session establishment."""

    started_at: float
    keys_ready_at: float  # client may send encrypted data from here
    finished_at: float  # server confirmed / tickets delivered

    @property
    def setup_latency(self) -> float:
        return self.keys_ready_at - self.started_at


class SmtEndpoint:
    """One host's SMT stack: transport, data socket, session registry."""

    def __init__(
        self,
        host: Host,
        port: int,
        offload: bool = False,
        config: Optional[HomaConfig] = None,
        allocation: BitAllocation = BitAllocation(),
        aead_kind: str = "aes-128-gcm",
        cost_model: Optional[HandshakeCostModel] = None,
        ctrl=None,
    ):
        self.host = host
        self.loop = host.loop
        self.port = port
        # Optional session-lifecycle control plane (repro.ctrl): manages
        # key pools, lane-based message-ID spaces, rekeying and the
        # bounded session table.  None → classic unmanaged behaviour.
        self.ctrl = ctrl
        self.offload = offload
        self.allocation = allocation
        self.aead_kind = aead_kind
        self.cost_model = cost_model or HandshakeCostModel()
        # Endpoints on one host share the single SMT transport instance
        # (one protocol number per host), like sockets share a kernel stack.
        existing = host._transports.get(PROTO_SMT)
        self.transport = existing if existing is not None else HomaTransport(
            host, config, proto=PROTO_SMT
        )
        self._sessions: dict[tuple[int, int], SmtSession] = {}
        self._codecs: dict[tuple[int, int], SmtCodec] = {}
        self.socket = SmtSocket(self.transport, port, codec_provider=self._codec_for)
        # Servers answer handshakes on the well-known port; additional
        # endpoints on the same host fall back to an ephemeral one (they
        # only ever originate handshakes).
        hs_port = (
            HANDSHAKE_PORT
            if HANDSHAKE_PORT not in self.transport._sockets
            else host.alloc_port()
        )
        self._handshake_socket = HomaSocket(self.transport, hs_port)
        self._pending_server_hs: dict[tuple[int, int], tuple[ServerHandshake, int]] = {}
        self.tickets: dict[tuple[int, int], list[SessionTicket]] = {}
        if ctrl is not None:
            ctrl.adopt(self)

    # -- codec/session plumbing ---------------------------------------------------

    def _codec_for(self, peer_addr: int, peer_port: int):
        codec = self._codecs.get((peer_addr, peer_port))
        if codec is None:
            raise ProtocolError(
                f"no SMT session with peer {peer_addr}:{peer_port}; handshake first"
            )
        return codec

    def session_for(self, peer_addr: int, peer_port: int) -> SmtSession:
        return self._sessions[(peer_addr, peer_port)]

    def register_session(
        self,
        peer_addr: int,
        peer_port: int,
        write_keys: TrafficKeys,
        read_keys: TrafficKeys,
    ) -> SmtSession:
        """The paper's setsockopt: install negotiated keys for a peer."""
        codec = SmtCodec.for_host(
            self.host, write_keys, read_keys, offload=self.offload,
            allocation=self.allocation, aead_kind=self.aead_kind,
        )
        session = self._sessions[(peer_addr, peer_port)] = codec.session
        obs = self.loop.obs
        if obs is not None:
            # Name by host + peer address (not ports: the codec/session are
            # per-peer here, and id()-based keys must never leak).
            codec.bind_obs(obs, f"{self.host.name}.smt.peer{peer_addr}")
        self._codecs[(peer_addr, peer_port)] = codec
        if self.ctrl is not None:
            self.ctrl.on_session_registered(self, peer_addr, peer_port, session)
        return session

    def close_session(self, peer_addr: int, peer_port: int) -> bool:
        """Tear down one peer's session (eviction or explicit close)."""
        session = self._sessions.pop((peer_addr, peer_port), None)
        if session is None:
            return False
        self._codecs.pop((peer_addr, peer_port), None)
        self.transport.forget_delivered(peer_addr, peer_port)
        self.socket.forget_peer(peer_addr)
        if self.ctrl is not None:
            self.ctrl.on_session_closed(self, peer_addr, peer_port)
        return True

    # -- server side -----------------------------------------------------------------

    def listen(
        self,
        thread: AppThread,
        credentials: ServerCredentials,
        hs_config_factory,
        issue_tickets: int = 0,
        session_cache: Optional[dict] = None,
    ):
        """Start the handshake responder process on ``thread``.

        ``hs_config_factory()`` returns a fresh :class:`HandshakeConfig`
        per handshake (so each uses fresh randomness/pre-generated keys).
        """
        cache = session_cache if session_cache is not None else {}

        def responder() -> Generator[Any, Any, None]:
            while True:
                rpc = yield from self._handshake_socket.recv_request(thread)
                kind, peer_data_port, body = _unwrap(rpc.payload)
                hs_key = (rpc.peer_addr, peer_data_port)
                if kind == _MSG_REKEY:
                    yield from self._serve_rekey(thread, rpc, peer_data_port, body)
                elif kind == _MSG_CHLO:
                    if self.ctrl is not None and not self.ctrl.admit_handshake():
                        yield from self._handshake_socket.reply(thread, rpc, _HS_REFUSED)
                        continue
                    server_hs = ServerHandshake(hs_config_factory(), credentials, cache)
                    obs = self.loop.obs
                    if obs is not None:
                        server_hs.bind_obs(obs, f"{self.host.name}.tls")
                    flight = server_hs.process_client_hello(body)
                    yield from thread.work(self.cost_model.total(server_hs.trace))
                    self._pending_server_hs[hs_key] = (server_hs, len(server_hs.trace))
                    yield from self._handshake_socket.reply(thread, rpc, flight)
                elif kind == _MSG_FINISHED:
                    pending = self._pending_server_hs.pop(hs_key, None)
                    if pending is None:
                        raise ProtocolError("Finished flight without a pending handshake")
                    server_hs, charged = pending
                    server_hs.process_client_flight(body, self.loop.now)
                    yield from thread.work(
                        self.cost_model.total(server_hs.trace[charged:])
                    )
                    client_keys, server_keys = server_hs.result.traffic_keys()
                    self.register_session(
                        rpc.peer_addr, peer_data_port, server_keys, client_keys
                    )
                    tickets = b""
                    for _ in range(issue_tickets):
                        tickets += _pack_bytes(server_hs.issue_ticket())
                    yield from self._handshake_socket.reply(thread, rpc, tickets or b"\x00")
                else:
                    raise ProtocolError(f"unknown handshake message kind {kind}")

        return self.loop.process(responder())

    def _serve_rekey(
        self, thread: AppThread, rpc, peer_data_port: int, body: bytes
    ) -> Generator[Any, Any, None]:
        """Answer a client-initiated rekey on a drained session (§4.5.2).

        Mode ``REKEY_UPDATE`` rolls both directions forward with the
        deterministic key-update derivation; ``REKEY_FS`` performs a fresh
        ECDH for a forward-secret key.  Either way the message-ID space
        resets with the keys.
        """
        from repro.core.zero_rtt import derive_fs_keys, derive_update_keys

        session = self._sessions.get((rpc.peer_addr, peer_data_port))
        if session is None:
            raise ProtocolError(
                f"rekey request for unknown session {rpc.peer_addr}:{peer_data_port}"
            )
        mode = body[0]
        if mode == REKEY_UPDATE:
            new_write = derive_update_keys(session.write_keys)
            new_read = derive_update_keys(session.read_keys)
            yield from self._handshake_socket.reply(thread, rpc, b"\x01")
            self.transport.forget_delivered(rpc.peer_addr, peer_data_port)
            session.rekey(new_write, new_read)
        elif mode == REKEY_FS:
            if self.ctrl is None:
                raise ProtocolError("fs rekey needs a control plane as key source")
            client_share = bytes(body[1:])
            eph, pooled = self.ctrl.take_ecdh()
            if not pooled:
                yield from thread.work(self.cost_model.op_cost_for("S2.1"))
            shared = eph.shared_secret(ECPoint.decode(client_share))
            yield from thread.work(self.cost_model.op_cost_for("S2.2"))
            fs_cw, fs_sw = derive_fs_keys(shared, client_share, eph.public_bytes())
            yield from self._handshake_socket.reply(thread, rpc, eph.public_bytes())
            self.transport.forget_delivered(rpc.peer_addr, peer_data_port)
            session.rekey(fs_sw, fs_cw)
        else:
            raise ProtocolError(f"unknown rekey mode {mode}")

    # -- client side ------------------------------------------------------------------

    def connect(
        self,
        thread: AppThread,
        server_addr: int,
        server_data_port: int,
        hs_config: HandshakeConfig,
        client_credentials: Optional[ServerCredentials] = None,
    ) -> Generator[Any, Any, HandshakeStats]:
        """Establish a session with a listening server endpoint."""
        started = self.loop.now
        obs = self.loop.obs
        hs_span = None
        client_hs = ClientHandshake(hs_config, client_credentials)
        if obs is not None:
            hs_span = obs.tracer.begin(
                "tls.handshake", f"{self.host.name}.connect", peer=server_addr
            )
            client_hs.bind_obs(obs, f"{self.host.name}.tls", parent=hs_span)
        chlo = client_hs.start()
        yield from thread.work(self.cost_model.total(client_hs.trace))
        charged = len(client_hs.trace)
        server_flight = yield from self._handshake_socket.call(
            thread, server_addr, HANDSHAKE_PORT, _wrap(_MSG_CHLO, self.port, chlo)
        )
        if server_flight == _HS_REFUSED:
            raise ProtocolError(
                f"server {server_addr} refused handshake (admission backpressure)"
            )
        finished = client_hs.process_server_flight(server_flight, self.loop.now)
        yield from thread.work(self.cost_model.total(client_hs.trace[charged:]))
        client_keys, server_keys = client_hs.result.traffic_keys()
        self.register_session(server_addr, server_data_port, client_keys, server_keys)
        keys_ready = self.loop.now
        ticket_blob = yield from self._handshake_socket.call(
            thread, server_addr, HANDSHAKE_PORT, _wrap(_MSG_FINISHED, self.port, finished)
        )
        tickets = []
        if ticket_blob != b"\x00":
            off = 0
            while off < len(ticket_blob):
                blob, off = _unpack_bytes(ticket_blob, off)
                tickets.extend(client_hs.process_tickets(blob))
        if tickets:
            self.tickets[(server_addr, server_data_port)] = tickets
        if hs_span is not None:
            obs.tracer.end(
                hs_span, setup_latency=keys_ready - started, tickets=len(tickets)
            )
        return HandshakeStats(started, keys_ready, self.loop.now)


class ZeroRttMixin:
    """0-RTT session establishment over the transport (paper §4.5.2).

    The client must hold a verified :class:`repro.core.zero_rtt.SmtTicket`
    (from the internal DNS, fetched and checked before the handshake
    begins).  ``connect_zero_rtt`` derives the SMT-key, registers the
    session immediately -- encrypted data can flow from virtual time
    "now" -- and optionally upgrades to a forward-secret key when the
    server's ephemeral share arrives.
    """

    def serve_zero_rtt(
        self, thread: AppThread, zserver, pregenerate: bool = True, keypool=None
    ):
        """Answer 0-RTT ClientHellos with ``zserver`` (ZeroRttServer).

        ``keypool`` (optional, duck-typed ``take()``) supplies the
        forward-secrecy ephemeral off the critical path; a miss falls back
        to inline generation and charges S2.1.
        """
        from repro.core.zero_rtt import derive_fs_keys

        def responder() -> Generator[Any, Any, None]:
            while True:
                rpc = yield from self._handshake_socket.recv_request(thread)
                kind, peer_data_port, body = _unwrap(rpc.payload)
                if kind == _MSG_REKEY:
                    yield from self._serve_rekey(thread, rpc, peer_data_port, body)
                    continue
                if kind != _MSG_ZRTT:
                    raise ProtocolError(f"unexpected handshake kind {kind}")
                if self.ctrl is not None and not self.ctrl.admit_handshake():
                    yield from self._handshake_socket.reply(thread, rpc, _HS_REFUSED)
                    continue
                want_fs = bool(body[0])
                chlo_random = body[1:33]
                client_share = body[33:98]
                client_share_fp = bytes(body[98:106]) if len(body) > 98 else None
                cw, sw, trace = zserver.accept_zero_rtt(
                    client_share, chlo_random, now=self.loop.now,
                    client_share_fp=client_share_fp,
                )
                # Reply generation and key-confirmation bookkeeping happen
                # for both variants (SHLO-style reply + Finished-style
                # confirmation of the 0-RTT keys).
                yield from thread.work(
                    self.cost_model.total(trace)
                    + self.cost_model.op_cost_for("S2.3")
                    + self.cost_model.op_cost_for("S3")
                )
                session = self.register_session(rpc.peer_addr, peer_data_port, sw, cw)
                if want_fs:
                    eph = keypool.take() if keypool is not None else None
                    if eph is None:
                        eph = EcdhKeyPair.generate(zserver._rng)
                        if not pregenerate:
                            # §4.5.1 pre-generation eliminates S2.1 otherwise.
                            yield from thread.work(self.cost_model.op_cost_for("S2.1"))
                    shared = eph.shared_secret(ECPoint.decode(client_share))
                    # The fs upgrade costs one extra server-side ECDH.
                    yield from thread.work(self.cost_model.op_cost_for("S2.2"))
                    fs_cw, fs_sw = derive_fs_keys(
                        shared, client_share, eph.public_bytes()
                    )
                    yield from self._handshake_socket.reply(
                        thread, rpc, eph.public_bytes()
                    )
                    session.rekey(fs_sw, fs_cw)
                else:
                    yield from self._handshake_socket.reply(thread, rpc, b"\x00")

        return self.loop.process(responder())

    def connect_zero_rtt(
        self,
        thread: AppThread,
        server_addr: int,
        server_data_port: int,
        ticket,
        trust_roots,
        forward_secrecy: bool = False,
        rng=None,
        pregenerated=None,
        share_fingerprint: bool = False,
    ) -> Generator[Any, Any, HandshakeStats]:
        """Derive the SMT-key and (optionally) upgrade to forward secrecy.

        ``share_fingerprint=True`` appends the ticket share's fingerprint
        to the ClientHello so a freshly-rotated server can honour the
        previous share inside its grace window (§4.5.3).
        """
        import random as _random

        from repro.core.zero_rtt import ZeroRttClient, derive_fs_keys
        from repro.core.zero_rtt import share_fingerprint as _share_fp

        started = self.loop.now
        # Ticket verification happened offline, "before the handshake
        # begins" (§4.5.2) -- it is not on the connect latency path.
        client = ZeroRttClient(
            ticket, trust_roots, now=self.loop.now, rng=rng or _random.Random(0)
        )
        share, chlo_random, cw, sw, trace = client.start(pregenerated=pregenerated)
        yield from thread.work(
            self.cost_model.total(trace) + self.cost_model.op_cost_for("C2.3")
        )
        session = self.register_session(server_addr, server_data_port, cw, sw)
        keys_ready = self.loop.now  # 0-RTT: encrypted data may flow already
        body = bytes([int(forward_secrecy)]) + chlo_random + share
        if share_fingerprint:
            body += _share_fp(ticket.long_term_share)
        reply = yield from self._handshake_socket.call(
            thread, server_addr, HANDSHAKE_PORT,
            _wrap(_MSG_ZRTT, self.port, body),
        )
        if reply == _HS_REFUSED:
            raise ProtocolError(
                f"server {server_addr} refused handshake (admission backpressure)"
            )
        # Processing the server's confirming flight (SHLO-style reply +
        # Finished-style confirmation) happens for both variants.
        yield from thread.work(
            self.cost_model.op_cost_for("C2.1") + self.cost_model.op_cost_for("C5")
        )
        if forward_secrecy:
            server_share = ECPoint.decode(reply)
            eph = pregenerated or client._eph_used
            shared = eph.shared_secret(server_share)
            yield from thread.work(self.cost_model.op_cost_for("C2.2"))
            fs_cw, fs_sw = derive_fs_keys(shared, share, reply)
            session.rekey(fs_cw, fs_sw)
        return HandshakeStats(started, keys_ready, self.loop.now)


# SmtEndpoint gains the 0-RTT flows (the mixin is defined below the class
# for readability; attach its methods here).
SmtEndpoint.serve_zero_rtt = ZeroRttMixin.serve_zero_rtt
SmtEndpoint.connect_zero_rtt = ZeroRttMixin.connect_zero_rtt


# -- wire helpers for handshake-over-transport ------------------------------------

_MSG_CHLO = 1
_MSG_FINISHED = 2
_MSG_ZRTT = 3
_MSG_REKEY = 4

# Rekey modes (body[0] of a _MSG_REKEY request).
REKEY_UPDATE = 0  # deterministic key-update derivation, no extra ECDH
REKEY_FS = 1  # fresh ECDH exchange for a forward-secret key

# Admission backpressure: the sentinel flight a server returns instead of
# a ServerHello when its session table refuses new handshakes.
_HS_REFUSED = b"\x00SMT-HS-REFUSED"


def _wrap(kind: int, data_port: int, body: bytes) -> bytes:
    return struct.pack("!BH", kind, data_port) + body


def _unwrap(payload: bytes) -> tuple[int, int, bytes]:
    if len(payload) < 3:
        raise ProtocolError("short handshake wrapper")
    kind, data_port = struct.unpack("!BH", payload[:3])
    return kind, data_port, payload[3:]


def _pack_bytes(blob: bytes) -> bytes:
    return struct.pack("!I", len(blob)) + blob


def _unpack_bytes(data: bytes, off: int) -> tuple[bytes, int]:
    (n,) = struct.unpack_from("!I", data, off)
    off += 4
    return data[off : off + n], off + n
