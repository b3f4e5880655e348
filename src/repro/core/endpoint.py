"""SMT endpoints: sockets plus TLS 1.3 session establishment (§4.2).

The handshake is "performed by the application" (paper §4.2): handshake
flights travel as plaintext messages on a reserved handshake port of the
same SMT transport, and the negotiated keys are then registered with the
data socket (the paper's ``setsockopt``, like kTLS).  After the client
has processed the server's flight it can already send encrypted data --
the Finished flight and the first data message race down the same pipe,
which is how TLS 1.3 achieves its 1-RTT setup.

:class:`SmtEndpoint` owns the handshake port: its wire format, the one
server responder, and the client side of every exchange -- including the
rekey that :mod:`repro.ctrl` schedules through :meth:`SmtEndpoint.rekey`.

Handshake CPU is charged from :class:`repro.tls.timing.HandshakeCostModel`
(Table 2 costs); handshake *bytes* travel through the full simulated
stack, so Figure 12's latencies combine real transport RTTs with costed
crypto operations.
"""

from __future__ import annotations

import contextlib
import random
import struct
from dataclasses import dataclass
from typing import Any, Generator, Optional

from repro.core.codec import SmtCodec
from repro.core.seqspace import BitAllocation
from repro.core.session import SmtSession
from repro.core.zero_rtt import ZeroRttClient, derive_fs_keys, derive_update_keys
from repro.core.zero_rtt import share_fingerprint as fingerprint_of
from repro.crypto.ec import ECPoint
from repro.crypto.ecdh import EcdhKeyPair
from repro.errors import CryptoError, ProtocolError
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

# -- the handshake port's wire format: kind (1 B), client data port (2 B), body --

_MSG_CHLO = 1
_MSG_FINISHED = 2
_MSG_ZRTT = 3
_MSG_REKEY = 4
_HELLOS = (_MSG_CHLO, _MSG_ZRTT)  # the kinds admission control may refuse

# Rekey modes (body[0] of a _MSG_REKEY request).
REKEY_UPDATE = 0  # deterministic key-update derivation, no extra ECDH
REKEY_FS = 1  # fresh ECDH exchange for a forward-secret key

# What a server returns instead of an answer: a hello its session table
# refuses (admission backpressure), or a flight that fails -- malformed,
# replayed, out of order, for an unknown session or an unserved kind.
_HS_REFUSED = b"\x00SMT-HS-REFUSED"
_HS_REJECTED = b"\x00SMT-HS-REJECTED"


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
        self.cost_model = HandshakeCostModel()
        # Endpoints on one host share the single SMT transport instance
        # (one protocol number per host), like sockets share a kernel stack.
        existing = host.transport(PROTO_SMT)
        self.transport = existing if existing is not None else HomaTransport(
            host, config, proto=PROTO_SMT
        )
        self._sessions: dict[tuple[int, int], SmtSession] = {}
        self._codecs: dict[tuple[int, int], SmtCodec] = {}
        self.socket = HomaSocket(self.transport, port, codec_provider=self._codec_for)
        # Servers answer handshakes on the well-known port; additional
        # endpoints on the same host fall back to an ephemeral one (they
        # only ever originate handshakes).
        hs_port = (
            HANDSHAKE_PORT
            if not self.transport.is_bound(HANDSHAKE_PORT)
            else host.alloc_port()
        )
        self._handshake_socket = HomaSocket(self.transport, hs_port)
        self._pending_server_hs: dict[tuple[int, int], tuple[ServerHandshake, int]] = {}
        # What the one handshake responder serves, by flight kind; listen
        # and serve_zero_rtt add to it, and the first call starts it.
        self._handlers: dict = {_MSG_REKEY: self._serve_rekey}
        self._responder = None
        self.tickets: dict[tuple[int, int], list[SessionTicket]] = {}
        self.handshakes_rejected = 0
        # Servers this endpoint is handshaking with, by (address, data
        # port): a server keys its handshake state by this endpoint's
        # address and data port, so one session with it is set up at a time.
        self._connecting: set[tuple[int, int]] = set()
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
        """Serve 1-RTT handshakes (the responder runs on ``thread`` if this
        call starts it).

        ``hs_config_factory()`` returns a fresh :class:`HandshakeConfig`
        per handshake (so each uses fresh randomness/pre-generated keys).
        """
        cache = session_cache if session_cache is not None else {}
        sock = self._handshake_socket

        def hello(thread, rpc, peer_port, body) -> Generator[Any, Any, None]:
            server_hs = ServerHandshake(hs_config_factory(), credentials, cache)
            obs = self.loop.obs
            if obs is not None:
                server_hs.bind_obs(obs, f"{self.host.name}.tls")
            flight = server_hs.process_client_hello(body)
            yield from thread.work(self.cost_model.total(server_hs.trace))
            self._pending_server_hs[(rpc.peer_addr, peer_port)] = (
                server_hs, len(server_hs.trace)
            )
            yield from sock.reply(thread, rpc, flight)

        def finished(thread, rpc, peer_port, body) -> Generator[Any, Any, None]:
            pending = self._pending_server_hs.pop((rpc.peer_addr, peer_port), None)
            if pending is None:
                raise ProtocolError("Finished flight without a pending handshake")
            server_hs, charged = pending
            server_hs.process_client_flight(body)
            yield from thread.work(self.cost_model.total(server_hs.trace[charged:]))
            client_keys, server_keys = server_hs.result.traffic_keys()
            self.register_session(rpc.peer_addr, peer_port, server_keys, client_keys)
            tickets = [server_hs.issue_ticket() for _ in range(issue_tickets)]
            blob = b"".join(struct.pack("!I", len(t)) + t for t in tickets)
            yield from sock.reply(thread, rpc, blob or b"\x00")

        return self._serve(thread, {_MSG_CHLO: hello, _MSG_FINISHED: finished})

    def serve_zero_rtt(
        self, thread: AppThread, zserver, pregenerate: bool = True, keypool=None
    ):
        """Answer 0-RTT ClientHellos with ``zserver`` (ZeroRttServer).

        ``keypool`` (optional, duck-typed ``take()``) supplies the
        forward-secrecy ephemeral off the critical path; a miss falls back
        to inline generation and charges S2.1.
        """

        def hello(thread, rpc, peer_port, body) -> Generator[Any, Any, None]:
            client_share = body[33:98]
            cw, sw, trace = zserver.accept_zero_rtt(
                client_share, body[1:33], now=self.loop.now,
                client_share_fp=body[98:106] if len(body) > 98 else None,
            )
            # Reply generation and key-confirmation bookkeeping happen
            # for both variants (SHLO-style reply + Finished-style
            # confirmation of the 0-RTT keys).
            yield from thread.work(
                self.cost_model.total(trace)
                + self.cost_model.op_cost_for("S2.3")
                + self.cost_model.op_cost_for("S3")
            )
            session = self.register_session(rpc.peer_addr, peer_port, sw, cw)
            if not body[0]:  # no forward secrecy wanted
                yield from self._handshake_socket.reply(thread, rpc, b"\x00")
                return
            eph = keypool.take() if keypool is not None else None
            if eph is None:
                eph = zserver.generate_ephemeral()
                if not pregenerate:
                    # §4.5.1 pre-generation eliminates S2.1 otherwise.
                    yield from thread.work(self.cost_model.op_cost_for("S2.1"))
            session.rekey(*(yield from self._fs_reply(thread, rpc, eph, client_share)))

        return self._serve(thread, {_MSG_ZRTT: hello})

    def _serve(self, thread: AppThread, handlers: dict):
        """Add ``handlers`` to the one handshake responder; returns its process.

        ``handlers`` maps each served kind to a generator ``(thread, rpc,
        peer_data_port, body)`` that replies; rekeys are always served and
        hellos pass admission control first.  The first call starts the
        responder on ``thread``: one process reads the handshake socket, so
        every flight reaches the handler of its kind.  A flight that fails
        gets the rejection sentinel and counts in :attr:`handshakes_rejected`.
        """
        self._handlers.update(handlers)
        if self._responder is None:
            self._responder = self.loop.process(self._respond(thread))
        return self._responder

    def _respond(self, thread: AppThread) -> Generator[Any, Any, None]:
        handlers = self._handlers
        sock = self._handshake_socket
        while True:
            rpc = yield from sock.recv_request(thread)
            try:
                if len(rpc.payload) < 3:
                    raise ProtocolError("short handshake wrapper")
                kind, peer_port = struct.unpack_from("!BH", rpc.payload)
                handler = handlers.get(kind)
                if handler is None:
                    raise ProtocolError(f"unserved handshake kind {kind}")
                if (
                    kind in _HELLOS
                    and self.ctrl is not None
                    and not self.ctrl.admit_handshake()
                ):
                    yield from sock.reply(thread, rpc, _HS_REFUSED)
                else:
                    yield from handler(thread, rpc, peer_port, rpc.payload[3:])
            except (ProtocolError, CryptoError):
                self.handshakes_rejected += 1
                yield from sock.reply(thread, rpc, _HS_REJECTED)

    def _serve_rekey(
        self, thread: AppThread, rpc, peer_port: int, body: bytes
    ) -> Generator[Any, Any, None]:
        """Answer :meth:`rekey`; an fs rekey's share comes from the ctrl plane."""
        session = self._sessions.get((rpc.peer_addr, peer_port))
        if session is None:
            raise ProtocolError(
                f"rekey request for unknown session {rpc.peer_addr}:{peer_port}"
            )
        mode = body[0] if body else None
        if mode == REKEY_UPDATE:
            keys = map(derive_update_keys, (session.write_keys, session.read_keys))
            yield from self._handshake_socket.reply(thread, rpc, b"\x01")
        elif mode == REKEY_FS and self.ctrl is not None:
            eph, pooled = self.ctrl.take_ecdh()
            if not pooled:
                yield from thread.work(self.cost_model.op_cost_for("S2.1"))
            keys = yield from self._fs_reply(thread, rpc, eph, body[1:])
        else:
            raise ProtocolError(f"cannot serve rekey mode {mode}")
        self.transport.forget_delivered(rpc.peer_addr, peer_port)
        session.rekey(*keys)

    def _fs_reply(
        self, thread: AppThread, rpc, eph: EcdhKeyPair, client_share: bytes
    ) -> Generator[Any, Any, tuple[TrafficKeys, TrafficKeys]]:
        """Reply with ``eph``'s share; returns the server's (write, read) fs keys."""
        shared = eph.shared_secret(ECPoint.decode(client_share))
        # The fs upgrade costs one extra server-side ECDH.
        yield from thread.work(self.cost_model.op_cost_for("S2.2"))
        fs_cw, fs_sw = derive_fs_keys(shared, client_share, eph.public_bytes())
        yield from self._handshake_socket.reply(thread, rpc, eph.public_bytes())
        return fs_sw, fs_cw

    # -- client side ------------------------------------------------------------------

    def connect(
        self,
        thread: AppThread,
        server_addr: int,
        server_data_port: int,
        hs_config: HandshakeConfig,
    ) -> Generator[Any, Any, HandshakeStats]:
        """Establish a session with a listening server endpoint."""
        with self._handshaking(server_addr, server_data_port):
            started = self.loop.now
            obs = self.loop.obs
            hs_span = None
            client_hs = ClientHandshake(hs_config)
            if obs is not None:
                hs_span = obs.tracer.begin(
                    "tls.handshake", f"{self.host.name}.connect", peer=server_addr
                )
                client_hs.bind_obs(obs, f"{self.host.name}.tls", parent=hs_span)
            chlo = client_hs.start()
            yield from thread.work(self.cost_model.total(client_hs.trace))
            charged = len(client_hs.trace)
            server_flight = yield from self._exchange(
                thread, server_addr, _MSG_CHLO, chlo
            )
            finished = client_hs.process_server_flight(server_flight, self.loop.now)
            yield from thread.work(self.cost_model.total(client_hs.trace[charged:]))
            client_keys, server_keys = client_hs.result.traffic_keys()
            self.register_session(
                server_addr, server_data_port, client_keys, server_keys
            )
            keys_ready = self.loop.now
            ticket_blob = yield from self._exchange(
                thread, server_addr, _MSG_FINISHED, finished
            )
            tickets, off = [], 0
            while ticket_blob != b"\x00" and off < len(ticket_blob):
                (n,) = struct.unpack_from("!I", ticket_blob, off)
                off += 4 + n
                tickets.extend(client_hs.process_tickets(ticket_blob[off - n : off]))
            if tickets:
                self.tickets[(server_addr, server_data_port)] = tickets
            if hs_span is not None:
                obs.tracer.end(
                    hs_span, setup_latency=keys_ready - started, tickets=len(tickets)
                )
            return HandshakeStats(started, keys_ready, self.loop.now)

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
        """0-RTT session establishment with an SMT-ticket (paper §4.5.2).

        The session is registered at once -- encrypted data may flow from
        "now" -- and ``forward_secrecy`` upgrades it to an fs-key when the
        server's ephemeral share arrives.  ``share_fingerprint=True`` names
        the ticket's share so a freshly-rotated server can honour the
        previous one inside its grace window (§4.5.3).
        """
        with self._handshaking(server_addr, server_data_port):
            started = self.loop.now
            # Ticket verification happened offline, "before the handshake
            # begins" (§4.5.2) -- it is not on the connect latency path.
            client = ZeroRttClient(
                ticket, trust_roots, now=self.loop.now, rng=rng or random.Random(0)
            )
            share, chlo_random, cw, sw, trace = client.start(pregenerated=pregenerated)
            yield from thread.work(
                self.cost_model.total(trace) + self.cost_model.op_cost_for("C2.3")
            )
            session = self.register_session(server_addr, server_data_port, cw, sw)
            keys_ready = self.loop.now  # 0-RTT: encrypted data may flow already
            body = bytes([int(forward_secrecy)]) + chlo_random + share
            if share_fingerprint:
                body += fingerprint_of(ticket.long_term_share)
            reply = yield from self._exchange(thread, server_addr, _MSG_ZRTT, body)
            # Processing the server's confirming flight (SHLO-style reply +
            # Finished-style confirmation) happens for both variants.
            yield from thread.work(
                self.cost_model.op_cost_for("C2.1") + self.cost_model.op_cost_for("C5")
            )
            if forward_secrecy:
                fs_keys = yield from self._fs_keys(thread, client.ephemeral, reply)
                session.rekey(*fs_keys)
            return HandshakeStats(started, keys_ready, self.loop.now)

    @contextlib.contextmanager
    def _handshaking(self, server_addr: int, server_data_port: int):
        """Hold the one handshake slot with a server for a connect's span.

        A second connect while one is in flight raises before it sends
        anything, so the first completes.
        """
        peer = (server_addr, server_data_port)
        if peer in self._connecting:
            raise ProtocolError(
                f"a handshake with {server_addr}:{server_data_port} is already"
                " in flight from this endpoint"
            )
        self._connecting.add(peer)
        try:
            yield
        finally:
            self._connecting.discard(peer)

    def rekey(
        self,
        thread: AppThread,
        peer_addr: int,
        peer_port: int,
        ephemeral: Optional[EcdhKeyPair] = None,
    ) -> Generator[Any, Any, None]:
        """Roll the drained session with a peer to new keys (§4.5.2).

        Without ``ephemeral`` both sides apply the deterministic key
        update; with one, the server answers with a fresh share and both
        derive forward-secret keys.  Either way the message-ID space
        resets with the keys.
        """
        session = self._sessions[(peer_addr, peer_port)]
        if ephemeral is None:
            update = bytes([REKEY_UPDATE])
            yield from self._exchange(thread, peer_addr, _MSG_REKEY, update)
            keys = map(derive_update_keys, (session.write_keys, session.read_keys))
        else:
            body = bytes([REKEY_FS]) + ephemeral.public_bytes()
            reply = yield from self._exchange(thread, peer_addr, _MSG_REKEY, body)
            keys = yield from self._fs_keys(thread, ephemeral, reply)
        self.transport.forget_delivered(peer_addr, peer_port)
        session.rekey(*keys)

    def _exchange(
        self, thread: AppThread, server_addr: int, kind: int, body: bytes
    ) -> Generator[Any, Any, bytes]:
        """One handshake-port request; a refusal or rejection raises."""
        reply = yield from self._handshake_socket.call(
            thread, server_addr, HANDSHAKE_PORT,
            struct.pack("!BH", kind, self.port) + body,
        )
        if reply == _HS_REFUSED:
            raise ProtocolError(
                f"server {server_addr} refused handshake (admission backpressure)"
            )
        if reply == _HS_REJECTED:
            raise ProtocolError(f"server {server_addr} rejected the handshake flight")
        return reply

    def _fs_keys(
        self, thread: AppThread, eph: EcdhKeyPair, server_share: bytes
    ) -> Generator[Any, Any, tuple[TrafficKeys, TrafficKeys]]:
        """The client half of an fs upgrade: its (write, read) fs keys."""
        shared = eph.shared_secret(ECPoint.decode(server_share))
        yield from thread.work(self.cost_model.op_cost_for("C2.2"))
        return derive_fs_keys(shared, eph.public_bytes(), server_share)

