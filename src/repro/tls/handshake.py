"""TLS 1.3 handshake state machines (client and server).

Covers the paths the paper exercises:

- full 1-RTT handshake with ECDSA or RSA server certificates,
- PSK session resumption with and without fresh ECDHE (forward secrecy),
- key pre-generation (§4.5.1): callers may hand in standby ECDH key pairs,
- session tickets (NewSessionTicket) feeding the resumption cache.

Both state machines record an *operation trace* -- a list of
:class:`TraceOp` whose ids match the paper's Table 2 rows (S1, S2.1, ...,
C5).  The simulator charges virtual CPU time per op through
:class:`repro.tls.timing.HandshakeCostModel`; the cryptography itself is
all real (actual ECDH, signatures, transcripts and finished MACs).

Server flights after ServerHello are genuinely encrypted under the
handshake traffic keys, as is the client's Finished, so record-layer
protection is exercised end to end.  Only the server authenticates: a
server flight that asks for a client certificate, or a client flight that
carries one, is rejected.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.crypto.aead import new_aead
from repro.crypto.cert import (
    KEY_ALG_ECDSA,
    KEY_ALG_RSA,
    Certificate,
    CertificateChain,
    verify_with_key,
)
from repro.crypto.ec import ECPoint
from repro.crypto.ecdh import EcdhKeyPair
from repro.crypto.kdf import hmac_sha256, transcript_hash
from repro.errors import AuthenticationError, ProtocolError
from repro.tls.constants import (
    CONTENT_HANDSHAKE,
    HS_CERTIFICATE,
    HS_CERTIFICATE_VERIFY,
    HS_CLIENT_HELLO,
    HS_FINISHED,
    HS_NEW_SESSION_TICKET,
    HS_SERVER_HELLO,
    SIG_ECDSA_SECP256R1_SHA256,
    SIG_RSA_PKCS1_SHA256,
    TLS_AES_128_GCM_SHA256,
)
from repro.tls.keyschedule import KeySchedule, TrafficKeys
from repro.tls.messages import (
    F_CERT_CHAIN,
    F_CIPHER_SUITES,
    F_KEY_SHARE,
    F_PSK_ACCEPTED,
    F_PSK_BINDER,
    F_PSK_IDENTITY,
    F_RANDOM,
    F_SELECTED_SUITE,
    F_SERVER_NAME,
    F_SIG_ALG,
    F_SIGNATURE,
    F_TICKET_ID,
    F_TICKET_LIFETIME,
    F_TICKET_NONCE,
    F_VERIFY_DATA,
    HandshakeMessage,
)
from repro.tls.record import RecordProtection

_SERVER_CONTEXT = b" " * 64 + b"TLS 1.3, server CertificateVerify" + b"\x00"

_SIG_ALG_FOR_KEY = {
    KEY_ALG_ECDSA: SIG_ECDSA_SECP256R1_SHA256,
    KEY_ALG_RSA: SIG_RSA_PKCS1_SHA256,
}


@dataclass(frozen=True)
class TraceOp:
    """One costed handshake operation, keyed to the paper's Table 2 ids."""

    op_id: str
    detail: dict


@dataclass
class SessionTicket:
    """A resumption ticket as stored by the client."""

    ticket_id: bytes
    psk: bytes
    lifetime: float


@dataclass
class HandshakeConfig:
    """Shared knobs for a handshake endpoint."""

    rng: random.Random
    server_name: str = "server"
    # Pre-generated standby ECDH key pair (paper §4.5.1 "key pre-generation").
    pregenerated_keypair: Optional[EcdhKeyPair] = None
    # A repro.ctrl KeyPool to draw standby keys from (duck-typed: anything
    # with ``take() -> Optional[EcdhKeyPair]``).  A hit eliminates the
    # keygen op exactly like ``pregenerated_keypair``; a miss falls back
    # to inline generation and charges it.
    keypool: Optional[object] = None
    # Resumption: client side presents a ticket; forward_secrecy keeps ECDHE.
    ticket: Optional[SessionTicket] = None
    forward_secrecy: bool = True
    # Trust anchors for certificate verification.
    trust_roots: tuple[Certificate, ...] = ()
    # Paper §4.5.1 "short certificate chain": CA key pre-installed, so
    # chain lookup/validation is cheaper.  Affects timing only.
    short_chain: bool = False


@dataclass
class ServerCredentials:
    """What a server needs to authenticate itself."""

    chain: CertificateChain
    signing_key: object  # EcdsaKeyPair or RsaKeyPair
    key_alg: str = KEY_ALG_ECDSA


@dataclass
class HandshakeResult:
    """Negotiated secrets and metadata, identical on both sides."""

    client_app_secret: bytes
    server_app_secret: bytes
    resumption_master: bytes
    cipher_suite: int = TLS_AES_128_GCM_SHA256
    peer_certificate: Optional[Certificate] = None
    used_psk: bool = False
    used_ecdhe: bool = True

    def traffic_keys(self) -> tuple[TrafficKeys, TrafficKeys]:
        """(client_write, server_write) application traffic keys."""
        return (
            TrafficKeys.from_secret(self.client_app_secret),
            TrafficKeys.from_secret(self.server_app_secret),
        )


def _hs_protection(secret: bytes) -> RecordProtection:
    keys = TrafficKeys.from_secret(secret)
    return RecordProtection(new_aead("aes-128-gcm", keys.key), keys.iv)


class _HandshakeBase:
    """Transcript bookkeeping and the trace list."""

    def __init__(self) -> None:
        self._transcript: list[bytes] = []
        self.trace: list[TraceOp] = []
        # Optional observability binding: the handshake state machine has
        # no loop reference, so the endpoint binds it (with the span that
        # covers the whole connection setup as parent).
        self.obs = None
        self.obs_name = "tls"
        self._obs_parent = None

    def bind_obs(self, obs, name: str = "tls", parent=None) -> None:
        """Mirror trace ops into ``obs`` counters and emit flight spans."""
        self.obs = obs
        self.obs_name = name
        self._obs_parent = parent

    def _flight_begin(self, flight: str):
        """Open a span covering one handshake flight (None when unbound)."""
        if self.obs is None:
            return None
        return self.obs.tracer.begin(
            "tls.handshake", f"{self.obs_name}.{flight}", parent=self._obs_parent
        )

    def _flight_end(self, span, **attrs: object) -> None:
        if span is not None:
            self.obs.tracer.end(span, **attrs)

    def _note(self, op_id: str, **detail: object) -> None:
        self.trace.append(TraceOp(op_id, dict(detail)))
        if self.obs is not None:
            self.obs.metrics.counter(f"{self.obs_name}.ops.{op_id}").add()

    def _absorb(self, encoded: bytes) -> None:
        self._transcript.append(encoded)

    def _th(self) -> bytes:
        return transcript_hash(*self._transcript)


class ClientHandshake(_HandshakeBase):
    """Client side.  Drive with ``start()`` then ``process_server_flight()``."""

    def __init__(self, config: HandshakeConfig):
        super().__init__()
        self.config = config
        self._ecdh: Optional[EcdhKeyPair] = None
        self._schedule: Optional[KeySchedule] = None
        self.result: Optional[HandshakeResult] = None
        self.tickets: list[SessionTicket] = []
        self._chlo_bytes = b""

    # -- flight 1 ------------------------------------------------------------

    def start(self) -> bytes:
        """Build the ClientHello."""
        span = self._flight_begin("client_hello")
        cfg = self.config
        use_ecdhe = cfg.ticket is None or cfg.forward_secrecy
        if use_ecdhe:
            if cfg.pregenerated_keypair is not None:
                self._ecdh = cfg.pregenerated_keypair
                # pre-generated: C1.1 is eliminated (paper §4.5.1)
            elif (
                pooled := cfg.keypool.take() if cfg.keypool is not None else None
            ) is not None:
                self._ecdh = pooled  # pool hit: C1.1 off the critical path
            else:
                self._ecdh = EcdhKeyPair.generate(cfg.rng)
                self._note("C1.1")
        msg = HandshakeMessage(HS_CLIENT_HELLO)
        msg.fields[F_RANDOM] = cfg.rng.getrandbits(256).to_bytes(32, "big")
        msg.fields[F_CIPHER_SUITES] = TLS_AES_128_GCM_SHA256.to_bytes(2, "big")
        msg.fields[F_SERVER_NAME] = cfg.server_name.encode()
        if self._ecdh is not None:
            msg.fields[F_KEY_SHARE] = self._ecdh.public_bytes()
        if cfg.ticket is not None:
            msg.fields[F_PSK_IDENTITY] = cfg.ticket.ticket_id
            # Binder: HMAC with the binder key over the partial CHLO.
            schedule = KeySchedule(psk=cfg.ticket.psk)
            partial = HandshakeMessage(msg.msg_type, dict(msg.fields)).encode()
            binder = hmac_sha256(schedule.binder_key(), transcript_hash(partial))
            msg.fields[F_PSK_BINDER] = binder
        self._note("C1.2")
        encoded = msg.encode()
        self._chlo_bytes = encoded
        self._absorb(encoded)
        self._flight_end(span, bytes=len(encoded), ecdhe=use_ecdhe)
        return encoded

    # -- flight 2 ------------------------------------------------------------

    def process_server_flight(self, data: bytes, now: float = 0.0) -> bytes:
        """Consume SHLO + encrypted flight; return the client's final flight.

        ``now`` is the caller's clock, for certificate validity windows.
        """
        span = self._flight_begin("server_flight")
        cfg = self.config
        shlo, consumed = HandshakeMessage.decode(data)
        if shlo.msg_type != HS_SERVER_HELLO:
            raise ProtocolError("expected ServerHello")
        self._note("C2.1")
        suite = int.from_bytes(shlo.require(F_SELECTED_SUITE), "big")
        if suite != TLS_AES_128_GCM_SHA256:
            raise ProtocolError(f"server selected unsupported suite {suite:#x}")
        psk_accepted = shlo.fields.get(F_PSK_ACCEPTED) == b"\x01"
        if psk_accepted and cfg.ticket is None:
            raise ProtocolError("server accepted a PSK we never offered")
        self._absorb(data[:consumed])

        schedule = KeySchedule(psk=cfg.ticket.psk if psk_accepted else b"")
        used_ecdhe = F_KEY_SHARE in shlo.fields
        if used_ecdhe:
            if self._ecdh is None:
                raise ProtocolError("server sent a key share but we offered none")
            server_share = ECPoint.decode(shlo.require(F_KEY_SHARE))
            shared = self._ecdh.shared_secret(server_share)
            self._note("C2.2")
        else:
            if not psk_accepted:
                raise ProtocolError("no key share and no PSK: no key material")
            shared = b""
        schedule.inject_ecdhe(shared)
        self._schedule = schedule
        hs_hash_input = self._th()
        client_hs = schedule.client_handshake_traffic_secret(hs_hash_input)
        server_hs = schedule.server_handshake_traffic_secret(hs_hash_input)
        self._note("C2.3")

        # Decrypt the rest of the server flight.
        opener = _hs_protection(server_hs)
        record = opener.open(data[consumed:])
        if record.content_type != CONTENT_HANDSHAKE:
            raise ProtocolError("server flight is not handshake data")
        messages = HandshakeMessage.decode_all(record.payload)
        peer_cert: Optional[Certificate] = None
        finished_seen = False
        for msg in messages:
            if msg.msg_type == HS_CERTIFICATE:
                if psk_accepted:
                    raise ProtocolError("certificate in a resumed handshake")
                chain = CertificateChain.decode(msg.require(F_CERT_CHAIN))
                self._note("C3.1")
                peer_cert = chain.verify(cfg.trust_roots, now)
                if peer_cert.subject != cfg.server_name:
                    raise AuthenticationError(
                        f"certificate subject {peer_cert.subject!r} != "
                        f"expected {cfg.server_name!r}"
                    )
                self._note(
                    "C3.2",
                    chain_len=len(chain),
                    short_chain=cfg.short_chain,
                )
                self._cert_chain = chain
                self._absorb(msg.encode())
            elif msg.msg_type == HS_CERTIFICATE_VERIFY:
                if peer_cert is None:
                    raise ProtocolError("CertificateVerify before Certificate")
                sign_data = _SERVER_CONTEXT + self._th()
                self._note("C4.1")
                verify_with_key(
                    peer_cert.key_alg,
                    peer_cert.public_key,
                    sign_data,
                    msg.require(F_SIGNATURE),
                )
                self._note("C4.2", alg=peer_cert.key_alg)
                self._absorb(msg.encode())
            elif msg.msg_type == HS_FINISHED:
                expected = KeySchedule.finished_mac(server_hs, self._th())
                if msg.require(F_VERIFY_DATA) != expected:
                    raise AuthenticationError("server Finished MAC mismatch")
                self._note("C5")
                self._absorb(msg.encode())
                finished_seen = True
            else:
                raise ProtocolError(f"unexpected server message {msg.msg_type}")
        if not finished_seen:
            raise ProtocolError("server flight missing Finished")
        if not psk_accepted and peer_cert is None:
            raise AuthenticationError("full handshake without server certificate")

        server_flight_hash = self._th()

        # The client's final flight: its Finished.
        fin = HandshakeMessage(HS_FINISHED)
        fin.fields[F_VERIFY_DATA] = KeySchedule.finished_mac(client_hs, self._th())
        encoded = fin.encode()
        self._absorb(encoded)

        full_hash = self._th()
        self.result = HandshakeResult(
            client_app_secret=schedule.client_app_traffic_secret(server_flight_hash),
            server_app_secret=schedule.server_app_traffic_secret(server_flight_hash),
            resumption_master=schedule.resumption_master_secret(full_hash),
            peer_certificate=peer_cert,
            used_psk=psk_accepted,
            used_ecdhe=used_ecdhe,
        )
        self._flight_end(span, bytes=len(data), psk=psk_accepted, ecdhe=used_ecdhe)
        return bytes(_hs_protection(client_hs).seal(encoded, CONTENT_HANDSHAKE))

    def process_tickets(self, data: bytes) -> list[SessionTicket]:
        """Consume post-handshake NewSessionTicket records from the server."""
        if self.result is None:
            raise ProtocolError("tickets before handshake completion")
        if not hasattr(self, "_ticket_opener"):
            keys = TrafficKeys.from_secret(self.result.server_app_secret)
            self._ticket_opener = RecordProtection(new_aead("aes-128-gcm", keys.key), keys.iv)
        record = self._ticket_opener.open(data)
        if record.content_type != CONTENT_HANDSHAKE:
            raise ProtocolError("expected handshake content for tickets")
        tickets = []
        for msg in HandshakeMessage.decode_all(record.payload):
            if msg.msg_type != HS_NEW_SESSION_TICKET:
                raise ProtocolError("expected NewSessionTicket")
            nonce = msg.require(F_TICKET_NONCE)
            psk = KeySchedule.psk_from_resumption(self.result.resumption_master, nonce)
            tickets.append(
                SessionTicket(
                    ticket_id=msg.require(F_TICKET_ID),
                    psk=psk,
                    lifetime=int.from_bytes(msg.require(F_TICKET_LIFETIME), "big"),
                )
            )
        self.tickets.extend(tickets)
        return tickets


class ServerHandshake(_HandshakeBase):
    """Server side.  Drive with ``process_client_hello()`` then
    ``process_client_flight()``; issue tickets with ``issue_ticket()``."""

    def __init__(
        self,
        config: HandshakeConfig,
        credentials: ServerCredentials,
        session_cache: Optional[dict[bytes, bytes]] = None,
    ):
        super().__init__()
        self.config = config
        self.credentials = credentials
        # ticket_id -> PSK; shared across handshakes of one server.
        self.session_cache = session_cache if session_cache is not None else {}
        self._client_hs_secret = b""
        self._schedule: Optional[KeySchedule] = None
        self._server_flight_hash = b""
        self.result: Optional[HandshakeResult] = None

    def process_client_hello(self, data: bytes) -> bytes:
        """Consume the CHLO and emit SHLO + encrypted server flight."""
        span = self._flight_begin("client_hello")
        cfg = self.config
        chlo, consumed = HandshakeMessage.decode(data)
        if chlo.msg_type != HS_CLIENT_HELLO or consumed != len(data):
            raise ProtocolError("malformed ClientHello flight")
        self._note("S1")
        suites = chlo.require(F_CIPHER_SUITES)
        offered = {
            int.from_bytes(suites[i : i + 2], "big") for i in range(0, len(suites), 2)
        }
        if TLS_AES_128_GCM_SHA256 not in offered:
            raise ProtocolError("client offers no supported cipher suite")

        # PSK resumption path.
        psk: bytes = b""
        psk_accepted = False
        if F_PSK_IDENTITY in chlo.fields:
            identity = chlo.fields[F_PSK_IDENTITY]
            cached = self.session_cache.get(identity)
            if cached is not None:
                schedule = KeySchedule(psk=cached)
                partial_fields = dict(chlo.fields)
                partial_fields.pop(F_PSK_BINDER, None)
                partial = HandshakeMessage(HS_CLIENT_HELLO, partial_fields).encode()
                expected = hmac_sha256(schedule.binder_key(), transcript_hash(partial))
                if chlo.fields.get(F_PSK_BINDER) != expected:
                    raise AuthenticationError("PSK binder mismatch")
                psk = cached
                psk_accepted = True
        self._absorb(data)

        use_ecdhe = F_KEY_SHARE in chlo.fields
        shlo = HandshakeMessage(HS_SERVER_HELLO)
        shlo.fields[F_RANDOM] = cfg.rng.getrandbits(256).to_bytes(32, "big")
        shlo.fields[F_SELECTED_SUITE] = TLS_AES_128_GCM_SHA256.to_bytes(2, "big")
        if psk_accepted:
            shlo.fields[F_PSK_ACCEPTED] = b"\x01"

        shared = b""
        if use_ecdhe:
            if cfg.pregenerated_keypair is not None:
                ecdh = cfg.pregenerated_keypair
            elif (
                pooled := cfg.keypool.take() if cfg.keypool is not None else None
            ) is not None:
                ecdh = pooled  # pool hit: S2.1 off the critical path
            else:
                ecdh = EcdhKeyPair.generate(cfg.rng)
                self._note("S2.1")
            client_share = ECPoint.decode(chlo.require(F_KEY_SHARE))
            shared = ecdh.shared_secret(client_share)
            self._note("S2.2")
            shlo.fields[F_KEY_SHARE] = ecdh.public_bytes()
        elif not psk_accepted:
            raise ProtocolError("no key share and no acceptable PSK")
        self._note("S2.3")
        shlo_encoded = shlo.encode()
        self._absorb(shlo_encoded)

        schedule = KeySchedule(psk=psk)
        schedule.inject_ecdhe(shared)
        self._schedule = schedule
        hs_hash = self._th()
        client_hs = schedule.client_handshake_traffic_secret(hs_hash)
        server_hs = schedule.server_handshake_traffic_secret(hs_hash)
        self._client_hs_secret = client_hs

        flight = bytearray()
        if not psk_accepted:
            cert_msg = HandshakeMessage(HS_CERTIFICATE)
            cert_msg.fields[F_CERT_CHAIN] = self.credentials.chain.encode()
            self._note("S2.4", chain_len=len(self.credentials.chain))
            encoded = cert_msg.encode()
            self._absorb(encoded)
            flight += encoded
            cv = HandshakeMessage(HS_CERTIFICATE_VERIFY)
            sign_data = _SERVER_CONTEXT + self._th()
            cv.fields[F_SIG_ALG] = _SIG_ALG_FOR_KEY[self.credentials.key_alg].to_bytes(
                2, "big"
            )
            cv.fields[F_SIGNATURE] = self.credentials.signing_key.sign(sign_data)
            self._note("S2.5", alg=self.credentials.key_alg)
            encoded = cv.encode()
            self._absorb(encoded)
            flight += encoded
        fin = HandshakeMessage(HS_FINISHED)
        fin.fields[F_VERIFY_DATA] = KeySchedule.finished_mac(server_hs, self._th())
        encoded = fin.encode()
        self._absorb(encoded)
        flight += encoded
        self._note("S2.6")
        self._server_flight_hash = self._th()
        self._psk_accepted = psk_accepted
        self._used_ecdhe = use_ecdhe

        sealer = _hs_protection(server_hs)
        self._flight_end(span, bytes=len(data), psk=psk_accepted, ecdhe=use_ecdhe)
        return shlo_encoded + sealer.seal(bytes(flight), CONTENT_HANDSHAKE)

    def process_client_flight(self, data: bytes) -> None:
        """Consume the client's (encrypted) Finished flight."""
        if self._schedule is None:
            raise ProtocolError("client flight before ClientHello")
        span = self._flight_begin("client_flight")
        opener = _hs_protection(self._client_hs_secret)
        record = opener.open(data)
        if record.content_type != CONTENT_HANDSHAKE:
            raise ProtocolError("client flight is not handshake data")
        finished_seen = False
        for msg in HandshakeMessage.decode_all(record.payload):
            if msg.msg_type == HS_FINISHED:
                expected = KeySchedule.finished_mac(self._client_hs_secret, self._th())
                if msg.require(F_VERIFY_DATA) != expected:
                    raise AuthenticationError("client Finished MAC mismatch")
                self._note("S3")
                self._absorb(msg.encode())
                finished_seen = True
            else:
                raise ProtocolError(f"unexpected client message {msg.msg_type}")
        if not finished_seen:
            raise ProtocolError("client flight missing Finished")
        schedule = self._schedule
        self.result = HandshakeResult(
            client_app_secret=schedule.client_app_traffic_secret(self._server_flight_hash),
            server_app_secret=schedule.server_app_traffic_secret(self._server_flight_hash),
            resumption_master=schedule.resumption_master_secret(self._th()),
            used_psk=self._psk_accepted,
            used_ecdhe=self._used_ecdhe,
        )
        self._flight_end(span, bytes=len(data))

    def issue_ticket(self, lifetime: float = 3600.0) -> bytes:
        """Mint a NewSessionTicket record and register its PSK in the cache."""
        if self.result is None:
            raise ProtocolError("ticket before handshake completion")
        cfg = self.config
        ticket_id = cfg.rng.getrandbits(128).to_bytes(16, "big")
        nonce = cfg.rng.getrandbits(64).to_bytes(8, "big")
        psk = KeySchedule.psk_from_resumption(self.result.resumption_master, nonce)
        self.session_cache[ticket_id] = psk
        msg = HandshakeMessage(HS_NEW_SESSION_TICKET)
        msg.fields[F_TICKET_ID] = ticket_id
        msg.fields[F_TICKET_NONCE] = nonce
        msg.fields[F_TICKET_LIFETIME] = int(lifetime).to_bytes(4, "big")
        if not hasattr(self, "_ticket_sealer"):
            keys = TrafficKeys.from_secret(self.result.server_app_secret)
            self._ticket_sealer = RecordProtection(new_aead("aes-128-gcm", keys.key), keys.iv)
        return self._ticket_sealer.seal(msg.encode(), CONTENT_HANDSHAKE)
