"""0-RTT data and key exchange via SMT-tickets (paper §4.5.2-§4.5.3).

The server pre-distributes an *SMT-ticket* through the internal DNS:
its long-term ECDH share, its certificate, and a signature over the
ticket by the certificate's private key.  A client that has (and has
verified) the ticket derives an *SMT-key* from the server's long-term
share and its own ephemeral share, and can send encrypted application
data on the very first packet exchange -- no handshake RTT.

Forward secrecy: the client's 0-RTT data is protected only by the
SMT-key (the long-term share is rotated hourly to bound exposure,
§4.5.3).  With forward secrecy enabled, the server answers with a fresh
ephemeral share; both sides derive an *fs-key* and rekey the session,
which also resets the message-ID space (§4.5.2).
"""

from __future__ import annotations

import hashlib
import random
import struct
from dataclasses import dataclass
from typing import Optional

from repro.crypto.cert import Certificate, CertificateChain, verify_with_key
from repro.crypto.ec import ECPoint
from repro.crypto.ecdh import EcdhKeyPair
from repro.crypto.kdf import hkdf_expand_label, hkdf_extract
from repro.errors import AuthenticationError, ProtocolError
from repro.tls.handshake import TraceOp
from repro.tls.keyschedule import TrafficKeys

DEFAULT_TICKET_LIFETIME = 3600.0  # "a maximum lifetime of one hour" (§4.5.3)


@dataclass(frozen=True)
class SmtTicket:
    """The DNS-distributed ticket: (i) long-term share, (ii) certificate
    chain, (iii) signature over the ticket by the certificate's key."""

    server_name: str
    long_term_share: bytes  # SEC1 point
    chain: CertificateChain
    not_after: float
    signature: bytes

    def tbs_bytes(self) -> bytes:
        return (
            b"SMT-TICKET"
            + self.server_name.encode()
            + self.long_term_share
            + struct.pack("!d", self.not_after)
        )

    def verify(self, trust_roots, now: float) -> Certificate:
        """Client-side offline verification (pre-handshake, §4.5.2)."""
        if now > self.not_after:
            raise AuthenticationError("SMT-ticket expired")
        leaf = self.chain.verify(trust_roots, now)
        verify_with_key(leaf.key_alg, leaf.public_key, self.tbs_bytes(), self.signature)
        return leaf


def share_fingerprint(share: bytes) -> bytes:
    """Short identifier for a long-term share (rotation grace, §4.5.3).

    Clients may attach it to a 0-RTT ClientHello so the server knows
    *which* share the SMT-key was derived against -- current or previous.
    """
    return hashlib.sha256(b"smt share fp" + share).digest()[:8]


def derive_update_keys(keys: TrafficKeys) -> TrafficKeys:
    """Deterministic key-update derivation (rekey without a round trip).

    Both sides apply it to their own write/read keys, mirroring the TLS
    1.3 ``key_update`` chain: next-generation keys from the current ones.
    """
    prk = hkdf_extract(b"smt key update", keys.key + keys.iv)
    secret = hkdf_expand_label(prk, "smt upd", b"", 32)
    return TrafficKeys.from_secret(secret)


def derive_smt_keys(
    shared_secret: bytes, client_share: bytes, server_share: bytes
) -> tuple[TrafficKeys, TrafficKeys]:
    """(client_write, server_write) traffic keys from an ECDH secret.

    The transcript (both shares) binds the keys to this exchange.
    """
    transcript = client_share + server_share
    prk = hkdf_extract(b"smt 0-rtt", shared_secret)
    client_secret = hkdf_expand_label(prk, "smt c 0rtt", transcript, 32)
    server_secret = hkdf_expand_label(prk, "smt s 0rtt", transcript, 32)
    return (
        TrafficKeys.from_secret(client_secret),
        TrafficKeys.from_secret(server_secret),
    )


class ZeroRttServer:
    """Server-side state: the rotating long-term share and ticket minting."""

    def __init__(
        self,
        server_name: str,
        chain: CertificateChain,
        signing_key,
        rng: random.Random,
        lifetime: float = DEFAULT_TICKET_LIFETIME,
        grace_window: float = 0.0,
    ):
        self.server_name = server_name
        self.chain = chain
        self.signing_key = signing_key
        self._rng = rng
        self.lifetime = lifetime
        # Rotation grace (§4.5.3): after a rotation, 0-RTT attempts built
        # against the *previous* share are still accepted for this long,
        # covering clients whose cached ticket raced the republish.
        self.grace_window = grace_window
        self.long_term: Optional[EcdhKeyPair] = None
        self.previous: Optional[EcdhKeyPair] = None
        self.previous_grace_until = -1.0
        self.grace_accepts = 0
        self.rotated_at = -1.0
        # Replay defence for 0-RTT ClientHellos (§4.5.3: "servers can
        # record the CHLO random value").
        self._seen_chlo_randoms: set[bytes] = set()
        self.replayed_chlos = 0

    def rotate(self, now: float, keypair: Optional[EcdhKeyPair] = None) -> SmtTicket:
        """Generate a fresh long-term share and mint its ticket.

        ``keypair`` installs an externally-generated share instead of a
        private one -- the replicated-service case (``repro.lb``): every
        replica behind one logical service adopts the *same* long-term
        share, so an SMT-ticket minted by any replica is accepted 0-RTT
        by all of them (see :class:`repro.ctrl.rotation.SharedShareRotator`).
        """
        if self.long_term is not None and self.grace_window > 0:
            self.previous = self.long_term
            self.previous_grace_until = now + self.grace_window
        self.long_term = keypair if keypair is not None else self.generate_ephemeral()
        self.rotated_at = now
        self._seen_chlo_randoms.clear()
        ticket = SmtTicket(
            server_name=self.server_name,
            long_term_share=self.long_term.public_bytes(),
            chain=self.chain,
            not_after=now + self.lifetime,
            signature=b"",
        )
        signature = self.signing_key.sign(ticket.tbs_bytes())
        return SmtTicket(
            ticket.server_name, ticket.long_term_share, ticket.chain,
            ticket.not_after, signature,
        )

    def generate_ephemeral(self) -> EcdhKeyPair:
        """A fresh keypair from this server's RNG (e.g. an fs reply share)."""
        return EcdhKeyPair.generate(self._rng)

    def forget_share(self) -> None:
        """The server process died: its in-memory shares vanish.

        Until a rotation (or a :class:`SharedShareRotator` resync)
        installs a fresh share, every 0-RTT attempt raises and clients
        must fall back to the 1-RTT handshake -- the window the
        DNS-TTL-staleness scenario measures.
        """
        self.long_term = None
        self.previous = None
        self.previous_grace_until = -1.0
        self.rotated_at = -1.0
        self._seen_chlo_randoms.clear()

    def accept_zero_rtt(
        self,
        client_share_bytes: bytes,
        chlo_random: bytes,
        now: float,
        client_share_fp: Optional[bytes] = None,
    ) -> tuple[TrafficKeys, TrafficKeys, list[TraceOp]]:
        """Process a 0-RTT ClientHello; returns direction keys + trace ops.

        ``client_share_fp`` (optional) names the long-term share the client
        derived against; a fingerprint matching the pre-rotation share is
        honoured inside the grace window and refused outside it.
        """
        if self.long_term is None or now > self.rotated_at + self.lifetime:
            raise ProtocolError("no valid long-term share; rotate() first")
        long_term = self.long_term
        grace = False
        if client_share_fp is not None and client_share_fp != share_fingerprint(
            long_term.public_bytes()
        ):
            if (
                self.previous is not None
                and client_share_fp == share_fingerprint(self.previous.public_bytes())
                and now <= self.previous_grace_until
            ):
                long_term = self.previous
                grace = True
            else:
                raise ProtocolError("stale SMT-ticket share outside the grace window")
        if chlo_random in self._seen_chlo_randoms:
            self.replayed_chlos += 1
            raise AuthenticationError("replayed 0-RTT ClientHello")
        self._seen_chlo_randoms.add(chlo_random)
        if grace:
            self.grace_accepts += 1
        trace = [TraceOp("S1", {})]
        client_share = ECPoint.decode(client_share_bytes)
        shared = long_term.shared_secret(client_share)
        trace.append(TraceOp("S2.2", {}))
        keys = derive_smt_keys(shared, client_share_bytes, long_term.public_bytes())
        trace.append(TraceOp("S2.6", {}))
        return keys[0], keys[1], trace


class ZeroRttClient:
    """Client-side 0-RTT: verify the ticket offline, derive the SMT-key."""

    def __init__(self, ticket: SmtTicket, trust_roots, now: float, rng: random.Random):
        # Offline steps (before the handshake begins): ticket verification
        # replaces C3.1/C3.2 at connect time (§4.5.2).
        self.ticket = ticket
        self.leaf = ticket.verify(trust_roots, now)
        self._rng = rng
        self.ephemeral: Optional[EcdhKeyPair] = None  # set by start()

    def start(
        self, pregenerated: Optional[EcdhKeyPair] = None
    ) -> tuple[bytes, bytes, TrafficKeys, TrafficKeys, list[TraceOp]]:
        """Derive SMT keys; returns (client_share, chlo_random, cw, sw, ops)."""
        trace: list[TraceOp] = []
        if pregenerated is not None:
            eph = pregenerated  # §4.5.1 standby key: C1.1 eliminated
        else:
            eph = EcdhKeyPair.generate(self._rng)
            trace.append(TraceOp("C1.1", {}))
        trace.append(TraceOp("C1.2", {}))
        self.ephemeral = eph  # kept for the forward-secrecy upgrade
        server_share = ECPoint.decode(self.ticket.long_term_share)
        shared = eph.shared_secret(server_share)
        trace.append(TraceOp("C2.2", {}))
        keys = derive_smt_keys(shared, eph.public_bytes(), self.ticket.long_term_share)
        trace.append(TraceOp("C2.3", {}))
        chlo_random = self._rng.getrandbits(256).to_bytes(32, "big")
        return eph.public_bytes(), chlo_random, keys[0], keys[1], trace


def derive_fs_keys(
    shared_secret: bytes, client_share: bytes, server_eph_share: bytes
) -> tuple[TrafficKeys, TrafficKeys]:
    """The forward-secret *fs-key* pair after the server's ephemeral reply."""
    transcript = client_share + server_eph_share
    prk = hkdf_extract(b"smt fs", shared_secret)
    client_secret = hkdf_expand_label(prk, "smt c fs", transcript, 32)
    server_secret = hkdf_expand_label(prk, "smt s fs", transcript, 32)
    return (
        TrafficKeys.from_secret(client_secret),
        TrafficKeys.from_secret(server_secret),
    )
