"""Minimal certificates and chains (an X.509 stand-in).

The paper's handshake experiments care about three things certificates do:
carry an authenticated public key, chain up to an internal CA, and cost
signature verifications proportional to chain length (§4.5.1's "short
certificate chain" optimisation).  This module provides exactly that with a
deterministic binary encoding -- no ASN.1.

Every signature check in the stack -- certificate links, SMT-ticket
signatures, ``CertificateVerify`` -- goes through :func:`verify_with_key`,
which remembers the last ``_VERIFIED_MAX`` verifications that succeeded.
A client that checks one chain and one ticket on every connect (§4.5.2
verifies the ticket "offline, before the handshake begins") so pays for
each distinct signature once.  Virtual time is unaffected: Table 2's
costs are charged from the cost model per handshake.  Validity windows,
trust roots and issuer linkage are not signatures and are checked on
every call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

from repro.crypto.ec import ECPoint
from repro.crypto.ecdsa import ecdsa_verify
from repro.crypto.rsa import RsaKeyPair
from repro.errors import AuthenticationError, CryptoError, ProtocolError

KEY_ALG_ECDSA = "ecdsa-p256"
KEY_ALG_RSA = "rsa"
_KEY_ALGS = (KEY_ALG_ECDSA, KEY_ALG_RSA)


def _pack(field: bytes) -> bytes:
    return len(field).to_bytes(2, "big") + field


def _unpack(data: bytes, offset: int) -> tuple[bytes, int]:
    if offset + 2 > len(data):
        raise ProtocolError("truncated certificate field length")
    n = int.from_bytes(data[offset : offset + 2], "big")
    offset += 2
    if offset + n > len(data):
        raise ProtocolError("truncated certificate field")
    return data[offset : offset + n], offset + n


# Verifications that succeeded, least recently used first, keyed by the
# key algorithm and the public key, message and signature bytes.  ECDSA
# and RSA verification are pure functions of those inputs, so a
# byte-identical repeat has the answer the full check gave; any other
# input, and every failure, runs the full check.  Entries are a few
# hundred bytes each.
_VERIFIED_MAX = 256
_verified: dict[tuple[str, bytes, bytes, bytes], None] = {}


def verify_with_key(key_alg: str, public_key: bytes, message: bytes, signature: bytes) -> None:
    """Verify ``signature`` over ``message`` with an encoded public key;
    a repeat of a verification that succeeded returns at once."""
    key = (key_alg, bytes(public_key), bytes(message), bytes(signature))
    if key in _verified:
        _verified[key] = _verified.pop(key)
        return
    if key_alg == KEY_ALG_ECDSA:
        ecdsa_verify(ECPoint.decode(public_key), message, signature)
    elif key_alg == KEY_ALG_RSA:
        n_bytes, off = _unpack(public_key, 0)
        e_bytes, _ = _unpack(public_key, off)
        pub = RsaKeyPair(
            int.from_bytes(n_bytes, "big"),
            int.from_bytes(e_bytes, "big"),
            d=0,
            bits=len(n_bytes) * 8,
        )
        pub.verify(message, signature)
    else:
        raise CryptoError(f"unknown key algorithm {key_alg!r}")
    if len(_verified) >= _VERIFIED_MAX:
        del _verified[next(iter(_verified))]
    _verified[key] = None


@dataclass(frozen=True)
class Certificate:
    """A signed binding of ``subject`` to ``public_key``."""

    subject: str
    issuer: str
    key_alg: str
    public_key: bytes
    serial: int
    not_before: float
    not_after: float
    is_ca: bool
    signature: bytes = b""

    def tbs_bytes(self) -> bytes:
        """Deterministic to-be-signed encoding (everything but signature)."""
        return b"".join(
            (
                b"CERTv1",
                _pack(self.subject.encode()),
                _pack(self.issuer.encode()),
                _pack(self.key_alg.encode()),
                _pack(self.public_key),
                self.serial.to_bytes(8, "big"),
                int(self.not_before * 1e6).to_bytes(8, "big", signed=True),
                int(self.not_after * 1e6).to_bytes(8, "big", signed=True),
                bytes([self.is_ca]),
            )
        )

    def encode(self) -> bytes:
        return self.tbs_bytes() + _pack(self.signature)

    @staticmethod
    def decode(data: bytes) -> "Certificate":
        if data[:6] != b"CERTv1":
            raise ProtocolError("bad certificate magic")
        off = 6
        subject, off = _unpack(data, off)
        issuer, off = _unpack(data, off)
        key_alg, off = _unpack(data, off)
        public_key, off = _unpack(data, off)
        serial = int.from_bytes(data[off : off + 8], "big")
        off += 8
        not_before = int.from_bytes(data[off : off + 8], "big", signed=True) / 1e6
        off += 8
        not_after = int.from_bytes(data[off : off + 8], "big", signed=True) / 1e6
        off += 8
        is_ca = bool(data[off])
        off += 1
        signature, off = _unpack(data, off)
        if off != len(data):
            raise ProtocolError("trailing bytes after certificate")
        return Certificate(
            subject.decode(),
            issuer.decode(),
            key_alg.decode(),
            public_key,
            serial,
            not_before,
            not_after,
            is_ca,
            signature,
        )

    def with_signature(self, signature: bytes) -> "Certificate":
        return replace(self, signature=signature)

    def check_validity(self, now: float) -> None:
        if not self.not_before <= now <= self.not_after:
            raise AuthenticationError(
                f"certificate for {self.subject!r} outside validity window at t={now}"
            )

    def verify_signed_by(self, issuer_cert: "Certificate") -> None:
        """Check this certificate's signature against the issuer's key."""
        if self.issuer != issuer_cert.subject:
            raise AuthenticationError(
                f"issuer mismatch: {self.issuer!r} != {issuer_cert.subject!r}"
            )
        verify_with_key(
            issuer_cert.key_alg, issuer_cert.public_key, self.tbs_bytes(), self.signature
        )


@dataclass(frozen=True)
class CertificateChain:
    """Leaf-first certificate chain, as sent in a TLS Certificate message."""

    certs: tuple[Certificate, ...]

    def __post_init__(self) -> None:
        if not self.certs:
            raise ProtocolError("empty certificate chain")

    @property
    def leaf(self) -> Certificate:
        return self.certs[0]

    def __len__(self) -> int:
        return len(self.certs)

    def encode(self) -> bytes:
        return b"".join(_pack(c.encode()) for c in self.certs)

    @staticmethod
    def decode(data: bytes) -> "CertificateChain":
        certs = []
        off = 0
        while off < len(data):
            blob, off = _unpack(data, off)
            certs.append(Certificate.decode(blob))
        return CertificateChain(tuple(certs))

    def verify(self, trust_roots: Iterable[Certificate], now: float) -> Certificate:
        """Validate the chain against ``trust_roots`` at time ``now``.

        Returns the leaf certificate on success.  Every link is checked for
        signature, validity window, issuer/subject linkage, and the CA bit
        on intermediates.  The chain's top must be signed by (or be) a
        trusted root.
        """
        roots = {c.subject: c for c in trust_roots}
        for i, cert in enumerate(self.certs):
            cert.check_validity(now)
            if i > 0 and not cert.is_ca:
                raise AuthenticationError(f"non-CA certificate {cert.subject!r} used as issuer")
            if i + 1 < len(self.certs):
                cert.verify_signed_by(self.certs[i + 1])
        top = self.certs[-1]
        root = roots.get(top.issuer)
        if root is None:
            raise AuthenticationError(f"no trust root for issuer {top.issuer!r}")
        top.verify_signed_by(root)
        return self.leaf
