"""ECDSA over secp256r1 with deterministic nonces (RFC 6979).

Deterministic k makes signatures reproducible across simulation runs and
removes the classic nonce-reuse footgun from the test surface.  Signatures
are encoded as fixed-width ``r || s`` (64 bytes), which is what the toy
certificate format carries.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
import random
from dataclasses import dataclass

from repro.crypto.ec import ECPoint, N, P256
from repro.errors import AuthenticationError, CryptoError

SIGNATURE_SIZE = 64


def _bits2int(data: bytes) -> int:
    """Leftmost min(len*8, 256) bits of data as an integer (RFC 6979 §2.3.2)."""
    value = int.from_bytes(data, "big")
    excess = len(data) * 8 - 256
    if excess > 0:
        value >>= excess
    return value


def _rfc6979_k(private: int, digest: bytes) -> int:
    """Deterministic nonce derivation (RFC 6979, SHA-256)."""
    h1 = _bits2int(digest) % N
    x_bytes = private.to_bytes(32, "big")
    h_bytes = h1.to_bytes(32, "big")
    v = b"\x01" * 32
    k = b"\x00" * 32
    k = _hmac.digest(k, v + b"\x00" + x_bytes + h_bytes, "sha256")
    v = _hmac.digest(k, v, "sha256")
    k = _hmac.digest(k, v + b"\x01" + x_bytes + h_bytes, "sha256")
    v = _hmac.digest(k, v, "sha256")
    while True:
        v = _hmac.digest(k, v, "sha256")
        candidate = _bits2int(v)
        if 1 <= candidate < N:
            return candidate
        k = _hmac.digest(k, v + b"\x00", "sha256")
        v = _hmac.digest(k, v, "sha256")


def ecdsa_sign(private: int, message: bytes) -> bytes:
    """Sign SHA-256(message); returns 64-byte ``r || s``."""
    digest = hashlib.sha256(message).digest()
    z = _bits2int(digest) % N
    while True:
        k = _rfc6979_k(private, digest)
        point = P256.scalar_mult(k)
        r = point.x % N
        if r == 0:
            continue
        k_inv = pow(k, -1, N)
        s = (k_inv * (z + r * private)) % N
        if s == 0:
            continue
        return r.to_bytes(32, "big") + s.to_bytes(32, "big")


def ecdsa_verify(public: ECPoint, message: bytes, signature: bytes) -> None:
    """Verify a signature; raises AuthenticationError if invalid."""
    if len(signature) != SIGNATURE_SIZE:
        raise AuthenticationError("bad ECDSA signature length")
    r = int.from_bytes(signature[:32], "big")
    s = int.from_bytes(signature[32:], "big")
    if not (1 <= r < N and 1 <= s < N):
        raise AuthenticationError("ECDSA signature out of range")
    if public.is_infinity or not P256.is_on_curve(public):
        raise CryptoError("invalid ECDSA public key")
    digest = hashlib.sha256(message).digest()
    z = _bits2int(digest) % N
    s_inv = pow(s, -1, N)
    u1 = (z * s_inv) % N
    u2 = (r * s_inv) % N
    point = P256.double_scalar_mult(u1, u2, public)
    if point.is_infinity or point.x % N != r:
        raise AuthenticationError("ECDSA verification failed")


@dataclass(frozen=True)
class EcdsaKeyPair:
    """A P-256 signing key pair."""

    private: int
    public: ECPoint

    @staticmethod
    def generate(rng: random.Random) -> "EcdsaKeyPair":
        private = rng.randrange(1, N)
        return EcdsaKeyPair(private, P256.scalar_mult(private))

    def sign(self, message: bytes) -> bytes:
        return ecdsa_sign(self.private, message)

    def verify(self, message: bytes, signature: bytes) -> None:
        ecdsa_verify(self.public, message, signature)

    def public_bytes(self) -> bytes:
        return self.public.encode()
