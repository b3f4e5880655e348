"""Ephemeral ECDH over secp256r1, as used by the TLS 1.3 handshake.

Key pairs are generated from a caller-supplied ``random.Random`` so every
simulation is reproducible from its seed.

Both ends of every handshake live in this one process, and two tables
make an agreement cheap because of it.

**Agreed secrets.**  Each agreement would compute ``k*Q`` twice: ``a*B``
on one side, ``b*A`` on the other.  :meth:`EcdhKeyPair.shared_secret`
keeps a table of agreed secrets that pays for it once.  A full
computation by the key pair with public share ``A`` against the peer
share ``B`` files ``(A, B) -> secret``.  A later call by a key pair with
public share ``B`` against the share ``A`` pops that entry and returns
its bytes.  That is exact because ``a*B = b*A`` for ``A = a*G`` and
``B = b*G`` (every key pair's ``public`` is its ``private`` times G, as
:meth:`EcdhKeyPair.generate` makes them): only the holder of ``b`` looks
the entry up, and the entry exists only because the holder of ``a``
computed it.  A hit removes its entry, so the table holds the agreements
whose second half has not run yet, at most ``_AGREED_MAX`` of them, the
oldest out first.

**Generated shares.**  The first half is a variable-base ``k*Q`` ladder,
unless this process generated the peer share.  :meth:`EcdhKeyPair.generate`
files each pair it makes as ``public -> private``, at most
``_GENERATED_MAX`` of them, the oldest out first.  A peer share found
there was made as ``B = b*G``, so ``a*B = (a*b mod N)*G``: one fixed-base
comb over G's table (``repro.crypto.ec``), about a quarter of the ladder's
cost.  Only ``generate`` files, where ``public = private*G`` holds by
construction, so a share built any other way, forged, or made outside
this process runs the ladder in full.

The peer share is validated on every call, before either lookup.  A
forged or replayed share meets a fresh share on the other side, so it
misses and pays in full, and a call that raises files nothing.  Virtual
time is unaffected: the cost model prices the handshake, not Python.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.crypto.ec import ECPoint, N, P256
from repro.errors import CryptoError

# Agreements whose second half has not run yet, oldest first, keyed by
# (the computing side's public share, the peer share it was given).
_AGREED_MAX = 256
_agreed: dict[tuple[ECPoint, ECPoint], bytes] = {}

# Public share -> private scalar of the pairs ``generate`` made, oldest
# first.
_GENERATED_MAX = 1024
_generated: dict[ECPoint, int] = {}


@dataclass(frozen=True)
class EcdhKeyPair:
    """A P-256 key pair: ``private`` scalar and ``public`` point."""

    private: int
    public: ECPoint

    @staticmethod
    def generate(rng: random.Random) -> "EcdhKeyPair":
        """Generate a fresh key pair from the given RNG."""
        private = rng.randrange(1, N)
        public = P256.scalar_mult(private)
        if len(_generated) >= _GENERATED_MAX:
            del _generated[next(iter(_generated))]
        _generated[public] = private
        return EcdhKeyPair(private, public)

    def shared_secret(self, peer_public: ECPoint) -> bytes:
        """X coordinate of ``private * peer_public`` (32 bytes, RFC 8446 style).

        Validates the peer point; an off-curve or infinity share is rejected
        (invalid-curve attack defence).  The second half of an agreement
        whose first half ran in this process reads the first half's result;
        a first half against a share this process generated is one comb on
        the product of the two private scalars.
        """
        if peer_public.is_infinity or not P256.is_on_curve(peer_public):
            raise CryptoError("invalid peer ECDH share")
        secret = _agreed.pop((peer_public, self.public), None)
        if secret is not None:
            return secret
        peer_private = _generated.get(peer_public)
        if peer_private is None:
            shared = P256.scalar_mult(self.private, peer_public)
        else:
            shared = P256.scalar_mult(self.private * peer_private % N)
        if shared.is_infinity:
            raise CryptoError("ECDH produced the point at infinity")
        secret = shared.x.to_bytes(32, "big")
        if len(_agreed) >= _AGREED_MAX:
            del _agreed[next(iter(_agreed))]
        _agreed[(self.public, peer_public)] = secret
        return secret

    def public_bytes(self) -> bytes:
        """SEC1 uncompressed public share for the wire."""
        return self.public.encode()
