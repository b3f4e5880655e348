"""An internal certificate authority.

Datacenters run their own CA (paper §4.5.2: "the datacenter or cloud
provider could operate its own root CA that also acts as the internal DNS
resolver").  This CA issues ECDSA or RSA certificates, can create
intermediates, and can mint chains of configurable depth so the handshake
benchmarks can price the §4.5.1 short-chain optimisation.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.crypto.cert import (
    KEY_ALG_ECDSA,
    KEY_ALG_RSA,
    Certificate,
    CertificateChain,
)
from repro.crypto.ecdsa import EcdsaKeyPair
from repro.crypto.rsa import RsaKeyPair
from repro.errors import CryptoError

#: Lifetime of every certificate the CA signs, its own included.
VALIDITY = 365 * 24 * 3600.0


class CertificateAuthority:
    """A CA holding a signing key and its own (possibly self-signed) cert."""

    def __init__(
        self,
        name: str,
        rng: random.Random,
        key_alg: str = KEY_ALG_ECDSA,
        parent: Optional["CertificateAuthority"] = None,
        rsa_bits: int = 2048,
        now: float = 0.0,
    ):
        self.name = name
        self.key_alg = key_alg
        self._rng = rng
        self._serial = rng.getrandbits(32)
        if key_alg == KEY_ALG_ECDSA:
            self._key: object = EcdsaKeyPair.generate(rng)
            public = self._key.public_bytes()
        elif key_alg == KEY_ALG_RSA:
            self._key = RsaKeyPair.generate(rsa_bits, rng)
            public = self._key.public_bytes()
        else:
            raise CryptoError(f"unknown CA key algorithm {key_alg!r}")
        unsigned = Certificate(
            subject=name,
            issuer=parent.name if parent else name,
            key_alg=key_alg,
            public_key=public,
            serial=self._next_serial(),
            not_before=now,
            not_after=now + VALIDITY,
            is_ca=True,
        )
        signer = parent if parent else self
        self.certificate = unsigned.with_signature(signer.sign(unsigned.tbs_bytes()))
        self.parent = parent

    def _next_serial(self) -> int:
        self._serial += 1
        return self._serial

    def sign(self, message: bytes) -> bytes:
        """Sign raw bytes with the CA key."""
        return self._key.sign(message)

    def issue(
        self,
        subject: str,
        key_alg: str,
        public_key: bytes,
        is_ca: bool = False,
        now: float = 0.0,
    ) -> Certificate:
        """Issue a certificate binding ``subject`` to ``public_key``."""
        unsigned = Certificate(
            subject=subject,
            issuer=self.name,
            key_alg=key_alg,
            public_key=public_key,
            serial=self._next_serial(),
            not_before=now,
            not_after=now + VALIDITY,
            is_ca=is_ca,
        )
        return unsigned.with_signature(self.sign(unsigned.tbs_bytes()))

    def new_intermediate(self, name: str, now: float = 0.0) -> "CertificateAuthority":
        """Create an intermediate CA whose certificate this CA signs."""
        return CertificateAuthority(name, self._rng, self.key_alg, parent=self, now=now)

    def chain_for(self, leaf: Certificate) -> CertificateChain:
        """Build the leaf-first chain from ``leaf`` up to (not including) the root.

        A root-issued leaf yields a single-element chain -- the §4.5.1
        "short certificate chain" configuration.
        """
        certs = [leaf]
        ca: Optional[CertificateAuthority] = self
        while ca is not None and ca.parent is not None:
            certs.append(ca.certificate)
            ca = ca.parent
        return CertificateChain(tuple(certs))


def fixed_pki(
    subject: str,
) -> tuple[CertificateAuthority, CertificateChain, EcdsaKeyPair]:
    """A root CA and one ECDSA leaf for ``subject``: ``(ca, chain, key)``.

    Seeded, so every run mints the same keys and certificates, and the
    handshake bytes and event counts that depend on them replay exactly.
    """
    rng = random.Random(1)
    ca = CertificateAuthority("dc-root", rng)
    key = EcdsaKeyPair.generate(rng)
    leaf = ca.issue(subject, KEY_ALG_ECDSA, key.public_bytes())
    return ca, ca.chain_for(leaf), key
