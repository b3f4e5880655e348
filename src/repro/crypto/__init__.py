"""From-scratch cryptography used by the TLS and SMT layers.

Everything here is implemented in this repository, on the standard library
alone (no external crypto or numeric libraries): AES-128/256 (32-bit
T-tables over Python ints), AES-GCM with Shoup-table GHASH,
HKDF/HMAC-SHA256, the secp256r1 group with ECDH and deterministic (RFC
6979) ECDSA, RSA with PKCS#1 v1.5 signatures, and a minimal
certificate/CA system.

These primitives are *functionally* real -- ciphertexts authenticate,
signatures verify, tampering raises :class:`repro.errors.AuthenticationError`.
Their *timing* inside simulations is charged from the calibrated cost model
(`repro.host.costs`), never from Python wall time.
"""

from repro.crypto.aead import Aead, FastAead, new_aead, shared_aead
from repro.crypto.aes import AES
from repro.crypto.ca import CertificateAuthority
from repro.crypto.cert import Certificate, CertificateChain
from repro.crypto.ec import P256, ECPoint
from repro.crypto.ecdh import EcdhKeyPair
from repro.crypto.ecdsa import EcdsaKeyPair, ecdsa_sign, ecdsa_verify
from repro.crypto.gcm import AesGcm
from repro.crypto.kdf import hkdf_expand, hkdf_expand_label, hkdf_extract, hmac_sha256
from repro.crypto.rsa import RsaKeyPair

__all__ = [
    "AES",
    "AesGcm",
    "Aead",
    "FastAead",
    "new_aead",
    "shared_aead",
    "hkdf_extract",
    "hkdf_expand",
    "hkdf_expand_label",
    "hmac_sha256",
    "P256",
    "ECPoint",
    "EcdhKeyPair",
    "EcdsaKeyPair",
    "ecdsa_sign",
    "ecdsa_verify",
    "RsaKeyPair",
    "Certificate",
    "CertificateChain",
    "CertificateAuthority",
]
