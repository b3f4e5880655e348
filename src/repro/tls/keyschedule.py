"""TLS 1.3 key schedule (RFC 8446 section 7.1) for SHA-256 suites.

Drives the three-stage HKDF ladder: early secret (PSK), handshake secret
(ECDHE), master secret -- and derives the per-direction traffic keys and
the finished/resumption secrets the handshake needs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.kdf import (
    HASH_LEN,
    derive_secret,
    hkdf_expand_label,
    hkdf_extract,
    hmac_sha256,
    transcript_hash,
)
from repro.tls.constants import IV_LEN, KEY_LEN

_EMPTY_HASH = transcript_hash()


@dataclass(frozen=True)
class TrafficKeys:
    """AEAD key + IV for one direction."""

    key: bytes
    iv: bytes

    @staticmethod
    def from_secret(secret: bytes) -> "TrafficKeys":
        return TrafficKeys(
            key=hkdf_expand_label(secret, "key", b"", KEY_LEN),
            iv=hkdf_expand_label(secret, "iv", b"", IV_LEN),
        )


class KeySchedule:
    """Stateful key-schedule ladder shared by both handshake endpoints."""

    def __init__(self, psk: bytes = b""):
        self._early_secret = hkdf_extract(b"", psk if psk else bytes(HASH_LEN))
        self._handshake_secret = b""
        self._master_secret = b""

    # -- early stage ---------------------------------------------------------

    def binder_key(self) -> bytes:
        """The PSK binder key; every PSK here is a resumption ticket."""
        return derive_secret(self._early_secret, "res binder", _EMPTY_HASH)

    # -- handshake stage -----------------------------------------------------

    def inject_ecdhe(self, shared_secret: bytes) -> None:
        derived = derive_secret(self._early_secret, "derived", _EMPTY_HASH)
        self._handshake_secret = hkdf_extract(derived, shared_secret)
        derived2 = derive_secret(self._handshake_secret, "derived", _EMPTY_HASH)
        self._master_secret = hkdf_extract(derived2, bytes(HASH_LEN))

    def client_handshake_traffic_secret(self, hs_hash: bytes) -> bytes:
        return derive_secret(self._handshake_secret, "c hs traffic", hs_hash)

    def server_handshake_traffic_secret(self, hs_hash: bytes) -> bytes:
        return derive_secret(self._handshake_secret, "s hs traffic", hs_hash)

    # -- application stage ---------------------------------------------------

    def client_app_traffic_secret(self, hs_hash: bytes) -> bytes:
        return derive_secret(self._master_secret, "c ap traffic", hs_hash)

    def server_app_traffic_secret(self, hs_hash: bytes) -> bytes:
        return derive_secret(self._master_secret, "s ap traffic", hs_hash)

    def resumption_master_secret(self, full_hash: bytes) -> bytes:
        return derive_secret(self._master_secret, "res master", full_hash)

    # -- helpers -------------------------------------------------------------

    @staticmethod
    def finished_key(traffic_secret: bytes) -> bytes:
        return hkdf_expand_label(traffic_secret, "finished", b"", HASH_LEN)

    @staticmethod
    def finished_mac(traffic_secret: bytes, th: bytes) -> bytes:
        return hmac_sha256(KeySchedule.finished_key(traffic_secret), th)

    @staticmethod
    def psk_from_resumption(res_master: bytes, ticket_nonce: bytes) -> bytes:
        return hkdf_expand_label(res_master, "resumption", ticket_nonce, HASH_LEN)
