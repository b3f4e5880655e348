"""AEAD interface and the fast simulation cipher.

Transports talk to an :class:`Aead`: ``seal``/``open`` with a 96-bit nonce,
16-byte tag and associated data -- exactly the shape of TLS 1.3's
AES-128-GCM.  Two implementations:

- :class:`repro.crypto.gcm.AesGcm` -- the real cipher, used by default and
  in every security test.
- :class:`FastAead` -- a stdlib-backed stand-in (BLAKE2b-derived keystream
  + truncated HMAC-SHA1 tag) with identical interface and security
  *semantics* (tamper detection, nonce binding).  Long-running benchmarks
  may select it so host wall-clock time stays reasonable; virtual-time
  costs are charged identically for both because the cost model prices
  AES-128-GCM, not the Python implementation.  Its one memo is a byte-bounded
  process-wide table of records sealed and not yet opened; instances hold keys.

Both ciphers accept any bytes-like object (``memoryview`` included) for
plaintext, ciphertext and AAD: the seal/open boundary is where the
zero-copy framing path materialises wire bytes.
"""

from __future__ import annotations

import functools
import hashlib
import hmac as _hmac
from typing import Protocol

from repro.crypto.gcm import AesGcm
from repro.errors import AuthenticationError, CryptoError


class Aead(Protocol):
    """Structural interface every AEAD in this package satisfies."""

    nonce_size: int
    tag_size: int
    key_size: int

    def seal(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Encrypt + authenticate, returning ciphertext || tag."""
        ...

    def seal_many(self, items: list) -> list[bytes]:
        """:meth:`seal` over a batch of ``(nonce, plaintext, aad)`` records."""
        ...

    def open(self, nonce: bytes, ciphertext_and_tag: bytes, aad: bytes = b"") -> bytes:
        """Authenticate + decrypt, raising AuthenticationError on tampering."""
        ...


#: Byte budget of the in-flight table (AAD + sealed record + plaintext per
#: entry): a few MB of unopened records fit, 64 x 256 KB in flight do not.
IN_FLIGHT_BUDGET = 8 << 20


class _InFlight:
    """``(mac key, nonce) -> (aad, sealed record, plaintext)`` of every
    record sealed in this process and not yet opened, oldest first."""

    def __init__(self) -> None:
        self.entries: dict[tuple[bytes, bytes], tuple[bytes, bytes, bytes]] = {}
        self.bytes = self.high_water_bytes = 0
        self.hits = self.misses = self.evicted_unopened = 0

    def _drop(self, key) -> tuple[bytes, bytes, bytes]:
        entry = self.entries.pop(key)
        self.bytes -= len(entry[0]) + len(entry[1]) + len(entry[2])
        return entry

    def put(self, key, aad: bytes, sealed: bytes, plaintext: bytes) -> None:
        if key in self.entries:  # a re-seal replaces its entry, as the newest
            self._drop(key)
        self.entries[key] = (aad, sealed, plaintext)
        self.bytes += len(aad) + len(sealed) + len(plaintext)
        while self.bytes > IN_FLIGHT_BUDGET:  # oldest first, one at a time
            self._drop(next(iter(self.entries)))
            self.evicted_unopened += 1
        self.high_water_bytes = max(self.high_water_bytes, self.bytes)

    def take(self, key, aad: bytes, sealed: bytes) -> bytes | None:
        """Plaintext of a byte-identical in-flight record, which it removes."""
        hit = self.entries.get(key)
        if hit is None or hit[0] != aad or hit[1] != sealed:
            self.misses += 1  # the genuine entry, if any, stays
            return None
        self.hits += 1
        return self._drop(key)[2]


_IN_FLIGHT = _InFlight()


def in_flight_stats() -> dict[str, int]:
    """Entries, bytes, high-water bytes, hits, misses, evicted unopened."""
    return {**vars(_IN_FLIGHT), "entries": len(_IN_FLIGHT.entries)}


class FastAead:
    """Simulation AEAD: BLAKE2b-derived keystream, truncated HMAC-SHA1 tag.

    Not a vetted cipher -- it exists so multi-gigabyte benchmark runs do not
    spend wall-clock hours inside pure-Python AES.  It preserves everything
    the experiments rely on: ciphertext differs from plaintext, any bit flip
    in nonce/AAD/ciphertext fails authentication, same nonce+key gives the
    same ciphertext.

    The keystream is one keyed BLAKE2b block per nonce, tiled across the
    record and applied with a single big-int XOR; the MAC is a single
    SHA-1 pass over the key and length-prefixed (nonce, aad, ciphertext).
    A prefix-keyed truncated SHA-1 is not HMAC, and SHA-1 is not
    collision-resistant -- acceptable for a simulation stand-in, where the
    adversary is a fault injector flipping bytes, not a cryptanalyst.

    An instance holds two derived keys and nothing else.  One memo exploits
    the simulation's loopback (sealer and opener share a process): ``seal``
    files its exact output in the process-wide in-flight table, and ``open``
    of the *unmodified* record -- same key, nonce, AAD, ciphertext and tag,
    byte for byte -- takes the plaintext from it and removes the entry.  Any
    difference, or a second ``open``, misses, leaves a genuine entry in place
    and takes the full verify-then-decrypt path, as if there were no table.
    """

    nonce_size = 12
    tag_size = 16

    def __init__(self, key: bytes):
        if len(key) not in (16, 32):
            raise CryptoError(f"FastAead key must be 16 or 32 bytes, got {len(key)}")
        self.key_size = len(key)
        self._enc_key = hashlib.sha256(b"fastaead-enc" + key).digest()
        self._mac_key = hashlib.sha256(b"fastaead-mac" + key).digest()

    def _keystream(self, nonce: bytes, length: int) -> bytes:
        block = hashlib.blake2b(nonce, key=self._enc_key, digest_size=64).digest()
        if length <= 64:
            return block[:length]
        ks = block * ((length + 63) // 64)
        return ks if len(ks) == length else ks[:length]

    def _tag(self, nonce, aad, ciphertext) -> bytes:
        msg = b"".join(
            (
                self._mac_key,
                nonce,
                len(aad).to_bytes(8, "big"),
                aad,
                len(ciphertext).to_bytes(8, "big"),
                ciphertext,
            )
        )
        return hashlib.sha1(msg).digest()[: self.tag_size]

    def seal(self, nonce: bytes, plaintext, aad=b"") -> bytes:
        # Not self.seal_many: a tracer wrapping both would count the record twice.
        return self._seal_records(((nonce, plaintext, aad),))[0]

    def seal_many(self, items: list) -> list[bytes]:
        """Seal a batch of ``(nonce, plaintext, aad)`` records in one pass.

        Byte-identical to :meth:`seal` per record, in-flight entries
        included, but the keystream tiles of every record are generated up
        front and applied with a *single* big-int XOR over the concatenated
        plaintexts -- one interpreter crossing for the whole message, not one
        per record.  Tags stay per record (they bind nonce and AAD).
        """
        return self._seal_records(items)

    def _seal_records(self, items) -> list[bytes]:
        nonces = [bytes(nonce) for nonce, _plaintext, _aad in items]
        if any(len(nonce) != self.nonce_size for nonce in nonces):
            raise CryptoError(f"nonce must be {self.nonce_size} bytes")
        lengths = [len(plaintext) for _nonce, plaintext, _aad in items]
        all_pt = b"".join([plaintext for _nonce, plaintext, _aad in items])
        all_ks = b"".join(map(self._keystream, nonces, lengths))
        n = int.from_bytes(all_pt, "little") ^ int.from_bytes(all_ks, "little")
        all_ct = n.to_bytes(len(all_pt), "little")
        out: list[bytes] = []
        pos = 0
        for nonce, length, (_nonce, _plaintext, aad) in zip(nonces, lengths, items):
            end = pos + length
            ciphertext = all_ct[pos:end]
            sealed = ciphertext + self._tag(nonce, aad, ciphertext)
            _IN_FLIGHT.put((self._mac_key, nonce), bytes(aad), sealed, all_pt[pos:end])
            out.append(sealed)
            pos = end
        return out

    def open(self, nonce: bytes, ciphertext_and_tag, aad=b"") -> bytes:
        if len(nonce) != self.nonce_size:
            raise CryptoError(f"nonce must be {self.nonce_size} bytes")
        if len(ciphertext_and_tag) < self.tag_size:
            raise AuthenticationError("ciphertext shorter than the tag")
        nonce = bytes(nonce)
        # Materialise bytes-like inputs here (the zero-copy boundary);
        # bytes-to-bytes comparison below is memcmp, memoryview's is not.
        if type(ciphertext_and_tag) is not bytes:
            ciphertext_and_tag = bytes(ciphertext_and_tag)
        if type(aad) is not bytes:
            aad = bytes(aad)
        plaintext = _IN_FLIGHT.take((self._mac_key, nonce), aad, ciphertext_and_tag)
        if plaintext is not None:
            return plaintext  # the record is byte-identical to what was sealed
        ciphertext = ciphertext_and_tag[: -self.tag_size]
        tag = ciphertext_and_tag[-self.tag_size :]
        if not _hmac.compare_digest(tag, self._tag(nonce, aad, ciphertext)):
            raise AuthenticationError("FastAead tag mismatch")
        ks = self._keystream(nonce, len(ciphertext))
        n = int.from_bytes(ciphertext, "little") ^ int.from_bytes(ks, "little")
        return n.to_bytes(len(ciphertext), "little")


_AEAD_KINDS = {
    "aes-128-gcm": (AesGcm, 16),
    "aes-256-gcm": (AesGcm, 32),
    "fast": (FastAead, 16),
}


def new_aead(kind: str, key: bytes) -> Aead:
    """Create an AEAD by name: ``aes-128-gcm``, ``aes-256-gcm`` or ``fast``."""
    try:
        cls, key_size = _AEAD_KINDS[kind]
    except KeyError:
        raise CryptoError(f"unknown AEAD kind {kind!r}") from None
    if len(key) != key_size:
        raise CryptoError(f"{kind} needs a {key_size}-byte key, got {len(key)}")
    return cls(key)


@functools.lru_cache(maxsize=256)
def shared_aead(kind: str, key: bytes) -> Aead:
    """A process-wide cached AEAD instance for ``(kind, key)``.

    Every AEAD here is stateless -- nonces and record sequence numbers live
    in :class:`repro.tls.record.RecordProtection`, FastAead's memo in the
    in-flight table -- so one instance per key serves any number of sessions
    and directions concurrently.  Sharing matters for :class:`AesGcm`, whose
    per-key GHASH tables (16x256 128-bit entries: 210 KiB, 1.1 ms) are
    otherwise rebuilt for every connection and rekey.  At the cap the least
    recently used instance goes, alone: at most 256 x 210 KiB = 52.5 MiB.
    """
    return new_aead(kind, key)
