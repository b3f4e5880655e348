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
  AES-128-GCM, not the Python implementation.

Both ciphers accept any bytes-like object (``memoryview`` included) for
plaintext, ciphertext and AAD: the seal/open boundary is where the
zero-copy framing path materialises wire bytes.
"""

from __future__ import annotations

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
    Two memos exploit the simulation's loopback (sealer and opener share
    one process, and with :func:`shared_aead` one instance): keystream
    ints are cached per nonce, and ``seal`` remembers its exact output so
    an ``open`` of the *unmodified* record returns the cached plaintext
    without re-hashing.  Any difference in nonce, AAD, ciphertext or tag
    misses the memo and takes the full verify-then-fail path, so fault
    injection and tampering behave identically.
    """

    nonce_size = 12
    tag_size = 16

    def __init__(self, key: bytes):
        if len(key) not in (16, 32):
            raise CryptoError(f"FastAead key must be 16 or 32 bytes, got {len(key)}")
        self.key_size = len(key)
        self._enc_key = hashlib.sha256(b"fastaead-enc" + key).digest()
        self._mac_key = hashlib.sha256(b"fastaead-mac" + key).digest()
        self._ks_cache: dict[bytes, tuple[int, int]] = {}  # nonce -> (len, ks int)
        # nonce -> (aad, sealed record, plaintext); see the class docstring.
        self._seal_cache: dict[bytes, tuple[bytes, bytes, bytes]] = {}

    def _keystream(self, nonce: bytes, length: int) -> bytes:
        block = hashlib.blake2b(nonce, key=self._enc_key, digest_size=64).digest()
        if length <= 64:
            return block[:length]
        ks = block * ((length + 63) // 64)
        return ks if len(ks) == length else ks[:length]

    def _ks_int(self, nonce: bytes, length: int) -> int:
        cache = self._ks_cache
        hit = cache.get(nonce)
        if hit is not None and hit[0] == length:
            return hit[1]
        value = int.from_bytes(self._keystream(nonce, length), "little")
        if len(cache) >= 512:  # wholesale eviction keeps the memo bounded
            cache.clear()
        cache[nonce] = (length, value)
        return value

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
        if len(nonce) != self.nonce_size:
            raise CryptoError(f"nonce must be {self.nonce_size} bytes")
        nonce = bytes(nonce)
        length = len(plaintext)
        n = int.from_bytes(plaintext, "little") ^ self._ks_int(nonce, length)
        ciphertext = n.to_bytes(length, "little")
        sealed = ciphertext + self._tag(nonce, aad, ciphertext)
        cache = self._seal_cache
        if len(cache) >= 512:  # wholesale eviction keeps the memo bounded
            cache.clear()
        cache[nonce] = (
            bytes(aad),
            sealed,
            plaintext if isinstance(plaintext, bytes) else bytes(plaintext),
        )
        return sealed

    def seal_many(self, items: list) -> list[bytes]:
        """Seal a batch of ``(nonce, plaintext, aad)`` records in one pass.

        Byte-identical to calling :meth:`seal` per record (same ciphertext,
        same tag, same memo population), but the keystream tiles for every
        record are generated up front and applied with a *single* big-int
        XOR over the concatenated plaintexts -- one interpreter crossing
        for the whole message instead of one per record.  Tags stay per
        record (they bind nonce and AAD individually).
        """
        if not items:
            return []
        nonce_size = self.nonce_size
        keystream = self._keystream
        nonces: list[bytes] = []
        lengths: list[int] = []
        ks_parts: list[bytes] = []
        pt_parts: list = []
        for nonce, plaintext, _aad in items:
            if len(nonce) != nonce_size:
                raise CryptoError(f"nonce must be {nonce_size} bytes")
            nonce = bytes(nonce)
            length = len(plaintext)
            nonces.append(nonce)
            lengths.append(length)
            ks_parts.append(keystream(nonce, length))
            pt_parts.append(plaintext)
        total_pt = b"".join(pt_parts)
        n = int.from_bytes(total_pt, "little") ^ int.from_bytes(
            b"".join(ks_parts), "little"
        )
        total_ct = n.to_bytes(len(total_pt), "little")
        out: list[bytes] = []
        cache = self._seal_cache
        pos = 0
        for i, (nonce, _plaintext, aad) in enumerate(items):
            end = pos + lengths[i]
            ciphertext = total_ct[pos:end]
            sealed = ciphertext + self._tag(nonce, aad, ciphertext)
            if len(cache) >= 512:  # wholesale eviction keeps the memo bounded
                cache.clear()
            cache[nonce] = (
                bytes(aad),
                sealed,
                total_pt[pos:end],
            )
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
        hit = self._seal_cache.get(nonce)
        if hit is not None and hit[0] == aad and hit[1] == ciphertext_and_tag:
            return hit[2]  # the record is byte-identical to what we sealed
        ciphertext = ciphertext_and_tag[: -self.tag_size]
        tag = ciphertext_and_tag[-self.tag_size :]
        if not _hmac.compare_digest(tag, self._tag(nonce, aad, ciphertext)):
            raise AuthenticationError("FastAead tag mismatch")
        length = len(ciphertext)
        n = int.from_bytes(ciphertext, "little") ^ self._ks_int(nonce, length)
        return n.to_bytes(length, "little")


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


_SHARED_AEADS: dict[tuple[str, bytes], Aead] = {}


def shared_aead(kind: str, key: bytes) -> Aead:
    """A process-wide cached AEAD instance for ``(kind, key)``.

    Every AEAD here is stateless -- nonces and record sequence numbers live
    in :class:`repro.tls.record.RecordProtection` -- so one instance per
    key serves any number of sessions and directions concurrently.  Sharing
    matters most for :class:`AesGcm`, whose per-key GHASH tables (16x256
    128-bit entries) are otherwise rebuilt for every connection and rekey.

    The cache is dropped whole once it holds 4 096 instances: simulations
    key a handful of sessions, and a run that churns through more only
    rebuilds the ones it still uses.
    """
    cache_key = (kind, bytes(key))
    aead = _SHARED_AEADS.get(cache_key)
    if aead is None:
        if len(_SHARED_AEADS) >= 4096:  # safeguard for very long-lived processes
            _SHARED_AEADS.clear()
        aead = _SHARED_AEADS[cache_key] = new_aead(kind, cache_key[1])
    return aead
