"""AEAD interface and the fast simulation cipher.

Transports talk to an :class:`Aead`: ``seal``/``open`` with a 96-bit nonce,
16-byte tag and associated data -- exactly the shape of TLS 1.3's
AES-128-GCM.  Two implementations:

- :class:`repro.crypto.gcm.AesGcm` -- the real cipher, used by default and
  in every security test.
- :class:`FastAead` -- a hashlib stand-in (one keyed BLAKE2b byte per
  record, prefix-keyed truncated SHA-1 tag) with identical interface
  and security *semantics* (tamper detection, nonce binding).
  Long-running benchmarks may select it so host wall-clock time stays
  reasonable; virtual-time costs are charged identically for both because
  the cost model prices AES-128-GCM, not the Python implementation.  Its
  one memo is a byte-bounded process-wide table of views of records sealed
  and not yet opened; instances hold keys.

Both ciphers accept any bytes-like object (``memoryview`` included) for
plaintext, ciphertext and AAD.  ``seal_many`` -- the record paths' one
seal -- writes each sealed record into a ``bytearray`` the caller
allocated: the wire buffer it then sends.
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

    def seal_many(self, items: list, out: bytearray, offsets) -> None:
        """:meth:`seal` over a batch of ``(nonce, plaintext, aad)`` records,
        writing record ``i`` (ciphertext || tag) at ``out[offsets[i]:]``."""
        ...

    def open(self, nonce: bytes, ciphertext_and_tag: bytes, aad: bytes = b"") -> bytes:
        """Authenticate + decrypt, raising AuthenticationError on tampering."""
        ...


#: Byte budget of the in-flight table: the wire bytes its entries pin (AAD
#: + sealed record per entry).  A few MB of unopened records fit, 64 x
#: 256 KB in flight do not.
IN_FLIGHT_BUDGET = 8 << 20


class _InFlight:
    """``(mac key, nonce) -> (aad, buf, offset, length)`` of every record
    sealed in this process and not yet opened, oldest first.

    An entry is a window on the ``bytearray`` the record was sealed into
    -- the very wire buffer its sender transmits -- not a copy of it, and
    it holds no plaintext: a hit only spares ``open`` the tag check.
    """

    def __init__(self) -> None:
        self.entries: dict[tuple[bytes, bytes], tuple[bytes, bytearray, int, int]] = {}
        self.bytes = self.high_water_bytes = 0
        self.hits = self.misses = self.evicted_unopened = 0

    def _drop(self, key) -> None:
        aad, _buf, _offset, length = self.entries.pop(key)
        self.bytes -= len(aad) + length

    def put(self, key, aad: bytes, buf: bytearray, offset: int, length: int) -> None:
        if key in self.entries:  # a re-seal replaces its entry, as the newest
            self._drop(key)
        self.entries[key] = (aad, buf, offset, length)
        self.bytes += len(aad) + length
        while self.bytes > IN_FLIGHT_BUDGET:  # oldest first, one at a time
            self._drop(next(iter(self.entries)))
            self.evicted_unopened += 1
        self.high_water_bytes = max(self.high_water_bytes, self.bytes)

    def take(self, key, aad: bytes, sealed) -> bool:
        """Whether ``sealed`` is the filed record byte for byte; a hit
        removes the entry.

        ``sealed`` may be any bytes-like object: ``startswith`` at the
        filed offset and equal length is one ``memcmp`` against the
        sealer's buffer, with no copy.
        """
        hit = self.entries.get(key)
        if (
            hit is None
            or hit[0] != aad
            or hit[3] != len(sealed)
            or not hit[1].startswith(sealed, hit[2])
        ):
            self.misses += 1  # the genuine entry, if any, stays
            return False
        self.hits += 1
        self._drop(key)
        return True


_IN_FLIGHT = _InFlight()


def in_flight_stats() -> dict[str, int]:
    """Entries, bytes, high-water bytes, hits, misses, evicted unopened."""
    return {**vars(_IN_FLIGHT), "entries": len(_IN_FLIGHT.entries)}


def in_flight_reset() -> None:
    """Empty the table and zero its books; an earlier record opens as a miss."""
    _IN_FLIGHT.__init__()


#: ``_XOR_TABLES[d]`` XORs every byte with ``d % 255 + 1``: a one-byte
#: BLAKE2b digest ``d``, mapped to a key byte that is never zero.
_XOR_TABLES = [bytes(b ^ (d % 255 + 1) for b in range(256)) for d in range(256)]


class FastAead:
    """Simulation AEAD: one keyed BLAKE2b byte per record, prefix-keyed SHA-1 tag.

    Not a vetted cipher -- it exists so multi-gigabyte benchmark runs do not
    spend wall-clock hours inside pure-Python AES.  It preserves everything
    the experiments rely on: ciphertext differs from plaintext, any bit flip
    in nonce/AAD/ciphertext fails authentication, same nonce+key gives the
    same ciphertext.

    The keystream is one keyed, nonzero BLAKE2b byte per nonce, XORed into
    every byte of the record by one ``bytes.translate`` (:meth:`_xor`,
    shared by seal and open); the tag is one SHA-1 pass, fed field by
    field, over the key and length-prefixed (nonce, aad, ciphertext),
    truncated to 16 bytes.  A one-byte keystream hides nothing, and a
    prefix-keyed truncated SHA-1 is not HMAC -- acceptable for a stand-in
    whose adversary is a fault injector flipping bytes, not a cryptanalyst.

    An instance holds two derived keys and nothing else.  One memo exploits
    the simulation's loopback (sealer and opener share a process):
    :meth:`seal_many` files a view of each record it seals -- ``(aad,
    buffer, offset, length)``, no copy and no plaintext -- in the
    process-wide in-flight table, and ``open`` of the *unmodified* record
    -- same key, nonce, AAD, ciphertext and tag, byte for byte -- skips
    the tag check, removes the entry and decrypts with the one XOR.  Any
    difference, or a second ``open``, misses, leaves a genuine entry in
    place and verifies before it decrypts, as if there were no table.
    Nothing may write a buffer after sealing into it: the record paths
    hand out read-only views of it only.
    """

    nonce_size = 12
    tag_size = 16

    def __init__(self, key: bytes):
        if len(key) not in (16, 32):
            raise CryptoError(f"FastAead key must be 16 or 32 bytes, got {len(key)}")
        self.key_size = len(key)
        self._enc_key = hashlib.sha256(b"fastaead-enc" + key).digest()
        self._mac_key = hashlib.sha256(b"fastaead-mac" + key).digest()
        # Every tag hashes the MAC key first: hash it once, copy the state.
        self._mac = hashlib.sha1(self._mac_key)

    def _xor(self, nonce: bytes, data) -> bytes:
        """``data`` (any bytes-like) XOR the nonce's key byte."""
        digest = hashlib.blake2b(nonce, key=self._enc_key, digest_size=1).digest()
        return bytes(data).translate(_XOR_TABLES[digest[0]])

    def _tag(self, nonce, aad, ciphertext) -> bytes:
        h = self._mac.copy()
        # The short fields go in as one join; the ciphertext is hashed in
        # place (any bytes-like), never copied into the message.
        h.update(
            b"".join(
                (nonce, len(aad).to_bytes(8, "big"), aad, len(ciphertext).to_bytes(8, "big"))
            )
        )
        h.update(ciphertext)
        return h.digest()[: self.tag_size]

    def seal(self, nonce: bytes, plaintext, aad=b"") -> bytes:
        out = bytearray(len(plaintext) + self.tag_size)
        # Not self.seal_many: a tracer wrapping both would count the record twice.
        self._seal_into(((nonce, plaintext, aad),), out, (0,))
        return bytes(out)

    def seal_many(self, items: list, out: bytearray, offsets) -> None:
        """Seal ``(nonce, plaintext, aad)`` records into the ``bytearray`` ``out``.

        Record ``i`` -- ciphertext, then tag -- goes to ``out[offsets[i]:]``;
        a plaintext may be the very bytes of ``out`` it is sealed over.
        Byte-identical to :meth:`seal` per record, in-flight entries
        included; every nonce is checked before anything is written.
        """
        self._seal_into(items, out, offsets)

    def _seal_into(self, items, out: bytearray, offsets) -> None:
        nonces = [bytes(nonce) for nonce, _plaintext, _aad in items]
        if any(len(nonce) != self.nonce_size for nonce in nonces):
            raise CryptoError(f"nonce must be {self.nonce_size} bytes")
        view = memoryview(out)  # bounds-checked: nothing lands past the end
        for nonce, (_nonce, plaintext, aad), offset in zip(nonces, items, offsets):
            end = offset + len(plaintext)
            ciphertext = view[offset:end]
            ciphertext[:] = self._xor(nonce, plaintext)
            view[end : end + self.tag_size] = self._tag(nonce, aad, ciphertext)
            _IN_FLIGHT.put(
                (self._mac_key, nonce), bytes(aad), out, offset,
                end + self.tag_size - offset,
            )

    def open(self, nonce: bytes, ciphertext_and_tag, aad=b"") -> bytes:
        if len(nonce) != self.nonce_size:
            raise CryptoError(f"nonce must be {self.nonce_size} bytes")
        if len(ciphertext_and_tag) < self.tag_size:
            raise AuthenticationError("ciphertext shorter than the tag")
        nonce = bytes(nonce)
        if type(aad) is not bytes:
            aad = bytes(aad)
        # Verify, then decrypt, both reading the caller's buffer in place;
        # a byte-identical in-flight record has nothing to verify.
        record = memoryview(ciphertext_and_tag)
        ciphertext = record[: -self.tag_size]
        if not _IN_FLIGHT.take((self._mac_key, nonce), aad, record):
            tag = record[-self.tag_size :]
            if not _hmac.compare_digest(tag, self._tag(nonce, aad, ciphertext)):
                raise AuthenticationError("FastAead tag mismatch")
        return self._xor(nonce, ciphertext)


_AEAD_KINDS = {
    "aes-128-gcm": (AesGcm, 16),
    "aes-256-gcm": (AesGcm, 32),
    "fast": (FastAead, 16),
}

#: The AEAD every bench and load mesh runs: the simulation cipher, for
#: wall-clock sanity.  Virtual-time costs are charged as AES-128-GCM
#: either way (see repro.host.costs).
SIM_AEAD = "fast"


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
