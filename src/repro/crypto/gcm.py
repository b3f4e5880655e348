"""AES-GCM authenticated encryption (NIST SP 800-38D), from scratch.

GHASH runs over Python 128-bit ints using Shoup 8-bit tables built once per
key: one GF(2^128) multiplication becomes 16 table lookups and XORs.  The
CTR keystream comes from one T-table AES pass over all the record's
counter blocks, so sealing a 16 KB TLS record is 1024 AES blocks (~12 ms)
plus ~1000 GHASH table steps and one big-int XOR.

Only 96-bit nonces are supported -- that is what TLS 1.3 uses, and it keeps
J0 derivation trivial (``nonce || 0x00000001``).
"""

from __future__ import annotations

import hmac as _hmac

from repro.crypto.aes import AES
from repro.errors import AuthenticationError, CryptoError

# GCM reduction constant: x^128 + x^7 + x^2 + x + 1 in GCM bit order.
_R = 0xE1 << 120
_MASK128 = (1 << 128) - 1


def _mul_by_x(v: int) -> int:
    """Multiply a field element by x (GCM bit convention)."""
    if v & 1:
        return (v >> 1) ^ _R
    return v >> 1


def gf128_mul(x: int, y: int) -> int:
    """Reference GF(2^128) multiplication (slow; used to verify the tables)."""
    z = 0
    v = y
    for i in range(127, -1, -1):
        if (x >> i) & 1:
            z ^= v
        v = _mul_by_x(v)
    return z


def _build_tables(h: int) -> list[list[int]]:
    """Shoup tables: T[j][b] = (b at byte position j) * H.

    Byte position 0 is the most significant byte of the 128-bit element.
    Built from the 128 monomial products x^i * H: each row starts as [0]
    and doubles once per bit of the byte, lowest bit first, the new half
    being the old one XORed with that bit's monomial.  So the whole table
    needs only 128 shift-reductions and ~4K XORs, in list comprehensions.
    """
    monomials = [0] * 128  # monomials[i] = x^i * H
    monomials[0] = h
    for i in range(1, 128):
        monomials[i] = _mul_by_x(monomials[i - 1])
    tables: list[list[int]] = []
    for j in range(16):
        row = [0]
        for bit in range(7, -1, -1):  # bit 7 = LSB of the byte
            m = monomials[8 * j + bit]
            row += [v ^ m for v in row]
        tables.append(row)
    return tables


class _Ghash:
    """Incremental GHASH over one key's H value."""

    def __init__(self, h: int):
        self._tables = _build_tables(h)
        self._acc = 0
        self._buf = b""

    def update(self, data: bytes) -> None:
        data = self._buf + data
        full = len(data) & ~15
        self._buf = data[full:]
        acc = self._acc
        tables = self._tables
        for off in range(0, full, 16):
            x = acc ^ int.from_bytes(data[off : off + 16], "big")
            acc = (
                tables[0][(x >> 120) & 0xFF]
                ^ tables[1][(x >> 112) & 0xFF]
                ^ tables[2][(x >> 104) & 0xFF]
                ^ tables[3][(x >> 96) & 0xFF]
                ^ tables[4][(x >> 88) & 0xFF]
                ^ tables[5][(x >> 80) & 0xFF]
                ^ tables[6][(x >> 72) & 0xFF]
                ^ tables[7][(x >> 64) & 0xFF]
                ^ tables[8][(x >> 56) & 0xFF]
                ^ tables[9][(x >> 48) & 0xFF]
                ^ tables[10][(x >> 40) & 0xFF]
                ^ tables[11][(x >> 32) & 0xFF]
                ^ tables[12][(x >> 24) & 0xFF]
                ^ tables[13][(x >> 16) & 0xFF]
                ^ tables[14][(x >> 8) & 0xFF]
                ^ tables[15][x & 0xFF]
            )
        self._acc = acc

    def pad_to_block(self) -> None:
        """Zero-pad the pending partial block (GCM pads A and C separately)."""
        if self._buf:
            self.update(bytes(16 - len(self._buf)))

    def digest(self) -> int:
        if self._buf:
            raise CryptoError("GHASH digest with partial block pending")
        return self._acc


class AesGcm:
    """AES-GCM AEAD with 96-bit nonces and 128-bit tags."""

    nonce_size = 12
    tag_size = 16

    def __init__(self, key: bytes):
        self._aes = AES(key)
        self.key_size = len(key)
        h = int.from_bytes(self._aes.encrypt_block(bytes(16)), "big")
        self._h = h
        self._tables = _build_tables(h)

    def _ghash(self, aad: bytes, ciphertext: bytes) -> bytes:
        g = _Ghash.__new__(_Ghash)
        g._tables = self._tables  # share per-key tables
        g._acc = 0
        g._buf = b""
        g.update(aad)
        g.pad_to_block()
        g.update(ciphertext)
        g.pad_to_block()
        g.update(
            (len(aad) * 8).to_bytes(8, "big") + (len(ciphertext) * 8).to_bytes(8, "big")
        )
        return g.digest().to_bytes(16, "big")

    def _crypt(self, nonce: bytes, data: bytes) -> bytes:
        # CTR starts at inc32(J0) where J0 = nonce || 0x00000001.
        start = nonce + b"\x00\x00\x00\x02"
        nblocks = (len(data) + 15) // 16
        keystream = self._aes.ctr_keystream(start, nblocks)
        return _xor_bytes(data, keystream[: len(data)])

    def _tag(self, nonce: bytes, aad: bytes, ciphertext: bytes) -> bytes:
        s = self._ghash(aad, ciphertext)
        ekj0 = self._aes.encrypt_block(nonce + b"\x00\x00\x00\x01")
        return bytes(a ^ b for a, b in zip(s, ekj0))

    def seal(self, nonce: bytes, plaintext, aad=b"") -> bytes:
        """Encrypt and authenticate; returns ciphertext || 16-byte tag.

        ``plaintext`` and ``aad`` may be any bytes-like object; they are
        materialised here (the zero-copy framing boundary).
        """
        if len(nonce) != self.nonce_size:
            raise CryptoError(f"GCM nonce must be {self.nonce_size} bytes")
        if not isinstance(plaintext, bytes):
            plaintext = bytes(plaintext)
        if not isinstance(aad, bytes):
            aad = bytes(aad)
        ciphertext = self._crypt(nonce, plaintext)
        return ciphertext + self._tag(nonce, aad, ciphertext)

    def seal_many(self, items: list, out: bytearray, offsets) -> None:
        """Seal ``(nonce, plaintext, aad)`` records one by one, copying
        record ``i`` (ciphertext || tag) to ``out[offsets[i]:]``."""
        view = memoryview(out)  # bounds-checked: nothing lands past the end
        for (nonce, plaintext, aad), offset in zip(items, offsets):
            sealed = self.seal(nonce, plaintext, aad)
            view[offset : offset + len(sealed)] = sealed

    def open(self, nonce: bytes, ciphertext_and_tag, aad=b"") -> bytes:
        """Verify the tag and decrypt; raises AuthenticationError on mismatch.

        ``ciphertext_and_tag`` and ``aad`` may be any bytes-like object;
        they are materialised here (the zero-copy framing boundary).
        """
        if len(nonce) != self.nonce_size:
            raise CryptoError(f"GCM nonce must be {self.nonce_size} bytes")
        if len(ciphertext_and_tag) < self.tag_size:
            raise AuthenticationError("ciphertext shorter than the tag")
        if not isinstance(ciphertext_and_tag, bytes):
            ciphertext_and_tag = bytes(ciphertext_and_tag)
        if not isinstance(aad, bytes):
            aad = bytes(aad)
        ciphertext = ciphertext_and_tag[: -self.tag_size]
        tag = ciphertext_and_tag[-self.tag_size :]
        expected = self._tag(nonce, aad, ciphertext)
        if not _hmac.compare_digest(tag, expected):
            raise AuthenticationError("GCM tag mismatch")
        return self._crypt(nonce, ciphertext)


def _xor_bytes(data: bytes, keystream: bytes) -> bytes:
    """XOR two equal-length byte strings via int arithmetic (fast in CPython)."""
    n = int.from_bytes(data, "little") ^ int.from_bytes(keystream, "little")
    return n.to_bytes(len(data), "little")
