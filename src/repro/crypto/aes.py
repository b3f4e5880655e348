"""AES block cipher (FIPS 197), implemented from scratch.

A 32-bit T-table implementation over Python ints: the state is four
big-endian column words, and each inner round is sixteen lookups in four
tables that fuse SubBytes, ShiftRows and MixColumns, XORed with the round
key.  The tables are derived from the computed S-box at import, never
pasted.  One block costs ~12 us; ``encrypt_blocks`` and ``ctr_keystream``
run the same rounds over many blocks in one loop, with no per-call setup.

There is no inverse cipher: GCM (the only mode the TLS layer uses) runs
the forward cipher both ways.
"""

from __future__ import annotations

import struct

from repro.errors import CryptoError

# -- S-box construction (computed, not pasted, so it is self-checking) ------


def _xtime(a: int) -> int:
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def _gf_mul(a: int, b: int) -> int:
    """Multiply in GF(2^8) with the AES polynomial x^8+x^4+x^3+x+1."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


def _build_sbox() -> list[int]:
    # Multiplicative inverses from log/antilog tables over the generator 3:
    # the inverse of 3^k is 3^(255 - k), and 0 maps to 0.
    exp = [0] * 255
    log = [0] * 256
    x = 1
    for k in range(255):
        exp[k] = x
        log[x] = k
        x ^= _xtime(x)  # x * 3 = x * 2 + x
    inv = [0] + [exp[-log[i] % 255] for i in range(1, 256)]
    sbox = [0] * 256
    for i in range(256):
        x = inv[i]
        y = x
        for _ in range(4):
            y = ((y << 1) | (y >> 7)) & 0xFF
            x ^= y
        sbox[i] = x ^ 0x63
    return sbox


_SBOX = _build_sbox()


def _build_t_tables() -> list[list[int]]:
    """``Te0..Te3``: SubBytes then MixColumns of a byte in row 0..3.

    ``Te0[x]`` is the column ``(2s, s, s, 3s)`` for ``s = S[x]``, and
    ``Te1..Te3`` are its rotations right by one, two and three bytes.
    """
    te0 = [(_gf_mul(s, 2) << 24) | (s << 16) | (s << 8) | _gf_mul(s, 3) for s in _SBOX]
    rot = [[(w >> n | w << 32 - n) & 0xFFFFFFFF for w in te0] for n in (8, 16, 24)]
    return [te0] + rot


_TE = _build_t_tables()
# The last round has no MixColumns: the S-box alone, placed in row 0..3.
_SB = [[s << shift for s in _SBOX] for shift in (24, 16, 8, 0)]

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]


def _expand_key(key: bytes) -> list[tuple[int, int, int, int]]:
    """FIPS 197 KeyExpansion: each round's key as four column words."""
    nk = len(key) // 4
    words = list(struct.unpack(f">{nk}I", key))
    u0, u1, u2, u3 = _SB
    for i in range(nk, 4 * (nk + 7)):  # nk + 6 rounds, one key before them
        w = words[-1]
        if i % nk == 0:  # SubWord(RotWord(w)) XOR Rcon
            w = u0[w >> 16 & 255] ^ u1[w >> 8 & 255] ^ u2[w & 255] ^ u3[w >> 24]
            w ^= _RCON[i // nk - 1] << 24
        elif nk > 6 and i % nk == 4:  # SubWord(w)
            w = u0[w >> 24] ^ u1[w >> 16 & 255] ^ u2[w >> 8 & 255] ^ u3[w & 255]
        words.append(words[i - nk] ^ w)
    return [tuple(words[i : i + 4]) for i in range(0, len(words), 4)]


def _encrypt(round_keys, states) -> list[int]:
    """Encrypt ``(s0, s1, s2, s3)`` column-word blocks under expanded
    ``round_keys``; every output word, block after block."""
    t0, t1, t2, t3 = _TE
    u0, u1, u2, u3 = _SB
    (k0, k1, k2, k3), *inner, (f0, f1, f2, f3) = round_keys
    out: list[int] = []
    for a, b, c, d in states:
        a, b, c, d = a ^ k0, b ^ k1, c ^ k2, d ^ k3
        for r0, r1, r2, r3 in inner:
            a, b, c, d = (
                t0[a >> 24] ^ t1[b >> 16 & 255] ^ t2[c >> 8 & 255] ^ t3[d & 255] ^ r0,
                t0[b >> 24] ^ t1[c >> 16 & 255] ^ t2[d >> 8 & 255] ^ t3[a & 255] ^ r1,
                t0[c >> 24] ^ t1[d >> 16 & 255] ^ t2[a >> 8 & 255] ^ t3[b & 255] ^ r2,
                t0[d >> 24] ^ t1[a >> 16 & 255] ^ t2[b >> 8 & 255] ^ t3[c & 255] ^ r3,
            )
        # The four S-box bytes land in disjoint rows: XOR is their OR.
        out += (
            u0[a >> 24] ^ u1[b >> 16 & 255] ^ u2[c >> 8 & 255] ^ u3[d & 255] ^ f0,
            u0[b >> 24] ^ u1[c >> 16 & 255] ^ u2[d >> 8 & 255] ^ u3[a & 255] ^ f1,
            u0[c >> 24] ^ u1[d >> 16 & 255] ^ u2[a >> 8 & 255] ^ u3[b & 255] ^ f2,
            u0[d >> 24] ^ u1[a >> 16 & 255] ^ u2[b >> 8 & 255] ^ u3[c & 255] ^ f3,
        )
    return out


class AES:
    """AES with a 128- or 256-bit key (192 supported for completeness)."""

    def __init__(self, key: bytes):
        if len(key) not in (16, 24, 32):
            raise CryptoError(f"AES key must be 16/24/32 bytes, got {len(key)}")
        self._round_keys = _expand_key(key)

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt exactly one 16-byte block."""
        if len(block) != 16:
            raise CryptoError("AES block must be 16 bytes")
        return self.encrypt_blocks(block)

    def encrypt_blocks(self, blocks: bytes) -> bytes:
        """Encrypt a whole number of 16-byte blocks (ECB), in one pass."""
        if len(blocks) % 16:
            raise CryptoError("encrypt_blocks wants a multiple of 16 bytes")
        words = _encrypt(self._round_keys, struct.iter_unpack(">4I", blocks))
        return struct.pack(f">{len(words)}I", *words)

    def ctr_keystream(self, counter_block: bytes, nblocks: int) -> bytes:
        """Keystream from incrementing the last 32 bits of ``counter_block``.

        This is GCM's counter mode: the initial block is J0+1 and the 32-bit
        big-endian counter in bytes 12..16 increments per block.
        """
        if len(counter_block) != 16:
            raise CryptoError("counter block must be 16 bytes")
        p0, p1, p2, ctr0 = struct.unpack(">4I", counter_block)
        counters = ((p0, p1, p2, (ctr0 + i) & 0xFFFFFFFF) for i in range(nblocks))
        words = _encrypt(self._round_keys, counters)
        return struct.pack(f">{len(words)}I", *words)
