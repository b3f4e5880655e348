"""AES block cipher (FIPS 197), implemented from scratch.

Two code paths share one key schedule:

- a scalar path (``encrypt_block``) for single blocks and test vectors, and
- a numpy-vectorised path (``encrypt_blocks``) that encrypts many blocks in
  one call, which is what makes CTR/GCM bulk encryption affordable in pure
  Python.

There is no inverse cipher: GCM (the only mode the TLS layer uses) runs
the forward cipher both ways.
"""

from __future__ import annotations

import numpy as np

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

# Vectorised lookup tables.
_NP_SBOX = np.array(_SBOX, dtype=np.uint8)
_NP_MUL2 = np.array([_gf_mul(i, 2) for i in range(256)], dtype=np.uint8)
_NP_MUL3 = np.array([_gf_mul(i, 3) for i in range(256)], dtype=np.uint8)

# ShiftRows permutation of the 16-byte state laid out column-major
# (FIPS 197 arranges bytes into a 4x4 state column by column).
_SHIFT_ROWS = np.array(
    [0, 5, 10, 15, 4, 9, 14, 3, 8, 13, 2, 7, 12, 1, 6, 11], dtype=np.intp
)

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36, 0x6C, 0xD8]


class AES:
    """AES with a 128- or 256-bit key (192 supported for completeness)."""

    def __init__(self, key: bytes):
        if len(key) not in (16, 24, 32):
            raise CryptoError(f"AES key must be 16/24/32 bytes, got {len(key)}")
        self.key_size = len(key)
        self.rounds = {16: 10, 24: 12, 32: 14}[len(key)]
        self._round_keys = self._expand_key(key)
        # Round keys as a (rounds+1, 16) uint8 matrix for the numpy path.
        self._np_round_keys = np.array(
            [list(rk) for rk in self._round_keys], dtype=np.uint8
        )

    # -- key schedule --------------------------------------------------------

    def _expand_key(self, key: bytes) -> list[bytes]:
        nk = len(key) // 4
        nr = self.rounds
        words = [list(key[4 * i : 4 * i + 4]) for i in range(nk)]
        for i in range(nk, 4 * (nr + 1)):
            temp = list(words[i - 1])
            if i % nk == 0:
                temp = temp[1:] + temp[:1]  # RotWord
                temp = [_SBOX[b] for b in temp]  # SubWord
                temp[0] ^= _RCON[i // nk - 1]
            elif nk > 6 and i % nk == 4:
                temp = [_SBOX[b] for b in temp]
            words.append([words[i - nk][j] ^ temp[j] for j in range(4)])
        round_keys = []
        for r in range(nr + 1):
            rk = bytes(b for w in words[4 * r : 4 * r + 4] for b in w)
            round_keys.append(rk)
        return round_keys

    # -- scalar path ---------------------------------------------------------

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt exactly one 16-byte block."""
        if len(block) != 16:
            raise CryptoError("AES block must be 16 bytes")
        return bytes(self.encrypt_blocks(np.frombuffer(block, dtype=np.uint8).reshape(1, 16))[0])

    # -- vectorised path -----------------------------------------------------

    def encrypt_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """Encrypt an (n, 16) uint8 array of blocks in one vectorised pass."""
        if blocks.ndim != 2 or blocks.shape[1] != 16 or blocks.dtype != np.uint8:
            raise CryptoError("encrypt_blocks wants an (n, 16) uint8 array")
        state = blocks ^ self._np_round_keys[0]
        for rnd in range(1, self.rounds):
            state = _NP_SBOX[state]  # SubBytes
            state = state[:, _SHIFT_ROWS]  # ShiftRows
            state = self._np_mix_columns(state)  # MixColumns
            state ^= self._np_round_keys[rnd]
        state = _NP_SBOX[state]
        state = state[:, _SHIFT_ROWS]
        state ^= self._np_round_keys[self.rounds]
        return state

    @staticmethod
    def _np_mix_columns(state: np.ndarray) -> np.ndarray:
        s = state.reshape(-1, 4, 4)  # columns on axis 1
        a0, a1, a2, a3 = s[:, :, 0], s[:, :, 1], s[:, :, 2], s[:, :, 3]
        out = np.empty_like(s)
        out[:, :, 0] = _NP_MUL2[a0] ^ _NP_MUL3[a1] ^ a2 ^ a3
        out[:, :, 1] = a0 ^ _NP_MUL2[a1] ^ _NP_MUL3[a2] ^ a3
        out[:, :, 2] = a0 ^ a1 ^ _NP_MUL2[a2] ^ _NP_MUL3[a3]
        out[:, :, 3] = _NP_MUL3[a0] ^ a1 ^ a2 ^ _NP_MUL2[a3]
        return out.reshape(-1, 16)

    # -- CTR keystream (used by GCM) ------------------------------------------

    def ctr_keystream(self, counter_block: bytes, nblocks: int) -> bytes:
        """Keystream from incrementing the last 32 bits of ``counter_block``.

        This is GCM's counter mode: the initial block is J0+1 and the 32-bit
        big-endian counter in bytes 12..16 increments per block.
        """
        if len(counter_block) != 16:
            raise CryptoError("counter block must be 16 bytes")
        if nblocks <= 0:
            return b""
        prefix = np.frombuffer(counter_block[:12], dtype=np.uint8)
        ctr0 = int.from_bytes(counter_block[12:], "big")
        counters = (ctr0 + np.arange(nblocks, dtype=np.uint64)) % (1 << 32)
        blocks = np.empty((nblocks, 16), dtype=np.uint8)
        blocks[:, :12] = prefix
        blocks[:, 12] = (counters >> np.uint64(24)).astype(np.uint8)
        blocks[:, 13] = (counters >> np.uint64(16)).astype(np.uint8)
        blocks[:, 14] = (counters >> np.uint64(8)).astype(np.uint8)
        blocks[:, 15] = counters.astype(np.uint8)
        return self.encrypt_blocks(blocks).tobytes()
