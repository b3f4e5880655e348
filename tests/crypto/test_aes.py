"""AES block cipher tests against FIPS 197 vectors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import aes as aes_module
from repro.crypto.aes import AES
from repro.errors import CryptoError

PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")

# FIPS 197 appendix C vectors.
FIPS_VECTORS = [
    ("000102030405060708090a0b0c0d0e0f", "69c4e0d86a7b0430d8cdb78070b4c55a"),
    ("000102030405060708090a0b0c0d0e0f1011121314151617", "dda97ca4864cdfe06eaf70a0ec0d7191"),
    (
        "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
        "8ea2b7ca516745bfeafc49904b496089",
    ),
]


# FIPS 197 figure 7: the S-box, row by row (high nibble), column by low nibble.
FIPS_SBOX = bytes.fromhex(
    "637c777bf26b6fc53001672bfed7ab76" "ca82c97dfa5947f0add4a2af9ca472c0"
    "b7fd9326363ff7cc34a5e5f171d83115" "04c723c31896059a071280e2eb27b275"
    "09832c1a1b6e5aa0523bd6b329e32f84" "53d100ed20fcb15b6acbbe394a4c58cf"
    "d0efaafb434d338545f9027f503c9fa8" "51a3408f929d38f5bcb6da2110fff3d2"
    "cd0c13ec5f974417c4a77e3d645d1973" "60814fdc222a908846eeb814de5e0bdb"
    "e0323a0a4906245cc2d3ac629195e479" "e7c8376d8dd54ea96c56f4ea657aae08"
    "ba78252e1ca6b4c6e8dd741f4bbd8b8a" "703eb5664803f60e613557b986c11d9e"
    "e1f8981169d98e949b1e87e9ce5528df" "8ca1890dbfe6426841992d0fb054bb16"
)


def test_sbox_matches_fips197():
    sbox = aes_module._build_sbox()
    assert bytes(sbox) == FIPS_SBOX
    assert sorted(sbox) == list(range(256))
    assert aes_module._SBOX == sbox


class TestKnownVectors:
    @pytest.mark.parametrize("key_hex,ct_hex", FIPS_VECTORS)
    def test_fips197_encrypt(self, key_hex, ct_hex):
        aes = AES(bytes.fromhex(key_hex))
        assert aes.encrypt_block(PLAINTEXT).hex() == ct_hex

    def test_aes128_sp800_38a_vector(self):
        # NIST SP 800-38A F.1.1 ECB-AES128 block 1.
        aes = AES(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))
        ct = aes.encrypt_block(bytes.fromhex("6bc1bee22e409f96e93d7e117393172a"))
        assert ct.hex() == "3ad77bb40d7a3660a89ecaf32466ef97"


class TestInterface:
    def test_bad_key_length_rejected(self):
        with pytest.raises(CryptoError):
            AES(b"short")

    def test_bad_block_length_rejected(self):
        aes = AES(bytes(16))
        with pytest.raises(CryptoError):
            aes.encrypt_block(b"tiny")

    def test_vectorised_matches_scalar(self):
        aes = AES(bytes(range(16)))
        blocks = np.frombuffer(bytes(range(48)), dtype=np.uint8).reshape(3, 16).copy()
        out = aes.encrypt_blocks(blocks)
        for i in range(3):
            assert bytes(out[i]) == aes.encrypt_block(bytes(blocks[i]))

    def test_encrypt_blocks_shape_check(self):
        aes = AES(bytes(16))
        with pytest.raises(CryptoError):
            aes.encrypt_blocks(np.zeros((3, 8), dtype=np.uint8))


class TestCtrKeystream:
    def test_counter_increments_per_block(self):
        aes = AES(bytes(16))
        counter = bytes(12) + (5).to_bytes(4, "big")
        two = aes.ctr_keystream(counter, 2)
        b0 = aes.encrypt_block(bytes(12) + (5).to_bytes(4, "big"))
        b1 = aes.encrypt_block(bytes(12) + (6).to_bytes(4, "big"))
        assert two == b0 + b1

    def test_counter_wraps_32_bits(self):
        aes = AES(bytes(16))
        counter = bytes(12) + (0xFFFFFFFF).to_bytes(4, "big")
        two = aes.ctr_keystream(counter, 2)
        wrapped = aes.encrypt_block(bytes(12) + (0).to_bytes(4, "big"))
        assert two[16:] == wrapped

    def test_zero_blocks(self):
        assert AES(bytes(16)).ctr_keystream(bytes(16), 0) == b""

    def test_bad_counter_length(self):
        with pytest.raises(CryptoError):
            AES(bytes(16)).ctr_keystream(bytes(8), 1)


class TestRoundTripProperties:
    @given(st.binary(min_size=16, max_size=16))
    @settings(max_examples=20, deadline=None)
    def test_different_keys_differ(self, block):
        a = AES(b"\x00" * 16).encrypt_block(block)
        b = AES(b"\x01" * 16).encrypt_block(block)
        assert a != b
