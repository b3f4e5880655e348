"""AES-GCM tests against NIST SP 800-38D / GCM spec test cases."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.gcm import AesGcm, gf128_mul, _build_tables, _mul_by_x
from repro.errors import AuthenticationError, CryptoError

# McGrew & Viega GCM spec test cases (AES-128).
KEY = bytes.fromhex("feffe9928665731c6d6a8f9467308308")
IV = bytes.fromhex("cafebabefacedbaddecaf888")
PT4 = bytes.fromhex(
    "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
    "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255"
)
CT4 = bytes.fromhex(
    "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
    "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985"
)
AAD = bytes.fromhex("feedfacedeadbeeffeedfacedeadbeefabaddad2")


class TestKnownVectors:
    def test_case_1_empty(self):
        g = AesGcm(bytes(16))
        out = g.seal(bytes(12), b"")
        assert out.hex() == "58e2fccefa7e3061367f1d57a4e7455a"

    def test_case_2_single_zero_block(self):
        g = AesGcm(bytes(16))
        out = g.seal(bytes(12), bytes(16))
        assert out[:16].hex() == "0388dace60b6a392f328c2b971b2fe78"
        assert out[16:].hex() == "ab6e47d42cec13bdf53a67b21257bddf"

    def test_case_3_four_blocks(self):
        g = AesGcm(KEY)
        out = g.seal(IV, PT4)
        assert out[:-16] == CT4
        assert out[-16:].hex() == "4d5c2af327cd64a62cf35abd2ba6fab4"

    def test_case_4_with_aad_partial_block(self):
        g = AesGcm(KEY)
        pt = PT4[:-4]
        out = g.seal(IV, pt, AAD)
        assert out[:-16] == CT4[:-4]
        assert out[-16:].hex() == "5bc94fbc3221a5db94fae95ae7121a47"

    def test_aes256_case(self):
        # GCM spec test case 14: AES-256, zero key/IV/plaintext.
        g = AesGcm(bytes(32))
        out = g.seal(bytes(12), bytes(16))
        assert out[:16].hex() == "cea7403d4d606b6e074ec5d3baf39d18"
        assert out[16:].hex() == "d0d1c8a799996bf0265b98b5d48ab919"


class TestAuthentication:
    def test_roundtrip(self):
        g = AesGcm(KEY)
        out = g.seal(IV, PT4, AAD)
        assert g.open(IV, out, AAD) == PT4

    def test_ciphertext_bit_flip_detected(self):
        g = AesGcm(KEY)
        out = bytearray(g.seal(IV, PT4, AAD))
        out[3] ^= 1
        with pytest.raises(AuthenticationError):
            g.open(IV, bytes(out), AAD)

    def test_tag_bit_flip_detected(self):
        g = AesGcm(KEY)
        out = bytearray(g.seal(IV, PT4))
        out[-1] ^= 0x80
        with pytest.raises(AuthenticationError):
            g.open(IV, bytes(out))

    def test_wrong_aad_detected(self):
        g = AesGcm(KEY)
        out = g.seal(IV, PT4, AAD)
        with pytest.raises(AuthenticationError):
            g.open(IV, out, AAD + b"x")

    def test_wrong_nonce_detected(self):
        g = AesGcm(KEY)
        out = g.seal(IV, PT4)
        wrong = bytes(12)
        with pytest.raises(AuthenticationError):
            g.open(wrong, out)

    def test_wrong_key_detected(self):
        out = AesGcm(KEY).seal(IV, PT4)
        with pytest.raises(AuthenticationError):
            AesGcm(bytes(16)).open(IV, out)

    def test_truncated_ciphertext_rejected(self):
        g = AesGcm(KEY)
        with pytest.raises(AuthenticationError):
            g.open(IV, b"short")

    def test_bad_nonce_size_rejected(self):
        g = AesGcm(KEY)
        with pytest.raises(CryptoError):
            g.seal(bytes(8), b"x")
        with pytest.raises(CryptoError):
            g.open(bytes(16), bytes(20))


class TestGhashInternals:
    def test_tables_match_reference_multiplication(self):
        h = 0x66E94BD4EF8A2C3B884CFA59CA342B2E
        tables = _build_tables(h)
        for x in (1, 0xDEADBEEF, (1 << 127) | 1, (1 << 128) - 1):
            via_tables = 0
            for j in range(16):
                byte = (x >> (120 - 8 * j)) & 0xFF
                via_tables ^= tables[j][byte]
            assert via_tables == gf128_mul(x, h)

    def test_tables_match_the_subset_sum_construction_and_gf128_mul(self):
        """Row by doubling against the earlier construction (each entry
        the XOR of the entry without its lowest set bit and that bit's
        monomial), byte for byte, and every entry against gf128_mul."""

        def subset_sums(h):
            monomials = [h]
            for _ in range(127):
                monomials.append(_mul_by_x(monomials[-1]))
            tables = []
            for j in range(16):
                row = [0] * 256
                for bit in range(8):  # bit 0 = MSB of the byte
                    row[0x80 >> bit] = monomials[8 * j + bit]
                for b in range(1, 256):
                    low = b & (b - 1)
                    if low:
                        row[b] = row[low] ^ row[b & -b]
                tables.append(row)
            return tables

        rng = random.Random(128)
        for trial in range(6):
            h = rng.getrandbits(128)
            tables = _build_tables(h)
            assert tables == subset_sums(h)
            if trial < 2:
                for j, row in enumerate(tables):
                    for b, entry in enumerate(row):
                        assert entry == gf128_mul(b << (120 - 8 * j), h)

    def test_gf_mul_identity(self):
        one = 1 << 127  # the field's multiplicative identity in GCM order
        for v in (1, 12345, (1 << 128) - 1):
            assert gf128_mul(v, one) == v

    def test_gf_mul_commutative(self):
        a, b = 0x123456789ABCDEF, 0xFEDCBA9876543210 << 64
        assert gf128_mul(a, b) == gf128_mul(b, a)


class TestProperties:
    @given(st.binary(min_size=0, max_size=300), st.binary(min_size=0, max_size=64))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_any_sizes(self, plaintext, aad):
        g = AesGcm(bytes(16))
        out = g.seal(IV, plaintext, aad)
        assert len(out) == len(plaintext) + 16
        assert g.open(IV, out, aad) == plaintext

    @given(st.binary(min_size=1, max_size=100), st.integers(min_value=0))
    @settings(max_examples=25, deadline=None)
    def test_any_single_bit_flip_detected(self, plaintext, bit_seed):
        g = AesGcm(bytes(16))
        out = bytearray(g.seal(IV, plaintext))
        bit = bit_seed % (len(out) * 8)
        out[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(AuthenticationError):
            g.open(IV, bytes(out))

    @given(st.binary(min_size=0, max_size=50))
    @settings(max_examples=15, deadline=None)
    def test_deterministic(self, plaintext):
        assert AesGcm(KEY).seal(IV, plaintext) == AesGcm(KEY).seal(IV, plaintext)
