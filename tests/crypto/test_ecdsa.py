"""ECDSA tests: RFC 6979 deterministic vectors, sign/verify, tampering."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import ec, ecdh
from repro.crypto.ec import ECPoint, INFINITY, N, P256
from repro.crypto.ecdh import EcdhKeyPair
from repro.crypto.ecdsa import EcdsaKeyPair, ecdsa_sign, ecdsa_verify
from repro.errors import AuthenticationError, CryptoError

# RFC 6979 appendix A.2.5, curve P-256 with SHA-256.
RFC6979_KEY = 0xC9AFA9D845BA75166B5C215767B1D6934E50C3DB36E89B127B8A622B120F6721
RFC6979_SAMPLE_R = 0xEFD48B2AACB6A8FD1140DD9CD45E81D69D2C877B56AAF991C34D0EA84EAF3716
RFC6979_SAMPLE_S = 0xF7CB1C942D657C41D436C7A1B6E29F65F3E900DBB9AFF4064DC4AB2F843ACDA8
RFC6979_TEST_R = 0xF1ABB023518351CD71D881567B1EA663ED3EFCF6C5132B354F28D3B0B7D38367
RFC6979_TEST_S = 0x019F4113742A2B14BD25926B49C649155F267E60D3814B4C0CC84250E46F0083
RFC6979_UX = 0x60FED4BA255A9D31C961EB74C6356D68C049B8923B61FA6CE669622E60F29FB6
RFC6979_UY = 0x7903FE1008B8BC99A41AE9E95628BC64F2F1B20C2D7E9F5177A3C294D4462299
RFC6979_SIGNATURES = {
    b"sample": (RFC6979_SAMPLE_R, RFC6979_SAMPLE_S),
    b"test": (RFC6979_TEST_R, RFC6979_TEST_S),
}

# RFC 5903 section 8.1, 256-bit random ECP group: initiator i, responder r.
RFC5903_I = 0xC88F01F510D9AC3F70A292DAA2316DE544E9AAB8AFE84049C62A9C57862D1433
RFC5903_GI_X = 0xDAD0B65394221CF9B051E1FECA5787D098DFE637FC90B9EF945D0C3772581180
RFC5903_GI_Y = 0x5271A0461CDB8252D61F1C456FA3E59AB1F45B33ACCF5F58389E0577B8990BB3
RFC5903_R = 0xC6EF9C5D78AE012A011164ACB397CE2088685D8F06BF9BE0B283AB46476BEE53
RFC5903_GR_X = 0xD12DFB5289C8D4F81208B70270398C342296970A0BCCB74C736FC7554494BF63
RFC5903_GR_Y = 0x56FBF3CA366CC23E8157854C13C58D6AAC23F046ADA30F8353E74F33039872AB
RFC5903_GIR_X = 0xD6840F6B42F6EDAFD13116E0E12565202FEF8E9ECE7DCE03812464D04B9442DE


class TestRfc6979Vectors:
    def test_sample_message(self):
        sig = ecdsa_sign(RFC6979_KEY, b"sample")
        assert int.from_bytes(sig[:32], "big") == RFC6979_SAMPLE_R
        assert int.from_bytes(sig[32:], "big") == RFC6979_SAMPLE_S

    def test_test_message(self):
        sig = ecdsa_sign(RFC6979_KEY, b"test")
        assert int.from_bytes(sig[:32], "big") == RFC6979_TEST_R
        assert int.from_bytes(sig[32:], "big") == RFC6979_TEST_S

    def test_vectors_verify(self):
        public = P256.scalar_mult(RFC6979_KEY)
        ecdsa_verify(public, b"sample", ecdsa_sign(RFC6979_KEY, b"sample"))

    def test_public_key(self):
        assert P256.scalar_mult(RFC6979_KEY) == ECPoint(RFC6979_UX, RFC6979_UY)

    def test_published_signatures_verify_with_and_without_a_table(self, monkeypatch):
        # The RFC's own (r, s), not ours: first under a key never seen (the
        # wNAF ladder), then over and over under its comb table.
        monkeypatch.setattr(ec, "_key_tables", {})
        public = ECPoint(RFC6979_UX, RFC6979_UY)
        paths = []
        for _ in range(3):
            for message, (r, s) in RFC6979_SIGNATURES.items():
                paths.append(ec._key_tables.get((public.x, public.y)) is not None)
                signature = r.to_bytes(32, "big") + s.to_bytes(32, "big")
                ecdsa_verify(public, message, signature)
                forged = r.to_bytes(32, "big") + (s ^ 1).to_bytes(32, "big")
                with pytest.raises(AuthenticationError):
                    ecdsa_verify(public, message, forged)
        # The forgery is a sighting too: the table exists from the second
        # call on, so only the very first genuine verify ran without one.
        assert paths == [False] + [True] * 5


class TestSignVerify:
    def test_roundtrip(self):
        kp = EcdsaKeyPair.generate(random.Random(0))
        sig = kp.sign(b"hello world")
        kp.verify(b"hello world", sig)

    def test_deterministic_signatures(self):
        kp = EcdsaKeyPair.generate(random.Random(0))
        assert kp.sign(b"msg") == kp.sign(b"msg")

    def test_message_tamper_detected(self):
        kp = EcdsaKeyPair.generate(random.Random(0))
        sig = kp.sign(b"original")
        with pytest.raises(AuthenticationError):
            kp.verify(b"OriginaL", sig)

    def test_signature_tamper_detected(self):
        kp = EcdsaKeyPair.generate(random.Random(0))
        sig = bytearray(kp.sign(b"m"))
        sig[10] ^= 1
        with pytest.raises(AuthenticationError):
            kp.verify(b"m", bytes(sig))

    def test_wrong_key_detected(self):
        signer = EcdsaKeyPair.generate(random.Random(0))
        other = EcdsaKeyPair.generate(random.Random(1))
        with pytest.raises(AuthenticationError):
            other.verify(b"m", signer.sign(b"m"))

    def test_bad_signature_length_rejected(self):
        kp = EcdsaKeyPair.generate(random.Random(0))
        with pytest.raises(AuthenticationError):
            kp.verify(b"m", b"short")

    def test_out_of_range_values_rejected(self):
        kp = EcdsaKeyPair.generate(random.Random(0))
        bad = N.to_bytes(32, "big") + (1).to_bytes(32, "big")
        with pytest.raises(AuthenticationError):
            kp.verify(b"m", bad)

    def test_zero_r_rejected(self):
        kp = EcdsaKeyPair.generate(random.Random(0))
        bad = bytes(32) + (1).to_bytes(32, "big")
        with pytest.raises(AuthenticationError):
            kp.verify(b"m", bad)

    def test_negated_key_rejected(self):
        kp = EcdsaKeyPair.generate(random.Random(0))
        sig = kp.sign(b"m")
        kp.verify(b"m", sig)
        with pytest.raises(AuthenticationError):
            ecdsa_verify(P256.negate(kp.public), b"m", sig)

    @pytest.mark.parametrize(
        "public", [INFINITY, ECPoint(5, 7)], ids=["infinity", "off-curve"]
    )
    def test_invalid_key_rejected(self, public):
        sig = EcdsaKeyPair.generate(random.Random(0)).sign(b"m")
        with pytest.raises(CryptoError):
            ecdsa_verify(public, b"m", sig)

    @given(st.binary(min_size=0, max_size=200))
    @settings(max_examples=10, deadline=None)
    def test_roundtrip_property(self, message):
        kp = EcdsaKeyPair.generate(random.Random(7))
        kp.verify(message, kp.sign(message))


class TestOperationBudget:
    """What a verification costs, counted in curve operations -- never in
    wall-clock, which this suite does not assert on."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"double": 0, "add": 0}
        double, add_affine = ec._double, ec._add_affine

        def counted_double(*args):
            counts["double"] += 1
            return double(*args)

        def counted_add(*args):
            counts["add"] += 1
            return add_affine(*args)

        monkeypatch.setattr(ec, "_key_tables", {})
        monkeypatch.setattr(ec, "_double", counted_double)
        monkeypatch.setattr(ec, "_add_affine", counted_add)
        return counts

    def test_warmed_verify_is_one_32_doubling_ladder(self, counts):
        rng = random.Random(31)
        kp = EcdsaKeyPair.generate(rng)
        messages = [rng.randbytes(40) for _ in range(12)]
        signatures = [kp.sign(m) for m in messages]

        counts.update(double=0, add=0)
        kp.verify(messages[0], signatures[0])  # first sighting: a wNAF ladder
        assert counts["double"] > 256

        kp.verify(messages[1], signatures[1])  # second: builds the table
        for message, signature in zip(messages[2:], signatures[2:]):
            counts.update(double=0, add=0)
            kp.verify(message, signature)
            # + 1: an addition that meets its own operand doubles instead.
            assert counts["double"] <= 32 + 1
            assert counts["add"] <= 64
            assert counts["add"] >= 48  # ... and it is a full double ladder

    def test_key_generation_and_signing_budget(self, counts):
        kp = EcdsaKeyPair.generate(random.Random(32))
        counts.update(double=0, add=0)
        kp.sign(b"budget")
        assert counts["double"] <= 32 + 1 and counts["add"] <= 32


class TestEcdh:
    def test_shared_secret_agreement(self, monkeypatch):
        rng = random.Random(3)
        a = EcdhKeyPair.generate(rng)
        b = EcdhKeyPair.generate(rng)
        ladders = []
        real = ec._wnaf_mult

        def ladder(k, px, py):
            ladders.append(k)
            return real(k, px, py)

        monkeypatch.setattr(ec, "_wnaf_mult", ladder)
        monkeypatch.setattr(ecdh, "_agreed", {})
        # b's share was generated here: one comb on a.private * b.private.
        by_comb = a.shared_secret(b.public)
        assert ladders == []
        # Both tables empty, so the other half is the full k*Q ladder, not
        # a read of the first half's result.
        monkeypatch.setattr(ecdh, "_agreed", {})
        monkeypatch.setattr(ecdh, "_generated", {})
        assert by_comb == b.shared_secret(a.public)
        assert ladders == [b.private]

    def test_secret_is_32_bytes(self):
        rng = random.Random(3)
        a, b = EcdhKeyPair.generate(rng), EcdhKeyPair.generate(rng)
        assert len(a.shared_secret(b.public)) == 32

    def test_different_pairs_different_secrets(self):
        rng = random.Random(3)
        a, b, c = (EcdhKeyPair.generate(rng) for _ in range(3))
        assert a.shared_secret(b.public) != a.shared_secret(c.public)

    def test_rfc5903_known_answer(self, monkeypatch):
        initiator = EcdhKeyPair(RFC5903_I, P256.scalar_mult(RFC5903_I))
        responder = EcdhKeyPair(RFC5903_R, P256.scalar_mult(RFC5903_R))
        assert initiator.public == ECPoint(RFC5903_GI_X, RFC5903_GI_Y)
        assert responder.public == ECPoint(RFC5903_GR_X, RFC5903_GR_Y)
        secret = RFC5903_GIR_X.to_bytes(32, "big")
        monkeypatch.setattr(ecdh, "_agreed", {})
        assert initiator.shared_secret(responder.public) == secret
        monkeypatch.setattr(ecdh, "_agreed", {})  # both halves in full
        assert responder.shared_secret(initiator.public) == secret

    def test_invalid_peer_share_rejected(self):
        a = EcdhKeyPair.generate(random.Random(3))
        with pytest.raises(CryptoError):
            a.shared_secret(INFINITY)
        with pytest.raises(CryptoError):
            a.shared_secret(ECPoint(5, 7))  # off-curve (invalid-curve attack)

    def test_deterministic_from_seed(self):
        assert (
            EcdhKeyPair.generate(random.Random(9)).private
            == EcdhKeyPair.generate(random.Random(9)).private
        )
