"""Certificate and CA tests."""

import random

import pytest

from repro.crypto.ca import CertificateAuthority
from repro.crypto.cert import (
    KEY_ALG_ECDSA,
    KEY_ALG_RSA,
    Certificate,
    CertificateChain,
)
from repro.crypto.ecdsa import EcdsaKeyPair
from repro.errors import AuthenticationError, ProtocolError


@pytest.fixture()
def rng():
    return random.Random(11)


@pytest.fixture()
def ca(rng):
    return CertificateAuthority("root-ca", rng)


@pytest.fixture()
def leaf_key(rng):
    return EcdsaKeyPair.generate(rng)


class TestIssue:
    def test_root_is_self_signed(self, ca):
        ca.certificate.verify_signed_by(ca.certificate)
        assert ca.certificate.is_ca

    def test_issue_and_verify_leaf(self, ca, leaf_key):
        leaf = ca.issue("server", KEY_ALG_ECDSA, leaf_key.public_bytes())
        leaf.verify_signed_by(ca.certificate)
        assert not leaf.is_ca
        assert leaf.subject == "server"

    def test_serials_unique(self, ca, leaf_key):
        a = ca.issue("a", KEY_ALG_ECDSA, leaf_key.public_bytes())
        b = ca.issue("b", KEY_ALG_ECDSA, leaf_key.public_bytes())
        assert a.serial != b.serial

    def test_rsa_ca(self, rng, leaf_key):
        rsa_ca = CertificateAuthority("rsa-root", rng, key_alg=KEY_ALG_RSA, rsa_bits=1024)
        leaf = rsa_ca.issue("server", KEY_ALG_ECDSA, leaf_key.public_bytes())
        leaf.verify_signed_by(rsa_ca.certificate)


class TestEncoding:
    def test_roundtrip(self, ca, leaf_key):
        leaf = ca.issue("server", KEY_ALG_ECDSA, leaf_key.public_bytes())
        assert Certificate.decode(leaf.encode()) == leaf

    def test_bad_magic_rejected(self):
        with pytest.raises(ProtocolError):
            Certificate.decode(b"NOTACERT" + bytes(40))

    def test_trailing_bytes_rejected(self, ca, leaf_key):
        leaf = ca.issue("server", KEY_ALG_ECDSA, leaf_key.public_bytes())
        with pytest.raises(ProtocolError):
            Certificate.decode(leaf.encode() + b"\x00")

    def test_chain_roundtrip(self, ca, rng, leaf_key):
        inter = ca.new_intermediate("inter")
        leaf = inter.issue("server", KEY_ALG_ECDSA, leaf_key.public_bytes())
        chain = inter.chain_for(leaf)
        decoded = CertificateChain.decode(chain.encode())
        assert decoded == chain


class TestChainVerification:
    def test_direct_chain(self, ca, leaf_key):
        leaf = ca.issue("server", KEY_ALG_ECDSA, leaf_key.public_bytes())
        chain = ca.chain_for(leaf)
        assert len(chain) == 1  # "short certificate chain" configuration
        assert chain.verify([ca.certificate], now=1.0).subject == "server"

    def test_intermediate_chain(self, ca, leaf_key):
        inter = ca.new_intermediate("inter")
        leaf = inter.issue("server", KEY_ALG_ECDSA, leaf_key.public_bytes())
        chain = inter.chain_for(leaf)
        assert len(chain) == 2
        chain.verify([ca.certificate], now=1.0)

    def test_two_intermediates(self, ca, leaf_key):
        i1 = ca.new_intermediate("i1")
        i2 = i1.new_intermediate("i2")
        leaf = i2.issue("server", KEY_ALG_ECDSA, leaf_key.public_bytes())
        chain = i2.chain_for(leaf)
        assert len(chain) == 3
        chain.verify([ca.certificate], now=1.0)

    def test_untrusted_root_rejected(self, ca, rng, leaf_key):
        other = CertificateAuthority("other-root", rng)
        leaf = ca.issue("server", KEY_ALG_ECDSA, leaf_key.public_bytes())
        with pytest.raises(AuthenticationError):
            ca.chain_for(leaf).verify([other.certificate], now=1.0)

    def test_expired_certificate_rejected(self, ca, leaf_key):
        import dataclasses

        issued = ca.issue("server", KEY_ALG_ECDSA, leaf_key.public_bytes())
        short = dataclasses.replace(issued, not_after=10.0)
        leaf = short.with_signature(ca.sign(short.tbs_bytes()))
        with pytest.raises(AuthenticationError):
            ca.chain_for(leaf).verify([ca.certificate], now=100.0)

    def test_not_yet_valid_rejected(self, ca, leaf_key):
        leaf = ca.issue("server", KEY_ALG_ECDSA, leaf_key.public_bytes(), now=50.0)
        with pytest.raises(AuthenticationError):
            ca.chain_for(leaf).verify([ca.certificate], now=1.0)

    def test_tampered_subject_rejected(self, ca, leaf_key):
        import dataclasses

        leaf = ca.issue("server", KEY_ALG_ECDSA, leaf_key.public_bytes())
        forged = dataclasses.replace(leaf, subject="attacker")
        with pytest.raises(AuthenticationError):
            CertificateChain((forged,)).verify([ca.certificate], now=1.0)

    def test_non_ca_cannot_issue(self, ca, rng, leaf_key):
        # A leaf certificate (is_ca=False) used as an intermediate.
        impostor_key = EcdsaKeyPair.generate(rng)
        impostor = ca.issue("impostor", KEY_ALG_ECDSA, impostor_key.public_bytes())
        forged_leaf = Certificate(
            subject="server",
            issuer="impostor",
            key_alg=KEY_ALG_ECDSA,
            public_key=leaf_key.public_bytes(),
            serial=1,
            not_before=0.0,
            not_after=1e9,
            is_ca=False,
        ).with_signature(impostor_key.sign(b""))
        forged_leaf = forged_leaf.with_signature(
            impostor_key.sign(forged_leaf.tbs_bytes())
        )
        chain = CertificateChain((forged_leaf, impostor))
        with pytest.raises(AuthenticationError):
            chain.verify([ca.certificate], now=1.0)

    def test_empty_chain_rejected(self):
        with pytest.raises(ProtocolError):
            CertificateChain(())
