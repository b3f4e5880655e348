"""The memo of verified (key, message, signature) triples in verify_with_key.

Every test starts from an empty memo and counts the real verifications
that run under it: a hit must need all four inputs byte-identical, a
failure must never be filed, and the checks outside the memo (validity,
trust roots, issuer linkage) must run every time.
"""

import dataclasses
import random

import pytest

from repro.core.endpoint import SmtEndpoint
from repro.core.zero_rtt import ZeroRttServer
from repro.crypto import cert
from repro.crypto.ca import CertificateAuthority
from repro.crypto.cert import KEY_ALG_ECDSA, KEY_ALG_RSA, verify_with_key
from repro.crypto.ecdsa import EcdsaKeyPair
from repro.crypto.rsa import RsaKeyPair
from repro.ctrl.rotation import TicketCache
from repro.dns.resolver import InternalDns
from repro.errors import AuthenticationError, CryptoError, ProtocolError
from repro.testbed import Testbed
from repro.tls.handshake import HandshakeConfig, ServerCredentials


@pytest.fixture()
def ecdsa_calls(monkeypatch):
    """An empty memo; returns the (public key, message, signature) list of
    every ECDSA verification that really runs."""
    monkeypatch.setattr(cert, "_verified", {})
    calls = []
    real = cert.ecdsa_verify

    def counted(public, message, signature):
        calls.append((public.encode(), bytes(message), bytes(signature)))
        real(public, message, signature)

    monkeypatch.setattr(cert, "ecdsa_verify", counted)
    return calls


@pytest.fixture(scope="module")
def key():
    return EcdsaKeyPair.generate(random.Random(5))


def test_the_bound_is_256():
    assert cert._VERIFIED_MAX == 256


def test_a_repeat_is_one_verification(ecdsa_calls, key):
    signature = key.sign(b"m")
    for _ in range(3):
        verify_with_key(KEY_ALG_ECDSA, key.public_bytes(), b"m", signature)
    assert len(ecdsa_calls) == 1
    assert len(cert._verified) == 1


def test_a_hit_needs_all_four_inputs_identical(ecdsa_calls, key):
    pub, signature = key.public_bytes(), key.sign(b"m")
    other = EcdsaKeyPair.generate(random.Random(6)).public_bytes()
    verify_with_key(KEY_ALG_ECDSA, pub, b"m", signature)
    flipped = bytes([signature[0] ^ 1]) + signature[1:]
    for changed in (
        (KEY_ALG_ECDSA, other, b"m", signature),
        (KEY_ALG_ECDSA, pub, b"n", signature),
        (KEY_ALG_ECDSA, pub, b"m", flipped),
    ):
        with pytest.raises(AuthenticationError):
            verify_with_key(*changed)
    assert len(ecdsa_calls) == 4
    # The key algorithm is part of the key: the RSA path parses the
    # ECDSA point and fails.
    with pytest.raises((CryptoError, ProtocolError)):
        verify_with_key(KEY_ALG_RSA, pub, b"m", signature)
    assert len(cert._verified) == 1


def test_inputs_are_compared_as_bytes(ecdsa_calls, key):
    signature = key.sign(b"m")
    verify_with_key(KEY_ALG_ECDSA, key.public_bytes(), b"m", signature)
    verify_with_key(
        KEY_ALG_ECDSA, bytearray(key.public_bytes()), memoryview(b"m"),
        bytearray(signature),
    )
    assert len(ecdsa_calls) == 1


def test_a_forgery_raises_every_time_and_is_never_filed(ecdsa_calls, key):
    forged = key.sign(b"other message")
    for attempt in range(1, 4):
        with pytest.raises(AuthenticationError):
            verify_with_key(KEY_ALG_ECDSA, key.public_bytes(), b"m", forged)
        assert len(ecdsa_calls) == attempt
    assert cert._verified == {}


def test_the_least_recently_used_entry_goes_first(ecdsa_calls, key, monkeypatch):
    monkeypatch.setattr(cert, "_VERIFIED_MAX", 3)
    pub = key.public_bytes()
    signed = {m: key.sign(m) for m in (b"a", b"b", b"c", b"d")}

    def verify(m):
        verify_with_key(KEY_ALG_ECDSA, pub, m, signed[m])

    for m in (b"a", b"b", b"c"):
        verify(m)
    verify(b"a")  # a hit moves a to the newest end: b is now the oldest
    assert len(ecdsa_calls) == 3
    verify(b"d")  # full: b goes
    assert len(cert._verified) == 3
    assert [k[2] for k in cert._verified] == [b"c", b"a", b"d"]
    verify(b"a")  # hit: c is now the oldest
    assert len(ecdsa_calls) == 4
    verify(b"b")  # evicted earlier, so a miss; c goes
    assert len(ecdsa_calls) == 5
    assert [k[2] for k in cert._verified] == [b"d", b"a", b"b"]


def test_the_rsa_path_is_memoised_too(monkeypatch):
    monkeypatch.setattr(cert, "_verified", {})
    calls = []
    real = RsaKeyPair.verify

    def counted(self, message, signature):
        calls.append(message)
        real(self, message, signature)

    monkeypatch.setattr(RsaKeyPair, "verify", counted)
    rsa_ca = CertificateAuthority("rsa-root", random.Random(7), KEY_ALG_RSA,
                                  rsa_bits=1024)
    leaf_key = EcdsaKeyPair.generate(random.Random(8))
    leaf = rsa_ca.issue("server", KEY_ALG_ECDSA, leaf_key.public_bytes())
    leaf.verify_signed_by(rsa_ca.certificate)
    leaf.verify_signed_by(rsa_ca.certificate)
    assert len(calls) == 1
    forged = leaf.with_signature(bytes(len(leaf.signature)))
    for attempt in (2, 3):
        with pytest.raises(AuthenticationError):
            forged.verify_signed_by(rsa_ca.certificate)
        assert len(calls) == attempt
    assert len(cert._verified) == 1


class TestChecksOutsideTheMemo:
    @pytest.fixture()
    def pki(self):
        rng = random.Random(9)
        ca = CertificateAuthority("dc-root", rng)
        leaf_key = EcdsaKeyPair.generate(rng)
        issued = ca.issue("server", KEY_ALG_ECDSA, leaf_key.public_bytes())
        short = dataclasses.replace(issued, not_after=10.0)  # a 10 s leaf
        leaf = short.with_signature(ca.sign(short.tbs_bytes()))
        return ca, ca.chain_for(leaf)

    def test_an_expired_chain_fails_after_its_signature_is_memoised(
        self, ecdsa_calls, pki
    ):
        ca, chain = pki
        chain.verify((ca.certificate,), now=1.0)
        with pytest.raises(AuthenticationError, match="validity window"):
            chain.verify((ca.certificate,), now=11.0)
        assert len(ecdsa_calls) == 1

    def test_wrong_trust_roots_fail_after_the_signature_is_memoised(
        self, ecdsa_calls, pki
    ):
        ca, chain = pki
        chain.verify((ca.certificate,), now=1.0)
        stranger = CertificateAuthority("other-root", random.Random(10))
        with pytest.raises(AuthenticationError, match="no trust root"):
            chain.verify((stranger.certificate,), now=1.0)
        # A root of the same name but another key: its own verification
        # runs and fails.
        impostor = CertificateAuthority("dc-root", random.Random(11))
        with pytest.raises(AuthenticationError):
            chain.verify((impostor.certificate,), now=1.0)
        assert len(ecdsa_calls) == 2

    def test_an_expired_ticket_fails_after_its_signature_is_memoised(
        self, ecdsa_calls, pki
    ):
        ca, chain = pki
        server_key = EcdsaKeyPair.generate(random.Random(12))
        leaf = ca.issue("server", KEY_ALG_ECDSA, server_key.public_bytes())
        zserver = ZeroRttServer("server", ca.chain_for(leaf), server_key,
                                random.Random(13), lifetime=1.0)
        ticket = zserver.rotate(now=0.0)
        ticket.verify((ca.certificate,), now=0.5)
        with pytest.raises(AuthenticationError, match="expired"):
            ticket.verify((ca.certificate,), now=1.5)
        assert len(ecdsa_calls) == 2


def test_handshakes_verify_each_distinct_triple_once(ecdsa_calls):
    """k 0-RTT connects on one cached ticket plus two 1-RTT connects: one
    real verification per distinct (key, message, signature) triple."""
    k = 3
    rng = random.Random(1)
    ca = CertificateAuthority("dc-root", rng)
    server_key = EcdsaKeyPair.generate(rng)
    leaf = ca.issue("server", KEY_ALG_ECDSA, server_key.public_bytes())
    chain, roots = ca.chain_for(leaf), (ca.certificate,)
    bed = Testbed.back_to_back()
    sep = SmtEndpoint(bed.server, 7000)
    zserver = ZeroRttServer("server", chain, server_key, random.Random(2))
    dns = InternalDns()
    dns.publish("server", zserver.rotate(now=0.0), now=0.0)
    sep.serve_zero_rtt(bed.server.app_thread(0), zserver)
    sep.listen(
        bed.server.app_thread(0),
        ServerCredentials(chain=chain, signing_key=server_key),
        lambda: HandshakeConfig(rng=random.Random(3), trust_roots=roots),
    )
    cache = TicketCache(dns, roots)
    cep = SmtEndpoint(bed.client, bed.client.alloc_port())

    def client():
        thread = bed.client.app_thread(0)
        for i in range(k):
            ticket = yield from cache.get("server", bed.loop)
            yield from cep.connect_zero_rtt(
                thread, bed.server.addr, 7000, ticket, roots,
                rng=random.Random(40 + i),
            )
        for i in range(2):
            yield from cep.connect(
                thread, bed.server.addr, 7000,
                HandshakeConfig(rng=random.Random(50 + i), server_name="server",
                                trust_roots=roots),
            )

    done = bed.loop.process(client())
    bed.loop.run(until=1.0)
    assert done.triggered and done.ok, getattr(done, "value", None)
    assert cache.refreshes == 1 and cache.hits == k - 1
    assert sep.handshakes_rejected == 0
    # The CA's signature over the leaf, the ticket's signature and one
    # CertificateVerify per 1-RTT connect: without the memo the chain and
    # ticket checks alone would have run 2 + 2k + 2 times.
    assert len(set(ecdsa_calls)) == 4
    assert len(ecdsa_calls) == 4
