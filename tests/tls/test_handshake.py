"""TLS 1.3 handshake state-machine tests."""

import dataclasses
import random

import pytest

from repro.crypto.ca import CertificateAuthority
from repro.crypto.cert import KEY_ALG_ECDSA, KEY_ALG_RSA
from repro.crypto.ecdh import EcdhKeyPair
from repro.crypto.ecdsa import EcdsaKeyPair
from repro.crypto.rsa import RsaKeyPair
from repro.errors import AuthenticationError, ProtocolError
from repro.tls.constants import HS_CERTIFICATE
from repro.tls.handshake import (
    ClientHandshake,
    HandshakeConfig,
    ServerCredentials,
    ServerHandshake,
)
from repro.tls.messages import F_CERT_CHAIN, HandshakeMessage
from repro.tls.record import RecordProtection
from repro.tls.timing import HandshakeCostModel


@pytest.fixture(scope="module")
def pki():
    rng = random.Random(1)
    ca = CertificateAuthority("dc-root", rng)
    server_key = EcdsaKeyPair.generate(rng)
    leaf = ca.issue("server", KEY_ALG_ECDSA, server_key.public_bytes())
    creds = ServerCredentials(chain=ca.chain_for(leaf), signing_key=server_key)
    return ca, creds


def run_handshake(pki, client_cfg=None, server_cfg=None, cache=None):
    ca, creds = pki
    roots = (ca.certificate,)
    client_cfg = client_cfg or HandshakeConfig(
        rng=random.Random(2), server_name="server", trust_roots=roots
    )
    server_cfg = server_cfg or HandshakeConfig(rng=random.Random(3), trust_roots=roots)
    client = ClientHandshake(client_cfg)
    server = ServerHandshake(server_cfg, creds, session_cache=cache if cache is not None else {})
    flight = server.process_client_hello(client.start())
    server.process_client_flight(client.process_server_flight(flight))
    return client, server


HS_CERTIFICATE_REQUEST = 13  # RFC 8446 §4.3.2


def pair(ca, creds):
    roots = (ca.certificate,)
    client = ClientHandshake(
        HandshakeConfig(rng=random.Random(2), server_name="server", trust_roots=roots)
    )
    server_cfg = HandshakeConfig(rng=random.Random(3), trust_roots=roots)
    return client, ServerHandshake(server_cfg, creds)


def _prepend_to_next_seal(monkeypatch, msg):
    """Make the next sealed handshake flight carry ``msg`` before its own."""
    real = RecordProtection.seal

    def seal(self, payload, *args, **kwargs):
        monkeypatch.setattr(RecordProtection, "seal", real)
        return real(self, msg.encode() + bytes(payload), *args, **kwargs)

    monkeypatch.setattr(RecordProtection, "seal", seal)


class TestFullHandshake:
    def test_secrets_agree(self, pki):
        client, server = run_handshake(pki)
        assert client.result.client_app_secret == server.result.client_app_secret
        assert client.result.server_app_secret == server.result.server_app_secret

    def test_resumption_master_agrees(self, pki):
        client, server = run_handshake(pki)
        assert client.result.resumption_master == server.result.resumption_master

    def test_no_psk_used(self, pki):
        client, _ = run_handshake(pki)
        assert not client.result.used_psk and client.result.used_ecdhe

    def test_client_saw_server_cert(self, pki):
        client, _ = run_handshake(pki)
        assert client.result.peer_certificate.subject == "server"

    def test_traffic_keys_distinct_per_direction(self, pki):
        client, _ = run_handshake(pki)
        cw, sw = client.result.traffic_keys()
        assert cw != sw

    def test_trace_matches_table2_ops(self, pki):
        client, server = run_handshake(pki)
        assert [op.op_id for op in server.trace] == [
            "S1", "S2.1", "S2.2", "S2.3", "S2.4", "S2.5", "S2.6", "S3",
        ]
        assert [op.op_id for op in client.trace] == [
            "C1.1", "C1.2", "C2.1", "C2.2", "C2.3", "C3.1", "C3.2", "C4.1",
            "C4.2", "C5",
        ]

    def test_pregenerated_keys_skip_keygen_ops(self, pki):
        ca, creds = pki
        roots = (ca.certificate,)
        rng = random.Random(5)
        ccfg = HandshakeConfig(
            rng=rng, server_name="server", trust_roots=roots,
            pregenerated_keypair=EcdhKeyPair.generate(rng),
        )
        scfg = HandshakeConfig(
            rng=rng, trust_roots=roots,
            pregenerated_keypair=EcdhKeyPair.generate(rng),
        )
        client, server = run_handshake(pki, ccfg, scfg)
        assert "C1.1" not in [op.op_id for op in client.trace]
        assert "S2.1" not in [op.op_id for op in server.trace]
        assert client.result.client_app_secret == server.result.client_app_secret

    def test_rsa_server(self, pki):
        ca, _ = pki
        rng = random.Random(7)
        rsa_key = RsaKeyPair.generate(1024, rng)
        leaf = ca.issue("server", KEY_ALG_RSA, rsa_key.public_bytes())
        creds = ServerCredentials(
            chain=ca.chain_for(leaf), signing_key=rsa_key, key_alg=KEY_ALG_RSA
        )
        roots = (ca.certificate,)
        client = ClientHandshake(
            HandshakeConfig(rng=random.Random(8), server_name="server", trust_roots=roots)
        )
        server = ServerHandshake(HandshakeConfig(rng=random.Random(9), trust_roots=roots), creds)
        flight = server.process_client_hello(client.start())
        server.process_client_flight(client.process_server_flight(flight))
        assert client.result.client_app_secret == server.result.client_app_secret
        # RSA shows up in the verify op detail, as Table 2's "+" column.
        c42 = next(op for op in client.trace if op.op_id == "C4.2")
        assert c42.detail["alg"] == KEY_ALG_RSA


class TestResumption:
    def _establish_and_get_ticket(self, pki, cache):
        client, server = run_handshake(pki, cache=cache)
        ticket_record = server.issue_ticket()
        tickets = client.process_tickets(ticket_record)
        assert len(tickets) == 1
        return tickets[0]

    def test_resumption_with_forward_secrecy(self, pki):
        ca, creds = pki
        roots = (ca.certificate,)
        cache = {}
        ticket = self._establish_and_get_ticket(pki, cache)
        ccfg = HandshakeConfig(
            rng=random.Random(11), server_name="server", trust_roots=roots,
            ticket=ticket, forward_secrecy=True,
        )
        client, server = run_handshake(pki, ccfg, HandshakeConfig(
            rng=random.Random(12), trust_roots=roots), cache=cache)
        assert client.result.used_psk and client.result.used_ecdhe
        assert client.result.client_app_secret == server.result.client_app_secret

    def test_resumption_without_forward_secrecy_skips_ecdhe(self, pki):
        ca, creds = pki
        roots = (ca.certificate,)
        cache = {}
        ticket = self._establish_and_get_ticket(pki, cache)
        ccfg = HandshakeConfig(
            rng=random.Random(11), server_name="server", trust_roots=roots,
            ticket=ticket, forward_secrecy=False,
        )
        client, server = run_handshake(pki, ccfg, HandshakeConfig(
            rng=random.Random(12), trust_roots=roots), cache=cache)
        assert client.result.used_psk and not client.result.used_ecdhe
        assert "C2.2" not in [op.op_id for op in client.trace]
        assert client.result.client_app_secret == server.result.client_app_secret

    def test_resumed_handshake_sends_no_certificate(self, pki):
        ca, creds = pki
        roots = (ca.certificate,)
        cache = {}
        ticket = self._establish_and_get_ticket(pki, cache)
        ccfg = HandshakeConfig(
            rng=random.Random(11), server_name="server", trust_roots=roots, ticket=ticket,
        )
        client, _ = run_handshake(pki, ccfg, HandshakeConfig(
            rng=random.Random(12), trust_roots=roots), cache=cache)
        assert client.result.peer_certificate is None
        assert "C3.2" not in [op.op_id for op in client.trace]

    def test_unknown_ticket_falls_back_to_full(self, pki):
        from repro.tls.handshake import SessionTicket

        ca, creds = pki
        roots = (ca.certificate,)
        bogus = SessionTicket(ticket_id=b"\x00" * 16, psk=b"\x01" * 32, lifetime=100.0)
        ccfg = HandshakeConfig(
            rng=random.Random(11), server_name="server", trust_roots=roots, ticket=bogus,
        )
        client, server = run_handshake(pki, ccfg, cache={})
        assert not client.result.used_psk
        assert client.result.peer_certificate is not None

    def test_corrupted_binder_rejected(self, pki):
        ca, creds = pki
        roots = (ca.certificate,)
        cache = {}
        ticket = self._establish_and_get_ticket(pki, cache)
        import repro.tls.messages as messages

        ccfg = HandshakeConfig(
            rng=random.Random(11), server_name="server", trust_roots=roots, ticket=ticket,
        )
        client = ClientHandshake(ccfg)
        chlo = client.start()
        msg, _ = HandshakeMessage.decode(chlo)
        msg.fields[messages.F_PSK_BINDER] = bytes(32)
        server = ServerHandshake(
            HandshakeConfig(rng=random.Random(12), trust_roots=roots), creds, cache
        )
        with pytest.raises(AuthenticationError):
            server.process_client_hello(msg.encode())


class TestAttacks:
    def test_wrong_server_name_rejected(self, pki):
        ca, creds = pki
        roots = (ca.certificate,)
        ccfg = HandshakeConfig(
            rng=random.Random(2), server_name="other-server", trust_roots=roots
        )
        client = ClientHandshake(ccfg)
        server = ServerHandshake(HandshakeConfig(rng=random.Random(3), trust_roots=roots), creds)
        with pytest.raises(AuthenticationError):
            client.process_server_flight(server.process_client_hello(client.start()))

    def test_untrusted_ca_rejected(self, pki):
        _, creds = pki
        rogue = CertificateAuthority("rogue", random.Random(66))
        ccfg = HandshakeConfig(
            rng=random.Random(2), server_name="server", trust_roots=(rogue.certificate,)
        )
        client = ClientHandshake(ccfg)
        server = ServerHandshake(
            HandshakeConfig(rng=random.Random(3), trust_roots=(rogue.certificate,)), creds
        )
        with pytest.raises(AuthenticationError):
            client.process_server_flight(server.process_client_hello(client.start()))

    def test_tampered_server_flight_rejected(self, pki):
        ca, creds = pki
        roots = (ca.certificate,)
        client = ClientHandshake(
            HandshakeConfig(rng=random.Random(2), server_name="server", trust_roots=roots)
        )
        server = ServerHandshake(HandshakeConfig(rng=random.Random(3), trust_roots=roots), creds)
        flight = bytearray(server.process_client_hello(client.start()))
        flight[-1] ^= 1  # inside the encrypted portion
        with pytest.raises(AuthenticationError):
            client.process_server_flight(bytes(flight))

    def test_malformed_chlo_rejected(self, pki):
        _, creds = pki
        server = ServerHandshake(HandshakeConfig(rng=random.Random(3)), creds)
        with pytest.raises(ProtocolError):
            server.process_client_hello(b"\x01\x00\x00")

    # Only the server authenticates.  The stack sends neither of these, so
    # each test seals one into an otherwise honest flight.

    def test_certificate_request_rejected(self, pki, monkeypatch):
        ca, creds = pki
        client, server = pair(ca, creds)
        chlo = client.start()
        _prepend_to_next_seal(monkeypatch, HandshakeMessage(HS_CERTIFICATE_REQUEST))
        flight = server.process_client_hello(chlo)
        with pytest.raises(ProtocolError, match="unexpected server message 13"):
            client.process_server_flight(flight)
        assert client.result is None

    def test_client_certificate_rejected(self, pki, monkeypatch):
        ca, creds = pki
        client, server = pair(ca, creds)
        flight = server.process_client_hello(client.start())
        cert = HandshakeMessage(HS_CERTIFICATE, {F_CERT_CHAIN: creds.chain.encode()})
        _prepend_to_next_seal(monkeypatch, cert)
        final = client.process_server_flight(flight)
        with pytest.raises(ProtocolError, match="unexpected client message 11"):
            server.process_client_flight(final)
        assert server.result is None


class TestValidityWindow:
    """Certificates are checked at the caller's clock, not at t = 0."""

    def _creds(self, ca, subject, seed, now=0.0, not_after=None):
        key = EcdsaKeyPair.generate(random.Random(seed))
        leaf = ca.issue(subject, KEY_ALG_ECDSA, key.public_bytes(), now=now)
        if not_after is not None:  # re-signed with a shorter lifetime
            leaf = dataclasses.replace(leaf, not_after=not_after)
            leaf = leaf.with_signature(ca.sign(leaf.tbs_bytes()))
        return ServerCredentials(chain=ca.chain_for(leaf), signing_key=key)

    def test_expired_server_leaf_rejected(self, pki):
        ca, _ = pki
        creds = self._creds(ca, "server", 21, not_after=10.0)
        client, server = pair(ca, creds)
        flight = server.process_client_hello(client.start())
        with pytest.raises(AuthenticationError, match="validity window"):
            client.process_server_flight(flight, now=10.5)
        # The same leaf is fine inside its window.
        client, server = pair(ca, creds)
        flight = server.process_client_hello(client.start())
        server.process_client_flight(client.process_server_flight(flight, now=9.5))
        assert client.result.peer_certificate.subject == "server"

    def test_leaf_issued_later_accepted(self, pki):
        ca, _ = pki
        creds = self._creds(ca, "server", 22, now=100.0)
        client, server = pair(ca, creds)
        flight = server.process_client_hello(client.start())
        server.process_client_flight(client.process_server_flight(flight, now=100.0))
        assert client.result.client_app_secret == server.result.client_app_secret
        # ... and is not yet valid before it was issued.
        client, server = pair(ca, creds)
        flight = server.process_client_hello(client.start())
        with pytest.raises(AuthenticationError, match="validity window"):
            client.process_server_flight(flight, now=99.0)


class TestShortChainEndToEnd:
    """``HandshakeConfig.short_chain`` through a real handshake (§4.5.1)."""

    def _client_trace(self, pki, short_chain):
        ca, _ = pki
        cfg = HandshakeConfig(
            rng=random.Random(2), server_name="server",
            trust_roots=(ca.certificate,), short_chain=short_chain,
        )
        client, server = run_handshake(pki, client_cfg=cfg)
        assert client.result.client_app_secret == server.result.client_app_secret
        return client.trace

    def test_short_chain_prices_only_verify_cert(self, pki):
        model = HandshakeCostModel()
        full = self._client_trace(pki, False)
        short = self._client_trace(pki, True)
        assert [op.op_id for op in short] == [op.op_id for op in full]
        (verify,) = [op for op in short if op.op_id == "C3.2"]
        assert verify.detail["short_chain"] is True
        for a, b in zip(full, short):
            if a.op_id != "C3.2":
                assert model.op_cost(a) == model.op_cost(b)
        (verify_full,) = [model.op_cost(op) for op in full if op.op_id == "C3.2"]
        saved = model.total(full) - model.total(short)
        assert saved == pytest.approx(verify_full * (1 - 0.48), rel=1e-12)
