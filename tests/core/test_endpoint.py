"""SMT endpoint tests: session establishment and encrypted data flow."""

import dataclasses
import random

import pytest

from repro.core.endpoint import HANDSHAKE_PORT, SmtEndpoint
from repro.crypto.ca import CertificateAuthority
from repro.crypto.cert import KEY_ALG_ECDSA
from repro.crypto.ecdsa import EcdsaKeyPair
from repro.errors import AuthenticationError, ProtocolError
from repro.homa.socket import HomaSocket
from repro.nic.tso import TsoMode
from repro.testbed import Testbed
from repro.tls.handshake import HandshakeConfig, ServerCredentials


@pytest.fixture(scope="module")
def pki():
    rng = random.Random(1)
    ca = CertificateAuthority("dc-root", rng)
    key = EcdsaKeyPair.generate(rng)
    leaf = ca.issue("server", KEY_ALG_ECDSA, key.public_bytes())
    return ca, ServerCredentials(chain=ca.chain_for(leaf), signing_key=key)


def build(pki, offload=False, **bed_kw):
    ca, creds = pki
    bed = Testbed.back_to_back(**bed_kw)
    cep = SmtEndpoint(bed.client, bed.client.alloc_port(), offload=offload)
    sep = SmtEndpoint(bed.server, 7000, offload=offload)
    roots = (ca.certificate,)
    sep.listen(
        bed.server.app_thread(0),
        creds,
        lambda: HandshakeConfig(rng=random.Random(3), trust_roots=roots),
        issue_tickets=1,
    )
    return bed, cep, sep, roots


def connect(bed, cep, roots, seed=4):
    stats = {}

    def body():
        t = bed.client.app_thread(0)
        stats["hs"] = yield from cep.connect(
            t, bed.server.addr, 7000,
            HandshakeConfig(rng=random.Random(seed), server_name="server",
                            trust_roots=roots),
        )

    done = bed.loop.process(body())
    bed.loop.run(until=1.0)
    assert done.triggered and done.ok, getattr(done, "value", None)
    return stats["hs"]


class TestEstablishment:
    def test_connect_creates_sessions_on_both_ends(self, pki):
        bed, cep, sep, roots = build(pki)
        connect(bed, cep, roots)
        assert cep.session_for(bed.server.addr, 7000) is not None
        assert sep.session_for(bed.client.addr, cep.port) is not None

    def test_setup_latency_includes_rtt_and_crypto(self, pki):
        bed, cep, sep, roots = build(pki)
        hs = connect(bed, cep, roots)
        # Dominated by Table 2 crypto (~1.6 ms serial) plus transport RTT.
        assert 1e-3 < hs.setup_latency < 3e-3

    def test_tickets_delivered(self, pki):
        bed, cep, sep, roots = build(pki)
        connect(bed, cep, roots)
        assert len(cep.tickets[(bed.server.addr, 7000)]) == 1

    def test_data_before_handshake_rejected(self, pki):
        bed, cep, sep, roots = build(pki)

        def body():
            t = bed.client.app_thread(0)
            yield from cep.socket.call(t, bed.server.addr, 7000, b"early")

        done = bed.loop.process(body())
        bed.loop.run(until=1.0)
        assert not done.ok and isinstance(done.value, ProtocolError)

    def test_certificates_checked_at_virtual_time(self, pki):
        # A leaf issued at t = 5 s for 10 s: rejected while the clock reads
        # 0, accepted at 6 s, rejected again at 16 s.
        ca, _ = pki
        key = EcdsaKeyPair.generate(random.Random(9))
        issued = ca.issue("server", KEY_ALG_ECDSA, key.public_bytes(), now=5.0)
        short = dataclasses.replace(issued, not_after=15.0)
        leaf = short.with_signature(ca.sign(short.tbs_bytes()))
        creds = ServerCredentials(chain=ca.chain_for(leaf), signing_key=key)
        outcomes = []
        for start in (0.0, 6.0, 16.0):
            bed, cep, sep, roots = build((ca, creds))

            def body():
                t = bed.client.app_thread(0)
                yield bed.loop.timeout(start)
                yield from cep.connect(
                    t, bed.server.addr, 7000,
                    HandshakeConfig(rng=random.Random(4), server_name="server",
                                    trust_roots=roots),
                )

            done = bed.loop.process(body())
            bed.loop.run(until=start + 1.0)
            assert done.triggered
            outcomes.append(done.ok or type(done.value))
        assert outcomes == [AuthenticationError, True, AuthenticationError]


class TestBadFlights:
    """A flight the responder cannot serve is rejected, and serving goes on."""

    @pytest.mark.parametrize(
        "flight",
        [
            b"\x01\x00",  # shorter than the 3-byte wrapper
            b"\x02\x1b\x58finished",  # a Finished with no pending handshake
            b"\x03\x1b\x58",  # a 0-RTT hello this listener does not serve
            b"\x04\x1b\x58\x00",  # a rekey for an unknown session
            b"\x09\x1b\x58",  # no such kind
        ],
    )
    def test_rejected_then_honest_connect_completes(self, pki, flight):
        bed, cep, sep, roots = build(pki)
        raw = HomaSocket(cep.transport, bed.client.alloc_port())
        replies = []

        def body():
            t = bed.client.app_thread(0)
            replies.append((yield from raw.call(t, bed.server.addr, HANDSHAKE_PORT,
                                                flight)))

        done = bed.loop.process(body())
        bed.loop.run(until=0.5)
        assert done.triggered and done.ok, getattr(done, "value", None)
        assert replies == [b"\x00SMT-HS-REJECTED"]
        assert sep.handshakes_rejected == 1
        connect(bed, cep, roots)
        assert sep.session_for(bed.client.addr, cep.port) is not None


class TestConcurrentConnects:
    """One endpoint sets up one session with a server at a time."""

    def test_second_connect_in_flight_raises_and_first_completes(self, pki):
        bed, cep, sep, roots = build(pki)
        t = bed.client.app_thread(0)

        def one(seed):
            return (yield from cep.connect(
                t, bed.server.addr, 7000,
                HandshakeConfig(rng=random.Random(seed), server_name="server",
                                trust_roots=roots),
            ))

        first = bed.loop.process(one(4))
        second = bed.loop.process(one(5))
        bed.loop.run(until=0.5)
        assert first.triggered and first.ok, getattr(first, "value", None)
        assert second.triggered and not second.ok
        assert isinstance(second.value, ProtocolError)
        assert "already in flight" in str(second.value)
        assert sep.handshakes_rejected == 0
        assert sep.session_for(bed.client.addr, cep.port) is not None
        # The slot frees with the first handshake: a later connect runs.
        third = bed.loop.process(one(6))
        bed.loop.run(until=1.0)
        assert third.triggered and third.ok, getattr(third, "value", None)
        assert sep.handshakes_rejected == 0

    def test_a_failed_connect_frees_the_slot(self, pki):
        bed, cep, sep, roots = build(pki)

        def wrong_name():
            yield from cep.connect(
                bed.client.app_thread(0), bed.server.addr, 7000,
                HandshakeConfig(rng=random.Random(4), server_name="other",
                                trust_roots=roots),
            )

        done = bed.loop.process(wrong_name())
        bed.loop.run(until=0.5)
        assert not done.ok and isinstance(done.value, AuthenticationError)
        connect(bed, cep, roots, seed=5)


class TestEncryptedData:
    @pytest.mark.parametrize("offload", [False, True])
    def test_echo_roundtrip(self, pki, offload):
        bed, cep, sep, roots = build(pki, offload=offload)

        def server():
            t = bed.server.app_thread(1)
            while True:
                rpc = yield from sep.socket.recv_request(t)
                yield from sep.socket.reply(t, rpc, rpc.payload)

        bed.loop.process(server())
        connect(bed, cep, roots)
        result = {}

        def client():
            t = bed.client.app_thread(0)
            result["r"] = yield from cep.socket.call(
                t, bed.server.addr, 7000, b"ping" * 100
            )

        done = bed.loop.process(client())
        bed.loop.run(until=bed.loop.now + 1.0)
        assert done.ok and result["r"] == b"ping" * 100

    @pytest.mark.parametrize("mode,budget", [(TsoMode.PAIRS, 2), (TsoMode.OFF, 1)])
    def test_sessions_honour_nic_tso_mode(self, pki, mode, budget):
        # Paper §7 reduced-TSO modes: a handshaken session frames for the
        # NIC it sits on, like the pre-keyed bench stacks do.
        bed, cep, sep, roots = build(pki, tso_mode=mode)

        def server():
            t = bed.server.app_thread(1)
            while True:
                rpc = yield from sep.socket.recv_request(t)
                yield from sep.socket.reply(t, rpc, rpc.payload)

        bed.loop.process(server())
        connect(bed, cep, roots)
        assert cep.socket.codec_for(bed.server.addr, 7000).packets_per_segment == budget
        assert sep.socket.codec_for(bed.client.addr, cep.port).packets_per_segment == budget
        segments0 = bed.client.nic.segments_sent
        packets0 = bed.client.nic.packets_sent
        result = {}

        def client():
            t = bed.client.app_thread(0)
            result["r"] = yield from cep.socket.call(
                t, bed.server.addr, 7000, b"ping" * 5000
            )

        done = bed.loop.process(client())
        bed.loop.run(until=bed.loop.now + 1.0)
        assert done.ok and result["r"] == b"ping" * 5000
        nic = bed.client.nic
        assert nic.packets_sent - packets0 <= budget * (nic.segments_sent - segments0)

    @pytest.mark.parametrize("offload", [False, True])
    def test_wire_confidentiality(self, pki, offload):
        bed, cep, sep, roots = build(pki, offload=offload)

        def server():
            t = bed.server.app_thread(1)
            while True:
                rpc = yield from sep.socket.recv_request(t)
                yield from sep.socket.reply(t, rpc, b"ok")

        bed.loop.process(server())
        connect(bed, cep, roots)
        sniffed = []
        original = bed.link._a_to_b.receiver

        def sniffer(packet):
            sniffed.append(bytes(packet.payload))
            original(packet)

        bed.link._a_to_b.receiver = sniffer

        def client():
            t = bed.client.app_thread(0)
            yield from cep.socket.call(
                t, bed.server.addr, 7000, b"TOP-SECRET-PAYLOAD" * 10
            )

        done = bed.loop.process(client())
        bed.loop.run(until=bed.loop.now + 1.0)
        assert done.ok
        assert b"TOP-SECRET" not in b"".join(sniffed)

    def test_plaintext_transport_metadata_visible(self, pki):
        # §4.3/§7: message ID / length / offsets stay plaintext so the
        # network can do message-granularity operations.
        bed, cep, sep, roots = build(pki)

        def server():
            t = bed.server.app_thread(1)
            while True:
                rpc = yield from sep.socket.recv_request(t)
                yield from sep.socket.reply(t, rpc, b"ok")

        bed.loop.process(server())
        connect(bed, cep, roots)
        seen = []
        original = bed.link._a_to_b.receiver

        def watcher(packet):
            from repro.net.headers import PacketType

            if packet.transport.pkt_type == PacketType.DATA:
                seen.append((packet.transport.msg_id, packet.transport.msg_len,
                             packet.transport.tso_offset))
            original(packet)

        bed.link._a_to_b.receiver = watcher

        def client():
            t = bed.client.app_thread(0)
            yield from cep.socket.call(t, bed.server.addr, 7000, bytes(5000))

        done = bed.loop.process(client())
        bed.loop.run(until=bed.loop.now + 1.0)
        assert done.ok
        data_packets = [s for s in seen if s[1] > 0]
        assert data_packets, "no data packets observed"
        # All packets of the message advertise the same id and wire length.
        ids = {s[0] for s in data_packets}
        assert len(ids) == 1

    def test_multiple_clients_one_server_socket(self, pki):
        ca, creds = pki
        roots = (ca.certificate,)
        bed = Testbed.back_to_back()
        sep = SmtEndpoint(bed.server, 7000)
        sep.listen(
            bed.server.app_thread(0), creds,
            lambda: HandshakeConfig(rng=random.Random(3), trust_roots=roots),
        )

        def server():
            t = bed.server.app_thread(1)
            while True:
                rpc = yield from sep.socket.recv_request(t)
                yield from sep.socket.reply(t, rpc, rpc.payload)

        bed.loop.process(server())
        results = {}
        endpoints = [
            SmtEndpoint(bed.client, bed.client.alloc_port()) for _ in range(3)
        ]

        # All three client endpoints share one host but have their own
        # sessions to the single server socket.
        def one(i, ep):
            t = bed.client.app_thread(i)
            yield from ep.connect(
                t, bed.server.addr, 7000,
                HandshakeConfig(rng=random.Random(10 + i), server_name="server",
                                trust_roots=roots),
            )
            results[i] = yield from ep.socket.call(
                t, bed.server.addr, 7000, bytes([i]) * 64
            )

        procs = [bed.loop.process(one(i, ep)) for i, ep in enumerate(endpoints)]
        bed.loop.run(until=2.0)
        assert all(p.ok for p in procs)
        assert results == {0: b"\x00" * 64, 1: b"\x01" * 64, 2: b"\x02" * 64}
