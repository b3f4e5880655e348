"""0-RTT over the wire: endpoint-level integration (paper §4.5.2)."""

import random

import pytest

from repro.core.endpoint import SmtEndpoint
from repro.core.zero_rtt import ZeroRttServer
from repro.crypto.ca import CertificateAuthority
from repro.crypto.cert import KEY_ALG_ECDSA
from repro.crypto.ecdsa import EcdsaKeyPair
from repro.dns.resolver import InternalDns
from repro.errors import ProtocolError
from repro.testbed import Testbed
from repro.tls.handshake import HandshakeConfig, ServerCredentials

PORT = 7000


@pytest.fixture(scope="module")
def pki():
    rng = random.Random(1)
    ca = CertificateAuthority("dc-root", rng)
    key = EcdsaKeyPair.generate(rng)
    leaf = ca.issue("server", KEY_ALG_ECDSA, key.public_bytes())
    return ca, ca.chain_for(leaf), key


def build(pki, forward_secrecy, seed=10):
    ca, chain, key = pki
    bed = Testbed.back_to_back()
    cep = SmtEndpoint(bed.client, bed.client.alloc_port())
    sep = SmtEndpoint(bed.server, PORT)
    zserver = ZeroRttServer("server", chain, key, random.Random(seed))
    dns = InternalDns()
    dns.publish("server", zserver.rotate(now=0.0), now=0.0)
    sep.serve_zero_rtt(bed.server.app_thread(0), zserver)

    def echo():
        thread = bed.server.app_thread(1)
        while True:
            rpc = yield from sep.socket.recv_request(thread)
            yield from sep.socket.reply(thread, rpc, rpc.payload)

    bed.loop.process(echo())
    return bed, cep, sep, dns, zserver, (ca.certificate,)


def connect_and_call(
    bed, cep, dns, roots, forward_secrecy, payload=b"zrtt", rng_seed=42
):
    out = {}

    def client():
        thread = bed.client.app_thread(0)
        ticket = dns.query("server", now=bed.loop.now)
        out["stats"] = yield from cep.connect_zero_rtt(
            thread, bed.server.addr, PORT, ticket, roots,
            forward_secrecy=forward_secrecy, rng=random.Random(rng_seed),
        )
        out["reply"] = yield from cep.socket.call(
            thread, bed.server.addr, PORT, payload
        )

    done = bed.loop.process(client())
    bed.loop.run(until=bed.loop.now + 1.0)
    assert done.triggered, "deadlock"
    if not done.ok:
        raise done.value
    return out


class TestZeroRttOverWire:
    @pytest.mark.parametrize("fs", [False, True])
    def test_data_flows_after_zero_rtt(self, pki, fs):
        bed, cep, sep, dns, zserver, roots = build(pki, fs)
        out = connect_and_call(bed, cep, dns, roots, fs)
        assert out["reply"] == b"zrtt"

    def test_keys_ready_before_any_round_trip(self, pki):
        bed, cep, sep, dns, zserver, roots = build(pki, False)
        out = connect_and_call(bed, cep, dns, roots, False)
        # keys_ready happens before a wire RTT could complete (sub-RTT).
        assert out["stats"].setup_latency < 500e-6
        assert out["stats"].setup_latency < (
            out["stats"].finished_at - out["stats"].started_at
        )

    def test_fs_upgrade_rekeys_both_sessions(self, pki):
        bed, cep, sep, dns, zserver, roots = build(pki, True)
        connect_and_call(bed, cep, dns, roots, True)
        assert cep.session_for(bed.server.addr, PORT).rekeys == 1
        assert sep.session_for(bed.client.addr, cep.port).rekeys == 1

    def test_no_fs_keeps_smt_key(self, pki):
        bed, cep, sep, dns, zserver, roots = build(pki, False)
        connect_and_call(bed, cep, dns, roots, False)
        assert cep.session_for(bed.server.addr, PORT).rekeys == 0

    def test_fs_faster_than_nothing_but_slower_than_no_fs(self, pki):
        bed, cep, sep, dns, zserver, roots = build(pki, False)
        no_fs = connect_and_call(bed, cep, dns, roots, False)
        bed2, cep2, sep2, dns2, zserver2, roots2 = build(pki, True, seed=11)
        with_fs = connect_and_call(bed2, cep2, dns2, roots2, True)
        assert (with_fs["stats"].finished_at - with_fs["stats"].started_at) > (
            no_fs["stats"].finished_at - no_fs["stats"].started_at
        )

    def test_wire_confidentiality_of_zero_rtt_data(self, pki):
        bed, cep, sep, dns, zserver, roots = build(pki, False)
        sniffed = []
        original = bed.link._a_to_b.receiver

        def sniffer(packet):
            sniffed.append(bytes(packet.payload))
            original(packet)

        bed.link._a_to_b.receiver = sniffer
        connect_and_call(bed, cep, dns, roots, False, payload=b"SECRET-0RTT-DATA")
        assert b"SECRET-0RTT" not in b"".join(sniffed)

    def test_replayed_chlo_rejected_at_server(self, pki):
        bed, cep, sep, dns, zserver, roots = build(pki, False)
        connect_and_call(bed, cep, dns, roots, False)
        assert zserver.replayed_chlos == 0
        # A second connect with the same client rng replays the CHLO random.
        cep2 = SmtEndpoint(bed.client, bed.client.alloc_port())

        def replayer():
            thread = bed.client.app_thread(1)
            ticket = dns.query("server", now=bed.loop.now)
            yield from cep2.connect_zero_rtt(
                thread, bed.server.addr, PORT, ticket, roots,
                forward_secrecy=False, rng=random.Random(42),  # same randomness
            )

        done = bed.loop.process(replayer())
        bed.loop.run(until=bed.loop.now + 0.5)
        # The server rejected the replay (its AuthenticationError became a
        # rejected flight), and the client's connect raised.
        assert zserver.replayed_chlos >= 1
        assert not done.triggered or not done.ok

    def test_responder_survives_a_replay(self, pki):
        bed, cep, sep, dns, zserver, roots = build(pki, False)
        connect_and_call(bed, cep, dns, roots, False)
        replayed = SmtEndpoint(bed.client, bed.client.alloc_port())
        with pytest.raises(ProtocolError, match="rejected"):
            connect_and_call(bed, replayed, dns, roots, False)
        assert zserver.replayed_chlos == 1 and sep.handshakes_rejected == 1
        # A third, honest client on the same server still completes.
        honest = SmtEndpoint(bed.client, bed.client.alloc_port())
        out = connect_and_call(bed, honest, dns, roots, True, rng_seed=43)
        assert out["reply"] == b"zrtt"

    def test_one_endpoint_serves_1rtt_and_0rtt_in_turn(self, pki):
        # listen and serve_zero_rtt share the endpoint's one responder, so
        # each flight reaches the handler of its kind: a second responder
        # on the same socket would take some FINISHED flights it cannot
        # serve and reject them.
        ca, chain, key = pki
        bed, cep, sep, dns, zserver, roots = build(pki, False)
        sep.listen(
            bed.server.app_thread(2),
            ServerCredentials(chain=chain, signing_key=key),
            lambda: HandshakeConfig(rng=random.Random(3), trust_roots=roots),
        )
        for i in range(3):
            full = SmtEndpoint(bed.client, bed.client.alloc_port())

            def one_rtt(full=full, i=i):
                yield from full.connect(
                    bed.client.app_thread(0), bed.server.addr, PORT,
                    HandshakeConfig(rng=random.Random(50 + i),
                                    server_name="server", trust_roots=roots),
                )
                return (yield from full.socket.call(
                    bed.client.app_thread(0), bed.server.addr, PORT, b"1rtt"
                ))

            done = bed.loop.process(one_rtt())
            bed.loop.run(until=bed.loop.now + 0.5)
            assert done.triggered and done.ok, getattr(done, "value", None)
            assert done.value == b"1rtt"
            quick = SmtEndpoint(bed.client, bed.client.alloc_port())
            out = connect_and_call(bed, quick, dns, roots, False, rng_seed=60 + i)
            assert out["reply"] == b"zrtt"
        assert sep.handshakes_rejected == 0


def test_second_zero_rtt_connect_in_flight_raises(pki):
    bed, cep, sep, dns, zserver, roots = build(pki, True)
    ticket = dns.query("server", now=0.0)

    def one(seed):
        return (yield from cep.connect_zero_rtt(
            bed.client.app_thread(0), bed.server.addr, PORT, ticket, roots,
            forward_secrecy=True, rng=random.Random(seed),
        ))

    first = bed.loop.process(one(42))
    second = bed.loop.process(one(43))
    bed.loop.run(until=1.0)
    assert first.triggered and first.ok, getattr(first, "value", None)
    assert not second.ok and isinstance(second.value, ProtocolError)
    assert sep.handshakes_rejected == 0
    out = {}

    def call():
        out["reply"] = yield from cep.socket.call(
            bed.client.app_thread(0), bed.server.addr, PORT, b"after"
        )

    bed.loop.process(call())
    bed.loop.run(until=bed.loop.now + 1.0)
    assert out["reply"] == b"after"
