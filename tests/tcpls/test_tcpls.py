"""TCPLS baseline tests."""

import pytest

from repro.bench.runner import CLIENT_KEYS, SERVER_KEYS
from repro.tcp import connect_pair
from repro.tcpls import tcpls_pair
from repro.testbed import Testbed


def make_bed():
    bed = Testbed.back_to_back()
    conn_c, conn_s = connect_pair(bed.client, bed.server, 5000)
    c, s = tcpls_pair(conn_c, conn_s, CLIENT_KEYS, SERVER_KEYS)
    return bed, c, s


def run_echo(bed, c, s, size):
    results = {}

    def server():
        t = bed.server.app_thread(0)
        data = b""
        while len(data) < size:
            data += yield from s.recv(t)
        yield from s.send(t, data)

    def client():
        t = bed.client.app_thread(0)
        yield from c.send(t, b"\x5a" * size)
        data = b""
        while len(data) < size:
            data += yield from c.recv(t)
        results["echo"] = data

    bed.loop.process(server())
    done = bed.loop.process(client())
    bed.loop.run(until=5.0)
    assert done.triggered
    if not done.ok:
        raise done.value
    return results


class TestTcpls:
    @pytest.mark.parametrize("size", [64, 1024, 40_000])
    def test_echo(self, size):
        bed, c, s = make_bed()
        assert run_echo(bed, c, s, size)["echo"] == b"\x5a" * size

    def test_payload_encrypted_on_wire(self):
        bed, c, s = make_bed()
        sniffed = []
        original = bed.link._a_to_b.receiver

        def sniffer(packet):
            sniffed.append(bytes(packet.payload))
            original(packet)

        bed.link._a_to_b.receiver = sniffer

        def client():
            yield from c.send(bed.client.app_thread(0), b"TCPLS-SECRET" * 20)

        bed.loop.process(client())
        bed.loop.run(until=1.0)
        assert b"TCPLS-SECRET" not in b"".join(sniffed)

    def test_custom_nonce_schedule_differs_from_ktls(self):
        # TCPLS's stream-salted nonce produces different ciphertext than a
        # plain record-counter nonce for the same keys -- the property
        # that makes it incompatible with AO offload (paper §2.1).
        from repro.crypto.aead import new_aead
        from repro.tls.keyschedule import TrafficKeys
        from repro.tls.record import RecordProtection

        bed, c, s = make_bed()
        keys = TrafficKeys(key=b"\x55" * 16, iv=b"\x66" * 12)
        plain_counter = RecordProtection(new_aead("aes-128-gcm", keys.key), keys.iv)
        sniffed = []
        original = bed.link._a_to_b.receiver

        def sniffer(packet):
            sniffed.append(bytes(packet.payload))
            original(packet)

        bed.link._a_to_b.receiver = sniffer

        def client():
            yield from c.send(bed.client.app_thread(0), b"z" * 32)

        bed.loop.process(client())
        bed.loop.run(until=1.0)
        wire = b"".join(sniffed)
        # Sealing the same inner frame at record-counter seqno 0 gives
        # different bytes than what TCPLS put on the wire.
        assert plain_counter.seal(wire[: 10]) not in wire

    def test_no_offload_interface(self):
        # TcplsConnection deliberately exposes no HW mode.
        bed, c, s = make_bed()
        assert not hasattr(c, "mode")

    def test_record_counters_track(self):
        bed, c, s = make_bed()
        run_echo(bed, c, s, 40_000)
        assert c.records_sealed >= 3  # >16KB payload -> multiple records
        assert s.records_opened == c.records_sealed
