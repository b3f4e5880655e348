"""kTLS tests: software and NIC-offloaded record protection over TCP."""

import pytest

from repro.bench.runner import CLIENT_KEYS, SERVER_KEYS
from repro.errors import AuthenticationError, CryptoError, ProtocolError
from repro.ktls import KtlsConnection, ktls_pair
from repro.net.headers import PacketType
from repro.tcp import connect_pair
from repro.testbed import Testbed
from repro.tls.keyschedule import TrafficKeys


def make_bed(mode, **kwargs):
    bed = Testbed.back_to_back()
    conn_c, conn_s = connect_pair(bed.client, bed.server, 5000, **kwargs)
    c, s = ktls_pair(conn_c, conn_s, mode, CLIENT_KEYS, SERVER_KEYS)
    return bed, c, s


def run_echo(bed, c, s, size, count=1):
    results = {"echoes": []}

    def server():
        t = bed.server.app_thread(0)
        for _ in range(count):
            data = b""
            while len(data) < size:
                data += yield from s.recv(t)
            yield from s.send(t, data)

    def client():
        t = bed.client.app_thread(0)
        for i in range(count):
            yield from c.send(t, bytes([i & 0xFF]) * size)
            data = b""
            while len(data) < size:
                data += yield from c.recv(t)
            results["echoes"].append(data)

    bed.loop.process(server())
    done = bed.loop.process(client())
    bed.loop.run(until=5.0)
    assert done.triggered, "deadlock"
    if not done.ok:
        raise done.value
    return results


class TestModes:
    @pytest.mark.parametrize("mode", [None, "sw", "hw"])
    def test_echo_small(self, mode):
        bed, c, s = make_bed(mode)
        results = run_echo(bed, c, s, 64)
        assert results["echoes"][0] == b"\x00" * 64

    @pytest.mark.parametrize("mode", [None, "sw", "hw"])
    def test_echo_multi_record(self, mode):
        # > 16 KB: spans multiple TLS records.
        bed, c, s = make_bed(mode)
        results = run_echo(bed, c, s, 40_000)
        assert results["echoes"][0] == b"\x00" * 40_000

    @pytest.mark.parametrize("mode", [None, "sw", "hw"])
    def test_echo_sequence(self, mode):
        bed, c, s = make_bed(mode)
        results = run_echo(bed, c, s, 1024, count=5)
        assert [e[0] for e in results["echoes"]] == [0, 1, 2, 3, 4]

    def test_unknown_mode_rejected(self):
        bed = Testbed.back_to_back()
        conn, _ = connect_pair(bed.client, bed.server, 5000)
        with pytest.raises(CryptoError):
            KtlsConnection(conn, mode="quantum")

    def test_encrypted_mode_needs_keys(self):
        bed = Testbed.back_to_back()
        conn, _ = connect_pair(bed.client, bed.server, 5000)
        with pytest.raises(CryptoError):
            KtlsConnection(conn, mode="sw", write_keys=None, read_keys=None)


class TestWireConfidentiality:
    @pytest.mark.parametrize("mode", ["sw", "hw"])
    def test_payload_not_on_wire_in_clear(self, mode):
        bed = Testbed.back_to_back()
        conn_c, conn_s = connect_pair(bed.client, bed.server, 5000)
        c, s = ktls_pair(conn_c, conn_s, mode, CLIENT_KEYS, SERVER_KEYS)
        secret = b"SECRET-VALUE-0123456789" * 4
        sniffed = []
        original_cb = bed.link._a_to_b.receiver

        def sniffer(packet):
            sniffed.append(bytes(packet.payload))
            original_cb(packet)

        bed.link._a_to_b.receiver = sniffer
        run_echo_payload = {}

        def server():
            t = bed.server.app_thread(0)
            data = b""
            while len(data) < len(secret):
                data += yield from s.recv(t)
            run_echo_payload["got"] = data

        def client():
            yield from c.send(bed.client.app_thread(0), secret)

        bed.loop.process(server())
        bed.loop.process(client())
        bed.loop.run(until=1.0)
        assert run_echo_payload["got"] == secret
        wire = b"".join(sniffed)
        assert secret not in wire
        assert b"SECRET" not in wire

    def test_plain_mode_payload_visible(self):
        bed = Testbed.back_to_back()
        conn_c, conn_s = connect_pair(bed.client, bed.server, 5000)
        c, s = ktls_pair(conn_c, conn_s, None, CLIENT_KEYS, SERVER_KEYS)
        sniffed = []
        original_cb = bed.link._a_to_b.receiver

        def sniffer(packet):
            sniffed.append(bytes(packet.payload))
            original_cb(packet)

        bed.link._a_to_b.receiver = sniffer

        def client():
            yield from c.send(bed.client.app_thread(0), b"PLAINTEXT-MARKER")

        bed.loop.process(client())
        bed.loop.run(until=1.0)
        assert b"PLAINTEXT-MARKER" in b"".join(sniffed)

    def test_hw_and_sw_produce_identical_wire_bytes(self):
        # The NIC engine must be a drop-in for software sealing.
        keys_c = TrafficKeys(key=b"\x11" * 16, iv=b"\x22" * 12)
        keys_s = TrafficKeys(key=b"\x33" * 16, iv=b"\x44" * 12)
        wires = {}
        for mode in ("sw", "hw"):
            bed = Testbed.back_to_back()
            conn_c, conn_s = connect_pair(bed.client, bed.server, 5000)
            c, s = ktls_pair(conn_c, conn_s, mode, keys_c, keys_s)
            sniffed = []
            original_cb = bed.link._a_to_b.receiver

            def sniffer(packet, sniffed=sniffed, original_cb=original_cb):
                if packet.transport.pkt_type == PacketType.DATA:
                    sniffed.append(bytes(packet.payload))
                original_cb(packet)

            bed.link._a_to_b.receiver = sniffer

            def client():
                yield from c.send(bed.client.app_thread(0), b"same-bytes" * 100)

            bed.loop.process(client())
            bed.loop.run(until=1.0)
            wires[mode] = b"".join(sniffed)
        assert wires["sw"] == wires["hw"]


class TestTamperDetection:
    def test_bit_flip_on_wire_detected(self):
        bed = Testbed.back_to_back()
        conn_c, conn_s = connect_pair(bed.client, bed.server, 5000)
        c, s = ktls_pair(conn_c, conn_s, "sw", CLIENT_KEYS, SERVER_KEYS)
        flipped = [False]
        original_cb = bed.link._a_to_b.receiver

        def tamper(packet):
            if packet.payload and not flipped[0]:
                flipped[0] = True
                mutated = bytearray(packet.payload)
                mutated[8] ^= 1  # inside the ciphertext
                from repro.net.packet import Packet

                packet = Packet(packet.ip, packet.transport, bytes(mutated), packet.meta)
            original_cb(packet)

        bed.link._a_to_b.receiver = tamper

        def server():
            t = bed.server.app_thread(0)
            yield from s.recv(t)

        def client():
            yield from c.send(bed.client.app_thread(0), b"x" * 100)

        srv = bed.loop.process(server())
        bed.loop.process(client())
        bed.loop.run(until=1.0)
        assert srv.triggered and not srv.ok
        assert isinstance(srv.value, AuthenticationError)


class TestContentType:
    @pytest.mark.parametrize("entry", ["recv", "recv_available"])
    def test_non_application_data_record_rejected(self, entry):
        # A well-authenticated record of another content type (an alert)
        # must not reach the application as data, on either receive entry.
        bed, c, s = make_bed("sw")
        alert = c._write.seal(b"\x01\x00", content_type=21)

        def server():
            t = bed.server.app_thread(0)
            if entry == "recv_available":
                yield bed.loop.timeout(1e-3)  # let the record land first
            yield from getattr(s, entry)(t)

        def client():
            yield from c.conn.send(bed.client.app_thread(0), alert)

        srv = bed.loop.process(server())
        bed.loop.process(client())
        bed.loop.run(until=1.0)
        assert srv.triggered and not srv.ok
        assert isinstance(srv.value, ProtocolError)
        assert s.records_opened == 0


class TestHwRetransmission:
    def test_loss_with_offload_recovers_via_resync(self):
        # Paper §3.2: "TCP uses this feature for retransmissions where the
        # NIC sees the previous record sequence numbers."
        bed = Testbed.back_to_back()
        conn_c, conn_s = connect_pair(bed.client, bed.server, 5000, rto=0.5e-3)
        c, s = ktls_pair(conn_c, conn_s, "hw", CLIENT_KEYS, SERVER_KEYS)
        state = {"n": 0}

        def loss_fn(packet):
            if packet.transport.pkt_type == PacketType.DATA:
                state["n"] += 1
                return state["n"] == 1
            return False

        bed.link.set_loss_fn("a", loss_fn)
        results = run_echo(bed, c, s, 4096)
        assert results["echoes"][0] == b"\x00" * 4096
        assert conn_c.retransmits >= 1
        # The retransmission went through a resync descriptor.
        key = ("ktls", id(c))
        assert bed.client.nic.flow_contexts.context_stats(key)["resyncs"] >= 1
