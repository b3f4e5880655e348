"""Value semantics of packets and headers, and their exact wire bytes.

Headers are immutable values; ``with_fields`` copies; ``Packet`` equality
ignores ``meta``.  ``WIRE`` pins the encoded bytes of a dozen packets cut
by the real TSO, GSO and switch-trimming code, so a change to how packets
or headers are represented cannot move a single byte on the wire.
"""

import pytest

from repro.net.headers import (
    HEADERS_SIZE,
    PROTO_HOMA,
    PROTO_SMT,
    PROTO_TCP,
    IPv4Header,
    PacketType,
    TransportHeader,
)
from repro.net.packet import Packet
from repro.net.switch import Switch
from repro.nic.tso import TsoSegment, gso_split, split_segment
from repro.sim.event_loop import EventLoop

SRC = 0x0A000001
DST = 0x0A000102
MSS = 16


def _segment(proto, header, payload, mss=MSS):
    return TsoSegment(SRC, DST, proto, header, payload, mss)


def _trimmed() -> Packet:
    """A DATA packet the switch trimmed to headers on a full buffer."""
    loop = EventLoop()
    switch = Switch(loop, buffer_bytes=200, trimming=True)
    got = []
    switch.attach(DST, got.append)
    header = TransportHeader(4000, 5000, 77, msg_len=3 * MSS, priority=2)
    segment = _segment(PROTO_SMT, header, bytes(range(3 * MSS)))
    for packet in split_segment(segment, 40):
        switch.inject(packet)
    loop.run()
    (trimmed,) = [p for p in got if p.meta.get("trimmed")]
    return trimmed


def _packets() -> dict[str, Packet]:
    data = TransportHeader(
        4000, 5000, 0x1122334455667788, PacketType.DATA,
        msg_len=100_000, tso_offset=64_000, priority=5,
    )
    homa = split_segment(_segment(PROTO_HOMA, data, bytes(range(40))), 0xFFFE)
    retx = TransportHeader(
        4000, 5000, 9, PacketType.DATA, msg_len=5000, tso_offset=1440,
        retransmit_offset=17, priority=7,
    )
    grant = TransportHeader(
        0, 5000, 9, PacketType.GRANT, grant_offset=61_440, priority=7
    )
    resend = TransportHeader(
        0, 5000, 9, PacketType.RESEND, tso_offset=2880, msg_len=1440, priority=7
    )
    ids = (9).to_bytes(8, "big") + (11).to_bytes(8, "big")
    ack = TransportHeader(4000, 5000, 9, PacketType.ACK, msg_len=2, priority=7)
    control = TransportHeader(4000, 5000, 3, PacketType.CONTROL, msg_len=5)
    tcp_header = TransportHeader(80, 443, 1000, msg_len=3 * MSS)
    tcp = split_segment(_segment(PROTO_TCP, tcp_header, b"t" * (3 * MSS)), 12)
    gso = gso_split(_segment(PROTO_SMT, data, bytes(range(100, 164))), 2)
    return {
        "homa_data_first": homa[0],
        "homa_data_last": homa[-1],
        "smt_data_explicit_offset": split_segment(
            _segment(PROTO_SMT, retx, b"r" * 10), 3
        )[0],
        "grant": split_segment(_segment(PROTO_HOMA, grant, b""), 4)[0],
        "resend": split_segment(_segment(PROTO_SMT, resend, b""), 5)[0],
        "ack": split_segment(_segment(PROTO_HOMA, ack, ids), 6)[0],
        "control": split_segment(_segment(PROTO_SMT, control, b"hello"), 7)[0],
        "tcp_packet_1": tcp[1],
        "tcp_packet_2": tcp[2],
        "trimmed": _trimmed(),
        "gso_second_segment": split_segment(gso[1], 20)[0],
        "gso_second_segment_last": split_segment(gso[1], 20)[-1],
    }


#: Encoded bytes of each packet above, hex: the wire format, byte for byte.
WIRE = {
    "ack": (
        "4500004c00060000409200000a0000010a0001020fa013880000000000000009"
        "0a03000000000000000000020000000000000000000000000700000000000000"
        "00000009000000000000000b"
    ),
    "control": (
        "4500004100070000409300000a0000010a0001020fa013880000000000000003"
        "0a05000000000000000000050000000000000000000000000000000068656c6c"
        "6f"
    ),
    "grant": (
        "4500003c00040000409200000a0000010a000102000013880000000000000009"
        "0a0100000000000000000000000000000000f0000000000007000000"
    ),
    "gso_second_segment": (
        "4500004c00140000409300000a0000010a0001020fa013881122334455667788"
        "0a00000000000000000186a00000fa2000000000000000000500000084858687"
        "88898a8b8c8d8e8f90919293"
    ),
    "gso_second_segment_last": (
        "4500004c00150000409300000a0000010a0001020fa013881122334455667788"
        "0a00000000000000000186a00000fa2000000000000000000500000094959697"
        "98999a9b9c9d9e9fa0a1a2a3"
    ),
    "homa_data_first": (
        "4500004cfffe0000409200000a0000010a0001020fa013881122334455667788"
        "0a00000000000000000186a00000fa0000000000000000000500000000010203"
        "0405060708090a0b0c0d0e0f"
    ),
    "homa_data_last": (
        "4500004400000000409200000a0000010a0001020fa013881122334455667788"
        "0a00000000000000000186a00000fa0000000000000000000500000020212223"
        "24252627"
    ),
    "resend": (
        "4500003c00050000409300000a0000010a000102000013880000000000000009"
        "0a02000000000000000005a000000b40000000000000000007000000"
    ),
    "smt_data_explicit_offset": (
        "4500004600030000409300000a0000010a0001020fa013880000000000000009"
        "0a0000000000000000001388000005a000000000000000110700000072727272"
        "727272727272"
    ),
    "tcp_packet_1": (
        "4500004c000d0000400600000a0000010a000102005001bb00000000000003f8"
        "0a00000000000000000000300000000000000000000000000000000074747474"
        "747474747474747474747474"
    ),
    "tcp_packet_2": (
        "4500004c000e0000400600000a0000010a000102005001bb0000000000000408"
        "0a00000000000000000000300000000000000000000000000000000074747474"
        "747474747474747474747474"
    ),
    "trimmed": (
        "4500003c002a0000409300000a0000010a0001020fa01388000000000000004d"
        "0a000000000000000000003000000000000000000000000007000000"
    ),
}


@pytest.fixture(scope="module")
def packets():
    return _packets()


@pytest.mark.parametrize("name", sorted(WIRE))
def test_wire_bytes_unchanged(packets, name):
    assert packets[name].encode().hex() == WIRE[name]


def test_every_packet_pinned(packets):
    assert sorted(packets) == sorted(WIRE)


class TestHeaderValues:
    @pytest.mark.parametrize(
        "header, field",
        [
            (IPv4Header(SRC, DST, PROTO_SMT, 60), "ttl"),
            (TransportHeader(1, 2, 3), "msg_id"),
        ],
    )
    def test_fields_cannot_be_assigned(self, header, field):
        with pytest.raises(AttributeError):
            setattr(header, field, 99)

    def test_with_fields_copies(self):
        header = TransportHeader(1, 2, 3, PacketType.GRANT, grant_offset=10)
        changed = header.with_fields(grant_offset=20, priority=4)
        assert changed is not header
        assert (changed.grant_offset, changed.priority) == (20, 4)
        assert header == TransportHeader(1, 2, 3, PacketType.GRANT, grant_offset=10)
        assert changed.with_fields(grant_offset=10, priority=0) == header

    def test_with_fields_rejects_unknown_name(self):
        with pytest.raises((TypeError, ValueError)):
            TransportHeader(1, 2, 3).with_fields(sequence=5)

    def test_defaults(self):
        ip = IPv4Header(SRC, DST, PROTO_SMT, 60)
        assert (ip.ipid, ip.ttl) == (0, 64)
        t = TransportHeader(1, 2, 3)
        assert t.pkt_type is PacketType.DATA
        assert (t.msg_len, t.tso_offset, t.priority, t.incast) == (0, 0, 0, 0)


class TestPacketValues:
    def _packet(self, payload=b"abc", **meta):
        ip = IPv4Header(SRC, DST, PROTO_SMT, HEADERS_SIZE + len(payload))
        return Packet(ip, TransportHeader(1, 2, 3), payload, meta)

    def test_equality_ignores_meta(self):
        assert self._packet(queue=1) == self._packet(queue=2, trimmed=True)
        assert self._packet(b"abc") != self._packet(b"abd")

    def test_sizes(self):
        p = self._packet(b"x" * 100)
        assert p.size == HEADERS_SIZE + 100
        assert p.wire_size == p.size + 38

    def test_roundtrip_of_memoryview_over_bytearray(self):
        # The NIC-offload path hands packets views into a mutable buffer.
        buf = bytearray(b"0123456789abcdef" * 8)
        p = self._packet(memoryview(buf)[16:80])
        wire = p.encode()
        decoded = Packet.decode(wire)
        assert decoded == p
        assert decoded.payload == bytes(buf[16:80])
        assert decoded.encode() == wire
