"""Wire-format tests: byte-exact header round trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.net.addressing import flow_hash, format_addr, make_addr
from repro.net.headers import (
    HEADERS_SIZE,
    IPV4_HEADER_SIZE,
    IPv4Header,
    PROTO_HOMA,
    PROTO_SMT,
    PROTO_TCP,
    PacketType,
    TRANSPORT_HEADER_SIZE,
    TransportHeader,
)
from repro.net.packet import Packet


class TestAddressing:
    def test_make_and_format(self):
        addr = make_addr(10, 0, 0, 1)
        assert format_addr(addr) == "10.0.0.1"

    def test_bad_octet(self):
        with pytest.raises(ValueError):
            make_addr(256, 0, 0, 1)

    def test_rss_hash_deterministic(self):
        flow = (1, 100, 2, 200, PROTO_SMT)
        assert flow_hash(*flow) == flow_hash.__wrapped__(*flow)

    def test_rss_hash_differs_per_flow(self):
        a = flow_hash(1, 100, 2, 200, PROTO_SMT)
        b = flow_hash(1, 101, 2, 200, PROTO_SMT)
        assert a != b


class TestIPv4Header:
    def test_size(self):
        assert len(IPv4Header(1, 2, PROTO_TCP, 60).encode()) == IPV4_HEADER_SIZE

    def test_roundtrip(self):
        header = IPv4Header(make_addr(10, 0, 0, 1), make_addr(10, 0, 0, 2),
                            PROTO_HOMA, 1500, ipid=777)
        assert IPv4Header.decode(header.encode()) == header

    def test_truncated_rejected(self):
        with pytest.raises(ProtocolError):
            IPv4Header.decode(bytes(10))

    def test_bad_version_rejected(self):
        data = bytearray(IPv4Header(1, 2, 6, 60).encode())
        data[0] = 0x55
        with pytest.raises(ProtocolError):
            IPv4Header.decode(bytes(data))


class TestTransportHeader:
    def test_size_is_40_bytes(self):
        # 20-byte TCP common part + 20 bytes of options (paper Fig. 3).
        header = TransportHeader(1, 2, 3)
        assert len(header.encode()) == TRANSPORT_HEADER_SIZE == 40

    def test_roundtrip_all_fields(self):
        header = TransportHeader(
            src_port=1234,
            dst_port=80,
            msg_id=0xDEADBEEF12345678,
            pkt_type=PacketType.GRANT,
            resend_packet_offset=7,
            msg_len=1_000_000,
            tso_offset=64_000,
            grant_offset=120_000,
            retransmit_offset=1449,
            priority=6,
            incast=1,
        )
        assert TransportHeader.decode(header.encode()) == header

    def test_truncated_rejected(self):
        with pytest.raises(ProtocolError):
            TransportHeader.decode(bytes(20))

    def test_unknown_packet_type_rejected(self):
        # Every flags byte that names no PacketType, through both decoders
        # (Packet.decode is the shard boundary's).
        ip = IPv4Header(1, 2, PROTO_SMT, HEADERS_SIZE).encode()
        known = {int(t) for t in PacketType}
        unknown = [b for b in range(256) if b not in known]
        assert len(unknown) == 256 - len(PacketType)
        for pkt_type in unknown:
            data = bytearray(TransportHeader(1, 2, 3).encode())
            data[13] = pkt_type
            with pytest.raises(ProtocolError):
                TransportHeader.decode(bytes(data))
            with pytest.raises(ProtocolError):
                Packet.decode(ip + bytes(data))

    def test_with_fields(self):
        header = TransportHeader(1, 2, 3)
        modified = header.with_fields(tso_offset=500)
        assert modified.tso_offset == 500 and modified.msg_id == 3
        assert header.tso_offset == 0  # frozen original untouched

    @given(
        st.integers(0, 0xFFFF),
        st.integers(0, 0xFFFF),
        st.integers(0, (1 << 64) - 1),
        st.sampled_from(list(PacketType)),
        st.integers(0, 0xFFFFFFFF),
        st.integers(0, 0xFFFFFFFF),
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, sport, dport, msg_id, ptype, msg_len, tso_off):
        header = TransportHeader(
            sport, dport, msg_id, ptype, msg_len=msg_len, tso_offset=tso_off
        )
        assert TransportHeader.decode(header.encode()) == header


class TestPacket:
    def _packet(self, payload=b"hello"):
        ip = IPv4Header(make_addr(10, 0, 0, 1), make_addr(10, 0, 0, 2), PROTO_SMT, 0)
        transport = TransportHeader(5, 6, 7, msg_len=len(payload))
        return Packet(ip, transport, payload)

    def test_size(self):
        assert self._packet().size == HEADERS_SIZE + 5

    def test_wire_size_includes_ethernet(self):
        p = self._packet()
        assert p.wire_size == p.size + 38

    def test_encode_decode_roundtrip(self):
        p = self._packet(b"payload-bytes")
        decoded = Packet.decode(p.encode())
        assert decoded.payload == b"payload-bytes"
        assert decoded.transport == p.transport
        assert decoded.ip.src_addr == p.ip.src_addr

    def test_length_mismatch_rejected(self):
        data = self._packet().encode()
        with pytest.raises(ProtocolError):
            Packet.decode(data + b"extra")

    def test_meta_not_in_equality(self):
        a, b = self._packet(), self._packet()
        a.meta["queue"], b.meta["queue"] = 1, 2
        assert a == b  # meta is simulation-only annotation
