"""Unit tests for the in-memory packet capture ring."""

import json

from repro.net.addressing import make_addr
from repro.net.headers import IPv4Header, PacketType, TransportHeader
from repro.net.packet import Packet
from repro.obs.capture import PacketCapture
from repro.sim.event_loop import EventLoop

SRC = make_addr(10, 0, 0, 1)
DST = make_addr(10, 0, 0, 2)


def make_packet(msg_id: int = 7, ipid: int = 3, trimmed: bool = False) -> Packet:
    pkt = Packet(
        IPv4Header(SRC, DST, 147, total_len=124, ipid=ipid),
        TransportHeader(
            src_port=10000, dst_port=7000, msg_id=msg_id,
            pkt_type=PacketType.DATA, msg_len=1440, priority=6,
        ),
        payload=b"\x00" * 64,
    )
    if trimmed:
        pkt.meta["trimmed"] = True
    return pkt


class TestRecording:
    def test_record_copies_header_fields(self):
        loop = EventLoop()
        cap = PacketCapture(loop)
        rec = cap.record("c2s", make_packet(), "delivered+corrupt")
        assert rec.src == SRC and rec.dst == DST
        assert rec.pkt_type == "DATA"
        assert rec.msg_id == 7 and rec.payload_len == 64
        assert rec.verdict == "delivered+corrupt"
        assert rec.ts == loop.now

    def test_tap_callback_records_with_direction(self):
        cap = PacketCapture(EventLoop())
        tap = cap.tap("s2c")
        tap(make_packet(), "dropped")
        tap(make_packet())  # default verdict
        recs = cap.packets()
        assert [r.direction for r in recs] == ["s2c", "s2c"]
        assert [r.verdict for r in recs] == ["dropped", "delivered"]

    def test_ring_eviction_keeps_seq_numbers(self):
        cap = PacketCapture(EventLoop(), capacity=3)
        for i in range(5):
            cap.record("c2s", make_packet(msg_id=i))
        assert cap.seen == 5
        assert len(cap) == 3
        assert cap.evicted == 2
        assert [r.seq for r in cap.packets()] == [2, 3, 4]

    def test_last_n(self):
        cap = PacketCapture(EventLoop())
        for i in range(4):
            cap.record("c2s", make_packet(msg_id=i))
        assert [r.msg_id for r in cap.last(2)] == [2, 3]
        assert cap.last(0) == []


class TestExport:
    def test_jsonl_round_trips(self):
        cap = PacketCapture(EventLoop())
        cap.record("c2s", make_packet(), "delivered")
        cap.record("s2c", make_packet(trimmed=True), "delivered+reorder")
        lines = cap.export_jsonl().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["dir"] == "c2s" and first["type"] == "DATA"
        assert json.loads(lines[1])["trimmed"] is True

    def test_text_format_is_tcpdump_like(self):
        cap = PacketCapture(EventLoop())
        cap.record("c2s", make_packet(), "delivered+dup")
        line = cap.export_text()
        assert "10.0.0.1:10000>10.0.0.2:7000" in line
        assert "DATA" in line and "[delivered+dup]" in line

    def test_tail_text_header_counts_evictions(self):
        cap = PacketCapture(EventLoop(), capacity=2)
        for i in range(5):
            cap.record("c2s", make_packet(msg_id=i))
        tail = cap.tail_text(10)
        assert tail.startswith("last 2 of 5 captured packets (3 evicted")

    def test_clear(self):
        cap = PacketCapture(EventLoop())
        cap.record("c2s", make_packet())
        cap.clear()
        assert len(cap) == 0
        assert cap.seen == 1  # totals survive a clear
