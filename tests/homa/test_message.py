"""Message reassembly tests: segment assembly from TSO packets and resends."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.homa.message import (
    InboundMessage,
    SegmentAssembler,
    sort_circular_ipids,
)


class TestCircularSort:
    def test_plain_ordering(self):
        assert sort_circular_ipids([5, 3, 4]) == [3, 4, 5]

    def test_wrapped_ordering(self):
        assert sort_circular_ipids([0xFFFF, 0, 1]) == [0xFFFF, 0, 1]

    def test_wrap_mid_run(self):
        assert sort_circular_ipids([1, 0xFFFE, 0xFFFF, 0]) == [0xFFFE, 0xFFFF, 0, 1]

    def test_empty(self):
        assert sort_circular_ipids([]) == []

    @given(st.integers(0, 0xFFFF), st.integers(1, 44))
    @settings(max_examples=50, deadline=None)
    def test_any_consecutive_run(self, start, length):
        expected = [(start + i) & 0xFFFF for i in range(length)]
        import random

        shuffled = expected[:]
        random.Random(0).shuffle(shuffled)
        assert sort_circular_ipids(shuffled) == expected


def chunks_of(payload, mss):
    return [payload[i : i + mss] for i in range(0, len(payload), mss)]


class TestSegmentAssembler:
    MSS = 100

    def _payload(self, n):
        return bytes(range(256)) * (n // 256 + 1)

    def test_in_order_tso_packets(self):
        payload = self._payload(350)[:350]
        asm = SegmentAssembler(350, self.MSS)
        for i, chunk in enumerate(chunks_of(payload, self.MSS)):
            asm.add_tso_packet(1000 + i, chunk)
        assert asm.complete and b"".join(asm.packets) == payload

    def test_out_of_order_tso_packets(self):
        payload = self._payload(350)[:350]
        asm = SegmentAssembler(350, self.MSS)
        pieces = list(enumerate(chunks_of(payload, self.MSS)))
        for i, chunk in reversed(pieces):
            asm.add_tso_packet(1000 + i, chunk)
        assert asm.complete and b"".join(asm.packets) == payload

    def test_ipid_wraparound(self):
        payload = self._payload(300)[:300]
        asm = SegmentAssembler(300, self.MSS)
        for i, chunk in enumerate(chunks_of(payload, self.MSS)):
            asm.add_tso_packet((0xFFFF + i) & 0xFFFF, chunk)
        assert asm.complete and b"".join(asm.packets) == payload

    def test_duplicate_tso_packet_ignored(self):
        payload = self._payload(200)[:200]
        asm = SegmentAssembler(200, self.MSS)
        parts = chunks_of(payload, self.MSS)
        asm.add_tso_packet(10, parts[0])
        asm.add_tso_packet(10, parts[0])  # spurious duplicate
        assert asm.spurious == 1
        asm.add_tso_packet(11, parts[1])
        assert asm.complete and b"".join(asm.packets) == payload

    def test_pure_explicit_assembly(self):
        # All packets retransmitted with explicit offsets.
        payload = self._payload(250)[:250]
        asm = SegmentAssembler(250, self.MSS)
        for off in (200, 0, 100):
            asm.add_explicit_packet(off, payload[off : off + self.MSS])
        assert asm.complete and b"".join(asm.packets) == payload

    def test_mixed_arrivals_wait_for_full_explicit_coverage(self):
        # Packets 0 and 2 arrive via TSO; packet 1 is lost.  A single
        # explicit retransmission of packet 1 is NOT enough: mixing
        # rank-unknown TSO packets with explicit slots is ambiguous, so
        # the assembler waits until explicit coverage is complete (the
        # RESEND machinery re-requests whole segments).
        payload = self._payload(300)[:300]
        asm = SegmentAssembler(300, self.MSS)
        parts = chunks_of(payload, self.MSS)
        asm.add_tso_packet(50, parts[0])
        asm.add_tso_packet(52, parts[2])
        assert not asm.complete
        asm.add_explicit_packet(100, parts[1])
        assert not asm.complete  # ambiguous: keep waiting
        asm.add_explicit_packet(0, parts[0])
        asm.add_explicit_packet(200, parts[2])
        assert asm.complete and b"".join(asm.packets) == payload

    def test_ambiguous_mix_never_misassembles(self):
        # The corruption scenario the mixed path allowed: the TSO tail is
        # lost and explicit packets cover the head.  Relative IPID spacing
        # looks consistent, but assembling would misplace every packet.
        payload = self._payload(500)[:500]
        asm = SegmentAssembler(500, self.MSS)
        parts = chunks_of(payload, self.MSS)
        # TSO ranks 0..3 arrive (rank 4 lost); explicit retransmission of
        # slot 0 also arrives (spurious).
        for i in range(4):
            asm.add_tso_packet(70 + i, parts[i])
        asm.add_explicit_packet(0, parts[0])
        assert not asm.complete  # must not guess
        # Full explicit coverage resolves it correctly.
        for slot in (100, 200, 300, 400):
            asm.add_explicit_packet(slot, parts[slot // 100])
        assert asm.complete and b"".join(asm.packets) == payload

    def test_spurious_retransmit_after_completion_ignored(self):
        payload = self._payload(200)[:200]
        asm = SegmentAssembler(200, self.MSS)
        parts = chunks_of(payload, self.MSS)
        asm.add_tso_packet(0, parts[0])
        asm.add_tso_packet(1, parts[1])
        assert asm.complete
        asm.add_explicit_packet(0, parts[0])
        assert asm.spurious == 1
        assert b"".join(asm.packets) == payload

    def test_pure_tso_preferred_over_ambiguous_mix(self):
        # Original packet and its explicit retransmit both arrive, and all
        # other originals arrive too: pure-TSO assembly wins.
        payload = self._payload(300)[:300]
        asm = SegmentAssembler(300, self.MSS)
        parts = chunks_of(payload, self.MSS)
        asm.add_explicit_packet(100, parts[1])  # spurious retransmit first
        for i, chunk in enumerate(parts):
            asm.add_tso_packet(i, chunk)
        assert asm.complete and b"".join(asm.packets) == payload

    def test_bad_explicit_offset_rejected(self):
        asm = SegmentAssembler(200, self.MSS)
        with pytest.raises(ProtocolError):
            asm.add_explicit_packet(55, b"x" * 100)  # not mss-aligned

    def test_single_packet_segment(self):
        asm = SegmentAssembler(40, self.MSS)
        asm.add_tso_packet(999, b"y" * 40)
        assert asm.complete and b"".join(asm.packets) == b"y" * 40

    @given(st.integers(1, 1000), st.integers(0, 0xFFFF), st.permutations(range(10)))
    @settings(max_examples=40, deadline=None)
    def test_any_arrival_order_property(self, seg_len, start_ipid, order):
        mss = 100
        payload = (b"0123456789abcdef" * 63)[:seg_len]
        asm = SegmentAssembler(seg_len, mss)
        parts = chunks_of(payload, mss)
        indices = [i for i in order if i < len(parts)]
        for i in indices:
            asm.add_tso_packet((start_ipid + i) & 0xFFFF, parts[i])
        assert asm.complete
        assert b"".join(asm.packets) == payload


class TestInboundMessage:
    def _msg(self, wire_len=1000, cap=300, mss=100):
        return InboundMessage(
            msg_id=2, peer_addr=1, peer_port=1, local_port=2,
            wire_len=wire_len, segment_capacity=cap, mss=mss,
        )

    def test_segment_lengths(self):
        msg = self._msg(wire_len=1000, cap=300)
        assert msg.segment_length(0) == 300
        assert msg.segment_length(900) == 100  # final partial segment

    def test_bad_offset_rejected(self):
        msg = self._msg()
        with pytest.raises(ProtocolError):
            msg.segment_length(50)
        with pytest.raises(ProtocolError):
            msg.segment_length(1200)

    def test_assemble_requires_completeness(self):
        msg = self._msg(wire_len=200, cap=300)
        with pytest.raises(ProtocolError):
            msg.assemble()

    def test_full_assembly(self):
        msg = self._msg(wire_len=500, cap=300, mss=100)
        payload = bytes(range(250)) * 2
        for seg_off in (0, 300):
            asm = msg.assembler(seg_off)
            seg = payload[seg_off : seg_off + 300]
            for i in range(0, len(seg), 100):
                asm.add_tso_packet(i // 100, seg[i : i + 100])
            msg.received_bytes += asm.seg_len
        assert msg.complete
        assert bytes(msg.assemble()) == payload

    def test_missing_ranges(self):
        msg = self._msg(wire_len=700, cap=300)
        asm = msg.assembler(300)
        for i in range(3):
            asm.add_tso_packet(i, b"z" * 100)
        msg.received_bytes += 300
        assert msg.missing_ranges() == [(0, 300), (600, 100)]
