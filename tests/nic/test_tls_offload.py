"""Autonomous TLS offload engine tests (paper §2.3, §3.2, Figure 2).

These tests exercise the exact hardware behaviours the paper's design is
built around: in-sequence records encrypt correctly, resync retargets the
expectation, and out-of-sequence records silently produce ciphertext the
receiver cannot authenticate.
"""

import pytest

from repro.crypto import aead as aead_module
from repro.crypto.aead import in_flight_stats, new_aead
from repro.errors import AuthenticationError, ProtocolError
from repro.nic.tls_offload import (
    FlowContextTable,
    RecordDescriptor,
    ResyncDescriptor,
    TlsOffloadDescriptor,
)
from repro.tls.constants import TAG_SIZE
from repro.tls.record import RecordProtection, encode_record_header

KEY = b"\x11" * 16
IV = b"\x22" * 12


def layout_record(plaintext):
    """Host-side placeholder: header + plaintext + type/tag space."""
    return (
        encode_record_header(len(plaintext) + 1 + TAG_SIZE)
        + plaintext
        + bytes(1 + TAG_SIZE)
    )


def make_table(key="ctx"):
    table = FlowContextTable()
    table.install(key, new_aead("aes-128-gcm", KEY), IV)
    return table


def opener():
    return RecordProtection(new_aead("aes-128-gcm", KEY), IV)


class TestInSequence:
    def test_single_record_encrypts_like_software(self):
        table = make_table()
        payload = layout_record(b"hello world")
        desc = TlsOffloadDescriptor("ctx", [RecordDescriptor(0, 11, seqno=0)])
        wire = table.encrypt_segment(payload, desc)
        sw = RecordProtection(new_aead("aes-128-gcm", KEY), IV).seal(b"hello world", seqno=0)
        assert wire == sw

    def test_receiver_can_open(self):
        table = make_table()
        payload = layout_record(b"data")
        desc = TlsOffloadDescriptor("ctx", [RecordDescriptor(0, 4, seqno=0)])
        wire = table.encrypt_segment(payload, desc)
        assert opener().open(wire, seqno=0).payload == b"data"

    def test_multiple_records_in_one_segment(self):
        table = make_table()
        r0, r1 = layout_record(b"first"), layout_record(b"second")
        desc = TlsOffloadDescriptor(
            "ctx",
            [
                RecordDescriptor(0, 5, seqno=0),
                RecordDescriptor(len(r0), 6, seqno=1),
            ],
        )
        wire = table.encrypt_segment(r0 + r1, desc)
        assert opener().open(wire[: len(r0)], seqno=0).payload == b"first"
        assert opener().open(wire[len(r0):], seqno=1).payload == b"second"

    def test_counter_self_increments_across_segments(self):
        # Figure 2 "In-seq.": S2 after S1 works with no resync.
        table = make_table()
        for seqno, text in enumerate([b"s1", b"s2", b"s3"]):
            payload = layout_record(text)
            desc = TlsOffloadDescriptor("ctx", [RecordDescriptor(0, len(text), seqno=seqno)])
            wire = table.encrypt_segment(payload, desc)
            assert opener().open(wire, seqno=seqno).payload == text
        assert table.context_stats("ctx")["out_of_sync_records"] == 0
        assert table.context_stats("ctx")["resyncs"] == 0


class TestOutOfSequence:
    def test_skipped_seqno_produces_unopenable_record(self):
        # Figure 2 "Out-seq.": S3 after S1 without resync -> corrupt.
        table = make_table()
        table.encrypt_segment(
            layout_record(b"s1"), TlsOffloadDescriptor("ctx", [RecordDescriptor(0, 2, 0)])
        )
        wire = table.encrypt_segment(
            layout_record(b"s3"), TlsOffloadDescriptor("ctx", [RecordDescriptor(0, 2, 2)])
        )
        # The engine used its expectation (1), not the host's intent (2).
        with pytest.raises(AuthenticationError):
            opener().open(wire, seqno=2)
        assert table.context_stats("ctx")["out_of_sync_records"] == 1

    def test_resync_fixes_skipped_seqno(self):
        # Figure 2 "Out-resync.": R3 before S3 retargets the expectation.
        table = make_table()
        table.encrypt_segment(
            layout_record(b"s1"), TlsOffloadDescriptor("ctx", [RecordDescriptor(0, 2, 0)])
        )
        table.apply_resync(ResyncDescriptor("ctx", 2))
        wire = table.encrypt_segment(
            layout_record(b"s3"), TlsOffloadDescriptor("ctx", [RecordDescriptor(0, 2, 2)])
        )
        assert opener().open(wire, seqno=2).payload == b"s3"
        assert table.context_stats("ctx")["resyncs"] == 1

    def test_retransmission_resync_reproduces_ciphertext(self):
        # TCP retransmit: re-encrypting the same record after resync must
        # give identical bytes (same key, same nonce).
        table = make_table()
        desc = TlsOffloadDescriptor("ctx", [RecordDescriptor(0, 8, seqno=5)])
        table.apply_resync(ResyncDescriptor("ctx", 5))
        first = table.encrypt_segment(layout_record(b"retrans!"), desc)
        table.apply_resync(ResyncDescriptor("ctx", 5))
        again = table.encrypt_segment(layout_record(b"retrans!"), desc)
        assert first == again

    def test_cross_queue_interleaving_corrupts_shared_context(self):
        # The §3.2 hazard: two (resync, segment) pairs from different rings
        # sharing one context interleave as R4, R5, S4, S5.
        table = make_table("shared")
        r4 = ResyncDescriptor("shared", 40)
        s4 = TlsOffloadDescriptor("shared", [RecordDescriptor(0, 2, 40)])
        r5 = ResyncDescriptor("shared", 50)
        s5 = TlsOffloadDescriptor("shared", [RecordDescriptor(0, 2, 50)])
        table.apply_resync(r4)
        table.apply_resync(r5)  # ring B's resync lands between ring A's pair
        wire4 = table.encrypt_segment(layout_record(b"m4"), s4)
        wire5 = table.encrypt_segment(layout_record(b"m5"), s5)
        # S4 was encrypted with expectation 50: unopenable at seqno 40.
        with pytest.raises(AuthenticationError):
            opener().open(wire4, seqno=40)
        # And S5 got expectation 51: also corrupt.
        with pytest.raises(AuthenticationError):
            opener().open(wire5, seqno=50)

    def test_separate_contexts_avoid_the_hazard(self):
        # SMT's fix (§4.4.2): one context per queue -- same interleaving,
        # no corruption.
        table = FlowContextTable()
        table.install(("q", 0), new_aead("aes-128-gcm", KEY), IV)
        table.install(("q", 1), new_aead("aes-128-gcm", KEY), IV)
        table.apply_resync(ResyncDescriptor(("q", 0), 40))
        table.apply_resync(ResyncDescriptor(("q", 1), 50))
        wire4 = table.encrypt_segment(
            layout_record(b"m4"), TlsOffloadDescriptor(("q", 0), [RecordDescriptor(0, 2, 40)])
        )
        wire5 = table.encrypt_segment(
            layout_record(b"m5"), TlsOffloadDescriptor(("q", 1), [RecordDescriptor(0, 2, 50)])
        )
        assert opener().open(wire4, seqno=40).payload == b"m4"
        assert opener().open(wire5, seqno=50).payload == b"m5"


class TestContextManagement:
    def test_unknown_context_rejected(self):
        table = FlowContextTable()
        with pytest.raises(ProtocolError):
            table.encrypt_segment(b"", TlsOffloadDescriptor("nope", []))
        with pytest.raises(ProtocolError):
            table.apply_resync(ResyncDescriptor("nope", 0))

    def test_capacity_evicts_lru(self):
        table = FlowContextTable(capacity=2)
        for name in ("a", "b", "c"):
            table.install(name, new_aead("aes-128-gcm", KEY), IV)
        assert not table.has_context("a")
        assert table.has_context("b") and table.has_context("c")
        assert table.evictions == 1

    def test_reinstall_resets_state(self):
        table = make_table()
        table.encrypt_segment(
            layout_record(b"xx"), TlsOffloadDescriptor("ctx", [RecordDescriptor(0, 2, 0)])
        )
        table.install("ctx", new_aead("aes-128-gcm", KEY), IV)
        assert table.context_stats("ctx")["expected_seqno"] is None

    def test_descriptor_exceeding_payload_rejected(self):
        table = make_table()
        desc = TlsOffloadDescriptor("ctx", [RecordDescriptor(0, 100, 0)])
        with pytest.raises(ProtocolError):
            table.encrypt_segment(layout_record(b"xx"), desc)

    def test_slice_for_gso(self):
        r0 = layout_record(b"abcd")
        desc = TlsOffloadDescriptor(
            "ctx",
            [RecordDescriptor(0, 4, 0), RecordDescriptor(len(r0), 4, 1)],
        )
        sub = desc.slice(len(r0), len(r0))
        assert len(sub.records) == 1
        assert sub.records[0].offset == 0 and sub.records[0].seqno == 1

    def test_slice_straddle_rejected(self):
        r0 = layout_record(b"abcd")
        desc = TlsOffloadDescriptor("ctx", [RecordDescriptor(0, 4, 0)])
        with pytest.raises(ProtocolError):
            desc.slice(5, len(r0))


class TestRejectedLayoutChangesNothing:
    """A layout the engine rejects leaves the context, its counters and the
    in-flight table exactly as they were."""

    @pytest.fixture
    def table(self, monkeypatch):
        monkeypatch.setattr(aead_module, "_IN_FLIGHT", aead_module._InFlight())
        table = FlowContextTable()
        table.install("ctx", new_aead("fast", KEY), IV)
        # One good segment first, so the context has an expectation to keep.
        table.encrypt_segment(
            layout_record(b"warm"), TlsOffloadDescriptor("ctx", [RecordDescriptor(0, 4, 0)])
        )
        return table

    @pytest.mark.parametrize(
        "offsets",
        [
            pytest.param((0, 10), id="overlapping"),
            pytest.param((40, 0), id="out-of-order"),
        ],
    )
    def test_bad_layout_raises_before_any_state_moves(self, table, offsets):
        payload = layout_record(b"x" * 10) + layout_record(b"y" * 10) + bytes(40)
        desc = TlsOffloadDescriptor(
            "ctx",
            [RecordDescriptor(off, 10, seqno) for seqno, off in enumerate(offsets, 1)],
        )
        context, books = table.context_stats("ctx"), in_flight_stats()
        with pytest.raises(ProtocolError, match="overlap or are out of order"):
            table.encrypt_segment(payload, desc)
        assert table.context_stats("ctx") == context
        assert in_flight_stats() == books
        assert context["records_encrypted"] == 1 and context["expected_seqno"] == 1

    def test_descriptor_past_the_end_moves_nothing(self, table):
        context, books = table.context_stats("ctx"), in_flight_stats()
        desc = TlsOffloadDescriptor(
            "ctx", [RecordDescriptor(0, 2, 1), RecordDescriptor(24, 100, 2)]
        )
        with pytest.raises(ProtocolError, match="exceeds segment payload"):
            table.encrypt_segment(layout_record(b"ab") * 2, desc)
        assert table.context_stats("ctx") == context
        assert in_flight_stats() == books
