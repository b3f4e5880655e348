"""Sealing into the wire buffer: one seal primitive for every record path.

``RecordProtection.seal_batch(items, out, offsets)`` writes each record
into the buffer its caller sends, and FastAead's in-flight table files
views of that buffer.  The reference here is the record path as it was
before: every record sealed on its own (``header + seal(payload ||
type)``) and the pieces joined, with FastAead's per-byte reference XOR
and one-message SHA-1 tag from ``test_aead_bytes``.
"""

import random

import pytest

from repro.core.codec import SmtCodec
from repro.core.framing import plan_message
from repro.core.session import SmtSession
from repro.crypto import aead as aead_module
from repro.crypto.aead import FastAead, in_flight_stats, shared_aead
from repro.crypto.gcm import AesGcm
from repro.errors import AuthenticationError
from repro.host.costs import CostModel
from repro.ktls import KtlsConnection
from repro.nic.tls_offload import (
    FlowContextTable,
    RecordDescriptor,
    TlsOffloadDescriptor,
    seal_layout,
)
from repro.tls.constants import CONTENT_APPLICATION_DATA, MAX_RECORD_PAYLOAD, TAG_SIZE
from repro.tls.keyschedule import TrafficKeys
from repro.tls.record import RecordProtection, encode_record_header
from tests.crypto.test_aead_bytes import (
    AADS,
    LENGTHS,
    _reference_tag,
    _reference_xor,
)

TX = TrafficKeys(key=b"\x01" * 16, iv=b"\x02" * 12)
RX = TrafficKeys(key=b"\x03" * 16, iv=b"\x04" * 12)
MSS = 1440
#: Record-sized lengths (a record carries at most 16 KB of plaintext).
RECORD_LENGTHS = [n for n in LENGTHS if n <= MAX_RECORD_PAYLOAD]


@pytest.fixture(autouse=True)
def table(monkeypatch):
    monkeypatch.setattr(aead_module, "_IN_FLIGHT", aead_module._InFlight())
    return aead_module._IN_FLIGHT


def _bytes(length: int, salt: int) -> bytes:
    return random.Random(length * 31 + salt).randbytes(length)


def _reference_seal(kind: str, keys: TrafficKeys, nonce: bytes, inner: bytes, aad: bytes):
    if kind == "aes-128-gcm":
        return AesGcm(keys.key).seal(nonce, inner, aad)
    f = FastAead(keys.key)
    ciphertext = _reference_xor(f, nonce, inner)
    return ciphertext + _reference_tag(f, nonce, aad, ciphertext)


def _reference_records(kind: str, keys: TrafficKeys, records) -> bytes:
    """``(payload, seqno)`` records as the old seal_batch + join wrote them."""
    iv = int.from_bytes(keys.iv, "big")
    pieces = []
    for payload, seqno in records:
        inner = bytes(payload) + bytes((CONTENT_APPLICATION_DATA,))
        header = encode_record_header(len(inner) + TAG_SIZE)
        nonce = (iv ^ seqno).to_bytes(12, "big")
        pieces += (header, _reference_seal(kind, keys, nonce, inner, header))
    return b"".join(pieces)


# -- (a) differential: new buffers against the old seal-and-join -----------------


@pytest.mark.parametrize("kind", ["fast", "aes-128-gcm"])
def test_smt_sw_segments_match_the_reference(kind):
    rng = random.Random(7)
    sizes = [n for n in LENGTHS if n] + [rng.randrange(1, 200_000) for _ in range(4)]
    if kind == "aes-128-gcm":
        sizes = [n for n in sizes if n <= 16_385]  # pure-Python AES is slow
    codec = SmtCodec(SmtSession(TX, RX, aead_kind=kind), CostModel())
    for i, size in enumerate(sizes):
        msg_id = 2 * i
        payload = _bytes(size, i)
        encoded = codec.encode(msg_id, payload, MSS)
        frame = plan_message(size, MSS)
        base = codec.session.allocation.encode(msg_id, 0)
        records = [
            (payload[r.plaintext_offset :][: r.plaintext_len], base | r.index)
            for seg in frame.segments
            for r in seg.records
        ]
        segments = [(s.tso_offset, s.wire_len) for s in frame.segments]
        assert [(p.tso_offset, len(p.payload)) for p in encoded.plans] == segments
        wire = b"".join(bytes(p.payload) for p in encoded.plans)
        assert wire == _reference_records(kind, TX, records), size


def _layout_with_gaps(rng, lengths):
    """A plaintext layout: random filler, then each record's placeholder."""
    parts, records, offset = [], [], 0
    for seqno, length in enumerate(lengths):
        gap = rng.randbytes(rng.randrange(0, 40))
        plaintext = _bytes(length, seqno)
        header = encode_record_header(length + 1 + TAG_SIZE)
        parts += (gap, header, plaintext, bytes(1 + TAG_SIZE))
        offset += len(gap)
        records.append(RecordDescriptor(offset, length, seqno + 100))
        offset += records[-1].wire_len
    parts.append(rng.randbytes(rng.randrange(0, 40)))
    return b"".join(parts), records


def _reference_layout(kind, keys, layout, records) -> bytes:
    """The layout's gaps passed through, each record sealed in its place."""
    out, pos = [], 0
    for rec in records:
        plaintext = layout[rec.offset + 5 :][: rec.plaintext_len]
        out += (layout[pos : rec.offset], _reference_records(kind, keys, [(plaintext, rec.seqno)]))
        pos = rec.offset + rec.wire_len
    return b"".join(out) + layout[pos:]


@pytest.mark.parametrize("kind", ["fast", "aes-128-gcm"])
def test_nic_layouts_with_gaps_match_the_reference(kind):
    rng = random.Random(11)
    protection = RecordProtection(shared_aead(kind, TX.key), TX.iv)
    for _ in range(6):
        lengths = rng.sample(RECORD_LENGTHS, rng.randrange(1, 4))
        layout, records = _layout_with_gaps(rng, lengths)
        sealed = seal_layout(protection, layout, records, [r.seqno for r in records])
        assert bytes(sealed) == _reference_layout(kind, TX, layout, records), lengths
        nic = FlowContextTable()
        nic.install("ctx", shared_aead(kind, TX.key), TX.iv)
        by_engine = nic.encrypt_segment(layout, TlsOffloadDescriptor("ctx", records))
        assert by_engine == sealed


class _Pipe:
    costs = CostModel()

    def __init__(self):
        self.sent = []

    def send(self, thread, data, tls=None):
        self.sent.append(data)
        return
        yield


class _Thread:
    def work(self, cost):
        return ()


def _drain(gen):
    for _ in gen:
        pass


def test_ktls_chunks_match_the_reference():
    pipe = _Pipe()
    conn = KtlsConnection(pipe, "sw", TX, RX, aead_kind="fast")
    seqno = 0
    for i, size in enumerate(n for n in LENGTHS if n):
        payload = _bytes(size, 500 + i)
        first = len(pipe.sent)
        _drain(conn.send(_Thread(), payload))
        records = []
        for off in range(0, size, MAX_RECORD_PAYLOAD):
            records.append((payload[off : off + MAX_RECORD_PAYLOAD], seqno))
            seqno += 1
        stream = b"".join(bytes(chunk) for chunk in pipe.sent[first:])
        assert stream == _reference_records("fast", TX, records), size


# -- (b) hit and miss open to the same plaintext -----------------------------------


@pytest.mark.parametrize("aad", AADS)
def test_hit_and_miss_open_to_the_same_plaintext(table, aad):
    f = FastAead(TX.key)
    for i, length in enumerate(LENGTHS):
        nonce, plaintext = (900 + i).to_bytes(12, "big"), _bytes(length, i)
        out = bytearray(7 + length + TAG_SIZE)
        f.seal_many([(nonce, plaintext, aad)], out, [7])
        received = bytes(out[7:])  # the receiver's own copy of the wire
        hits, misses = in_flight_stats()["hits"], in_flight_stats()["misses"]
        assert f.open(nonce, received, aad) == plaintext
        assert in_flight_stats()["hits"] == hits + 1
        assert f.open(nonce, received, aad) == plaintext  # consumed: a miss
        assert in_flight_stats()["misses"] == misses + 1
        f.seal_many([(nonce, plaintext, aad)], out, [7])  # filed again
        flips = {0, len(received) // 2, len(received) - 1}
        for index in flips:  # a flipped byte in the receiver's copy misses
            forged = bytearray(received)
            forged[index] ^= 0x01
            with pytest.raises(AuthenticationError):
                f.open(nonce, bytes(forged), aad)
        assert in_flight_stats()["misses"] == misses + 1 + len(flips)
        assert f.open(nonce, memoryview(received), aad) == plaintext
        assert in_flight_stats()["hits"] == hits + 2


# -- (c) every buffer handed out is read-only, and the table files it ---------------


def _assert_read_only(view):
    assert isinstance(view, memoryview) and view.readonly
    with pytest.raises(TypeError):
        view[0] = view[0] ^ 1


def test_sw_segments_are_read_only_views_the_table_files(table):
    codec = SmtCodec(SmtSession(TX, RX, aead_kind="fast"), CostModel())
    encoded = codec.encode(2, _bytes(200_000, 1), MSS)
    wire = encoded.plans[0].payload.obj
    assert isinstance(wire, bytearray)
    for plan in encoded.plans:
        _assert_read_only(plan.payload)
        assert plan.payload.obj is wire  # one buffer per message
        _assert_read_only(codec.reseal_range(encoded, plan.tso_offset))
    # No copies: every filed record is a window on the sent buffer.
    records = sum(len(seg.records) for seg in plan_message(200_000, MSS).segments)
    assert len(table.entries) == records
    assert all(entry[1] is wire for entry in table.entries.values())


class _Nic:
    def __init__(self):
        self.flow_contexts = FlowContextTable()


def test_nic_segments_are_read_only(table):
    nic = _Nic()
    session = SmtSession(TX, RX, aead_kind="fast", offload=True, nic=nic)
    codec = SmtCodec(session, CostModel())
    encoded = codec.encode(2, _bytes(100_000, 2), MSS)
    for plan in encoded.plans:
        for resync in codec.segment_pre_descriptors(plan, encoded.nic_queue):
            nic.flow_contexts.apply_resync(resync)
        sealed = nic.flow_contexts.encrypt_segment(plan.payload, plan.tls)
        _assert_read_only(sealed)
        filed = list(table.entries.values())[-len(plan.tls.records) :]
        assert all(entry[1] is sealed.obj for entry in filed)
        _assert_read_only(codec.reseal_range(encoded, plan.tso_offset))


def test_ktls_chunks_are_read_only():
    pipe = _Pipe()
    conn = KtlsConnection(pipe, "sw", TX, RX, aead_kind="fast")
    _drain(conn.send(_Thread(), _bytes(150_000, 3)))
    assert len(pipe.sent) > 1
    for chunk in pipe.sent:
        _assert_read_only(chunk)
