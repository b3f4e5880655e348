"""The receive path keeps a message as views of its packets.

Reassembly hands the codec a :class:`~repro.homa.codec.SegmentedWire`: each
TSO segment is the ordered tuple of the payloads its packets carried, and
no buffer of the message's wire length exists at any point.  These tests
pin that (a forged first header and a half-received message allocate
nothing proportional to their length), that the segmented wire decodes
byte-identically to the joined wire under reordering, duplicates, IPID
wrap and explicit-offset retransmissions, and that a record running past
its segment fails closed.
"""

from __future__ import annotations

import math
import random
import tracemalloc

import pytest

from repro.core.codec import SmtCodec
from repro.core.session import SmtSession
from repro.errors import ProtocolError
from repro.homa.codec import PlainCodec, SegmentedWire
from repro.homa.message import InboundMessage
from repro.host.costs import CostModel
from repro.net.headers import PacketType
from repro.tls.constants import RECORD_HEADER_SIZE
from repro.tls.keyschedule import TrafficKeys
from repro.tls.record import parse_record_header
from repro.units import KB

from tests.homa.test_batch_receive import MAX_WIRE_LEN, MSS, Message, Receiver, with_len
from tests.homa.test_contiguous_reassembly import _packet_stream

#: What a message may cost the receiver beyond its packets: bookkeeping,
#: never a buffer the size of the message.
SMALL = 64 * 1024


def smt_pair(**codec_kw):
    a = TrafficKeys(key=b"\x01" * 16, iv=b"\x02" * 12)
    b = TrafficKeys(key=b"\x03" * 16, iv=b"\x04" * 12)
    costs = CostModel()
    return (
        SmtCodec(SmtSession(a, b), costs, **codec_kw),
        SmtCodec(SmtSession(b, a), costs, **codec_kw),
    )


def traced(fn) -> int:
    """Peak bytes ``fn`` allocates beyond what was live when it began."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def forged_first_header():
    """A receiver and the one DATA packet it gets: a first header claiming
    ``MAX_WIRE_LEN`` (unauthenticated until the records open)."""
    rx = Receiver()
    first = with_len(Message(10, MSS).packets[0], MAX_WIRE_LEN)
    return rx, first, rx.transport.classify(first)[1]


def test_forged_max_length_header_allocates_nothing_proportional():
    rx, first, handler = forged_first_header()
    assert traced(lambda: handler([first])) < SMALL
    [inbound] = rx.transport._inbound.values()
    assert inbound.wire_len == MAX_WIRE_LEN and not inbound.complete


@pytest.mark.xfail(
    strict=True,
    reason="_request_resend walks missing_ranges() over the claimed msg_len, "
    "so one RESEND check asks for every missing segment of the forged length, "
    "not only the granted ones (ROADMAP: RESEND cause table, suspect (iii))",
)
def test_forged_max_length_then_silence_resends_only_granted_ranges():
    rx, first, handler = forged_first_header()
    handler([first])
    [inbound] = rx.transport._inbound.values()
    first_check = inbound.resend_timer.when
    rx.posted.clear()
    # Silence through the first RESEND check and the softirq work it queues.
    used = traced(lambda: rx.loop.run(until=first_check * 1.5))
    assert inbound.resends == 1
    resends = [h for _, _, h, _ in rx.posted if h.pkt_type == PacketType.RESEND]
    assert len(resends) <= math.ceil(inbound.granted / inbound.segment_capacity)
    assert used < SMALL


def test_incomplete_256k_message_holds_no_wire_buffer():
    rx = Receiver()
    msg = Message(12, 256 * KB)
    handler = rx.transport.classify(msg.packets[0])[1]
    assert traced(lambda: handler(msg.packets[:-1])) < SMALL
    [inbound] = rx.transport._inbound.values()
    assert not inbound.complete and len(inbound.missing_ranges()) == 1
    handler(msg.packets[-1:])
    assert rx.delivered == [(msg.dst_port, 12, msg.wire)]


def reassemble(rng, wire: bytes, capacity: int, mss: int) -> SegmentedWire:
    """Feed ``wire`` through an :class:`InboundMessage` as a randomized
    packet stream, segments in random order; return what it assembles."""
    inbound = InboundMessage(
        msg_id=2, peer_addr=1, peer_port=1, local_port=2,
        wire_len=len(wire), segment_capacity=capacity, mss=mss,
    )
    offsets = list(range(0, len(wire), capacity))
    rng.shuffle(offsets)
    for off in offsets:
        seg_len = inbound.segment_length(off)
        _, ops = _packet_stream(rng, seg_len, mss, wire[off : off + seg_len])
        asm = inbound.assembler(off)
        for kind, key, chunk in ops:
            if kind == "tso":
                asm.add_tso_packet(key, memoryview(chunk))
            else:
                asm.add_explicit_packet(key, memoryview(chunk))
        assert asm.complete
        inbound.received_bytes += seg_len
    return inbound.assemble()


@pytest.mark.parametrize("seed", range(30))
def test_segmented_wire_decodes_like_the_joined_wire(seed):
    rng = random.Random(seed)
    mss = rng.choice([64, 300, 1460])
    codec_kw = dict(
        max_record_payload=rng.choice([64, 200, 1000, 16384]),
        packets_per_segment=rng.choice([0, 1, 2, 3]),
    )
    sender, receiver = smt_pair(**codec_kw)
    _, reference = smt_pair(**codec_kw)
    payload = rng.randbytes(rng.randrange(1, 40_000))
    encoded = sender.encode(2, payload, mss)
    joined = b"".join(plan.payload for plan in encoded.plans)
    wire = reassemble(rng, joined, receiver.segment_capacity(mss), mss)
    assert len(wire) == encoded.wire_len and bytes(wire) == joined
    decoded = receiver.decode(2, wire)
    expected = reference.decode(2, joined)
    assert decoded.payload == expected.payload == payload
    assert decoded.rx_cpu_cost == expected.rx_cpu_cost
    assert receiver.records_opened == reference.records_opened
    assert PlainCodec().decode(2, wire).payload == joined


def two_segment_wire():
    """An SMT message of two segments, as the receiver would assemble it."""
    sender, receiver = smt_pair(packets_per_segment=2)
    encoded = sender.encode(2, bytes(5000), 1460)
    assert len(encoded.plans) == 2
    packets = [
        tuple(
            bytes(plan.payload[i : i + 1460]) for i in range(0, plan.length, 1460)
        )
        for plan in encoded.plans
    ]
    return receiver, packets, encoded.wire_len


def test_record_running_past_its_segment_is_rejected():
    receiver, packets, wire_len = two_segment_wire()
    # Move the first segment's last packet into the second segment: every
    # byte is still there, in order, but a record now crosses a segment.
    moved = SegmentedWire(((packets[0][0],), (packets[0][1], *packets[1])), wire_len)
    with pytest.raises(ProtocolError, match="runs past its segment"):
        receiver.decode(2, moved)
    assert receiver.auth_failures == 1
    # The same bytes in their true segments decode.
    whole = SegmentedWire(tuple(packets), wire_len)
    assert receiver.decode(2, whole).payload == bytes(5000)


def test_record_header_pointing_past_its_segment_is_rejected():
    receiver, packets, wire_len = two_segment_wire()
    first = bytearray(b"".join(packets[0]))
    _, ct_len = parse_record_header(first)
    assert RECORD_HEADER_SIZE + ct_len == len(first)  # one record fills it
    # Its header now claims 100 bytes that lie in the next segment.
    first[3:5] = (ct_len + 100).to_bytes(2, "big")
    split = (bytes(first[:1460]), bytes(first[1460:]))
    forged = SegmentedWire((split, packets[1]), wire_len)
    with pytest.raises(ProtocolError, match="runs past its segment"):
        receiver.decode(2, forged)
    assert receiver.auth_failures == 1
