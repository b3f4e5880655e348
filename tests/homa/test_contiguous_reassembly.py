"""Differential suite: zero-copy reassembly vs the old fragment path.

The receive path keeps each completed segment as the ordered payload views
its packets carried; an older one accumulated per-packet fragments in
dicts and joined them at completion.  These tests keep that fragment
assembler alive *inside the test* as a reference model and drive both
implementations with identical randomized packet streams -- drops,
reordering, duplicates, explicit-offset retransmissions, IPID wraparound,
and malformed sizes -- asserting byte-identical assembly and identical
error behaviour.  A final end-to-end test forces corruption recovery so
the ``forgive_message`` un-deliver path redelivers through *fresh*
assemblers.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import ProtocolError
from repro.homa.message import InboundMessage, SegmentAssembler, sort_circular_ipids
from repro.net.faults import FaultConfig

from tests.fuzz.harness import (
    build_pair,
    random_payloads,
    run_exchange,
    start_echo_server,
)

SEEDS = range(50)


class RefSegmentAssembler:
    """The fragment assembler, verbatim semantics.

    Packets are buffered in dicts keyed by IPID / explicit offset and the
    segment is joined only at completion.  Kept here as the reference
    model the zero-copy implementation must be indistinguishable from.
    """

    def __init__(self, seg_len: int, mss: int):
        self.seg_len = seg_len
        self.mss = mss
        self.num_packets = max(1, (seg_len + mss - 1) // mss)
        self._by_ipid: dict[int, bytes] = {}
        self._by_offset: dict[int, bytes] = {}
        self.complete_data = None
        self.spurious = 0

    @property
    def complete(self) -> bool:
        return self.complete_data is not None

    def add_tso_packet(self, ipid: int, payload) -> None:
        if self.complete or ipid in self._by_ipid:
            self.spurious += 1
            return
        self._by_ipid[ipid] = bytes(payload)
        self._try_assemble()

    def add_explicit_packet(self, offset: int, payload) -> None:
        if self.complete or offset in self._by_offset:
            self.spurious += 1
            return
        if offset % self.mss != 0 or offset + len(payload) > self.seg_len:
            raise ProtocolError(f"bad explicit packet offset {offset}")
        self._by_offset[offset] = bytes(payload)
        self._try_assemble()

    def _try_assemble(self) -> None:
        npkts = self.num_packets
        if len(self._by_ipid) == npkts:
            chunks = [
                self._by_ipid[ipid]
                for ipid in sort_circular_ipids(list(self._by_ipid))
            ]
            self._finish(b"".join(chunks))
            return
        if set(self._by_offset) == {i * self.mss for i in range(npkts)}:
            self._finish(
                b"".join(self._by_offset[off] for off in sorted(self._by_offset))
            )

    def _finish(self, data: bytes) -> None:
        if len(data) != self.seg_len:
            raise ProtocolError(
                f"segment assembled to {len(data)} bytes, expected {self.seg_len}"
            )
        self.complete_data = data
        self._by_ipid.clear()
        self._by_offset.clear()


def _packet_stream(rng, seg_len, mss, data=None):
    """A randomized delivery schedule for one segment's packets.

    Yields ``("tso", ipid, payload)`` / ``("explicit", offset, payload)``
    ops covering TSO delivery with reordering and duplicates, optional
    packet loss repaired by explicit retransmissions, and IPID runs that
    wrap the 16-bit space.  The segment's bytes are ``data`` when given,
    else random.
    """
    if data is None:
        data = bytes(rng.randrange(256) for _ in range(seg_len))
    npkts = max(1, (seg_len + mss - 1) // mss)
    start_ipid = rng.choice([0, rng.randrange(1 << 16), 65534, 65535])
    packets = [
        ((start_ipid + i) & 0xFFFF, i * mss, data[i * mss : (i + 1) * mss])
        for i in range(npkts)
    ]
    ops = []
    lost = set()
    if npkts > 1 and rng.random() < 0.5:
        lost = set(rng.sample(range(npkts), rng.randrange(1, npkts)))
    for i, (ipid, off, chunk) in enumerate(packets):
        if i not in lost:
            ops.append(("tso", ipid, chunk))
            if rng.random() < 0.2:  # duplicate delivery
                ops.append(("tso", ipid, chunk))
    rng.shuffle(ops)
    if lost:
        # A RESEND re-requests the whole segment: explicit offsets cover
        # every packet, some arriving twice.
        repair = [("explicit", off, chunk) for _, off, chunk in packets]
        rng.shuffle(repair)
        for op in repair:
            ops.append(op)
            if rng.random() < 0.2:
                ops.append(op)
    return data, ops


@pytest.mark.parametrize("seed", SEEDS)
def test_assembler_matches_fragment_reference(seed):
    """Both assemblers see the same stream; every observable must match."""
    rng = random.Random(seed)
    for _ in range(8):
        mss = rng.choice([1, 7, 100, 1460, 8960])
        seg_len = rng.randrange(1, 4 * mss + 2)
        data, ops = _packet_stream(rng, seg_len, mss)
        new = SegmentAssembler(seg_len, mss)
        ref = RefSegmentAssembler(seg_len, mss)
        for kind, key, chunk in ops:
            if kind == "tso":
                new.add_tso_packet(key, chunk)
                ref.add_tso_packet(key, chunk)
            else:
                new.add_explicit_packet(key, chunk)
                ref.add_explicit_packet(key, chunk)
            assert new.complete == ref.complete
            assert new.spurious == ref.spurious
        assert new.complete and ref.complete, f"seed {seed}: stream incomplete"
        assert b"".join(new.packets) == ref.complete_data == data


@pytest.mark.parametrize("seed", range(20))
def test_assembler_error_parity(seed):
    """Malformed packets raise identical ProtocolErrors in both paths."""
    rng = random.Random(seed)
    mss = rng.choice([64, 100, 1460])
    seg_len = rng.randrange(mss + 1, 3 * mss)
    new = SegmentAssembler(seg_len, mss)
    ref = RefSegmentAssembler(seg_len, mss)
    bad_offset = rng.choice([1, mss - 1, mss + 3])  # not a multiple of mss
    with pytest.raises(ProtocolError) as e_new:
        new.add_explicit_packet(bad_offset, b"x")
    with pytest.raises(ProtocolError) as e_ref:
        ref.add_explicit_packet(bad_offset, b"x")
    assert str(e_new.value) == str(e_ref.value)
    # Wrong-size chunks that still cover every slot: the total-length
    # check must fire identically (and before the segment completes).
    short = mss - rng.randrange(1, mss)
    new2 = SegmentAssembler(seg_len, mss)
    ref2 = RefSegmentAssembler(seg_len, mss)
    errors = []
    for asm in (new2, ref2):
        with pytest.raises(ProtocolError) as err:
            for i in range(asm.num_packets - 1):
                asm.add_explicit_packet(i * mss, bytes(short))
            last = (asm.num_packets - 1) * mss
            asm.add_explicit_packet(last, bytes(seg_len - last))
        errors.append(str(err.value))
    assert errors[0] == errors[1]


@pytest.mark.parametrize("seed", range(25))
def test_inbound_message_assembles_contiguously(seed):
    """Multi-segment messages assemble byte-identical to their wire."""
    rng = random.Random(seed)
    mss = rng.choice([100, 1460])
    segment_capacity = mss * rng.choice([2, 4])
    wire_len = rng.randrange(1, 3 * segment_capacity + 2)
    inbound = InboundMessage(
        msg_id=2,
        peer_addr=1,
        peer_port=1,
        local_port=2,
        wire_len=wire_len,
        segment_capacity=segment_capacity,
        mss=mss,
    )
    wire = bytearray()
    offsets = list(range(0, wire_len, segment_capacity))
    rng.shuffle(offsets)
    for off in sorted(offsets):
        seg_len = inbound.segment_length(off)
        wire += bytes(rng.randrange(256) for _ in range(seg_len))
    for off in offsets:
        seg_len = inbound.segment_length(off)
        data = bytes(wire[off : off + seg_len])
        _, ops = _packet_stream(rng, seg_len, mss)
        asm = inbound.assembler(off)
        npkts = asm.num_packets
        start_ipid = rng.randrange(1 << 16)
        order = list(range(npkts))
        rng.shuffle(order)
        for i in order:
            asm.add_tso_packet(
                (start_ipid + i) & 0xFFFF, data[i * mss : (i + 1) * mss]
            )
        inbound.received_bytes += seg_len
    assert inbound.complete
    assert bytes(inbound.assemble()) == bytes(wire)


def test_forgive_message_redelivers_through_fresh_buffer():
    """Corruption recovery: the un-delivered message must reassemble from
    retransmitted packets through fresh assemblers, byte-identical."""
    faults = FaultConfig(corrupt_rate=0.05, drop_rate=0.01, reorder_rate=0.05)
    recoveries = 0
    for seed in range(12):
        pair = build_pair(faults, fault_seed=seed)
        start_echo_server(pair)
        payloads = random_payloads(seed, 5)
        results = run_exchange(pair, payloads, seed=seed)
        assert results == payloads, f"seed {seed}: delivery not byte-identical"
        counters = pair.engine_counters()
        recoveries += (
            counters["client"]["corrupt_recoveries"]
            + counters["server"]["corrupt_recoveries"]
        )
    # With a 5% corrupt rate across 12 seeds the forgive/redeliver path
    # must have run; if this ever reads 0 the fault schedule went dark.
    assert recoveries > 0, "no corruption recovery exercised"
