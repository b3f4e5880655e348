"""Message state: outbound send tracking and inbound reassembly.

Reassembly follows the paper's two-stage scheme (§4.3): packets are first
grouped into their TSO segment by the (message ID, TSO offset) pair and
ordered *within* the segment by IPv4 IPID (normal TSO packets) or by the
explicit resend packet offset (retransmissions); completed segments are
then placed into the message by TSO offset.

Both endpoints derive segment boundaries from the same rule -- segments
are ``segment_capacity`` bytes except the last -- because TSO's packet
boundaries are "predictable" (§2.2).

Spurious retransmissions: a retransmitted packet whose range is already
covered is ignored (paper §4.3).  The one genuinely ambiguous corner --
a segment holding a duplicate rank-unknown TSO packet *and* missing a
different packet -- cannot be resolved from IPIDs alone; the assembler
waits, and the receiver's RESEND timer eventually produces explicit-offset
retransmissions that complete the segment unambiguously.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Optional

from repro.errors import ProtocolError
from repro.homa.codec import EncodedMessage, MessageCodec


def sort_circular_ipids(ipids: Collection[int]) -> list[int]:
    """Order IPIDs that form one consecutive run modulo 2^16."""
    if not ipids:
        return []
    ordered = sorted(ipids)
    # A segment's run is at most ~45 packets long, so a spread of half the
    # IPID space means the run wraps; treat small values as +2^16.
    if ordered[-1] - ordered[0] >= 1 << 15:
        ordered = sorted(ipids, key=lambda v: v + (1 << 16) if v < (1 << 15) else v)
    return ordered


class SegmentAssembler:
    """Collects the packets of one TSO segment.

    Payload lands in a contiguous buffer: standalone assemblers own a
    ``bytearray(seg_len)``; assemblers created by :class:`InboundMessage`
    write through a memoryview window into the message-wide preallocated
    buffer, so completing the last segment completes the whole wire image
    with no join pass (Reverso-style contiguous reassembly).

    Writes happen only at completion time, once packet lengths are known
    to sum to ``seg_len`` -- a malformed set of packets raises before a
    single byte reaches the shared buffer.
    """

    __slots__ = (
        "seg_len",
        "mss",
        "num_packets",
        "complete",
        "spurious",
        "_view",
        "_by_ipid",
        "_by_offset",
    )

    def __init__(self, seg_len: int, mss: int, view: Optional[memoryview] = None):
        self.seg_len = seg_len
        self.mss = mss
        self.num_packets = max(1, (seg_len + mss - 1) // mss)
        if view is None:
            view = memoryview(bytearray(seg_len))
        self._view = view
        # Rank-unknown TSO packets by IPID; explicit ones by byte offset.
        self._by_ipid: dict[int, bytes] = {}
        self._by_offset: dict[int, bytes] = {}
        self.complete = False
        self.spurious = 0

    @property
    def complete_data(self) -> Optional[bytes]:
        return bytes(self._view) if self.complete else None

    def add_tso_packet(self, ipid: int, payload: bytes) -> None:
        """A normal (rank-unknown) packet cut by TSO."""
        by_ipid = self._by_ipid
        if self.complete or ipid in by_ipid:
            self.spurious += 1
            return
        by_ipid[ipid] = payload
        # Pure-TSO completion: every packet arrived normally.
        if len(by_ipid) == self.num_packets:
            self._finish([by_ipid[ipid] for ipid in sort_circular_ipids(by_ipid)])

    def add_explicit_packet(self, offset: int, payload: bytes) -> None:
        """A retransmitted packet carrying its in-segment byte offset."""
        if self.complete or offset in self._by_offset:
            self.spurious += 1
            return
        if offset % self.mss != 0 or offset + len(payload) > self.seg_len:
            raise ProtocolError(f"bad explicit packet offset {offset}")
        self._by_offset[offset] = payload
        # Pure-explicit completion: retransmissions cover the whole segment.
        # No mixed path: combining rank-unknown TSO packets with explicit
        # retransmissions is ambiguous (a lost tail plus an explicit head
        # can pass any relative-spacing check while misplacing every
        # packet).  Retransmissions always carry explicit offsets and a
        # RESEND re-requests the whole segment, so explicit coverage
        # completes any segment the pure-TSO path cannot.
        if len(self._by_offset) == self.num_packets and set(self._by_offset) == {
            i * self.mss for i in range(self.num_packets)
        }:
            self._finish([self._by_offset[off] for off in sorted(self._by_offset)])

    def _finish(self, chunks: list[bytes]) -> None:
        total = sum(len(c) for c in chunks)
        if total != self.seg_len:
            raise ProtocolError(
                f"segment assembled to {total} bytes, expected {self.seg_len}"
            )
        view = self._view
        pos = 0
        for chunk in chunks:
            end = pos + len(chunk)
            view[pos:end] = chunk
            pos = end
        self.complete = True
        self._by_ipid.clear()
        self._by_offset.clear()


@dataclass
class InboundMessage:
    """One message being received."""

    msg_id: int
    peer_addr: int
    peer_port: int
    local_port: int
    wire_len: int
    segment_capacity: int
    mss: int
    segments: dict[int, SegmentAssembler] = field(default_factory=dict)
    received_bytes: int = 0  # bytes in completed segments
    granted: int = 0
    resends: int = 0
    last_progress: float = 0.0
    delivered: bool = False
    # Segments already fast-resent after an NDP-style trim notification.
    trim_requested: set = field(default_factory=set)
    # Active RESEND timer handle (repro.sim.Timer); cancelled on delivery
    # instead of letting a dead timer fire and guard-check.
    resend_timer: Optional[object] = None
    # Open ``homa.rx`` span while the loop is observed (closed on delivery).
    obs_span: Optional[object] = None
    # Message-wide receive buffer, preallocated from the first DATA
    # header's msg_len, which the engine has bounded by MAX_WIRE_LEN
    # (nothing in that header is authenticated yet).
    # Segment assemblers write into non-overlapping windows of this
    # buffer; ``assemble`` is then a view, not a join.
    _buf: bytearray = field(init=False, repr=False, compare=False)
    _mv: memoryview = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._buf = bytearray(self.wire_len)
        self._mv = memoryview(self._buf)

    def segment_length(self, tso_offset: int) -> int:
        if tso_offset % self.segment_capacity != 0 or tso_offset >= self.wire_len:
            raise ProtocolError(f"bad TSO offset {tso_offset} for len {self.wire_len}")
        return min(self.segment_capacity, self.wire_len - tso_offset)

    def assembler(self, tso_offset: int) -> SegmentAssembler:
        asm = self.segments.get(tso_offset)
        if asm is None:
            seg_len = self.segment_length(tso_offset)
            asm = SegmentAssembler(
                seg_len, self.mss, view=self._mv[tso_offset : tso_offset + seg_len]
            )
            self.segments[tso_offset] = asm
        return asm

    @property
    def complete(self) -> bool:
        return self.received_bytes >= self.wire_len

    def assemble(self) -> memoryview:
        """The full contiguous wire message (zero-copy view)."""
        if not self.complete:
            raise ProtocolError("assembling an incomplete message")
        return self._mv

    def missing_ranges(self) -> list[tuple[int, int]]:
        """(wire_offset, length) ranges not yet covered by complete segments."""
        missing = []
        for off in range(0, self.wire_len, self.segment_capacity):
            seg = self.segments.get(off)
            if seg is None or not seg.complete:
                missing.append((off, self.segment_length(off)))
        return missing


@dataclass
class OutboundMessage:
    """One message being transmitted: the engine's one record of it."""

    msg_id: int
    dest_addr: int
    dest_port: int
    src_port: int
    wire_len: int
    # The codec that encoded it (post-time resyncs, retransmit re-seals),
    # its per-segment plans, and the NIC ring every segment rides.
    codec: MessageCodec
    encoded: EncodedMessage
    queue: int
    granted: int = 0
    #: Last moment the receiver showed forward progress (a grant
    #: arrived).  The sender timeout frees state only after a full quiet
    #: window, not a fixed time since send -- a grant-starved large
    #: message under overload is alive, not dead.  Only grants count:
    #: marking RESENDs too would let a peer behind a broken path keep
    #: state alive while each RESEND triggers a retransmit burst.
    last_activity: float = 0.0
    # Sender-timeout handle (repro.sim.Timer); cancelled when acked.
    sender_timer: Optional[object] = None
    # Open ``homa.tx`` span while the loop is observed (closed on ack/timeout).
    obs_span: Optional[object] = None
