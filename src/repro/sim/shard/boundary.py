"""Cross-domain packet transport: plain encoded bytes, nothing else.

Packets crossing a domain boundary are serialised to their exact wire
bytes (:meth:`Packet.encode`) plus a small shard header carrying what the
wire does not: the spine the source leaf steered the packet to, the
departure/arrival virtual times, and the two out-of-band flags receive
paths consult (``trimmed`` for capture verdicts, ``segment_end`` for TCP
GRO flush boundaries).  Everything else in ``Packet.meta`` is transmit-
side scratch and must not survive the hop -- exactly like a real wire.

A window's worth of messages to one destination domain is concatenated
into a single blob, so the ``multiprocessing`` carrier ships one bytes
object per (source, destination, window) regardless of packet count.

Determinism: the decoder returns records tagged with departure time and
intra-blob sequence, and :func:`merge_batches` orders the combined inbox
by ``(arrival, departure, source domain, sequence)`` -- the same order a
shared heap would have produced for distinct departure times, and a
stable, seeded order for exact ties.
"""

from __future__ import annotations

import struct

from repro.net.packet import Packet

#: Per-message header: spine (H), flags (H), reserved (I), departure (d),
#: arrival (d), wire length (I).
_MSG = struct.Struct("!HHIddI")

_FLAG_TRIMMED = 1 << 0
_FLAG_HAS_SEGMENT_END = 1 << 1
_FLAG_SEGMENT_END = 1 << 2


def encode_message(
    spine: int, packet: Packet, departure: float, arrival: float
) -> bytes:
    """One boundary message: shard header + exact wire bytes."""
    flags = 0
    meta = packet.meta
    if meta.get("trimmed"):
        flags |= _FLAG_TRIMMED
    segment_end = meta.get("segment_end")
    if segment_end is not None:
        flags |= _FLAG_HAS_SEGMENT_END
        if segment_end:
            flags |= _FLAG_SEGMENT_END
    wire = packet.encode()
    return _MSG.pack(spine, flags, 0, departure, arrival, len(wire)) + wire


def decode_batch(blob: bytes) -> list[tuple[float, float, int, int, Packet]]:
    """Decode one window blob to ``(arrival, departure, seq, spine, packet)``.

    ``seq`` is the message's position in the blob -- the source domain's
    emission order, used as the deterministic tie-breaker.
    """
    out = []
    off = 0
    seq = 0
    size = _MSG.size
    view = memoryview(blob)  # Packet.decode copies each payload, and only that
    while off < len(blob):
        spine, flags, _, departure, arrival, length = _MSG.unpack_from(blob, off)
        off += size
        packet = Packet.decode(view[off : off + length])
        off += length
        if flags & _FLAG_TRIMMED:
            packet.meta["trimmed"] = True
        if flags & _FLAG_HAS_SEGMENT_END:
            packet.meta["segment_end"] = bool(flags & _FLAG_SEGMENT_END)
        out.append((arrival, departure, seq, spine, packet))
        seq += 1
    return out


def merge_batches(
    batches: list[tuple[int, bytes]],
) -> list[tuple[float, int, Packet]]:
    """Order a barrier's inbox for injection: ``(arrival, spine, packet)``.

    ``batches`` is ``[(source_domain, blob), ...]``.  Sorting by
    ``(arrival, departure, source, seq)`` reproduces the shared-loop
    schedule whenever departure times differ (they are the times the
    single-loop run would have filed the delivery events at) and breaks
    exact float ties by source identity, which is stable across reruns.
    """
    records = []
    for src_domain, blob in batches:
        for arrival, departure, seq, spine, packet in decode_batch(blob):
            records.append((arrival, departure, src_domain, seq, spine, packet))
    records.sort(key=lambda r: (r[0], r[1], r[2], r[3]))
    return [(arrival, spine, packet) for arrival, _, _, _, spine, packet in records]


class OutboundQueue:
    """Per-window accumulator of boundary messages, one blob per dest.

    Also tracks the earliest arrival per destination so the coordinator
    can bound the next window without decoding any blob.
    """

    def __init__(self) -> None:
        self._parts: dict[int, list[bytes]] = {}
        self._min_arrival: dict[int, float] = {}

    def emit(
        self, dest: int, spine: int, packet: Packet, departure: float, arrival: float
    ) -> None:
        self._parts.setdefault(dest, []).append(
            encode_message(spine, packet, departure, arrival)
        )
        prior = self._min_arrival.get(dest)
        if prior is None or arrival < prior:
            self._min_arrival[dest] = arrival

    def drain(self) -> dict[int, tuple[bytes, float]]:
        """``{dest: (blob, min_arrival)}`` for this window, then reset."""
        out = {
            dest: (b"".join(parts), self._min_arrival[dest])
            for dest, parts in self._parts.items()
        }
        self._parts.clear()
        self._min_arrival.clear()
        return out
