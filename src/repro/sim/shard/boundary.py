"""Cross-domain packet transport: records in process, bytes on a pipe.

A packet crossing a domain boundary travels as a record ``(arrival,
departure, seq, spine, packet)``, ``seq`` being the source's emission
order and ``packet`` a wire-faithful copy: the same headers (IPv4
``total_len`` normalised, as :meth:`Packet.encode` writes it) and
payload, and a fresh ``meta`` with only the two flags receive paths
consult (``trimmed`` for capture verdicts, ``segment_end`` for TCP GRO
flush boundaries).  The rest of the sender's ``meta`` is transmit-side
scratch and does not survive the hop -- exactly like a real wire.

Only a pipe needs bytes: :meth:`OutboundQueue.drain` packs a window's
records to one destination into one blob (:func:`encode_message`'s
shard header plus exact wire bytes per record), and :func:`decode_batch`
unpacks equal records on the far side.

Determinism: :func:`merge_batches` orders the combined inbox by
``(arrival, departure, source domain, sequence)`` -- the same order a
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
        out.append((arrival, departure, len(out), spine, packet))
    return out


def merge_batches(
    batches: list[tuple[int, list]],
) -> list[tuple[float, int, Packet]]:
    """Order a barrier's inbox for injection: ``(arrival, spine, packet)``.

    ``batches`` is ``[(source_domain, records), ...]``.  Sorting by
    ``(arrival, departure, source, seq)`` reproduces the shared-loop
    schedule whenever departure times differ (they are the times the
    single-loop run would have filed the delivery events at) and breaks
    exact float ties by source identity, which is stable across reruns.
    """
    records = [
        (arrival, departure, src_domain, seq, spine, packet)
        for src_domain, batch in batches
        for arrival, departure, seq, spine, packet in batch
    ]
    records.sort(key=lambda r: (r[0], r[1], r[2], r[3]))
    return [(arrival, spine, packet) for arrival, _, _, _, spine, packet in records]


class OutboundQueue:
    """Per-window accumulator of boundary records, one list per dest."""

    def __init__(self) -> None:
        self._records: dict[int, list] = {}

    def emit(
        self, dest: int, spine: int, packet: Packet, departure: float, arrival: float
    ) -> None:
        meta = packet.meta
        handoff = {"trimmed": True} if meta.get("trimmed") else {}
        segment_end = meta.get("segment_end")
        if segment_end is not None:
            handoff["segment_end"] = bool(segment_end)
        ip = packet.ip
        if ip.total_len != packet.size:
            ip = ip._replace(total_len=packet.size)
        copy = Packet(ip, packet.transport, packet.payload, handoff)
        records = self._records.setdefault(dest, [])
        records.append((arrival, departure, len(records), spine, copy))

    def take(self) -> dict[int, tuple[list, float]]:
        """``{dest: (records, min_arrival)}`` for this window, then reset."""
        out = {dest: (records, min(r[0] for r in records))
               for dest, records in self._records.items()}
        self._records = {}
        return out

    def drain(self) -> dict[int, tuple[bytes, float]]:
        """:meth:`take` with each destination's records as one wire blob."""
        return {
            dest: (b"".join(encode_message(spine, packet, departure, arrival)
                            for arrival, departure, _, spine, packet in records),
                   min_arrival)
            for dest, (records, min_arrival) in self.take().items()
        }
