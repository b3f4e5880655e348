"""In-memory packet capture: a tcpdump for the simulated wire.

A :class:`PacketCapture` is a bounded ring of :class:`CapturedPacket`
records.  Taps install on any :class:`~repro.net.link.Link` side or
switch port (mirroring how :mod:`repro.net.faults` installs injectors) and
record each packet at its delivery point: decoded header fields, travel
direction, the virtual timestamp, and the fault injector's verdict for it
("delivered", "dropped", "delivered+corrupt", ...).

Capture is strictly passive -- it copies header fields already decoded on
the packet object, consumes no randomness, and schedules no events -- so
enabling it cannot change a simulation's outcome.  Exports (one-line text
or JSONL) are byte-deterministic under a fixed seed, which the golden
trace tests rely on, and the fuzz harness prints :meth:`tail_text` next to
a failing seed so the last packets before the failure are in the report.
"""

from __future__ import annotations

import json
from collections import deque
from typing import TYPE_CHECKING

from repro.net.addressing import format_addr

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.packet import Packet
    from repro.sim.event_loop import EventLoop


class CapturedPacket:
    """One record: where/when a packet was seen and what happened to it."""

    __slots__ = (
        "seq",
        "ts",
        "direction",
        "verdict",
        "src",
        "dst",
        "proto",
        "ipid",
        "pkt_type",
        "src_port",
        "dst_port",
        "msg_id",
        "msg_len",
        "tso_offset",
        "retransmit_offset",
        "priority",
        "payload_len",
        "trimmed",
    )

    def __init__(
        self,
        seq: int,
        ts: float,
        direction: str,
        verdict: str,
        packet: "Packet",
    ):
        t = packet.transport
        self.seq = seq
        self.ts = ts
        self.direction = direction
        self.verdict = verdict
        self.src = packet.ip.src_addr
        self.dst = packet.ip.dst_addr
        self.proto = packet.ip.proto
        self.ipid = packet.ip.ipid
        self.pkt_type = t.pkt_type.name
        self.src_port = t.src_port
        self.dst_port = t.dst_port
        self.msg_id = t.msg_id
        self.msg_len = t.msg_len
        self.tso_offset = t.tso_offset
        self.retransmit_offset = t.retransmit_offset
        self.priority = t.priority
        self.payload_len = len(packet.payload)
        self.trimmed = bool(packet.meta.get("trimmed", False))

    def as_dict(self) -> dict:
        """Insertion-ordered dict; the JSONL column order."""
        return {
            "seq": self.seq,
            "ts": self.ts,
            "dir": self.direction,
            "verdict": self.verdict,
            "src": self.src,
            "dst": self.dst,
            "proto": self.proto,
            "ipid": self.ipid,
            "type": self.pkt_type,
            "sport": self.src_port,
            "dport": self.dst_port,
            "msg": self.msg_id,
            "msg_len": self.msg_len,
            "tso_off": self.tso_offset,
            "rtx_off": self.retransmit_offset,
            "prio": self.priority,
            "payload": self.payload_len,
            "trimmed": self.trimmed,
        }

    def format(self) -> str:
        """One tcpdump-style text line."""
        extras = " trimmed" if self.trimmed else ""
        return (
            f"#{self.seq:05d} {self.ts * 1e6:10.3f}us {self.direction:<4} "
            f"{format_addr(self.src)}:{self.src_port}>"
            f"{format_addr(self.dst)}:{self.dst_port} "
            f"{self.pkt_type:<7} msg={self.msg_id} off={self.tso_offset} "
            f"len={self.payload_len} prio={self.priority} ipid={self.ipid} "
            f"[{self.verdict}]{extras}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CapturedPacket({self.format()})"


class PacketCapture:
    """Bounded ring of captured packets with text/JSONL export."""

    def __init__(self, loop: "EventLoop", capacity: int = 4096):
        self.loop = loop
        self.capacity = capacity
        self.seen = 0  # total recorded, including those evicted from the ring
        self._ring: deque[CapturedPacket] = deque(maxlen=capacity)

    # -- recording -----------------------------------------------------------

    def record(
        self, direction: str, packet: "Packet", verdict: str = "delivered"
    ) -> CapturedPacket:
        """Record ``packet`` now; ``seq`` numbers survive ring eviction."""
        rec = CapturedPacket(self.seen, self.loop.now, direction, verdict, packet)
        self.seen += 1
        self._ring.append(rec)
        return rec

    def tap(self, direction: str):
        """A ``(packet, verdict)`` callback bound to ``direction``.

        This is the hook shape links and switch ports call at delivery time.
        """

        def _record(packet: "Packet", verdict: str = "delivered") -> None:
            self.record(direction, packet, verdict)

        return _record

    # -- inspection ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def evicted(self) -> int:
        """Records pushed out of the ring by newer ones."""
        return self.seen - len(self._ring)

    def packets(self) -> list[CapturedPacket]:
        return list(self._ring)

    def last(self, n: int) -> list[CapturedPacket]:
        if n <= 0:
            return []
        return list(self._ring)[-n:]

    def clear(self) -> None:
        self._ring.clear()

    # -- export --------------------------------------------------------------

    def export_jsonl(self) -> str:
        """One JSON object per line (stable key order), oldest first."""
        return "\n".join(json.dumps(r.as_dict()) for r in self._ring)

    def export_text(self) -> str:
        return "\n".join(r.format() for r in self._ring)

    def tail_text(self, n: int = 20) -> str:
        """The last ``n`` packets with a header line, for failure reports."""
        shown = self.last(n)
        header = (
            f"last {len(shown)} of {self.seen} captured packets"
            f" ({self.evicted} evicted from ring):"
        )
        return "\n".join([header] + [r.format() for r in shown])
