"""TCP Segmentation Offload (and its software fallback, GSO).

A :class:`TsoSegment` is what the host stack hands the NIC: one transport
header template plus up to 64 KB of payload.  :func:`split_segment` cuts
it into MTU-sized packets the way real TSO does:

- the transport header is replicated verbatim onto every packet (so the
  message ID and TSO offset appear in all of them -- paper §2.2),
- the IPv4 IPID increments by one per packet,
- sequence numbers are advanced **only for protocol number 6 (TCP)**; for
  Homa/SMT's protocol numbers the NIC leaves the header untouched, which
  is precisely why the receiver must reconstruct packet positions from
  the IPID (paper §4.3),
- no transport checksum is written for non-TCP protocols (paper §7
  "Message integrity").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ProtocolError
from repro.net.headers import HEADERS_SIZE, IPv4Header, PROTO_TCP, TransportHeader
from repro.net.packet import Packet
from repro.nic.tls_offload import TlsOffloadDescriptor

MAX_TSO_PAYLOAD = 65536 - HEADERS_SIZE  # classic 64 KB TSO limit


class TsoMode(enum.Enum):
    """Segmentation configurations benchmarked in Figure 11."""

    FULL = "tso"  # NIC splits up to 64 KB segments
    PAIRS = "tso-pairs"  # two-packet TSO segments, GSO above (paper §7, IPv6)
    OFF = "off"  # all splitting in software, per-packet CPU cost


@dataclass
class TsoSegment:
    """One segment queued to the NIC.

    ``tls`` optionally carries a TLS offload descriptor (records to encrypt
    in-NIC); ``meta`` carries simulation annotations.
    """

    src_addr: int
    dst_addr: int
    proto: int
    header: TransportHeader
    payload: bytes
    mss: int
    tls: Optional[TlsOffloadDescriptor] = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.payload) > MAX_TSO_PAYLOAD:
            raise ProtocolError(
                f"TSO segment payload {len(self.payload)} exceeds {MAX_TSO_PAYLOAD}"
            )
        if self.mss <= 0:
            raise ProtocolError("mss must be positive")

    @property
    def num_packets(self) -> int:
        return max(1, (len(self.payload) + self.mss - 1) // self.mss)


def split_segment(
    segment: TsoSegment, start_ipid: int, metrics=None, prefix: str = "nic"
) -> list[Packet]:
    """Cut a segment into packets exactly like NIC TSO would.

    ``metrics`` (a :class:`repro.obs.metrics.MetricsRegistry`) counts
    segments and emitted packets under ``{prefix}.tso.*``.
    """
    packets: list[Packet] = []
    # Zero-copy: packets carry memoryview slices of the segment payload;
    # consumers materialise at AEAD open / capture / encode boundaries.
    payload = memoryview(segment.payload)
    mss = segment.mss
    count = segment.num_packets
    last = count - 1
    # Everything but (ipid, length, payload slice) belongs to the segment.
    src, dst, proto = segment.src_addr, segment.dst_addr, segment.proto
    header = template = segment.header
    meta = segment.meta
    # Real TSO advances the TCP sequence number per packet.  Our TCP
    # carries its (unwrapped) sequence number in msg_id.
    tcp = proto == PROTO_TCP
    for i in range(count):
        chunk = payload[i * mss : (i + 1) * mss]
        ip = IPv4Header(
            src, dst, proto, HEADERS_SIZE + len(chunk), (start_ipid + i) & 0xFFFF
        )
        if tcp and i:
            header = template._replace(msg_id=template.msg_id + i * mss)
        # GRO flushes per TSO burst.
        packets.append(Packet(ip, header, chunk, {**meta, "segment_end": i == last}))
    if metrics is not None:
        metrics.counter(f"{prefix}.tso.segments").add()
        metrics.counter(f"{prefix}.tso.packets").add(count)
    return packets


def gso_split(
    segment: TsoSegment, packets_per_segment: int, metrics=None, prefix: str = "nic"
) -> list[TsoSegment]:
    """Software GSO: cut one large segment into smaller TSO segments.

    Used for the paper's two-packet TSO mode (§7 "Segmentation"): GSO
    splits at the bottom of the stack into ``packets_per_segment``-sized
    TSO segments whose TSO offsets advance accordingly.
    """
    if packets_per_segment < 1:
        raise ProtocolError("packets_per_segment must be >= 1")
    step = packets_per_segment * segment.mss
    if len(segment.payload) <= step:
        return [segment]
    if metrics is not None:
        metrics.counter(f"{prefix}.gso.splits").add()
    out = []
    payload = memoryview(segment.payload)
    for off in range(0, len(payload), step):
        chunk = payload[off : off + step]
        header = segment.header.with_fields(
            tso_offset=segment.header.tso_offset + off
        )
        sub_tls = None
        if segment.tls is not None:
            sub_tls = segment.tls.slice(off, len(chunk))
        out.append(
            TsoSegment(
                segment.src_addr,
                segment.dst_addr,
                segment.proto,
                header,
                chunk,
                segment.mss,
                tls=sub_tls,
                meta=dict(segment.meta),
            )
        )
    return out
