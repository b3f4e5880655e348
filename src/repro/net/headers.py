"""Header layouts: IPv4 plus the overlaid-TCP transport header.

The transport header follows the paper's Figures 1 and 3: it *overlays* a
TCP header (20-byte common part + 20 bytes of options space) so NIC TSO
replicates it across the packets cut from one TSO segment.  Fields:

- common part carries ports, the 64-bit message ID (in the seq/ack slots),
  a packet type (in the flags slot) and the *resend packet offset* (in the
  urgent-pointer slot, Figure 3's plaintext area);
- options space carries message length, TSO offset, grant/scheduling
  fields and the priority.

The IPv4 ``ipid`` provides the per-packet offset within a TSO segment:
TSO increments it for every packet it cuts (paper §4.3 "We use the IPID
in the network header because it is incremented over the packets
generated by TSO").

Homa, SMT and our TCP all use this same 40-byte layout; TCP simply
interprets ``msg_id`` as its 32-bit sequence/ack pair, which is exactly
the overlay trick the paper describes in reverse.

Both headers are ``NamedTuple`` records: immutable, read through C
descriptors, copied with ``_replace``.  A packet carries one of each, so no
dataclass machinery sits on the per-packet path.
"""

from __future__ import annotations

import enum
import struct
from typing import NamedTuple

from repro.errors import ProtocolError

PROTO_TCP = 6
PROTO_HOMA = 146  # matches Homa/Linux's experimental IPPROTO_HOMA choice
PROTO_SMT = 147  # SMT is a native transport with its own protocol number

IPV4_HEADER_SIZE = 20
TRANSPORT_HEADER_SIZE = 40  # 20-byte TCP common part + 20 bytes options
HEADERS_SIZE = IPV4_HEADER_SIZE + TRANSPORT_HEADER_SIZE


class PacketType(enum.IntEnum):
    """Packet roles; carried where TCP keeps its flags."""

    DATA = 0
    GRANT = 1
    RESEND = 2
    ACK = 3
    # Reserved: nothing sends or handles BUSY yet.  The ROADMAP item for
    # the next benchmark-archetype change, which re-pins the ledger, adds it.
    BUSY = 4
    CONTROL = 5  # handshake / session management payloads


_IPV4_FMT = struct.Struct("!BBHHHBBHII")
_TRANSPORT_FMT = struct.Struct("!HHQBBHHHIIIIBBH")
_PACKET_TYPES = {int(t): t for t in PacketType}


class IPv4Header(NamedTuple):
    """The subset of IPv4 the simulation needs (no fragmentation)."""

    src_addr: int
    dst_addr: int
    proto: int
    total_len: int
    ipid: int = 0
    ttl: int = 64

    def encode(self) -> bytes:
        return _IPV4_FMT.pack(
            0x45,  # version 4, IHL 5
            0,  # DSCP/ECN
            self.total_len,
            self.ipid,
            0,  # flags/frag offset
            self.ttl,
            self.proto,
            0,  # checksum filled by NIC in real life; zero here
            self.src_addr,
            self.dst_addr,
        )

    @staticmethod
    def decode(data: bytes) -> "IPv4Header":
        if len(data) < IPV4_HEADER_SIZE:
            raise ProtocolError("truncated IPv4 header")
        (vihl, _tos, total_len, ipid, _frag, ttl, proto, _csum, src, dst) = (
            _IPV4_FMT.unpack_from(data)
        )
        if vihl != 0x45:
            raise ProtocolError(f"unsupported IPv4 version/IHL {vihl:#x}")
        return IPv4Header(src, dst, proto, total_len, ipid, ttl)


class TransportHeader(NamedTuple):
    """The overlaid-TCP transport header shared by Homa, SMT and TCP.

    Field placement (wire order):

    ========  =====  ==========================================
    field     bytes  TCP-overlay location
    ========  =====  ==========================================
    src_port  2      source port
    dst_port  2      destination port
    msg_id    8      sequence + acknowledgement numbers
    doff      1      data offset (always 10 words = 40 bytes)
    pkt_type  1      flags byte
    window    2      window (unused, zero)
    checksum  2      checksum (zero: TSO writes none for non-TCP)
    resend_packet_offset 2   urgent pointer (Figure 3)
    --- options space (20 bytes) ---
    msg_len   4
    tso_offset 4
    grant_offset 4
    retransmit_offset 4
    priority  1
    incast    1
    spare     2
    ========  =====  ==========================================
    """

    src_port: int
    dst_port: int
    msg_id: int
    pkt_type: PacketType = PacketType.DATA
    resend_packet_offset: int = 0
    msg_len: int = 0
    tso_offset: int = 0
    grant_offset: int = 0
    retransmit_offset: int = 0
    priority: int = 0
    incast: int = 0

    def encode(self) -> bytes:
        return _TRANSPORT_FMT.pack(
            self.src_port,
            self.dst_port,
            self.msg_id,
            10,  # data offset: 10 32-bit words
            int(self.pkt_type),
            0,  # window
            0,  # checksum: absent for non-TCP TSO (paper §7)
            self.resend_packet_offset,
            self.msg_len,
            self.tso_offset,
            self.grant_offset,
            self.retransmit_offset,
            self.priority,
            self.incast,
            0,  # spare
        )

    @staticmethod
    def decode(data: bytes) -> "TransportHeader":
        if len(data) < TRANSPORT_HEADER_SIZE:
            raise ProtocolError("truncated transport header")
        (
            src_port,
            dst_port,
            msg_id,
            doff,
            pkt_type,
            _window,
            _csum,
            resend_packet_offset,
            msg_len,
            tso_offset,
            grant_offset,
            retransmit_offset,
            priority,
            incast,
            _spare,
        ) = _TRANSPORT_FMT.unpack_from(data)
        if doff != 10:
            raise ProtocolError(f"unexpected data offset {doff}")
        kind = _PACKET_TYPES.get(pkt_type)
        if kind is None:
            raise ProtocolError(f"unknown packet type {pkt_type}")
        return TransportHeader(
            src_port,
            dst_port,
            msg_id,
            kind,
            resend_packet_offset,
            msg_len,
            tso_offset,
            grant_offset,
            retransmit_offset,
            priority,
            incast,
        )

    def with_fields(self, **kwargs: object) -> "TransportHeader":
        """Copy with replaced fields (headers are immutable)."""
        return self._replace(**kwargs)
