"""The packet object moved across the simulated wire."""

from __future__ import annotations

from typing import Optional

from repro.errors import ProtocolError
from repro.net.headers import (
    HEADERS_SIZE,
    IPV4_HEADER_SIZE,
    IPv4Header,
    TransportHeader,
)

ETHERNET_OVERHEAD = 38  # preamble + MAC headers + FCS + IFG, charged on the wire


class Packet:
    """One network packet: IPv4 header, transport header, payload bytes.

    ``meta`` carries simulation-only annotations (TSO's ``segment_end``, a
    switch's ``trimmed``, a link's open ``obs_span``) that would not exist
    on a real wire; nothing protocol-visible may live there.

    A slotted class, one instance per packet on the wire: no attribute is
    reassigned after ``__init__``.  Equality and the hash cover ``ip``,
    ``transport`` and ``payload``, never ``meta``; a packet whose payload
    is a view of a mutable buffer is, like that view, unhashable.
    """

    __slots__ = ("ip", "transport", "payload", "meta", "size", "wire_size")

    def __init__(
        self,
        ip: IPv4Header,
        transport: TransportHeader,
        payload: bytes = b"",
        meta: Optional[dict] = None,
    ) -> None:
        self.ip = ip
        self.transport = transport
        self.payload = payload
        self.meta = {} if meta is None else meta
        # IP size (headers + payload) and bytes on the link (plus Ethernet
        # overheads): fixed here, as the payload buffer is never resized.
        size = HEADERS_SIZE + len(payload)
        self.size = size
        self.wire_size = size + ETHERNET_OVERHEAD

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.ip, self.transport, self.payload) == (
            other.ip, other.transport, other.payload
        )

    def __hash__(self) -> int:
        return hash((self.ip, self.transport, self.payload))

    def __repr__(self) -> str:
        return (
            f"Packet(ip={self.ip!r}, transport={self.transport!r}, "
            f"payload={self.payload!r}, meta={self.meta!r})"
        )

    def encode(self) -> bytes:
        """Exact wire bytes (IPv4 + transport header + payload).

        ``payload`` may be a memoryview slice from the zero-copy TX path;
        the join materialises it.
        """
        ip = self.ip._replace(total_len=self.size)
        return b"".join((ip.encode(), self.transport.encode(), self.payload))

    @staticmethod
    def decode(data: bytes) -> "Packet":
        ip = IPv4Header.decode(data)
        if ip.total_len != len(data):
            raise ProtocolError(
                f"IPv4 total_len {ip.total_len} != packet size {len(data)}"
            )
        transport = TransportHeader.decode(data[IPV4_HEADER_SIZE:])
        return Packet(ip, transport, bytes(data[HEADERS_SIZE:]))
