"""Per-host TCP demultiplexer and connection-pair construction.

Connections are keyed by (local port, peer address, peer port).  The
benchmarks establish long-lived connections up front -- exactly what the
paper's workloads do -- so :func:`connect_pair` wires both endpoints
directly; a SYN exchange would only add a constant the experiments never
measure.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import TransportError
from repro.host.cpu import discard
from repro.host.host import Host
from repro.net.headers import PROTO_TCP, PacketType
from repro.net.packet import Packet
from repro.tcp.connection import TcpConnection


class TcpTransport:
    """Routes inbound TCP packets to their connection objects."""

    def __init__(self, host: Host):
        self.host = host
        self._connections: dict[tuple[int, int, int], TcpConnection] = {}
        host.register_transport(PROTO_TCP, self)

    def add_connection(self, conn: TcpConnection) -> None:
        key = (conn.local_port, conn.peer_addr, conn.peer_port)
        if key in self._connections:
            raise TransportError(f"connection {key} already exists")
        self._connections[key] = conn

    def lookup(self, packet: Packet) -> Optional[TcpConnection]:
        key = (packet.transport.dst_port, packet.ip.src_addr, packet.transport.src_port)
        return self._connections.get(key)

    def classify(self, packet: Packet):
        conn = self.lookup(packet)
        if conn is None:
            return 0.1e-6, discard, packet, None, 0.0  # RST territory
        cost = conn.rx_cost(packet)
        if packet.transport.pkt_type == PacketType.DATA:
            # One connection's data batches; its handler is per connection.
            merge_cost = self.host.costs.tcp_rx_merged_per_packet
            return cost, conn.on_packets, packet, conn, merge_cost
        return cost, conn.on_packets, packet, None, 0.0

    @staticmethod
    def for_host(host: Host) -> "TcpTransport":
        """The host's TcpTransport, creating and registering it on demand."""
        existing = host.transport(PROTO_TCP)
        if existing is not None:
            return existing  # type: ignore[return-value]
        return TcpTransport(host)


def connect_pair(
    client: Host,
    server: Host,
    server_port: int,
    window_bytes: int = 512 * 1024,
    rto: float = 1.0e-3,
) -> tuple[TcpConnection, TcpConnection]:
    """Create an established connection between two hosts.

    Returns (client_conn, server_conn).  Each side is registered with its
    host's TcpTransport; the client gets an ephemeral local port.
    """
    client_port = client.alloc_port()
    c = TcpConnection(client, client_port, server.addr, server_port,
                      window_bytes=window_bytes, rto=rto)
    s = TcpConnection(server, server_port, client.addr, client_port,
                      window_bytes=window_bytes, rto=rto)
    TcpTransport.for_host(client).add_connection(c)
    TcpTransport.for_host(server).add_connection(s)
    return c, s
