"""A TCPLS-like channel: multiplexed TLS 1.3 streams over TCP.

Modelled after Rochet et al. (CoNEXT '21): application data rides in TLS
records whose *inner* payload is prefixed with a TCPLS stream frame
(stream ID, offset, length).  The nonce is derived from per-stream state
rather than the plain record counter -- which is precisely why commodity
NIC TLS offload cannot encrypt TCPLS records (paper §2.1): the engine's
self-incrementing sequence number no longer matches the nonce schedule.
We keep that property by construction: TcplsConnection only offers
software encryption.
"""

from __future__ import annotations

import struct
from typing import Any, Generator

from repro.crypto.aead import shared_aead
from repro.errors import ProtocolError
from repro.host.cpu import AppThread
from repro.tcp.connection import TcpConnection
from repro.tls.constants import (
    CONTENT_APPLICATION_DATA,
    MAX_RECORD_PAYLOAD,
    RECORD_HEADER_SIZE,
)
from repro.tls.keyschedule import TrafficKeys
from repro.tls.record import RecordProtection, parse_record_header
from repro.units import USEC

# TCPLS stream frame inside each record: stream id (4) + offset (8) + len (4).
_FRAME = struct.Struct("!IQI")
# Extra per-record CPU for stream bookkeeping/aggregation (calibrated so
# TCPLS lands a few percent above kTLS-SW, matching §5.5's margins).
TCPLS_RECORD_EXTRA = 0.35 * USEC


class TcplsConnection:
    """One end of a TCPLS session carrying a single stream (stream 0)."""

    def __init__(
        self,
        conn: TcpConnection,
        write_keys: TrafficKeys,
        read_keys: TrafficKeys,
        aead_kind: str = "aes-128-gcm",
        max_record_payload: int = MAX_RECORD_PAYLOAD - _FRAME.size,
    ):
        self.conn = conn
        self.costs = conn.costs
        self.max_record_payload = max_record_payload
        # Per-stream nonce state: XOR the record counter with a stream salt,
        # the custom construction that breaks AO offload.
        self._stream_salt = 0x5A5A5A5A
        self._write = RecordProtection(shared_aead(aead_kind, write_keys.key), write_keys.iv)
        self._read = RecordProtection(shared_aead(aead_kind, read_keys.key), read_keys.iv)
        self._tx_seq = 0
        self._rx_seq = 0
        self._tx_offset = 0
        self._rx_buf = bytearray()
        self.records_sealed = 0
        self.records_opened = 0

    def _nonce_seq(self, seq: int) -> int:
        # Custom nonce schedule (stream-salted counter).
        return seq ^ self._stream_salt

    def send(self, thread: AppThread, payload: bytes) -> Generator[Any, Any, None]:
        cost = 0.0
        wire: list[bytes] = []
        off = 0
        while off < len(payload):
            piece = payload[off : off + self.max_record_payload]
            off += len(piece)
            frame = _FRAME.pack(0, self._tx_offset, len(piece)) + piece
            self._tx_offset += len(piece)
            wire.append(
                self._write.seal(
                    frame, CONTENT_APPLICATION_DATA, seqno=self._nonce_seq(self._tx_seq)
                )
            )
            self._tx_seq += 1
            self.records_sealed += 1
            cost += self.costs.crypto_cost(len(frame)) + TCPLS_RECORD_EXTRA
        yield from thread.work(cost)
        yield from self.conn.send(thread, b"".join(wire))

    def recv(self, thread: AppThread) -> Generator[Any, Any, bytes]:
        while True:
            out: list[bytes] = []
            cost = 0.0
            while len(self._rx_buf) >= RECORD_HEADER_SIZE:
                _t, ct_len = parse_record_header(bytes(self._rx_buf[:RECORD_HEADER_SIZE]))
                total = RECORD_HEADER_SIZE + ct_len
                if len(self._rx_buf) < total:
                    break
                record = bytes(self._rx_buf[:total])
                del self._rx_buf[:total]
                opened = self._read.open(record, seqno=self._nonce_seq(self._rx_seq))
                self._rx_seq += 1
                stream_id, _offset, length = _FRAME.unpack_from(opened.payload)
                if stream_id != 0:
                    raise ProtocolError(f"unexpected TCPLS stream {stream_id}")
                out.append(opened.payload[_FRAME.size : _FRAME.size + length])
                self.records_opened += 1
                cost += (
                    self.costs.record_parse
                    + self.costs.stream_gather_per_byte * total
                    + self.costs.crypto_cost(len(opened.payload))
                    + TCPLS_RECORD_EXTRA
                )
            if out:
                yield from thread.work(cost)
                return b"".join(out)
            data = yield from self.conn.recv(thread)
            self._rx_buf += data


def tcpls_pair(
    client_conn: TcpConnection,
    server_conn: TcpConnection,
    client_keys: TrafficKeys,
    server_keys: TrafficKeys,
    aead_kind: str = "aes-128-gcm",
) -> tuple[TcplsConnection, TcplsConnection]:
    """Both ends of a TCPLS session over an established TCP pair."""
    c = TcplsConnection(client_conn, client_keys, server_keys, aead_kind)
    s = TcplsConnection(server_conn, server_keys, client_keys, aead_kind)
    return c, s
