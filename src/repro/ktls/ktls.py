"""TLS record protection layered on a TCP connection.

``mode``:

- ``None``  -- plain TCP passthrough (the unencrypted baseline),
- ``"sw"``  -- records sealed/opened by the CPU (kTLS software),
- ``"hw"``  -- transmit records encrypted by the NIC's autonomous offload
  engine through one flow context per connection; the connection's single
  transmit queue serialises descriptors, so only retransmissions need
  resync (paper §3.2) -- TcpConnection posts those itself.

Receive-side record processing mirrors Linux kTLS software receive: the
reader locates record boundaries in the stream, gathers each record's
ciphertext and decrypts in the ``recvmsg`` (application) context.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.crypto.aead import shared_aead
from repro.errors import CryptoError, ProtocolError
from repro.host.cpu import AppThread
from repro.nic.tls_offload import RecordDescriptor, TlsOffloadDescriptor
from repro.nic.tso import MAX_TSO_PAYLOAD
from repro.tcp.connection import TcpConnection
from repro.tls.constants import (
    CONTENT_APPLICATION_DATA,
    MAX_RECORD_PAYLOAD,
    RECORD_HEADER_SIZE,
    TAG_SIZE,
)
from repro.tls.keyschedule import TrafficKeys
from repro.tls.record import RecordProtection, encode_record_header, parse_record_header

_RECORD_WIRE = RECORD_HEADER_SIZE + MAX_RECORD_PAYLOAD + 1 + TAG_SIZE
_RECORDS_PER_CHUNK = MAX_TSO_PAYLOAD // _RECORD_WIRE


class KtlsConnection:
    """A (possibly encrypted) bytestream channel over one TcpConnection."""

    def __init__(
        self,
        conn: TcpConnection,
        mode: Optional[str] = None,
        write_keys: Optional[TrafficKeys] = None,
        read_keys: Optional[TrafficKeys] = None,
        aead_kind: str = "aes-128-gcm",
        max_record_payload: int = MAX_RECORD_PAYLOAD,
    ):
        if mode not in (None, "sw", "hw"):
            raise CryptoError(f"unknown kTLS mode {mode!r}")
        if mode is not None and (write_keys is None or read_keys is None):
            raise CryptoError("encrypted modes need both direction keys")
        self.conn = conn
        self.mode = mode
        self.costs = conn.costs
        self.max_record_payload = max_record_payload
        self.records_sealed = 0
        self.records_opened = 0
        self._rx_buf = bytearray()
        if mode is not None:
            self._write = RecordProtection(shared_aead(aead_kind, write_keys.key), write_keys.iv)
            self._read = RecordProtection(shared_aead(aead_kind, read_keys.key), read_keys.iv)
            self._tx_seq = 0
            if mode == "hw":
                self._context_key = ("ktls", id(self))
                conn.host.nic.flow_contexts.install(
                    self._context_key, shared_aead(aead_kind, write_keys.key), write_keys.iv
                )

    # -- transmit ---------------------------------------------------------------

    def send(self, thread: AppThread, payload: bytes) -> Generator[Any, Any, None]:
        """Send application bytes as TLS records over the stream."""
        if self.mode is None:
            yield from self.conn.send(thread, payload)
            return
        crypto_cost = 0.0
        view = memoryview(payload)  # records are zero-copy slices until sealed
        off = 0
        while off < len(payload):
            # Pack up to a TSO segment's worth of records per TCP chunk so
            # segments align with record boundaries (offload requirement).
            records: list[tuple] = []
            while off < len(payload) and len(records) < max(1, _RECORDS_PER_CHUNK):
                plaintext = view[off : off + self.max_record_payload]
                off += len(plaintext)
                records.append((plaintext, CONTENT_APPLICATION_DATA, self._tx_seq))
                self._tx_seq += 1
                self.records_sealed += 1
                if self.mode == "sw":
                    crypto_cost += self.costs.crypto_cost(len(plaintext))
            if self.mode == "sw":
                chunk = b"".join(self._write.seal_batch(records))
                tls = None
            else:
                chunk, tls = self._offload_layout(records)
                crypto_cost += self.costs.offload_meta_per_segment
            if crypto_cost:
                yield from thread.work(crypto_cost)
                crypto_cost = 0.0
            yield from self.conn.send(thread, chunk, tls=tls)

    def _offload_layout(self, records: list) -> tuple[bytes, TlsOffloadDescriptor]:
        """Plaintext layout of a chunk plus the descriptors the NIC seals by."""
        parts: list = []
        descriptors: list[RecordDescriptor] = []
        chunk_off = 0
        for plaintext, _content_type, seqno in records:
            descriptors.append(
                RecordDescriptor(offset=chunk_off, plaintext_len=len(plaintext), seqno=seqno)
            )
            parts += (
                encode_record_header(len(plaintext) + 1 + TAG_SIZE),
                plaintext,
                bytes(1 + TAG_SIZE),
            )
            chunk_off += descriptors[-1].wire_len
        return b"".join(parts), TlsOffloadDescriptor(self._context_key, descriptors)

    # -- receive -----------------------------------------------------------------

    def _open_buffered(self) -> tuple[list[bytes], float]:
        """Open every complete record in the receive buffer.

        Returns the plaintexts and the CPU cost of parsing, gathering and
        decrypting them; a partial trailing record stays buffered.
        """
        out: list[bytes] = []
        cost = 0.0
        buf = self._rx_buf
        view = memoryview(buf)
        off = 0
        try:
            while len(buf) - off >= RECORD_HEADER_SIZE:
                _t, ct_len = parse_record_header(view[off : off + RECORD_HEADER_SIZE])
                total = RECORD_HEADER_SIZE + ct_len
                if len(buf) - off < total:
                    break
                # Each record is copied out of the stream once, so nothing
                # the AEAD holds (a traceback included) pins the buffer, and
                # the consumed prefix is dropped once, in ``finally``.
                record = bytes(view[off : off + total])
                off += total
                opened = self._read.open(record)
                if opened.content_type != CONTENT_APPLICATION_DATA:
                    raise ProtocolError("unexpected TLS content type on data path")
                out.append(opened.payload)
                self.records_opened += 1
                cost += (
                    self.costs.record_parse
                    + self.costs.stream_gather_per_byte * total
                    + self.costs.crypto_cost(len(opened.payload))
                )
        finally:
            view.release()
            del buf[:off]
        return out, cost

    def recv(self, thread: AppThread) -> Generator[Any, Any, bytes]:
        """Receive decrypted application bytes (blocks until some arrive)."""
        if self.mode is None:
            data = yield from self.conn.recv(thread)
            return data
        while True:
            out, cost = self._open_buffered()
            if out:
                if cost:
                    yield from thread.work(cost)
                return b"".join(out)
            data = yield from self.conn.recv(thread)
            self._rx_buf += data

    def recv_available(self, thread: AppThread) -> Generator[Any, Any, bytes]:
        """Non-blocking drain for epoll-style servers.

        Returns whatever complete plaintext is available right now
        (possibly empty, e.g. a partial record in the buffer).
        """
        data = self.conn.try_recv()
        if data:
            yield from thread.work(
                self.costs.syscall + self.costs.copy_cost(len(data))
            )
        if self.mode is None:
            return data
        self._rx_buf += data
        out, cost = self._open_buffered()
        if cost:
            yield from thread.work(cost)
        return b"".join(out)


def ktls_pair(
    client_conn: TcpConnection,
    server_conn: TcpConnection,
    mode: Optional[str],
    client_keys: Optional[TrafficKeys] = None,
    server_keys: Optional[TrafficKeys] = None,
    aead_kind: str = "aes-128-gcm",
) -> tuple[KtlsConnection, KtlsConnection]:
    """Build both ends of a kTLS channel over an established TCP pair.

    ``client_keys``/``server_keys`` are the per-direction traffic keys
    (e.g. from a TLS handshake); they default to fresh deterministic keys
    for benchmarks that do not model the handshake.
    """
    if mode is not None:
        if client_keys is None:
            client_keys = TrafficKeys(key=b"\x11" * 16, iv=b"\x22" * 12)
        if server_keys is None:
            server_keys = TrafficKeys(key=b"\x33" * 16, iv=b"\x44" * 12)
    c = KtlsConnection(client_conn, mode, client_keys, server_keys, aead_kind)
    s = KtlsConnection(server_conn, mode, server_keys, client_keys, aead_kind)
    return c, s
