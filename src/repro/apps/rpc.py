"""RPC framing over bytestream channels.

TCP has no message boundaries, so "the application indicates the message
length at the beginning of each message" (paper §2).  The frame is a
13-byte header -- payload length, request ID, response flag -- followed by
the payload.  Message-based transports (Homa/SMT sockets) don't need
this layer; their RPC shape is native.

:class:`RpcChannel` supports pipelining: callers separate
``send_request`` from ``recv_response`` so a closed-loop driver can keep
many requests outstanding on one connection.
"""

from __future__ import annotations

import struct
from typing import Any, Generator, Optional

from repro.errors import ProtocolError
from repro.host.cpu import AppThread

_HEADER = struct.Struct("!IQB")


def frame(payload: bytes, req_id: int, is_response: bool) -> bytes:
    """One framed RPC message."""
    return _HEADER.pack(len(payload), req_id, int(is_response)) + payload


class RpcChannel:
    """Request/response messages over a byte channel (kTLS/TCPLS/TCP).

    The byte channel must expose generator methods ``send(thread, data)``
    and ``recv(thread) -> bytes``.
    """

    def __init__(self, channel):
        self.channel = channel
        self._buf = bytearray()
        self._next_id = 1
        self._inbox: list[tuple[int, bool, bytes]] = []

    # -- sending ---------------------------------------------------------------

    def send_request(self, thread: AppThread, payload: bytes) -> Generator[Any, Any, int]:
        req_id = self._next_id
        self._next_id += 1
        send = self.channel.send(thread, frame(payload, req_id, False))
        del payload  # framed: the channel sends the copy
        yield from send
        return req_id

    def send_response(
        self, thread: AppThread, req_id: int, payload: bytes
    ) -> Generator[Any, Any, None]:
        send = self.channel.send(thread, frame(payload, req_id, True))
        del payload  # framed: the channel sends the copy
        yield from send

    # -- receiving ----------------------------------------------------------------

    def _parse(self) -> None:
        while len(self._buf) >= _HEADER.size:
            length, req_id, is_resp = _HEADER.unpack_from(self._buf)
            total = _HEADER.size + length
            if len(self._buf) < total:
                return
            payload = bytes(self._buf[_HEADER.size : total])
            del self._buf[:total]
            self._inbox.append((req_id, bool(is_resp), payload))

    def feed(self, data: bytes) -> None:
        """Push raw bytes obtained out-of-band (epoll servers)."""
        self._buf += data
        self._parse()

    def pop_message(self) -> Optional[tuple[int, bool, bytes]]:
        """Next parsed message without blocking, or None."""
        if self._inbox:
            return self._inbox.pop(0)
        return None

    def recv_message(self, thread: AppThread) -> Generator[Any, Any, tuple[int, bool, bytes]]:
        """Next complete message: (req_id, is_response, payload)."""
        while not self._inbox:
            data = yield from self.channel.recv(thread)
            self._buf += data
            self._parse()
        return self._inbox.pop(0)

    def recv_response(self, thread: AppThread) -> Generator[Any, Any, tuple[int, bytes]]:
        req_id, is_resp, payload = yield from self.recv_message(thread)
        if not is_resp:
            raise ProtocolError("expected a response, got a request")
        return req_id, payload

    def recv_request(self, thread: AppThread) -> Generator[Any, Any, tuple[int, bytes]]:
        req_id, is_resp, payload = yield from self.recv_message(thread)
        if is_resp:
            raise ProtocolError("expected a request, got a response")
        return req_id, payload

    def call(self, thread: AppThread, payload: bytes) -> Generator[Any, Any, bytes]:
        """Blocking request/response (no pipelining)."""
        sent_id = yield from self.send_request(thread, payload)
        req_id, payload_out = yield from self.recv_response(thread)
        if req_id != sent_id:
            raise ProtocolError(f"response id {req_id} != request id {sent_id}")
        return payload_out
