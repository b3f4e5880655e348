"""Handshake message framing.

Messages use the RFC 8446 outer shape -- ``type (1) || length (3) || body``
-- with a simplified tag-length-value body encoding instead of the full
extension grammar.  This keeps the wire format explicit and testable while
staying out of ASN.1/extension-codec weeds the paper does not touch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ProtocolError

# Field tags shared by all messages.
F_RANDOM = 1
F_CIPHER_SUITES = 2
F_KEY_SHARE = 3
F_SELECTED_SUITE = 4
F_PSK_IDENTITY = 5
F_PSK_BINDER = 6
F_PSK_ACCEPTED = 7
F_CERT_CHAIN = 8
F_SIG_ALG = 9
F_SIGNATURE = 10
F_VERIFY_DATA = 11
F_TICKET_ID = 12
F_TICKET_NONCE = 13
F_TICKET_LIFETIME = 14
F_SERVER_NAME = 15
F_SMT_TICKET = 16  # presence marks the paper's SMT-ticket extension
F_EARLY_DATA = 17
F_EXTENSIONS = 19


@dataclass
class HandshakeMessage:
    """One handshake message: a type byte plus a tag->bytes field map."""

    msg_type: int
    fields: dict[int, bytes] = field(default_factory=dict)

    def encode(self) -> bytes:
        body = bytearray()
        for tag in sorted(self.fields):
            value = self.fields[tag]
            if len(value) > 0xFFFF:
                raise ProtocolError(f"field {tag} too large ({len(value)} bytes)")
            body += tag.to_bytes(2, "big")
            body += len(value).to_bytes(2, "big")
            body += value
        if len(body) > 0xFFFFFF:
            raise ProtocolError("handshake message too large")
        return bytes((self.msg_type,)) + len(body).to_bytes(3, "big") + bytes(body)

    @staticmethod
    def decode(data: bytes) -> tuple["HandshakeMessage", int]:
        """Decode one message; returns (message, bytes consumed)."""
        if len(data) < 4:
            raise ProtocolError("truncated handshake header")
        msg_type = data[0]
        length = int.from_bytes(data[1:4], "big")
        end = 4 + length
        if len(data) < end:
            raise ProtocolError("truncated handshake body")
        fields: dict[int, bytes] = {}
        off = 4
        while off < end:
            if off + 4 > end:
                raise ProtocolError("truncated handshake field header")
            tag = int.from_bytes(data[off : off + 2], "big")
            flen = int.from_bytes(data[off + 2 : off + 4], "big")
            off += 4
            if off + flen > end:
                raise ProtocolError("truncated handshake field")
            if tag in fields:
                raise ProtocolError(f"duplicate handshake field {tag}")
            fields[tag] = data[off : off + flen]
            off += flen
        return HandshakeMessage(msg_type, fields), end

    @staticmethod
    def decode_all(data: bytes) -> list["HandshakeMessage"]:
        """Decode a concatenated flight of messages."""
        out = []
        off = 0
        while off < len(data):
            msg, consumed = HandshakeMessage.decode(data[off:])
            out.append(msg)
            off += consumed
        return out

    def require(self, tag: int) -> bytes:
        try:
            return self.fields[tag]
        except KeyError:
            raise ProtocolError(
                f"message type {self.msg_type} missing required field {tag}"
            ) from None
