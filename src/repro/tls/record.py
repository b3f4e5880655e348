"""TLS 1.3 record protection (RFC 8446 section 5).

The piece SMT reuses wholesale: an AEAD keyed by a traffic secret, a
per-record nonce formed by XORing the static IV with the 64-bit record
sequence number, and the 5-byte record header as associated data.

:class:`RecordProtection` accepts an *explicit* sequence number on both
seal and open.  TLS/TCP passes a self-incrementing counter; SMT passes its
composite ``message_id << index_bits | record_index`` value (paper §4.4.1).
The cryptography is identical -- which is exactly the paper's point: the
NIC's self-incrementing counter keeps working because the record index
occupies the low bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.crypto.aead import Aead
from repro.errors import CryptoError, ProtocolError
from repro.tls.constants import (
    CONTENT_APPLICATION_DATA,
    INNER_TYPE_SIZE,
    LEGACY_VERSION,
    MAX_RECORD_PAYLOAD,
    RECORD_HEADER_SIZE,
    TAG_SIZE,
)


@dataclass(frozen=True)
class TLSRecord:
    """A decrypted record: real content type, plaintext, seqno used."""

    content_type: int
    payload: bytes
    seqno: int


def encode_record_header(ciphertext_len: int) -> bytes:
    """Outer header: opaque type 23, legacy version, 2-byte length."""
    if ciphertext_len > MAX_RECORD_PAYLOAD + INNER_TYPE_SIZE + TAG_SIZE + 256:
        raise ProtocolError(f"record ciphertext too large: {ciphertext_len}")
    return bytes(
        (
            CONTENT_APPLICATION_DATA,
            LEGACY_VERSION >> 8,
            LEGACY_VERSION & 0xFF,
            ciphertext_len >> 8,
            ciphertext_len & 0xFF,
        )
    )


def parse_record_header(data) -> tuple[int, int]:
    """Returns (outer content type, ciphertext length); accepts bytes-like."""
    if len(data) < RECORD_HEADER_SIZE:
        raise ProtocolError("truncated record header")
    if (data[1] << 8 | data[2]) != LEGACY_VERSION:
        raise ProtocolError("bad legacy version in record header")
    return data[0], data[3] << 8 | data[4]


class RecordProtection:
    """One direction of record protection (seal or open side of a key).

    ``iv`` is the per-direction write IV from the key schedule; nonces are
    ``iv XOR pad64(seqno)`` per RFC 8446 section 5.3.
    """

    def __init__(self, aead: Aead, iv: bytes):
        if len(iv) != aead.nonce_size:
            raise CryptoError(f"IV must be {aead.nonce_size} bytes")
        self._aead = aead
        self._iv = iv
        # The XOR with pad64(seqno) only touches the IV's low 8 bytes, so
        # the whole nonce computation is one int XOR over this value.
        self._iv_int = int.from_bytes(iv, "big")
        self._iv_len = len(iv)
        self._next_seqno = 0  # used only when the caller does not pass one

    def nonce_for(self, seqno: int) -> bytes:
        if not 0 <= seqno < (1 << 64):
            raise ProtocolError(f"record seqno out of 64-bit range: {seqno}")
        return (self._iv_int ^ seqno).to_bytes(self._iv_len, "big")

    def seal(
        self,
        payload: bytes,
        content_type: int = CONTENT_APPLICATION_DATA,
        seqno: Optional[int] = None,
        padding: int = 0,
    ) -> bytes:
        """Produce one full record (header + ciphertext + tag).

        ``padding`` adds that many zero bytes inside the AEAD envelope for
        length concealment (paper §6.1).  When ``seqno`` is omitted the
        internal self-incrementing counter is used (the TLS/TCP behaviour).
        """
        if len(payload) > MAX_RECORD_PAYLOAD:
            raise ProtocolError(
                f"record payload {len(payload)} exceeds {MAX_RECORD_PAYLOAD}"
            )
        if seqno is None:
            seqno = self._next_seqno
            self._next_seqno += 1
        # join() accepts memoryviews, so zero-copy payload slices
        # materialise exactly here -- the AEAD boundary.
        inner = b"".join((payload, bytes((content_type,)), bytes(padding)))
        header = encode_record_header(len(inner) + TAG_SIZE)
        ciphertext = self._aead.seal(self.nonce_for(seqno), inner, aad=header)
        return header + ciphertext

    def seal_batch(self, items: list) -> list[bytes]:
        """Seal ``(payload, content_type, seqno)`` records in one call.

        Returns the records as wire pieces, ``[header_0, sealed_0,
        header_1, sealed_1, ...]``: ``header_i + sealed_i`` is
        byte-identical to :meth:`seal` with that seqno and no padding, so
        ``b"".join(pieces[2 * i : 2 * j])`` is records ``i`` to ``j - 1`` on
        the wire -- one gather by the caller, no per-record
        ``header + ciphertext`` copy before it.  The AEAD's ``seal_many``
        seals the batch.
        """
        headers: list[bytes] = []
        batch: list[tuple] = []
        nonce_for = self.nonce_for
        for payload, content_type, seqno in items:
            if len(payload) > MAX_RECORD_PAYLOAD:
                raise ProtocolError(
                    f"record payload {len(payload)} exceeds {MAX_RECORD_PAYLOAD}"
                )
            # The seal side's one plaintext copy: it materialises the
            # zero-copy payload slice, and FastAead files this very object.
            inner = b"".join((payload, bytes((content_type,))))
            header = encode_record_header(len(inner) + TAG_SIZE)
            headers.append(header)
            batch.append((nonce_for(seqno), inner, header))
        sealed = self._aead.seal_many(batch)
        pieces: list[bytes] = [b""] * (2 * len(sealed))
        pieces[0::2] = headers
        pieces[1::2] = sealed
        return pieces

    def open_parsed(self, header, body, seqno: int) -> TLSRecord:
        """Open one record whose header the caller already parsed.

        The zero-copy decode path walks record boundaries to slice the
        reassembled message, so it has parsed every header once; this
        entry point skips :meth:`open`'s re-parse.  ``header`` and
        ``body`` may be memoryview slices; the caller has verified the
        outer content type and that ``len(body)`` matches the header's
        length field.  The returned ``payload`` is a read-only
        ``memoryview`` of the opened plaintext, so the caller's gather of
        a message's records is the one copy of each byte after the AEAD.
        """
        inner = self._aead.open(self.nonce_for(seqno), body, aad=header)
        content = _strip_padding(inner)
        return TLSRecord(
            content_type=content[-1], payload=memoryview(content)[:-1], seqno=seqno
        )

    def open(self, record, seqno: Optional[int] = None) -> TLSRecord:
        """Decrypt one full record; raises AuthenticationError on tampering.

        ``record`` may be any bytes-like object (the zero-copy decode path
        passes memoryview slices of the reassembled message).  Strips inner
        padding and recovers the true content type.  With no explicit
        ``seqno`` the internal counter is used and advanced only on
        success, matching TLS/TCP's reject-then-desynchronise behaviour.
        """
        explicit = seqno is not None
        if seqno is None:
            seqno = self._next_seqno
        outer_type, ct_len = parse_record_header(record)
        if outer_type != CONTENT_APPLICATION_DATA:
            raise ProtocolError(f"unexpected outer content type {outer_type}")
        view = memoryview(record)  # the AEAD reads the body in place
        body = view[RECORD_HEADER_SIZE:]
        if len(body) != ct_len:
            raise ProtocolError("record length field mismatch")
        header = bytes(view[:RECORD_HEADER_SIZE])
        inner = self._aead.open(self.nonce_for(seqno), body, aad=header)
        if not explicit:
            self._next_seqno += 1
        content = _strip_padding(inner)
        return TLSRecord(content_type=content[-1], payload=content[:-1], seqno=seqno)


def _strip_padding(inner: bytes) -> bytes:
    """``content || content_type`` of an opened inner plaintext.

    TLS 1.3 padding is the zero bytes after the content-type byte; one C
    scan strips them, and returns ``inner`` itself when there are none.
    """
    content = inner.rstrip(b"\x00")
    if not content:
        raise ProtocolError("record with no content type")
    return content
