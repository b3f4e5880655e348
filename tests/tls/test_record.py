"""TLS 1.3 record layer tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aead import new_aead
from repro.errors import AuthenticationError, ProtocolError
from repro.tls.constants import (
    CONTENT_ALERT,
    CONTENT_APPLICATION_DATA,
    CONTENT_HANDSHAKE,
    MAX_RECORD_PAYLOAD,
    RECORD_HEADER_SIZE,
    RECORD_OVERHEAD,
)
from repro.tls.record import (
    RecordProtection,
    encode_record_header,
    parse_record_header,
)

KEY = bytes(16)
IV = bytes(12)


def make_pair():
    return (
        RecordProtection(new_aead("aes-128-gcm", KEY), IV),
        RecordProtection(new_aead("aes-128-gcm", KEY), IV),
    )


class TestHeader:
    def test_roundtrip(self):
        header = encode_record_header(100)
        outer, length = parse_record_header(header)
        assert outer == CONTENT_APPLICATION_DATA and length == 100

    def test_truncated_rejected(self):
        with pytest.raises(ProtocolError):
            parse_record_header(b"\x17\x03")

    def test_bad_version_rejected(self):
        with pytest.raises(ProtocolError):
            parse_record_header(b"\x17\x02\x00\x00\x10")


class TestSealOpen:
    def test_roundtrip(self):
        sealer, opener = make_pair()
        record = sealer.seal(b"hello")
        out = opener.open(record)
        assert out.payload == b"hello"
        assert out.content_type == CONTENT_APPLICATION_DATA
        assert out.seqno == 0

    def test_record_overhead_constant_matches(self):
        sealer, _ = make_pair()
        record = sealer.seal(b"x" * 100)
        assert len(record) == 100 + RECORD_OVERHEAD

    def test_implicit_counter_advances(self):
        sealer, opener = make_pair()
        r0 = sealer.seal(b"a")
        r1 = sealer.seal(b"b")
        assert opener.open(r0).seqno == 0
        assert opener.open(r1).seqno == 1

    def test_out_of_order_records_rejected_implicit_mode(self):
        # TLS/TCP semantics: a skipped record desynchronises the stream.
        sealer, opener = make_pair()
        _r0 = sealer.seal(b"a")
        r1 = sealer.seal(b"b")
        with pytest.raises(AuthenticationError):
            opener.open(r1)  # expects seqno 0, record was sealed with 1

    def test_explicit_seqno_allows_any_order(self):
        # The property SMT builds on: per-message spaces open out of order.
        sealer, opener = make_pair()
        r5 = sealer.seal(b"five", seqno=5)
        r2 = sealer.seal(b"two", seqno=2)
        assert opener.open(r2, seqno=2).payload == b"two"
        assert opener.open(r5, seqno=5).payload == b"five"

    def test_explicit_seqno_mismatch_fails(self):
        sealer, opener = make_pair()
        record = sealer.seal(b"x", seqno=7)
        with pytest.raises(AuthenticationError):
            opener.open(record, seqno=8)

    def test_duplicate_explicit_seqno_same_ciphertext(self):
        # Deterministic nonce per seqno: needed for resync re-encryption.
        sealer1, _ = make_pair()
        sealer2, _ = make_pair()
        assert sealer1.seal(b"x", seqno=3) == sealer2.seal(b"x", seqno=3)

    def test_content_type_preserved(self):
        sealer, opener = make_pair()
        record = sealer.seal(b"hs", CONTENT_HANDSHAKE)
        assert opener.open(record).content_type == CONTENT_HANDSHAKE

    def test_padding_conceals_length_and_strips(self):
        sealer, opener = make_pair()
        padded = sealer.seal(b"short", padding=100)
        plain = sealer.__class__(new_aead("aes-128-gcm", KEY), IV).seal(b"short")
        assert len(padded) == len(plain) + 100
        assert opener.open(padded).payload == b"short"

    def test_padding_with_trailing_zero_payload(self):
        # Zero bytes at the end of the payload must survive pad stripping.
        sealer, opener = make_pair()
        payload = b"data\x00\x00"
        record = sealer.seal(payload, padding=10)
        assert opener.open(record).payload == payload

    def test_max_payload_enforced(self):
        sealer, _ = make_pair()
        with pytest.raises(ProtocolError):
            sealer.seal(bytes(MAX_RECORD_PAYLOAD + 1))

    def test_max_payload_allowed(self):
        sealer, opener = make_pair()
        record = sealer.seal(bytes(MAX_RECORD_PAYLOAD))
        assert len(opener.open(record).payload) == MAX_RECORD_PAYLOAD

    def test_tampered_body_rejected(self):
        sealer, opener = make_pair()
        record = bytearray(sealer.seal(b"payload"))
        record[RECORD_HEADER_SIZE + 2] ^= 1
        with pytest.raises(AuthenticationError):
            opener.open(bytes(record))

    def test_tampered_header_rejected(self):
        sealer, opener = make_pair()
        record = bytearray(sealer.seal(b"payload"))
        record[3] ^= 1  # length field is AAD
        with pytest.raises(ProtocolError):
            opener.open(bytes(record))

    def test_failed_open_does_not_advance_counter(self):
        sealer, opener = make_pair()
        good0 = sealer.seal(b"a")
        good1 = sealer.seal(b"b")
        bad = bytearray(good0)
        bad[-1] ^= 1
        with pytest.raises(AuthenticationError):
            opener.open(bytes(bad))
        assert opener.open(good0).payload == b"a"
        assert opener.open(good1).payload == b"b"

    def test_seqno_out_of_range(self):
        sealer, _ = make_pair()
        with pytest.raises(ProtocolError):
            sealer.seal(b"x", seqno=1 << 64)

    def test_alert_content_type(self):
        sealer, opener = make_pair()
        assert opener.open(sealer.seal(b"\x02\x28", CONTENT_ALERT)).content_type == CONTENT_ALERT


def _strip_reference(inner: bytes):
    """The byte-at-a-time padding strip the C scan replaced."""
    end = len(inner)
    while end > 0 and inner[end - 1] == 0:
        end -= 1
    if end == 0:
        raise ProtocolError("record with no content type")
    return inner[end - 1], inner[: end - 1]


class TestPaddingStrip:
    """open and open_parsed strip padding like the byte loop they replaced."""

    @staticmethod
    def _open_both(kind, record, seqno):
        opener = RecordProtection(new_aead(kind, KEY), IV)
        full = opener.open(record, seqno=seqno)
        view = memoryview(record)
        parsed = opener.open_parsed(
            view[:RECORD_HEADER_SIZE], view[RECORD_HEADER_SIZE:], seqno
        )
        return full, parsed

    @pytest.mark.parametrize("kind", ["fast", "aes-128-gcm"])
    @pytest.mark.parametrize("padding", [0, 1, 16_000])
    @pytest.mark.parametrize(
        "payload", [b"", b"data", b"data\x00\x00\x00", b"\x00" * 7], ids=repr
    )
    def test_same_record_as_the_byte_loop(self, kind, padding, payload):
        sealer = RecordProtection(new_aead(kind, KEY), IV)
        record = sealer.seal(payload, CONTENT_HANDSHAKE, seqno=9, padding=padding)
        inner = payload + bytes((CONTENT_HANDSHAKE,)) + bytes(padding)
        assert _strip_reference(inner) == (CONTENT_HANDSHAKE, payload)
        for opened in self._open_both(kind, record, 9):
            assert (opened.content_type, bytes(opened.payload)) == (
                CONTENT_HANDSHAKE, payload,
            )

    @pytest.mark.parametrize("padding", [0, 1, 16_000])
    def test_all_zero_inner_has_no_content_type(self, padding):
        sealer = RecordProtection(new_aead("fast", KEY), IV)
        record = sealer.seal(b"\x00" * 3, content_type=0, seqno=4, padding=padding)
        with pytest.raises(ProtocolError, match="no content type"):
            _strip_reference(bytes(4 + padding))
        opener = RecordProtection(new_aead("fast", KEY), IV)
        with pytest.raises(ProtocolError, match="no content type"):
            opener.open(record, seqno=4)
        view = memoryview(record)
        with pytest.raises(ProtocolError, match="no content type"):
            opener.open_parsed(view[:RECORD_HEADER_SIZE], view[RECORD_HEADER_SIZE:], 4)


class TestNonceDerivation:
    def test_nonce_xors_seqno_into_iv(self):
        protection = RecordProtection(new_aead("aes-128-gcm", KEY), b"\xff" * 12)
        nonce = protection.nonce_for(1)
        assert nonce[-1] == 0xFE
        assert nonce[:-1] == b"\xff" * 11

    def test_distinct_seqnos_distinct_nonces(self):
        protection = RecordProtection(new_aead("aes-128-gcm", KEY), IV)
        nonces = {protection.nonce_for(i) for i in range(100)}
        assert len(nonces) == 100


class TestProperties:
    @given(st.binary(max_size=500), st.integers(min_value=0, max_value=(1 << 64) - 1))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_any_seqno(self, payload, seqno):
        sealer, opener = make_pair()
        record = sealer.seal(payload, seqno=seqno)
        assert opener.open(record, seqno=seqno).payload == payload
