"""TLS 1.3 (RFC 8446) subset: record layer, key schedule, handshake.

Implements exactly what the paper's systems use: the
TLS_AES_128_GCM_SHA256 suite with secp256r1 ECDHE, ECDSA or RSA
certificates (server authentication only), session resumption via
tickets, and a record layer whose per-record nonce comes from a 64-bit
record sequence number -- the variable SMT repurposes as its composite
message-ID / record-index (paper §4.4).
"""

from repro.tls.constants import (
    CONTENT_ALERT,
    CONTENT_APPLICATION_DATA,
    CONTENT_HANDSHAKE,
    MAX_RECORD_PAYLOAD,
    RECORD_HEADER_SIZE,
    RECORD_OVERHEAD,
)
from repro.tls.handshake import (
    ClientHandshake,
    HandshakeConfig,
    HandshakeResult,
    ServerHandshake,
)
from repro.tls.keyschedule import KeySchedule, TrafficKeys
from repro.tls.record import RecordProtection, TLSRecord
from repro.tls.timing import HandshakeCostModel

__all__ = [
    "CONTENT_ALERT",
    "CONTENT_APPLICATION_DATA",
    "CONTENT_HANDSHAKE",
    "MAX_RECORD_PAYLOAD",
    "RECORD_HEADER_SIZE",
    "RECORD_OVERHEAD",
    "RecordProtection",
    "TLSRecord",
    "KeySchedule",
    "TrafficKeys",
    "ClientHandshake",
    "ServerHandshake",
    "HandshakeConfig",
    "HandshakeResult",
    "HandshakeCostModel",
]
