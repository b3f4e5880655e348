"""SMT: transport-level encryption for datacenter networks.

Reproduction of "Designing Transport-Level Encryption for Datacenter
Networks" (SIGCOMM 2025).  The package provides:

- ``repro.core`` -- the SMT protocol (the paper's contribution):
  composite record sequence numbers, offload-friendly framing, per-message
  record spaces, replay defence, and 0-RTT key exchange.
- ``repro.homa`` / ``repro.tcp`` -- the message-based and bytestream
  transport substrates SMT and its baselines run on.
- ``repro.ktls`` / ``repro.tcpls`` -- the encrypted baselines.
- ``repro.tls`` / ``repro.crypto`` -- a from-scratch TLS 1.3 record layer,
  handshake and cryptography (AES-GCM, secp256r1 ECDH/ECDSA, RSA, HKDF).
- ``repro.sim`` / ``repro.net`` / ``repro.host`` / ``repro.nic`` -- the
  discrete-event datacenter substrate: virtual time, byte-exact packets,
  links, host CPU cost model, and a NIC with TSO and autonomous TLS offload.
- ``repro.apps`` -- key-value store + YCSB and NVMe-oF + FIO workloads.
- ``repro.bench`` -- one harness per table/figure of the paper.
"""

from repro._version import __version__
from repro.errors import (
    ReproError,
    CryptoError,
    AuthenticationError,
    ProtocolError,
    TransportError,
)

__all__ = [
    "__version__",
    "ReproError",
    "CryptoError",
    "AuthenticationError",
    "ProtocolError",
    "TransportError",
]
