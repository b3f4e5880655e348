"""Addresses and flow tuples.

Hosts get 32-bit IPv4-style addresses.  A :class:`FlowTuple` is the
classic 5-tuple; it identifies a TCP connection, a Homa socket pair, and
an SMT secure session (paper §4.2: "a session is identified by the flow
5 tuple").

:func:`flow_hash` is the one hash of a 5-tuple: RSS core steering, the
TCP transmit-queue pick and ECMP spine choice all call it.  Every packet
of a flow hashes the same five ints, so it is memoised, with an LRU bound
of :data:`FLOW_HASH_MEMO` distinct flows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

#: Distinct 5-tuples whose hash :func:`flow_hash` remembers.
FLOW_HASH_MEMO = 4096


def format_addr(addr: int) -> str:
    """Dotted-quad rendering of a 32-bit address."""
    return ".".join(str((addr >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def make_addr(a: int, b: int, c: int, d: int) -> int:
    """Compose a 32-bit address from four octets."""
    for octet in (a, b, c, d):
        if not 0 <= octet <= 255:
            raise ValueError(f"bad octet {octet}")
    return a << 24 | b << 16 | c << 8 | d


@lru_cache(maxsize=FLOW_HASH_MEMO)
def flow_hash(
    src_addr: int, src_port: int, dst_addr: int, dst_port: int, proto: int
) -> int:
    """Deterministic RSS-style hash of a 5-tuple, for per-flow steering."""
    # A small multiplicative hash; stability across runs is what matters.
    h = 0x9E3779B97F4A7C15
    for part in (src_addr, src_port, dst_addr, dst_port, proto):
        h ^= part
        h = (h * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        h ^= h >> 31
    return h


@dataclass(frozen=True)
class FlowTuple:
    """src/dst address + port plus the transport protocol number."""

    src_addr: int
    src_port: int
    dst_addr: int
    dst_port: int
    proto: int

    def reversed(self) -> "FlowTuple":
        """The same flow as seen from the other endpoint."""
        return FlowTuple(
            self.dst_addr, self.dst_port, self.src_addr, self.src_port, self.proto
        )

    def rss_hash(self) -> int:
        """:func:`flow_hash` of this 5-tuple."""
        return flow_hash(
            self.src_addr, self.src_port, self.dst_addr, self.dst_port, self.proto
        )

    def __str__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"{format_addr(self.src_addr)}:{self.src_port}->"
            f"{format_addr(self.dst_addr)}:{self.dst_port}/{self.proto}"
        )
