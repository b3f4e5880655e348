"""Homa protocol parameters.

Defaults follow Homa/Linux's shipping configuration scaled to the paper's
100 Gb/s testbed: ~60 KB of unscheduled data (one bandwidth-delay product)
and grant windows of one RTT-bytes.  What one deployment fixes -- the
maximum message size, priority levels, the grant refill point -- are
constants beside their one reader in :mod:`repro.homa.engine`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import KB, USEC

#: Ceiling on the backed-off resend interval.
MAX_RESEND_INTERVAL = 20_000 * USEC


@dataclass
class HomaConfig:
    """Tunables for one Homa/SMT transport instance."""

    # Bytes a sender may transmit before any grant (one BDP at 100 Gb/s
    # with a ~5 us RTT is ~60 KB, Homa/Linux's "unsched_bytes").
    unscheduled_bytes: int = 72 * KB
    # The receiver keeps this many granted-but-unreceived bytes per message.
    grant_window: int = 72 * KB
    # Receiver asks for retransmission after this much silence on an
    # incomplete message (Homa/Linux uses ~10 ms; the simulated testbed's
    # RTT is microseconds so a tighter timer keeps loss recovery quick
    # while staying above loaded-queue latencies).
    resend_interval: float = 1000 * USEC
    # Give up on an incomplete inbound message after this many resends.
    max_resends: int = 10
    # Multiplicative backoff between successive resend requests (1.0 keeps
    # the fixed interval; adversarial-network runs use >1 so persistent
    # outages -- link flaps, burst loss -- do not cause retry storms).
    resend_backoff: float = 1.0
    # Recover messages whose reassembled bytes fail AEAD verification by
    # re-requesting them from the sender (the corrupted-wire case, paper
    # §7: SMT's AEAD replaces the transport checksum).  Off by default:
    # without it a bad record surfaces AuthenticationError to the
    # application, the TLS-like fail-closed behaviour.
    corruption_recovery: bool = False
    # Sender frees an unacknowledged fully-sent message after this long.
    sender_timeout: float = 10_000 * USEC

    def resend_delay(self, interval: float, attempts: int) -> float:
        """Wait before the next resend check after ``attempts`` resends.

        Exponential backoff (``resend_backoff`` > 1) bounded by the
        ceiling -- but never below ``interval``, so the default backoff
        of 1.0 reproduces the fixed timer.
        """
        grown = interval * self.resend_backoff ** min(attempts, 16)
        return min(grown, max(interval, MAX_RESEND_INTERVAL))
