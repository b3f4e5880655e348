"""Retry budgets and exponential backoff with deterministic jitter.

Unbounded retries turn a partial outage into a total one: every client
multiplying its offered load by the retry count is the classic metastable
failure.  :class:`RetryBudget` is the standard defence -- a token bucket
where retries spend and successes refund a small fraction, so steady
state affords occasional retries but a dead destination drains the
bucket and further retries are denied.  :class:`BackoffPolicy` spaces
the retries that are granted: exponential growth, a hard cap, and
*seeded* jitter so concurrent clients decorrelate without breaking
replay.
"""

from __future__ import annotations

import random

from repro.errors import SimulationError


class RetryBudget:
    """Token bucket bounding retries relative to successes.

    Invariant (property-tested): the token level never exceeds
    ``capacity`` and never drops below zero, for *any* interleaving of
    spends and refunds.  First attempts are free -- only retries spend.
    """

    def __init__(self, capacity: float = 32.0, refund: float = 0.1):
        if capacity <= 0:
            raise SimulationError(f"retry budget capacity must be > 0, got {capacity}")
        if refund < 0:
            raise SimulationError(f"retry refund must be >= 0, got {refund}")
        self.capacity = float(capacity)
        self.refund = float(refund)
        self.tokens = self.capacity
        self.spent = 0
        self.denied = 0
        self.refunded = 0.0

    def try_spend(self) -> bool:
        """Take one token for a retry; False means the retry is denied."""
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            self.spent += 1
            return True
        self.denied += 1
        return False

    def on_success(self) -> None:
        """A call succeeded: refund a fraction of a token (capped)."""
        credit = min(self.refund, self.capacity - self.tokens)
        self.tokens += credit
        self.refunded += credit


class BackoffPolicy:
    """Exponential backoff, capped, with seeded proportional jitter.

    ``delay(attempt)`` for attempt ``0, 1, 2, ...`` grows as ``base *
    multiplier**attempt`` up to ``cap``, then multiplies by a jitter
    factor drawn uniformly from ``[1 - jitter, 1 + jitter]`` using the
    policy's own :class:`random.Random` -- deterministic per seed, and
    never pushing the delay above ``cap * (1 + jitter)`` or below zero.
    """

    def __init__(
        self,
        base: float = 20e-6,
        multiplier: float = 2.0,
        cap: float = 400e-6,
        jitter: float = 0.2,
        seed: int = 0,
    ):
        if base <= 0 or cap < base:
            raise SimulationError(f"need 0 < base <= cap, got base={base} cap={cap}")
        if multiplier < 1.0:
            raise SimulationError(f"backoff multiplier must be >= 1, got {multiplier}")
        if not 0 <= jitter < 1:
            raise SimulationError(f"jitter fraction must be in [0, 1), got {jitter}")
        self.base = base
        self.multiplier = multiplier
        self.cap = cap
        self.jitter = jitter
        self.rng = random.Random(seed * 0x9E3779B9 + 7)

    def delay(self, attempt: int) -> float:
        """Seconds to wait before retry number ``attempt`` (0-based)."""
        raw = min(self.base * self.multiplier ** min(attempt, 32), self.cap)
        if self.jitter:
            raw *= 1.0 + self.jitter * (2.0 * self.rng.random() - 1.0)
        return raw
