"""Exponential backoff with deterministic jitter.

:class:`BackoffPolicy` spaces a client's retries -- the re-handshakes a
revived replica's admission control refuses
(:mod:`repro.resilience.handshake`): exponential growth, a hard cap, and
*seeded* jitter so concurrent clients decorrelate without breaking
replay.
"""

from __future__ import annotations

import random

from repro.errors import SimulationError


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
