"""Virtual-time token-bucket rate limiting (throttling pattern).

The bucket refills continuously at ``rate_bps / 8`` bytes per virtual
second up to ``burst_bytes``; callers charge wire bytes against it.  The
one discipline is **shaping** (:meth:`reserve`): the charge always
succeeds, but returns the virtual-time delay until the debited tokens
will have existed.  Because the balance may go negative (a reservation
against future refill), a back-to-back burst above the rate is
*serialised* — exactly a leaky-bucket egress shaper.  Deterministic: the
delay is a pure function of prior reservations, never of event ordering
races.

The shaper is what :class:`~repro.tenancy.harness.TenantFabric` installs
at host egress: an aggressor tenant offering load above its entitlement
accumulates delay in its own bucket — queueing moves from the shared
fabric into the tenant's private backlog, which is the whole point of
the isolation.
"""

from __future__ import annotations

from repro.errors import ProtocolError


class TokenBucket:
    """Byte-denominated token bucket over virtual time."""

    def __init__(self, loop, rate_bps: float, burst_bytes: float, name: str = ""):
        if rate_bps <= 0:
            raise ProtocolError(f"rate must be > 0 bps, got {rate_bps}")
        if burst_bytes <= 0:
            raise ProtocolError(f"burst must be > 0 bytes, got {burst_bytes}")
        self.loop = loop
        self.rate_Bps = rate_bps / 8.0
        self.burst_bytes = float(burst_bytes)
        self.name = name
        self._tokens = self.burst_bytes  # may go negative under shaping
        self._last = loop.now
        self.conforming = 0
        self.throttled = 0
        self.throttle_wait_total = 0.0

    def _refill(self) -> None:
        now = self.loop.now
        if now > self._last:
            self._tokens = min(
                self.burst_bytes, self._tokens + (now - self._last) * self.rate_Bps
            )
            self._last = now

    @property
    def tokens(self) -> float:
        """Current balance in bytes (negative while shaping a backlog)."""
        self._refill()
        return self._tokens

    def reserve(self, nbytes: int) -> float:
        """Debit ``nbytes`` now; return the delay until they are covered.

        A zero return means the send conforms to the rate and may go
        immediately; a positive return is the shaping delay the caller
        must sleep (``yield loop.timeout(delay)``) before sending.
        """
        if nbytes <= 0:
            return 0.0
        self._refill()
        self._tokens -= nbytes
        if self._tokens >= 0:
            self.conforming += 1
            return 0.0
        delay = -self._tokens / self.rate_Bps
        self.throttled += 1
        self.throttle_wait_total += delay
        return delay

    def stats(self) -> dict:
        return {
            "conforming": self.conforming,
            "throttled": self.throttled,
            "throttle_wait_total": self.throttle_wait_total,
        }
