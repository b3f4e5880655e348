"""The composed resilience kit wrapping RPC calls.

:class:`ResilienceKit` glues the pieces together for a client: each call
runs with a per-attempt deadline, failures consult the per-destination
:class:`~repro.resilience.breaker.CircuitBreaker` and the global
:class:`~repro.resilience.retry.RetryBudget`, granted retries are spaced
by a seeded :class:`~repro.resilience.retry.BackoffPolicy`, and optional
:class:`~repro.resilience.heartbeat.HeartbeatMonitor` watchers fail calls
fast while a destination is declared down.  Exhausted or fail-fast calls
raise (:class:`~repro.errors.CircuitOpenError` /
:class:`~repro.errors.TransportError`).

The kit is deliberately transport-agnostic: ``attempt`` is any generator
factory ``attempt(timeout) -> response``, so the same kit fronts a Homa
socket, an SMT socket or the cluster harness mesh.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

from repro.errors import (
    CircuitOpenError,
    SessionFailedError,
    TransportError,
)
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.heartbeat import HeartbeatMonitor
from repro.resilience.retry import BackoffPolicy, RetryBudget

#: Failures the kit treats as retryable transport trouble.
RETRYABLE = (TransportError, SessionFailedError)

#: Retry spacing: 15us doubling to a 120us cap, with +-20 % seeded jitter.
BACKOFF_BASE = 15e-6
BACKOFF_MULTIPLIER = 2.0
BACKOFF_CAP = 120e-6
BACKOFF_JITTER = 0.2
#: Concurrent probes a half-open breaker lets through.
BREAKER_HALF_OPEN_PROBES = 2
#: Longest a ``wait`` call parks for recovery before giving up.
MAX_RECOVERY_WAIT = 5e-3
#: Per-attempt deadline growth: attempt ``n`` (0-based) runs with
#: ``attempt_timeout * TIMEOUT_GROWTH ** min(n, 3)``.  A flat deadline
#: false-fires exactly when the system is digesting a recovery backlog,
#: and every false expiry *adds* a duplicate RPC to that backlog --
#: growing deadlines absorb the post-recovery mess instead of amplifying
#: it.
TIMEOUT_GROWTH = 2.0


@dataclass
class KitConfig:
    """Knobs for one client's resilience kit.

    The defaults are sized for the simulated fabric's timescales (RTTs
    of a few microseconds, incidents of a few hundred): a 60us attempt
    deadline is ~10x the loaded p50 RTT, and the breaker's recovery
    timeout is in the order of the fabric's re-convergence delay.
    """

    attempt_timeout: float = 60e-6
    max_attempts: int = 8
    budget_capacity: float = 64.0
    budget_refund: float = 0.2
    breaker_failure_threshold: int = 6
    breaker_recovery_timeout: float = 150e-6
    heartbeat_interval: float = 25e-6
    heartbeat_miss_threshold: int = 3
    #: When a detected outage clears, every blocked call wants to fire in
    #: the same instant -- a thundering herd that saturates the revived
    #: target and blows per-attempt deadlines all over again.  Calls that
    #: parked (or whose failure overlapped the outage) therefore delay
    #: their first post-recovery attempt by a uniform random splay in
    #: ``[0, recovery_splay)``.  Zero disables the splay.
    recovery_splay: float = 100e-6


class ResilienceKit:
    """Retry budget + breakers + failure detection for one client."""

    def __init__(self, loop, config: Optional[KitConfig] = None, seed: int = 0):
        self.loop = loop
        self.config = cfg = config or KitConfig()
        self.budget = RetryBudget(cfg.budget_capacity, cfg.budget_refund)
        self.backoff = BackoffPolicy(
            base=BACKOFF_BASE,
            multiplier=BACKOFF_MULTIPLIER,
            cap=BACKOFF_CAP,
            jitter=BACKOFF_JITTER,
            seed=seed,
        )
        self._breakers: dict[Any, CircuitBreaker] = {}
        self._monitors: dict[Any, HeartbeatMonitor] = {}
        self._rng = random.Random(seed * 65537 + 3)
        self.calls = 0
        self.retries = 0
        self.fail_fast = 0
        self.parked = 0
        self.splayed = 0
        self.exhausted = 0
        self.successes = 0

    # -- per-destination components --------------------------------------------

    def breaker_for(self, dst) -> CircuitBreaker:
        breaker = self._breakers.get(dst)
        if breaker is None:
            cfg = self.config
            breaker = CircuitBreaker(
                self.loop,
                failure_threshold=cfg.breaker_failure_threshold,
                recovery_timeout=cfg.breaker_recovery_timeout,
                half_open_max_probes=BREAKER_HALF_OPEN_PROBES,
                name=f"breaker.{dst}",
            )
            self._breakers[dst] = breaker
        return breaker

    def watch(self, dst, probe: Callable[[], bool]) -> HeartbeatMonitor:
        """Install heartbeat failure detection for ``dst`` (idempotent)."""
        monitor = self._monitors.get(dst)
        if monitor is None:
            cfg = self.config
            monitor = HeartbeatMonitor(
                self.loop,
                probe,
                interval=cfg.heartbeat_interval,
                miss_threshold=cfg.heartbeat_miss_threshold,
                name=f"hb.{dst}",
            ).start()
            self._monitors[dst] = monitor
        return monitor

    def destination_up(self, dst) -> bool:
        """Last heartbeat verdict for ``dst`` (True when unwatched)."""
        monitor = self._monitors.get(dst)
        return True if monitor is None else monitor.up

    def _outage_since(self, started: float, *keys) -> bool:
        """Was any watched party declared down since ``started``?

        A failed attempt that overlapped a *detected* outage -- of the
        destination or of the caller's own host -- is explained by that
        outage: it carries no information about health right now, so it
        must not feed the breaker.  Breakers exist for the silent
        failures heartbeats cannot see; letting outage-straddling
        deadline expiries trip them opens the circuit exactly when the
        network has just healed.
        """
        for key in keys:
            if key is None:
                continue
            monitor = self._monitors.get(key)
            if monitor is not None and monitor.down_since(started):
                return True
        return False

    def stop(self) -> None:
        """Cancel every heartbeat monitor (teardown)."""
        for monitor in self._monitors.values():
            monitor.stop()

    # -- the call wrapper -------------------------------------------------------

    def call(
        self,
        attempt: Callable[[float], Generator[Any, Any, Any]],
        dst,
        on_open: str = "raise",
        timeout: Optional[float] = None,
        caller=None,
    ) -> Generator[Any, Any, Any]:
        """Run ``attempt(timeout)`` with the full kit around it.

        ``timeout`` overrides the config's per-attempt deadline for this
        call -- callers with size-dependent expected RTTs (a 128 KB
        message legitimately takes longer than a 256 B one) scale the
        deadline instead of tolerating false timeouts on big messages.

        ``caller`` scopes the breaker: when a kit fronts many senders
        (the cluster mesh), a sender whose *own* uplink is dead fails
        every call, and without scoping those failures would trip the
        shared breaker of every healthy destination.  Heartbeat verdicts
        stay per-destination -- liveness is a property of the target --
        but if the *caller* is itself a watched host, its own ``down``
        verdict parks the call just like the destination's would, and
        failures that overlapped a detected outage of either party are
        not counted against the breaker (see :meth:`_outage_since`).

        ``on_open`` chooses the fail-fast behaviour when the breaker or
        the heartbeat verdict refuses the call: ``"raise"`` surfaces
        :class:`CircuitOpenError` immediately, ``"wait"`` parks until the
        destination looks callable again -- bounded by
        :data:`MAX_RECOVERY_WAIT`, after which it raises anyway.
        Retryable failures are :data:`RETRYABLE`; anything else propagates
        untouched (an authentication failure is not cured by retrying).
        """
        if on_open not in ("raise", "wait"):
            raise ValueError(f"on_open must be 'raise' or 'wait', got {on_open!r}")
        self.calls += 1
        cfg = self.config
        deadline = cfg.attempt_timeout if timeout is None else timeout
        breaker = self.breaker_for(dst if caller is None else (caller, dst))
        attempts = 0
        splayed = False
        while True:
            waited = 0.0
            outage_park = False
            # A sender whose own host is declared down parks too: every
            # attempt it made would burn a deadline against a healthy
            # destination and pollute the breaker with failures that are
            # really its own outage.
            while not (
                self.destination_up(dst)
                and (caller is None or self.destination_up(caller))
                and breaker.allow()
            ):
                if on_open != "wait" or waited >= MAX_RECOVERY_WAIT:
                    self.fail_fast += 1
                    raise CircuitOpenError(
                        f"destination {dst} refused fail-fast "
                        f"(breaker {breaker.state.value}, "
                        f"up={self.destination_up(dst)})"
                    )
                # Park until the breaker's timeout or the next heartbeat
                # could change the verdict; jittered so a thundering herd
                # of parked callers staggers its re-checks.
                pause = max(
                    breaker.remaining_open_time(), cfg.heartbeat_interval
                ) * (1.0 + 0.1 * self._rng.random())
                pause = min(pause, MAX_RECOVERY_WAIT - waited)
                waited += pause
                self.parked += 1
                if not (
                    self.destination_up(dst)
                    and (caller is None or self.destination_up(caller))
                ):
                    outage_park = True
                yield self.loop.timeout(pause)
            if outage_park and not splayed and cfg.recovery_splay > 0:
                # The outage just cleared and every parked call saw the
                # same ``up`` verdict: splay the stampede.
                splayed = True
                self.splayed += 1
                yield self.loop.timeout(self._rng.random() * cfg.recovery_splay)
            started = self.loop.now
            try:
                result = yield from attempt(
                    deadline * TIMEOUT_GROWTH ** min(attempts, 3)
                )
            except RETRYABLE as exc:
                stale = self._outage_since(started, dst, caller)
                if not stale:
                    breaker.record_failure()
                attempts += 1
                if attempts >= cfg.max_attempts:
                    self.exhausted += 1
                    raise
                if not self.budget.try_spend():
                    self.exhausted += 1
                    raise TransportError(
                        f"retry budget exhausted calling {dst}: {exc}"
                    ) from exc
                self.retries += 1
                if stale and not splayed and cfg.recovery_splay > 0:
                    # The attempt's deadline straddled a detected outage,
                    # so the whole herd is about to retry at once: splay
                    # this retry instead of the usual tight backoff.
                    splayed = True
                    self.splayed += 1
                    yield self.loop.timeout(
                        self._rng.random() * cfg.recovery_splay
                    )
                else:
                    yield self.loop.timeout(self.backoff.delay(attempts - 1))
                continue
            breaker.record_success()
            if attempts:
                self.budget.on_success()
            self.successes += 1
            return result
