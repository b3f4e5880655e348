"""The composed kit's call wrapper: retries, fail-fast, outage awareness.

Drives :meth:`ResilienceKit.call` with scripted attempt generators on a
bare event loop -- no fabric -- so each behaviour is pinned in isolation:
bounded retries with growing per-attempt deadlines, breaker fail-fast
with fallback diversion, caller-scoped breakers, and the outage-aware
accounting that keeps a *detected* outage from tripping breakers or
stampeding the revived target.
"""

from __future__ import annotations

import pytest

from repro.errors import CircuitOpenError, TransportError
from repro.resilience import BreakerState, KitConfig, ResilienceKit
from repro.sim.event_loop import EventLoop


def drive(loop, gen, dt=2e-3):
    """Run ``gen`` to completion, advancing at most ``dt`` of virtual time.

    ``run(until=...)`` moves the clock exactly to the bound, and the
    breaker's open->half-open transition is lazy on the clock -- so the
    window is kept small enough that driving a call does not silently
    age breakers past their recovery timeout.
    """
    done = loop.process(gen)
    loop.run(until=loop.now + dt)
    assert done.triggered, "kit call never finished"
    if not done.ok:
        raise done.value
    return done.value


def scripted_attempt(loop, outcomes, log=None, latency=5e-6):
    """Attempt factory failing/succeeding per the ``outcomes`` script."""

    def attempt(deadline):
        if log is not None:
            log.append((loop.now, deadline))
        outcome = outcomes.pop(0) if outcomes else "ok"
        yield loop.timeout(latency)
        if outcome == "fail":
            raise TransportError("scripted failure")
        return b"response"

    return attempt


class TestRetryPath:
    def test_retries_until_success_and_spends_budget(self):
        loop = EventLoop()
        kit = ResilienceKit(loop, KitConfig(max_attempts=5))
        log = []
        value = drive(
            loop,
            kit.call(scripted_attempt(loop, ["fail", "fail"], log), dst=1),
        )
        assert value == b"response"
        assert kit.retries == 2 and kit.successes == 1
        assert kit.budget.spent == 2
        # Success after retries refunds the budget once.
        assert kit.budget.refunded == pytest.approx(kit.config.budget_refund)

    def test_per_attempt_deadline_grows(self):
        loop = EventLoop()
        cfg = KitConfig(attempt_timeout=100e-6, max_attempts=6)
        kit = ResilienceKit(loop, cfg)
        log = []
        drive(loop, kit.call(scripted_attempt(loop, ["fail"] * 4, log), dst=9))
        deadlines = [d for _, d in log]
        assert deadlines == pytest.approx(
            [100e-6, 200e-6, 400e-6, 800e-6, 800e-6]
        )  # growth capped at 2**3

    def test_exhausted_attempts_raise_the_last_error(self):
        loop = EventLoop()
        kit = ResilienceKit(loop, KitConfig(max_attempts=3))
        with pytest.raises(TransportError):
            drive(loop, kit.call(scripted_attempt(loop, ["fail"] * 10), dst=1))
        assert kit.exhausted == 1

    def test_budget_exhaustion_stops_retrying(self):
        loop = EventLoop()
        cfg = KitConfig(max_attempts=50, budget_capacity=2.0, budget_refund=0.0)
        kit = ResilienceKit(loop, cfg)
        with pytest.raises(TransportError, match="retry budget exhausted"):
            drive(loop, kit.call(scripted_attempt(loop, ["fail"] * 50), dst=1))
        assert kit.budget.denied >= 1

    def test_non_retryable_errors_propagate_untouched(self):
        loop = EventLoop()
        kit = ResilienceKit(loop, KitConfig())

        def attempt(deadline):
            yield loop.timeout(1e-6)
            raise ValueError("not transport trouble")

        with pytest.raises(ValueError):
            drive(loop, kit.call(attempt, dst=1))
        assert kit.retries == 0


class TestFailFastAndFallback:
    def _tripped_kit(self, loop):
        cfg = KitConfig(breaker_failure_threshold=1, max_attempts=2,
                        breaker_recovery_timeout=10.0)
        kit = ResilienceKit(loop, cfg)
        # The first failure trips the breaker; the retry loop's gate then
        # fail-fasts instead of burning the second attempt.
        with pytest.raises(CircuitOpenError):
            drive(loop, kit.call(scripted_attempt(loop, ["fail"] * 5), dst=7))
        assert kit.breaker_for(7).state is BreakerState.OPEN
        return kit

    def test_open_breaker_raises_circuit_open(self):
        loop = EventLoop()
        kit = self._tripped_kit(loop)
        with pytest.raises(CircuitOpenError):
            drive(loop, kit.call(scripted_attempt(loop, []), dst=7))
        assert kit.fail_fast == 2  # the tripping call's gate + this one

    def test_wait_mode_parks_until_breaker_recovers(self):
        loop = EventLoop()
        cfg = KitConfig(breaker_failure_threshold=1, max_attempts=3,
                        breaker_recovery_timeout=100e-6, recovery_splay=0.0)
        kit = ResilienceKit(loop, cfg)
        # Tight window: the trip (at the 5 us attempt failure) must still
        # be inside its 100 us open period when the second call starts.
        with pytest.raises(CircuitOpenError):
            drive(loop, kit.call(scripted_attempt(loop, ["fail"] * 5), dst=7),
                  dt=20e-6)
        log = []
        value = drive(
            loop, kit.call(scripted_attempt(loop, [], log), dst=7, on_open="wait")
        )
        assert value == b"response"
        assert kit.parked >= 1
        # The attempt only ran once the open window (trip at 5 us +
        # 100 us recovery) had fully elapsed.
        assert log[0][0] >= 105e-6 - 1e-12

    def test_down_destination_fails_fast(self):
        loop = EventLoop()
        kit = ResilienceKit(loop, KitConfig(heartbeat_interval=10e-6,
                                            heartbeat_miss_threshold=1))
        kit.watch(3, lambda: False)
        loop.run(until=50e-6)
        assert not kit.destination_up(3)
        with pytest.raises(CircuitOpenError):
            drive(loop, kit.call(scripted_attempt(loop, []), dst=3))


class TestCallerScoping:
    def test_caller_failures_do_not_trip_other_callers(self):
        loop = EventLoop()
        cfg = KitConfig(breaker_failure_threshold=1, max_attempts=2)
        kit = ResilienceKit(loop, cfg)
        with pytest.raises(CircuitOpenError):
            drive(
                loop,
                kit.call(scripted_attempt(loop, ["fail"] * 3), dst=5, caller=0),
                dt=20e-6,
            )
        assert kit.breaker_for((0, 5)).state is BreakerState.OPEN
        # A different caller to the same destination is unaffected.
        value = drive(
            loop, kit.call(scripted_attempt(loop, []), dst=5, caller=1)
        )
        assert value == b"response"

    def test_down_caller_parks_instead_of_attempting(self):
        loop = EventLoop()
        cfg = KitConfig(heartbeat_interval=10e-6, heartbeat_miss_threshold=1,
                        recovery_splay=0.0)
        kit = ResilienceKit(loop, cfg)
        caller_alive = [True]
        kit.watch(0, lambda: caller_alive[0])
        kit.watch(5, lambda: True)
        caller_alive[0] = False
        loop.run(until=30e-6)
        assert not kit.destination_up(0)
        log = []
        loop.call_later(200e-6, lambda _=None: caller_alive.__setitem__(0, True))
        value = drive(
            loop,
            kit.call(
                scripted_attempt(loop, [], log), dst=5, caller=0, on_open="wait"
            ),
        )
        assert value == b"response"
        # No attempt ran while the caller's own host was declared down.
        assert log[0][0] >= 200e-6
        assert kit.parked >= 1


class TestOutageAwareAccounting:
    def test_outage_straddling_failures_do_not_trip_breaker(self):
        loop = EventLoop()
        # Threshold 1: any failure the kit blames on the destination
        # trips instantly -- so surviving proves the straddler was
        # classified as outage-explained.
        cfg = KitConfig(
            breaker_failure_threshold=1, max_attempts=6,
            heartbeat_interval=10e-6, heartbeat_miss_threshold=1,
            recovery_splay=0.0,
        )
        kit = ResilienceKit(loop, cfg)
        alive = [True]
        kit.watch(4, lambda: alive[0])
        # The attempt starts while dst is healthy, dst dies under it, and
        # its deadline expires *after* the heartbeat declared the outage:
        # the classic straddling failure.  It must not feed the breaker.
        loop.call_later(5e-6, lambda _=None: alive.__setitem__(0, False))
        loop.call_later(150e-6, lambda _=None: alive.__setitem__(0, True))
        value = drive(
            loop,
            kit.call(
                scripted_attempt(loop, ["fail"], latency=100e-6),
                dst=4, on_open="wait",
            ),
        )
        assert value == b"response"
        assert kit.breaker_for(4).trips == 0
        assert kit.retries == 1

    def test_recovery_splay_is_bounded_and_counted(self):
        loop = EventLoop()
        cfg = KitConfig(
            heartbeat_interval=10e-6, heartbeat_miss_threshold=1,
            recovery_splay=80e-6,
        )
        kit = ResilienceKit(loop, cfg)
        alive = [False]
        kit.watch(2, lambda: alive[0])
        loop.run(until=30e-6)
        loop.call_later(50e-6, lambda _=None: alive.__setitem__(0, True))
        log = []
        drive(
            loop,
            kit.call(scripted_attempt(loop, [], log), dst=2, on_open="wait"),
        )
        assert kit.splayed == 1
        # The attempt ran after the up-verdict plus at most one park
        # cycle plus the splay window.
        up_by = 30e-6 + 50e-6 + cfg.heartbeat_interval
        assert log[0][0] <= up_by + 1.1 * cfg.heartbeat_interval + 80e-6

    def test_silent_failures_still_trip_the_breaker(self):
        # No monitors at all: every failure is "unexplained" and the
        # breaker semantics are the classic consecutive-failure ones.
        loop = EventLoop()
        cfg = KitConfig(breaker_failure_threshold=3, max_attempts=4)
        kit = ResilienceKit(loop, cfg)
        # The third unexplained failure trips the breaker; the gate then
        # refuses the fourth attempt.
        with pytest.raises(CircuitOpenError):
            drive(loop, kit.call(scripted_attempt(loop, ["fail"] * 5), dst=1))
        assert kit.breaker_for(1).trips == 1
