"""Tests for the discrete-event kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim.event_loop import EventLoop
from tests.sim.helpers import run_process


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert EventLoop().now == 0.0

    def test_call_later_advances_clock(self):
        loop = EventLoop()
        seen = []
        loop.call_later(1.5, lambda: seen.append(loop.now))
        loop.run()
        assert seen == [1.5]
        assert loop.now == 1.5

    def test_events_fire_in_time_order(self):
        loop = EventLoop()
        order = []
        loop.call_later(2.0, lambda: order.append("b"))
        loop.call_later(1.0, lambda: order.append("a"))
        loop.call_later(3.0, lambda: order.append("c"))
        loop.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        loop = EventLoop()
        order = []
        for tag in "abc":
            loop.call_later(1.0, lambda t=tag: order.append(t))
        loop.run()
        assert order == ["a", "b", "c"]

    def test_cannot_schedule_in_past(self):
        loop = EventLoop()
        loop.call_later(1.0, lambda: None)
        loop.run()
        with pytest.raises(SimulationError):
            loop.call_at(0.5, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            EventLoop().call_later(-1.0, lambda: None)

    def test_negative_first_delay_rejected(self):
        """A negative ``first_delay`` used to run the clock backwards."""
        loop = EventLoop()
        loop.run(until=1.0)
        with pytest.raises(SimulationError):
            loop.every(1.0, lambda: None, first_delay=-0.5)
        assert loop.pending_events() == 0
        assert loop.run() == 1.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_times_rejected(self, bad):
        """A NaN key would silently break the heap invariant, and an
        infinite one would never fire: every entry point refuses both
        before filing anything."""
        loop = EventLoop()
        loop.run(until=1.0)
        noop = lambda: None  # noqa: E731
        attempts = [
            lambda: loop.call_at(bad, noop),
            lambda: loop.call_later(bad, noop),
            lambda: loop.timer_at(bad, noop),
            lambda: loop.timer_later(bad, noop),
            lambda: loop.timeout(bad),
            lambda: loop.every(bad, noop),
            lambda: loop.every(1.0, noop, first_delay=bad),
        ]
        for attempt in attempts:
            with pytest.raises(SimulationError):
                attempt()
            assert loop.pending_events() == 0

    def test_run_until_stops_early(self):
        loop = EventLoop()
        seen = []
        loop.call_later(1.0, lambda: seen.append(1))
        loop.call_later(5.0, lambda: seen.append(5))
        loop.run(until=2.0)
        assert seen == [1]
        assert loop.now == 2.0
        loop.run()
        assert seen == [1, 5]

    def test_run_returns_final_time(self):
        loop = EventLoop()
        loop.call_later(4.0, lambda: None)
        assert loop.run() == 4.0

    def test_max_events_guard(self):
        loop = EventLoop()

        def rearm():
            loop.call_soon(rearm)

        loop.call_soon(rearm)
        with pytest.raises(SimulationError):
            loop.run(max_events=100)


class TestEvents:
    def test_succeed_delivers_value(self):
        loop = EventLoop()
        ev = loop.event()
        got = []
        ev.add_callback(lambda e: got.append(e.value))
        ev.succeed(42)
        loop.run()
        assert got == [42]

    def test_callback_after_trigger_still_runs(self):
        loop = EventLoop()
        ev = loop.event().succeed("x")
        got = []
        ev.add_callback(lambda e: got.append(e.value))
        loop.run()
        assert got == ["x"]

    def test_double_trigger_rejected(self):
        loop = EventLoop()
        ev = loop.event().succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_ok_requires_trigger(self):
        loop = EventLoop()
        with pytest.raises(SimulationError):
            _ = loop.event().ok

    def test_fail_requires_exception(self):
        loop = EventLoop()
        with pytest.raises(SimulationError):
            loop.event().fail("not an exception")

    def test_timeout_value(self):
        loop = EventLoop()
        ev = loop.timeout(2.0, value="done")
        loop.run()
        assert ev.triggered and ev.ok and ev.value == "done"


class TestProcesses:
    def test_process_returns_value(self):
        loop = EventLoop()

        def body():
            yield loop.timeout(1.0)
            return "result"

        assert run_process(loop, body()) == "result"
        assert loop.now == 1.0

    def test_process_receives_event_value(self):
        loop = EventLoop()

        def body():
            value = yield loop.timeout(1.0, value=99)
            return value

        assert run_process(loop, body()) == 99

    def test_process_exception_propagates(self):
        loop = EventLoop()

        def body():
            yield loop.timeout(1.0)
            raise RuntimeError("inner")

        with pytest.raises(RuntimeError, match="inner"):
            run_process(loop, body())

    def test_failed_event_raises_in_process(self):
        loop = EventLoop()
        ev = loop.event()
        loop.call_later(1.0, lambda: ev.fail(KeyError("k")))

        def body():
            with pytest.raises(KeyError):
                yield ev
            return "handled"

        assert run_process(loop, body()) == "handled"

    def test_processes_compose(self):
        loop = EventLoop()

        def inner():
            yield loop.timeout(2.0)
            return 7

        def outer():
            value = yield loop.process(inner())
            return value * 2

        assert run_process(loop, outer()) == 14

    def test_yield_non_event_rejected(self):
        loop = EventLoop()

        def body():
            yield 42

        loop.process(body())
        with pytest.raises(SimulationError):
            loop.run()

    def test_deadlock_detected_by_run_process(self):
        loop = EventLoop()

        def body():
            yield loop.event()  # never triggers

        with pytest.raises(SimulationError, match="did not complete"):
            run_process(loop, body())


class TestTimers:
    def test_cancel_before_fire_suppresses_callback(self):
        loop = EventLoop()
        fired = []
        timer = loop.timer_later(1.0, lambda: fired.append("t"))
        assert timer.active
        assert timer.cancel() is True
        assert not timer.active
        loop.run()
        assert fired == []

    def test_cancel_after_fire_is_noop(self):
        loop = EventLoop()
        fired = []
        timer = loop.timer_later(1.0, lambda: fired.append("t"))
        loop.run()
        assert fired == ["t"]
        assert not timer.active
        assert timer.cancel() is False  # already fired: nothing to cancel

    def test_double_cancel_idempotent(self):
        loop = EventLoop()
        timer = loop.timer_later(1.0, lambda: None)
        assert timer.cancel() is True
        assert timer.cancel() is False
        loop.run()
        assert loop.pending_events() == 0

    def test_timer_at_passes_arg_and_when(self):
        loop = EventLoop()
        got = []
        timer = loop.timer_at(2.5, got.append, "payload")
        assert timer.when == 2.5
        loop.run()
        assert got == ["payload"]
        assert loop.now == 2.5

    def test_cancelled_timers_do_not_count_as_pending(self):
        loop = EventLoop()
        timers = [loop.timer_later(float(i + 1), lambda: None) for i in range(8)]
        for t in timers[::2]:
            t.cancel()
        assert loop.pending_events() == 4

    def test_compaction_preserves_dispatch_order(self):
        # Cancel more than half the queue so the tombstone threshold trips
        # compaction, then check the survivors fire in the exact order the
        # uncompacted heap would have produced.
        loop = EventLoop()
        order = []
        timers = []
        for i in range(100):
            timers.append(loop.timer_later(float(i % 10), order.append, i))
        for i, t in enumerate(timers):
            if i % 4 != 0:
                t.cancel()  # 75% tombstones: triggers in-place compaction
        assert loop.pending_events() == 25
        loop.run()
        expected = sorted(
            (i for i in range(100) if i % 4 == 0), key=lambda i: (i % 10, i)
        )
        assert order == expected

    def test_compaction_determinism_across_runs(self):
        def simulate():
            loop = EventLoop()
            trace = []
            live = {}

            def fire(tag):
                trace.append((round(loop.now, 9), tag))
                # Rearm and cancel from inside callbacks, interleaving
                # tombstone creation with dispatch.
                if tag < 200:
                    live[tag + 100] = loop.timer_later(0.5, fire, tag + 100)
                peer = live.pop(tag ^ 1, None)
                if peer is not None:
                    peer.cancel()

            for i in range(100):
                live[i] = loop.timer_later(float(i % 7) * 0.1, fire, i)
            loop.run()
            return trace

        assert simulate() == simulate()

    def test_cancel_interleaved_with_call_soon_order(self):
        # The ready FIFO and the heap share the seq counter; cancelling
        # heap entries must not disturb the merged dispatch order.
        loop = EventLoop()
        order = []
        loop.call_soon(order.append, "s1")
        t = loop.timer_at(0.0, order.append, "t1")
        loop.call_soon(order.append, "s2")
        loop.timer_at(0.0, order.append, "t2")
        t.cancel()
        loop.run()
        assert order == ["s1", "s2", "t2"]


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def simulate():
            loop = EventLoop()
            trace = []

            def worker(name, period):
                for _ in range(5):
                    yield loop.timeout(period)
                    trace.append((round(loop.now, 9), name))

            loop.process(worker("a", 0.3))
            loop.process(worker("b", 0.2))
            loop.run()
            return trace

        assert simulate() == simulate()
