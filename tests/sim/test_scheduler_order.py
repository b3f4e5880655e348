"""Property suite for the event loop's dispatch order.

The loop keeps one ``(when, seq)`` heap but adds three things on top of a
plain ``heapq``: a ``call_soon`` ready deque merged with the heap by
``seq``, tombstone cancellation, and in-place compaction once tombstones
outnumber live entries.  The contract is that none of them is visible:
entries fire in exact ``(when, seq)`` order.  These tests pin that against
a minimal plain-heap reference model, across randomized workloads that mix
nested scheduling, cancellation, periodic timers, ``call_soon`` merging,
``run(until)`` windows with ``next_event_time()`` peeks, and delays from
zero to weeks.
"""

from __future__ import annotations

import heapq
import random
import weakref

from repro.sim.event_loop import EventLoop

SEEDS = range(40)

# Delay palette: same-instant, sub-microsecond packet gaps, RTO-grade
# milliseconds, control-plane seconds, and weeks.
DELAYS = [0.0, 1e-7, 2.37e-7, 1e-6, 5e-5, 1e-3, 0.017, 0.5, 3.0, 700.0, 2e6]


class RefHeapLoop:
    """A plain-heap scheduler: exact (when, seq) order, tombstone cancel.

    ``call_soon`` is modelled as ``call_at(now)`` -- in a pure heap the
    two are indistinguishable, which is precisely the ordering contract
    the real loop's ready-deque fast path must preserve.
    """

    def __init__(self):
        self.now = 0.0
        self._q = []
        self._seq = 0

    def _push(self, when, fn, arg):
        self._seq += 1
        entry = [when, self._seq, fn, arg]
        heapq.heappush(self._q, entry)
        return entry

    def call_at(self, when, fn, arg=None):
        self._push(when, fn, arg)

    def call_later(self, delay, fn, arg=None):
        self._push(self.now + delay, fn, arg)

    def call_soon(self, fn, arg=None):
        self._push(self.now, fn, arg)

    def timer_later(self, delay, fn, arg=None):
        return self._push(self.now + delay, fn, arg)

    def every(self, interval, fn):
        state = {"cancelled": False}

        def fire(_arg):
            if state["cancelled"]:
                return
            fn()
            if not state["cancelled"]:
                self._push(self.now + interval, fire, None)

        self._push(self.now + interval, fire, None)
        return state

    @staticmethod
    def cancel(entry_or_state):
        """Cancel; True if it had neither fired nor been cancelled."""
        if isinstance(entry_or_state, dict):
            was_active = not entry_or_state["cancelled"]
            entry_or_state["cancelled"] = True
            return was_active
        if entry_or_state[2] is None:
            return False
        entry_or_state[2] = None
        return True

    @staticmethod
    def when_of(entry):
        return entry[0]

    def next_event_time(self):
        """Time of the live head, or None: what the real peek must return."""
        while self._q and self._q[0][2] is None:
            heapq.heappop(self._q)
        return self._q[0][0] if self._q else None

    def run(self, until=None):
        while self._q:
            entry = self._q[0]
            if entry[2] is None:
                heapq.heappop(self._q)
                continue
            if until is not None and entry[0] > until:
                break
            heapq.heappop(self._q)
            fn = entry[2]
            entry[2] = None
            self.now = entry[0]
            fn(entry[3])
        if until is not None and until > self.now:
            self.now = until
        return self.now


class LoopAdapter:
    """Uniform facade over the real loop so scenarios run on either."""

    def __init__(self):
        self._loop = EventLoop()
        self.call_at = self._loop.call_at
        self.call_later = self._loop.call_later
        self.call_soon = self._loop.call_soon
        self.timer_later = self._loop.timer_later
        self.every = lambda interval, fn: self._loop.every(interval, fn)
        self.run = self._loop.run
        self.next_event_time = self._loop.next_event_time

    @property
    def now(self):
        return self._loop.now

    @staticmethod
    def cancel(handle):
        return handle.cancel()

    @staticmethod
    def when_of(timer):
        return timer.when


def _scenario(seed, loop):
    """Deterministic random workload; returns the observed firing order."""
    rng = random.Random(seed)
    order = []
    live = {}
    counter = [0]

    def fire(tag):
        order.append((round(loop.now, 12), tag))
        for _ in range(rng.randrange(3)):
            counter[0] += 1
            tag2 = counter[0]
            delay = rng.choice(DELAYS)
            roll = rng.random()
            if roll < 0.5:
                live[tag2] = loop.timer_later(delay, fire, tag2)
            elif roll < 0.8:
                loop.call_later(delay, fire, tag2)
            else:
                loop.call_soon(fire, tag2)
        if rng.random() < 0.4 and live:
            key = rng.choice(sorted(live))
            loop.cancel(live.pop(key))

    for _ in range(40):
        counter[0] += 1
        delay = rng.choice(DELAYS) * rng.random()
        if rng.random() < 0.5:
            live[counter[0]] = loop.timer_later(delay, fire, counter[0])
        else:
            loop.call_later(delay, fire, counter[0])
    return order


def test_firing_order_matches_heap_reference():
    """40 randomized seeds: full dispatch order equals the heap model's."""
    for seed in SEEDS:
        loop = LoopAdapter()
        ref = RefHeapLoop()
        l_order = _scenario(seed, loop)
        r_order = _scenario(seed, ref)
        loop.run()
        ref.run()
        assert l_order == r_order, f"seed {seed} diverged"
        assert loop.now == ref.now, f"seed {seed}: final clocks differ"


def _must_not_fire(_arg):
    raise AssertionError("a cancelled timer fired")


def test_windowed_runs_match_heap_reference():
    """run(until=...) windows advance both models identically, and the
    ``next_event_time()`` peek before each window names the live head."""
    for seed in range(20):
        loop = LoopAdapter()
        ref = RefHeapLoop()
        l_order = _scenario(seed, loop)
        r_order = _scenario(seed, ref)
        rng = random.Random(10_000 + seed)
        horizon = 0.0
        for _ in range(30):
            for side in (loop, ref):  # park a tombstone at the head
                side.cancel(side.timer_later(0.0, _must_not_fire))
            assert loop.next_event_time() == ref.next_event_time(), f"seed {seed}"
            horizon += rng.choice(DELAYS) * rng.random()
            assert loop.run(until=horizon) == ref.run(until=horizon)
        assert loop.next_event_time() == ref.next_event_time(), f"seed {seed}"
        loop.run()
        ref.run()
        assert loop.next_event_time() is None
        assert l_order == r_order, f"seed {seed} diverged under windowed runs"


def test_periodic_timer_matches_heap_reference():
    """PeriodicTimer fire times and cancellation parity vs the reference."""
    for seed in range(30):
        rng = random.Random(seed)
        interval = rng.choice([1e-5, 3.3e-4, 0.01, 0.25])
        cancel_after = rng.randrange(1, 12)
        for loop in (LoopAdapter(), RefHeapLoop()):
            fired = []

            def tick(fired=fired, loop=loop):
                fired.append(round(loop.now, 12))
                if len(fired) == cancel_after:
                    loop.cancel(handle)

            handle = loop.every(interval, tick)
            loop.run(until=10.0)
            expected = [round(interval * (i + 1), 12) for i in range(cancel_after)]
            assert fired == expected, f"seed {seed}: periodic fired at {fired}"


def test_cancellation_is_idempotent_and_accounted():
    loop = EventLoop()
    fired = []
    timers = [loop.timer_later(d, fired.append, d) for d in DELAYS]
    assert loop.pending_events() == len(DELAYS)
    victim = timers[3]
    assert victim.cancel() is True
    assert victim.cancel() is False  # second cancel is a no-op
    assert not victim.active
    assert loop.pending_events() == len(DELAYS) - 1
    loop.run()
    assert sorted(fired) == sorted(d for i, d in enumerate(DELAYS) if i != 3)
    assert loop.pending_events() == 0


def test_mass_cancellation_compacts_without_reordering():
    """Cancelling most of a large population (triggering compaction) must
    not disturb the survivors' firing order."""
    for seed in range(10):
        rng = random.Random(seed)
        loop = EventLoop()
        fired = []
        timers = []
        for i in range(500):
            delay = rng.choice(DELAYS) * (1.0 + rng.random())
            timers.append((loop.timer_later(delay, fired.append, i), delay, i))
        rng.shuffle(timers)
        keep = timers[:50]
        for timer, _, _ in timers[50:]:
            timer.cancel()
        assert loop.pending_events() == 50
        loop.run()
        expected = [i for _, _, i in sorted(
            keep, key=lambda t: (t[0].when, t[2])
        )]
        # Survivors with equal `when` keep insertion order, which the sort
        # key above reproduces because lower index implies lower seq.
        assert fired == expected, f"seed {seed}: survivor order changed"


def _cancel_timing_scenario(seed, loop):
    """Timers cancelled before they fire, after, and inside their own
    callback; returns the firing order and every cancel's return value."""
    rng = random.Random(seed)
    order = []
    results = []
    timers = {}

    def fire(tag):
        order.append((round(loop.now, 12), tag))
        roll = rng.random()
        if roll < 0.3:  # cancel itself: already fired, so a no-op
            results.append((tag, "self", loop.cancel(timers[tag])))
        elif roll < 0.7 and timers:  # another timer, fired or not
            other = rng.choice(sorted(timers))
            results.append((tag, other, loop.cancel(timers[other])))

    for tag in range(60):
        timers[tag] = loop.timer_later(rng.choice(DELAYS) * rng.random(), fire, tag)
    for tag in rng.sample(range(60), 15):  # before anything fires
        results.append((None, tag, loop.cancel(timers[tag])))
    loop.run()
    for tag in rng.sample(range(60), 15):  # after everything fired
        results.append((None, tag, loop.cancel(timers[tag])))
    return order, results


def test_cancel_before_after_and_inside_its_callback_matches_heap_reference():
    for seed in SEEDS:
        loop = LoopAdapter()
        l_order, l_results = _cancel_timing_scenario(seed, loop)
        r_order, r_results = _cancel_timing_scenario(seed, RefHeapLoop())
        assert l_order == r_order, f"seed {seed} diverged"
        assert l_results == r_results, f"seed {seed}: cancel results differ"
        assert loop._loop.pending_events() == 0
        assert loop._loop._tombstones == 0


def test_window_ending_exactly_at_a_timer_fires_it():
    """run(until=t) for a timer due at exactly t fires it, and the
    same-instant work it files, in that window; nothing later runs."""
    for seed in range(20):
        orders = []
        for loop in (LoopAdapter(), RefHeapLoop()):
            rng = random.Random(seed)
            order = []

            def fire(tag, loop=loop, order=order):
                order.append((round(loop.now, 12), tag))
                if tag >= 0:
                    loop.call_soon(fire, -1 - tag)
                    loop.call_later(0.0, fire, -1000 - tag)

            handles = [
                loop.timer_later(rng.choice(DELAYS[1:]) * (1 + rng.random()), fire, i)
                for i in range(12)
            ]
            target = handles[5]
            until = loop.when_of(target)
            assert loop.run(until=until) == until
            fired = {tag for _, tag in order}
            assert {5, -6, -1005} <= fired, f"seed {seed}: timer at until missed"
            assert all(t <= round(until, 12) for t, _ in order)
            loop.run()
            orders.append(order)
        assert orders[0] == orders[1], f"seed {seed} diverged"


def test_mass_cancellation_matches_heap_reference():
    """Cancelling most of a population, before and during windowed runs,
    compacts the real heap without changing what fires or when."""
    for seed in range(10):
        orders = []
        for loop in (LoopAdapter(), RefHeapLoop()):
            rng = random.Random(seed)
            order = []
            timers = []

            def fire(tag, loop=loop, order=order, rng=rng, timers=timers):
                order.append((round(loop.now, 12), tag))
                for _ in range(rng.randrange(30)):
                    loop.cancel(rng.choice(timers))

            for i in range(500):
                delay = rng.choice(DELAYS) * (1.0 + rng.random())
                timers.append(loop.timer_later(delay, fire, i))
            for timer in rng.sample(timers, 300):
                loop.cancel(timer)
            if isinstance(loop, LoopAdapter):  # compacted, not just blanked
                assert len(loop._loop._heap) < 500
                assert loop._loop.pending_events() == 200
            horizon = 0.0
            for _ in range(10):
                horizon += rng.choice(DELAYS)
                loop.run(until=horizon)
            loop.run()
            orders.append(order)
        assert orders[0] == orders[1], f"seed {seed}: survivors reordered"


def test_periodic_cancelled_in_its_callback_among_other_work():
    """A periodic that cancels itself mid-scenario leaves the rest of the
    dispatch order exactly as the reference's, and no pending entry."""
    for seed in range(20):
        orders = []
        for loop in (LoopAdapter(), RefHeapLoop()):
            order = _scenario(seed, loop)
            rng = random.Random(seed)
            interval = rng.choice([1e-6, 3.3e-4, 0.01])
            stop_at = rng.randrange(1, 8)
            ticks = []

            def tick(loop=loop, order=order, ticks=ticks):
                ticks.append(loop.now)
                order.append((round(loop.now, 12), "tick"))
                if len(ticks) == stop_at:
                    assert loop.cancel(handle) is True
                    assert loop.cancel(handle) is False

            handle = loop.every(interval, tick)
            loop.run()
            assert len(ticks) == stop_at
            orders.append(order)
            if isinstance(loop, LoopAdapter):
                assert not handle.active and handle.fires == stop_at
                assert loop._loop.pending_events() == 0
        assert orders[0] == orders[1], f"seed {seed} diverged"


class _Arg:
    """A weakly referenceable timer argument."""


def test_fired_or_cancelled_timer_drops_its_arg():
    loop = EventLoop()
    fired_arg, cancelled_arg, live_arg = _Arg(), _Arg(), _Arg()
    refs = [weakref.ref(a) for a in (fired_arg, cancelled_arg, live_arg)]
    fired = loop.timer_later(1e-6, lambda arg: None, fired_arg)
    cancelled = loop.timer_later(1e-6, lambda arg: None, cancelled_arg)
    live = loop.timer_later(1.0, lambda arg: None, live_arg)
    del fired_arg, cancelled_arg, live_arg
    assert cancelled.cancel() is True
    loop.run(until=1e-3)
    assert not fired.active and not cancelled.active and live.active
    assert [ref() is None for ref in refs] == [True, True, False]


def test_periodic_cancelled_between_ticks_matches_heap_reference():
    """Cancelled from another event, a periodic never fires again, its
    pending tick becomes a tombstone, and the order matches the model."""
    for seed in range(20):
        rng = random.Random(seed)
        interval = rng.choice([1e-6, 3.3e-4, 0.01])
        stop = interval * (rng.randrange(1, 8) + rng.random())
        orders = []
        for loop in (LoopAdapter(), RefHeapLoop()):
            order = _scenario(seed, loop)

            def tick(loop=loop, order=order):
                order.append((round(loop.now, 12), "tick"))

            def stop_ticking(_arg, loop=loop):
                assert loop.cancel(handle) is True

            handle = loop.every(interval, tick)
            loop.call_later(stop, stop_ticking, None)
            loop.run()
            orders.append(order)
            if isinstance(loop, LoopAdapter):
                assert not handle.active and handle.cancel() is False
                assert loop._loop.pending_events() == 0
        assert orders[0] == orders[1], f"seed {seed} diverged"
