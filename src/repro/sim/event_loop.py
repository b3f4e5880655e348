"""Virtual-time event loop with generator-based processes.

The model is a stripped-down simpy:

- :class:`EventLoop` owns the clock and a priority queue of pending events.
- :class:`Event` is a one-shot future living on a loop.  Succeeding or
  failing it schedules its callbacks at the current virtual time.
- :class:`Process` drives a generator that ``yield``-s events; the process
  resumes when the yielded event fires.  A process is itself an event that
  succeeds with the generator's return value.
- :class:`Timer` is a cancellable handle returned by
  :meth:`EventLoop.timer_at` / :meth:`EventLoop.timer_later`.

Determinism: ties in time are broken by insertion order, and nothing in the
kernel consults wall time or global randomness, so a simulation with a fixed
seed replays identically.

Fast-path internals (all behaviour-preserving):

- Scheduled entries are mutable 4-lists ``[when, seq, fn, arg]`` in
  **one binary heap**.  ``seq`` is unique, so list comparison never
  reaches ``fn`` and stays in C.  One heap because ``heappush`` and
  ``heappop`` are C: Python-level bucketing in front of them measured at
  wall-clock parity at best and 11-22 % slower when finer-grained
  (EXPERIMENTS.md, "Speed machinery: kept / removed").
- A cancelled timer is a *tombstone*: its ``fn`` slot is set to ``None``
  and the entry is dropped when it reaches the head.  When tombstones
  outnumber live entries the heap is filtered and re-heapified in place;
  dispatch order is unchanged because ``(when, seq)`` keys are distinct.
- ``call_soon`` appends to a FIFO ready deque instead of touching the
  heap.  Ready entries share the global ``seq`` counter, and the run
  loop merges the deque with same-timestamp heap entries strictly by
  ``seq``, so the dispatch order is byte-identical to the all-heap scheme.
- ``timeout()`` returns a slotted :class:`Event` subclass fired by a
  module-level function -- no per-timeout closure allocation, which
  matters because every modelled packet delay and CPU slice is a timeout.
- A process step is one call: :meth:`Process._resume` reads the event's
  outcome and drives the generator itself, and triggering an event
  appends its waiters to the ready deque without a ``call_soon`` each.
  The kernel's own infinite loops (the softirq core, the NIC engine) and
  :meth:`Resource.service`'s hold are callbacks, not processes at all
  (DESIGN.md §9).
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Generator, Optional

from repro.errors import SimulationError

# Sentinel: "call fn()" rather than "call fn(arg)".
_NO_ARG = object()

# Upper bound of every range check on a time or delay: ``x < _INF`` is
# False for +inf and for NaN, so one comparison chain rejects past,
# infinite and NaN values alike.  A NaN key would silently break the heap.
_INF = float("inf")

# Events dispatched across every loop in this process, for perf trajectory
# bookkeeping (wall-clock benches report events/sec).  Deliberately a plain
# module global: the simulator is single-threaded per process.
_dispatched_total = 0


def events_dispatched() -> int:
    """Total events dispatched by all loops in this process."""
    return _dispatched_total


class Event:
    """A one-shot occurrence at some virtual time.

    An event starts *pending*; it is *triggered* once :meth:`succeed` or
    :meth:`fail` is called, at which point its callbacks run (in registration
    order) via the loop.  Yielding a failed event inside a process raises the
    failure in the generator.
    """

    __slots__ = ("loop", "_callbacks", "_ok", "value", "_triggered")

    def __init__(self, loop: "EventLoop"):
        self.loop = loop
        # Lazily allocated: most timeouts complete with exactly one waiter,
        # and many events are fired before anyone registers.
        self._callbacks: Optional[list[Callable[["Event"], None]]] = None
        self._ok: Optional[bool] = None
        self.value: Any = None
        self._triggered = False

    @property
    def triggered(self) -> bool:
        """True once the event has succeeded or failed."""
        return self._triggered

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if not self._triggered:
            raise SimulationError("event not yet triggered")
        return bool(self._ok)

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(self)`` when the event triggers (immediately if done)."""
        if self._triggered:
            self.loop.call_soon(fn, self)
        elif self._callbacks is None:
            self._callbacks = [fn]
        else:
            self._callbacks.append(fn)

    def succeed(self, value: Any = None) -> "Event":
        """Mark the event successful, delivering ``value`` to waiters."""
        self._trigger(True, value)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Mark the event failed, raising ``exc`` in waiting processes."""
        if not isinstance(exc, BaseException):
            raise SimulationError("fail() needs an exception instance")
        self._trigger(False, exc)
        return self

    def _trigger(self, ok: bool, value: Any) -> None:
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._ok = ok
        self.value = value
        callbacks = self._callbacks
        if callbacks:
            self._callbacks = None
            # ``call_soon(fn, self)`` per callback, inlined.
            loop = self.loop
            ready = loop._ready
            seq = loop._seq
            for fn in callbacks:
                seq += 1
                ready.append((seq, fn, self))
            loop._seq = seq


class _Timeout(Event):
    """A timeout event: carries its value, fired without a closure."""

    __slots__ = ("_value",)


def _fire_timeout(ev: _Timeout) -> None:
    ev._trigger(True, ev._value)


# What a process is resumed with on its first step: a succeeded event
# whose value ``None`` is the only thing ``send`` accepts before the
# generator has run.
_START = Event(None).succeed()


class Process(Event):
    """Drives a generator, resuming it whenever the yielded event fires.

    The process is an :class:`Event` that succeeds with the generator's
    ``return`` value, or fails with any exception the generator escapes
    with -- so processes compose (a process can yield another process).
    """

    __slots__ = ("_gen",)

    def __init__(self, loop: "EventLoop", gen: Generator[Event, Any, Any]):
        super().__init__(loop)
        self._gen = gen
        # ``self._resume`` is bound afresh wherever it is filed, never
        # cached on the instance: a cached bound method is a reference
        # cycle through every process.
        loop.call_soon(self._resume, _START)

    def _resume(self, event: Event) -> None:
        """Step the generator with ``event``'s outcome, then wait on what
        it yields next."""
        if self._triggered:
            return
        try:
            if event._ok:
                target = self._gen.send(event.value)
            else:
                target = self._gen.throw(event.value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as failure:  # noqa: BLE001 - fail the process event
            self.fail(failure)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process yielded {target!r}; processes must yield Events"
            )
        # ``target.add_callback(self._resume)``, inlined.
        if target._triggered:
            loop = self.loop
            loop._seq = seq = loop._seq + 1
            loop._ready.append((seq, self._resume, target))
        elif target._callbacks is None:
            target._callbacks = [self._resume]
        else:
            target._callbacks.append(self._resume)


class Timer:
    """Cancellable handle for one scheduled callback.

    Holds the scheduled entry itself, so :meth:`cancel` is O(1): it blanks
    the entry's ``fn`` slot (turning it into a tombstone the loop drops
    when it reaches the head of the heap) rather than searching the heap.
    Cancelling after the callback fired, or twice, is a no-op -- dispatch
    blanks the same slot.
    """

    __slots__ = ("_loop", "_entry")

    def __init__(self, loop: "EventLoop", entry: list):
        self._loop = loop
        self._entry = entry

    @property
    def when(self) -> float:
        """Scheduled virtual time (valid whether or not still active)."""
        return self._entry[0]

    @property
    def active(self) -> bool:
        """True while the callback has neither fired nor been cancelled."""
        return self._entry[2] is not None

    def cancel(self) -> bool:
        """Cancel the callback; True if it had not yet fired.

        Idempotent.  The entry stays in the heap as a tombstone and is
        reclaimed lazily: by compaction once tombstones outnumber live
        entries, otherwise when it surfaces at the head.
        """
        entry = self._entry
        if entry[2] is None:
            return False
        entry[2] = None
        entry[3] = _NO_ARG  # drop the arg reference right away
        loop = self._loop
        loop._tombstones += 1
        if loop._tombstones * 2 > len(loop._heap):
            loop._compact()
        return True


class PeriodicTimer:
    """A repeating timer: fires ``fn()`` every ``interval`` until cancelled.

    Holds its pending heap entry the way a :class:`Timer` does, so
    cancellation is O(1) and leaves only a lazily-reclaimed tombstone.
    The callback may cancel its own periodic; the reschedule check runs
    after the callback returns.  Created via :meth:`EventLoop.every` --
    the control-plane primitives (key-pool refill, ticket rotation,
    session idle sweeps) all hang off this.
    """

    __slots__ = ("_loop", "interval", "_fn", "_entry", "_cancelled", "fires")

    def __init__(
        self,
        loop: "EventLoop",
        interval: float,
        fn: Callable[[], None],
        first_delay: Optional[float] = None,
    ):
        if not 0 < interval < _INF:
            raise SimulationError(
                f"periodic interval must be positive and finite, got {interval}"
            )
        delay = interval if first_delay is None else first_delay
        if not 0 <= delay < _INF:
            raise SimulationError(
                f"periodic first_delay must be non-negative and finite, got {delay}"
            )
        self._loop = loop
        self.interval = interval
        self._fn = fn
        self._cancelled = False
        self.fires = 0
        # The scheduled entry is held directly (not via a Timer handle):
        # a periodic reschedules on every fire, and skipping the handle
        # allocation matters for heartbeat-grade frequencies.
        loop._seq = seq = loop._seq + 1
        entry = [loop._now + delay, seq, self._fire, _NO_ARG]
        self._entry: list = entry
        heappush(loop._heap, entry)

    def _fire(self) -> None:
        if self._cancelled:
            return
        self.fires += 1
        self._fn()
        if not self._cancelled:
            loop = self._loop
            loop._seq = seq = loop._seq + 1
            entry = [loop._now + self.interval, seq, self._fire, _NO_ARG]
            self._entry = entry
            heappush(loop._heap, entry)

    @property
    def active(self) -> bool:
        return not self._cancelled

    def cancel(self) -> bool:
        """Stop firing; True if the periodic was still active."""
        if self._cancelled:
            return False
        self._cancelled = True
        entry = self._entry
        if entry[2] is not None:
            # Tombstone the pending entry exactly as Timer.cancel does.
            entry[2] = None
            entry[3] = _NO_ARG
            loop = self._loop
            loop._tombstones += 1
            if loop._tombstones * 2 > len(loop._heap):
                loop._compact()
        return True


class EventLoop:
    """Deterministic virtual-time scheduler."""

    def __init__(self) -> None:
        self._now = 0.0
        # Heap of [when, seq, fn, arg] entries ordered by (when, seq); arg is
        # _NO_ARG for plain fn() calls, fn is None once cancelled or fired.
        self._heap: list[list] = []
        self._ready: deque = deque()  # (seq, fn, arg) at the current time
        self._seq = 0
        self._tombstones = 0
        # Events this loop has dispatched over its lifetime.
        self.dispatched = 0
        # Per-loop observability hub (repro.obs.Observability) or None.
        # Instrumentation points across the stack guard on this, so an
        # unobserved loop runs the exact event sequence it always did.
        self.obs = None

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    # -- scheduling --------------------------------------------------------

    def call_at(self, when: float, fn: Callable[..., None], arg: Any = _NO_ARG) -> None:
        """Run ``fn()`` -- or ``fn(arg)`` if given -- at virtual time ``when``."""
        if not self._now - 1e-15 <= when < _INF:
            raise SimulationError(
                f"cannot schedule at {when}: in the past of {self._now} or not finite"
            )
        self._seq = seq = self._seq + 1
        heappush(self._heap, [when, seq, fn, arg])

    def call_later(self, delay: float, fn: Callable[..., None], arg: Any = _NO_ARG) -> None:
        """Run ``fn()`` after ``delay`` seconds of virtual time."""
        if not 0 <= delay < _INF:
            raise SimulationError(f"negative or non-finite delay {delay}")
        self._seq = seq = self._seq + 1
        heappush(self._heap, [self._now + delay, seq, fn, arg])

    def call_soon(self, fn: Callable[..., None], arg: Any = _NO_ARG) -> None:
        """Run ``fn()`` at the current time, after already-queued events.

        Fast path: appends to a FIFO ready queue (no heap traffic); the run
        loop merges it with same-timestamp heap entries in ``seq`` order,
        preserving the exact global dispatch order.
        """
        self._seq = seq = self._seq + 1
        self._ready.append((seq, fn, arg))

    def timer_at(self, when: float, fn: Callable[..., None], arg: Any = _NO_ARG) -> Timer:
        """Like :meth:`call_at`, but returns a cancellable :class:`Timer`."""
        if not self._now - 1e-15 <= when < _INF:
            raise SimulationError(
                f"cannot schedule at {when}: in the past of {self._now} or not finite"
            )
        self._seq = seq = self._seq + 1
        entry = [when, seq, fn, arg]
        heappush(self._heap, entry)
        timer = Timer.__new__(Timer)  # skip __init__: this path is hot
        timer._loop = self
        timer._entry = entry
        return timer

    def timer_later(self, delay: float, fn: Callable[..., None], arg: Any = _NO_ARG) -> Timer:
        """Like :meth:`call_later`, but returns a cancellable :class:`Timer`."""
        if not 0 <= delay < _INF:
            raise SimulationError(f"negative or non-finite delay {delay}")
        self._seq = seq = self._seq + 1
        entry = [self._now + delay, seq, fn, arg]
        heappush(self._heap, entry)
        timer = Timer.__new__(Timer)  # skip __init__: this path is hot
        timer._loop = self
        timer._entry = entry
        return timer

    def _compact(self) -> None:
        """Drop every tombstone from the heap, in place.

        In place matters: ``run`` holds a reference to the list, so the
        list object must survive compaction.  Dispatch order is unchanged
        -- ``(when, seq)`` keys are distinct, so any valid heap over the
        same live entries pops them in the same order.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if entry[2] is not None]
        heapify(heap)
        self._tombstones = 0

    # -- event factories ----------------------------------------------------

    def every(
        self,
        interval: float,
        fn: Callable[[], None],
        first_delay: Optional[float] = None,
    ) -> PeriodicTimer:
        """Fire ``fn()`` every ``interval`` seconds until cancelled."""
        return PeriodicTimer(self, interval, fn, first_delay=first_delay)

    def event(self) -> Event:
        """A fresh untriggered event on this loop."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Event:
        """An event that succeeds ``delay`` seconds from now."""
        if not 0 <= delay < _INF:
            raise SimulationError(f"negative or non-finite delay {delay}")
        ev = _Timeout.__new__(_Timeout)  # skip __init__: this path is hot
        ev.loop = self
        ev._callbacks = None
        ev._ok = None
        ev.value = None
        ev._triggered = False
        ev._value = value
        self._seq = seq = self._seq + 1
        heappush(self._heap, [self._now + delay, seq, _fire_timeout, ev])
        return ev

    def process(self, gen: Generator[Event, Any, Any]) -> Process:
        """Start a process driving ``gen``; returns its completion event."""
        return Process(self, gen)

    # -- running -------------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> float:
        """Drain the event queue.

        With ``until`` set, stops once the clock would pass it (and advances
        the clock exactly to ``until``).  Returns the final virtual time.
        ``max_events`` guards against runaway simulations (tombstone skips
        do not count).
        """
        heap = self._heap
        ready = self._ready
        pop = heappop
        no_arg = _NO_ARG
        count = 0
        # Ready entries run at the *current* time; if the window already
        # ended they must wait for a later run, like the heap entries do.
        ready_ok = until is None or self._now <= until
        try:
            while True:
                # Find the next live scheduled entry (leave it in the heap).
                if heap:
                    head = heap[0]
                    if head[2] is None:  # cancelled: drop the tombstone
                        pop(heap)
                        self._tombstones -= 1
                        continue
                elif ready:
                    head = None
                else:
                    break
                if ready and ready_ok:
                    # Dispatch from the ready FIFO unless a scheduled entry
                    # at the current time was filed earlier.
                    if head is None or head[0] > self._now or head[1] > ready[0][0]:
                        _seq, fn, arg = ready.popleft()
                        if arg is no_arg:
                            fn()
                        else:
                            fn(arg)
                        count += 1
                        if count > max_events:
                            raise SimulationError(
                                f"exceeded {max_events} events; runaway simulation?"
                            )
                        continue
                if head is None:
                    break  # only ready entries left, for a later run
                when = head[0]
                if until is not None and when > until:
                    break  # head stays filed for a later run
                pop(heap)
                fn = head[2]
                head[2] = None  # marks "fired": Timer.cancel becomes a no-op
                arg, head[3] = head[3], no_arg
                self._now = when
                if arg is no_arg:
                    fn()
                else:
                    fn(arg)
                count += 1
                if count > max_events:
                    raise SimulationError(
                        f"exceeded {max_events} events; runaway simulation?"
                    )
        finally:
            self.dispatched += count
            global _dispatched_total
            _dispatched_total += count
        if until is not None and until > self._now:
            self._now = until
        return self._now

    def next_event_time(self) -> Optional[float]:
        """Virtual time of the earliest pending event, or ``None`` if idle.

        The conservative shard scheduler (``repro.sim.shard``) uses this to
        size safe synchronization windows: at a domain barrier every event
        is strictly in the future, so ``min`` over domains bounds the next
        state change anywhere.  Ready-queue entries fire at the current
        time.  May pop tombstones off the head -- deterministic, and it
        dispatches nothing, so the observable event sequence is unchanged.
        """
        if self._ready:
            return self._now
        heap = self._heap
        while heap:
            head = heap[0]
            if head[2] is not None:
                return head[0]
            heappop(heap)  # cancelled: drop the tombstone
            self._tombstones -= 1
        return None

    def pending_events(self) -> int:
        """Number of not-yet-dispatched events (for tests).

        Tombstones are already-dead entries, not pending work, so they are
        excluded; ready-queue entries count.
        """
        return len(self._heap) - self._tombstones + len(self._ready)
