"""FIFO resources for modelling CPU cores and serial devices.

:class:`Resource` is a counting semaphore with FIFO wakeup plus busy-time
accounting, used for CPU cores (capacity 1) and device queues.
:class:`Store` is an unbounded FIFO message queue connecting producer and
consumer processes (sockets, NIC queues, device command queues).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator, Optional

from repro.errors import SimulationError
from repro.sim.event_loop import Event, EventLoop


class _Hold(Event):
    """One :meth:`Resource.service` request: succeeds when its hold ends."""

    __slots__ = ("duration",)


class Resource:
    """A FIFO resource with ``capacity`` concurrent holders.

    Tracks cumulative busy time (summed across holders) so benchmarks can
    report CPU utilisation: ``busy_time / (capacity * elapsed)``.
    """

    def __init__(self, loop: EventLoop, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise SimulationError("capacity must be >= 1")
        self.loop = loop
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: deque[_Hold] = deque()
        self.busy_time = 0.0  # cumulative seconds spent inside service()

    @property
    def in_use(self) -> int:
        """Number of current holders."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of acquirers waiting."""
        return len(self._waiters)

    def release(self) -> None:
        """Release one slot, waking the oldest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError(f"release() with no holder on {self.name!r}")
        if self._waiters:
            self._hand_over(self._waiters.popleft())
        else:
            self._in_use -= 1

    def _hand_over(self, hold: _Hold) -> None:
        """Give a slot to ``hold``: a hold with a duration is granted one
        dispatch later, a zero-length one wakes now."""
        if hold.duration > 0:
            self.loop.call_soon(self._granted, hold)
        else:
            hold.succeed(self)

    def service(self, duration: float) -> Generator[Event, Any, None]:
        """Process helper: acquire, hold for ``duration``, release.

        Usage inside a process::

            yield from core.service(cost)

        The caller waits on one event that covers the grant, the hold and
        the wake-up: the grant is a callback filed when the slot is free
        (here, or in the releasing holder's ``release``), it files the
        hold's timer, and the timer wakes the caller.  A zero-length hold
        wakes the caller at the grant.  The slot is released here, in the
        resumed caller, so the next holder's grant is filed after the
        caller's wake-up and before anything the caller does next.
        """
        hold = _Hold(self.loop)
        hold.duration = duration
        if self._in_use < self.capacity and not self._waiters:
            self._in_use += 1
            self._hand_over(hold)
        else:
            self._waiters.append(hold)
        try:
            yield hold
        except BaseException:
            # Closed or thrown into: a request still queued leaves the
            # queue; a granted one gives its slot back.
            try:
                self._waiters.remove(hold)
            except ValueError:
                self.release()
            raise
        self.busy_time += duration
        self.release()

    def _granted(self, hold: "_Hold") -> None:
        self.loop.call_later(hold.duration, hold.succeed)

    def utilization(self, elapsed: float) -> float:
        """Fraction of capacity-time spent busy over ``elapsed`` seconds."""
        if elapsed <= 0:
            return 0.0
        return self.busy_time / (self.capacity * elapsed)


class Store:
    """Unbounded FIFO queue with blocking ``get``.

    ``put`` never blocks (NIC rings and socket buffers apply their own
    backpressure at a higher level where the paper's behaviour needs it).
    """

    def __init__(self, loop: EventLoop, name: str = ""):
        self.loop = loop
        self.name = name
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Append ``item``, waking the oldest blocked getter."""
        if self._getters:
            ev = self._getters.popleft()
            ev.succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Event succeeding with the oldest item (immediately if present)."""
        ev = Event(self.loop)
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> Optional[Any]:
        """Pop the oldest item without blocking, or None if empty."""
        if self._items:
            return self._items.popleft()
        return None

    def peek_all(self) -> list[Any]:
        """Snapshot of queued items (for tests and introspection)."""
        return list(self._items)
