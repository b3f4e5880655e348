"""CPU execution contexts: softirq cores and application threads.

A :class:`SoftirqCore` is a single serial worker draining a FIFO of work
items -- the NAPI/softirq loop.  Work arriving while the core is busy
queues up, which is exactly how head-of-line blocking on a CPU core
happens (paper §2): a small message's processing waits behind a large
message's packets when both land on the same core.

GRO/NAPI batching is modelled through *merge keys*: consecutive queued
items with the same key are drained together, the first at full cost and
the rest at their (cheaper) merge cost.  Under load batches form
naturally; an unloaded core sees no batching, so latency is unaffected --
matching how GRO behaves.

An :class:`AppThread` pins an application-level process to one app core.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Generator, Optional

from repro.sim.event_loop import Event, EventLoop
from repro.sim.resources import Resource


class _Work:
    __slots__ = ("cost", "handler", "merge_key", "merge_cost")

    def __init__(
        self,
        cost: float,
        handler: Callable[[], Optional[float]],
        merge_key: Optional[object],
        merge_cost: float,
    ):
        self.cost = cost
        self.handler = handler
        self.merge_key = merge_key
        self.merge_cost = merge_cost


class SoftirqCore:
    """One stack core: serial FIFO execution of submitted work.

    A callback state machine, not a process.  Each step files the same
    loop entries the generator loop it replaced did, so dispatch order,
    ``seq`` values and event counts are unchanged: a wake-up is filed
    with ``call_soon`` when work is taken (at ``submit`` if the core is
    idle, at the end of the previous batch otherwise); a batch's cost and
    the extra cost its handlers return each run on a ``call_later`` whose
    firing files one ``call_soon``; zero-cost handlers run in the wake-up
    itself.  An exception from a handler propagates out of ``loop.run()``.
    """

    def __init__(self, loop: EventLoop, name: str = "softirq"):
        self.loop = loop
        self.name = name
        self._queue: deque[_Work] = deque()
        # True while nothing is queued and no batch is in service.
        self._idle = False
        # The batch in service, its cost, its handlers' extra cost, its span.
        self._batch: list[_Work] = []
        self._cost = 0.0
        self._extra = 0.0
        self._span = None
        self.busy_time = 0.0
        self.items_processed = 0
        self.batches = 0
        # The first look at the queue is one dispatch away, as a process
        # start would be.
        loop.call_soon(self._next)

    def submit(
        self,
        cost: float,
        handler: Callable[[], Optional[float]],
        merge_key: Optional[object] = None,
        merge_cost: float = 0.0,
    ) -> None:
        """Queue work; consecutive items sharing ``merge_key`` batch (GRO)."""
        work = _Work(cost, handler, merge_key, merge_cost)
        if self._idle:
            self._idle = False
            self.loop.call_soon(self._serve, work)
        else:
            self._queue.append(work)

    def _next(self) -> None:
        """Take the next item, or go idle until ``submit`` brings one."""
        if self._queue:
            self.loop.call_soon(self._serve, self._queue.popleft())
        else:
            self._idle = True

    def _serve(self, work: _Work) -> None:
        batch = [work]
        queue = self._queue
        if work.merge_key is not None:
            # Drain consecutive same-key items already queued.
            while queue and queue[0].merge_key == work.merge_key:
                batch.append(queue.popleft())
        cost = batch[0].cost + sum(w.merge_cost for w in batch[1:])
        self._batch = batch
        self._cost = cost
        obs = self.loop.obs
        if obs is not None:
            # Explicit begin/end (not the context manager): the span
            # covers the cost timers, so stack-based parenting cannot apply.
            self._span = obs.tracer.begin("host.softirq", self.name, items=len(batch))
        if cost > 0:
            self.loop.call_later(cost, self.loop.call_soon, self._charged)
        else:
            self._handle()

    def _charged(self) -> None:
        self.busy_time += self._cost
        self._handle()

    def _handle(self) -> None:
        extra_total = 0.0
        for w in self._batch:
            extra = w.handler()
            # Only numeric returns are extra CPU cost; anything else is
            # an accidental return value, not a charge.
            if isinstance(extra, (int, float)) and extra > 0:
                extra_total += extra
        self._extra = extra_total
        if extra_total > 0:
            self.loop.call_later(extra_total, self.loop.call_soon, self._extra_charged)
        else:
            self._finish()

    def _extra_charged(self) -> None:
        self.busy_time += self._extra
        self._finish()

    def _finish(self) -> None:
        self.items_processed += len(self._batch)
        self.batches += 1
        self._batch = []
        span = self._span
        if span is not None:
            self._span = None
            self.loop.obs.tracer.end(span, cpu=self._cost + self._extra)
        self._next()

    def utilization(self, elapsed: float) -> float:
        return self.busy_time / elapsed if elapsed > 0 else 0.0


class AppThread:
    """An application thread bound to an app core.

    The body is a generator taking this thread; use :meth:`work` to charge
    CPU time and ``yield`` events to block (socket reads etc.).  Several
    AppThreads may share one core Resource (oversubscription), though the
    paper's experiments give each thread its own core.
    """

    def __init__(self, loop: EventLoop, core: Resource, name: str = "app"):
        self.loop = loop
        self.core = core
        self.name = name

    def work(self, cost: float) -> Generator[Event, Any, None]:
        """Charge ``cost`` seconds of CPU on this thread's core."""
        if cost > 0:
            obs = self.loop.obs
            span = None
            if obs is not None:
                span = obs.tracer.begin("host.app", self.name, cpu=cost)
            yield from self.core.service(cost)
            if span is not None:
                obs.tracer.end(span)

    def start(self, body: Generator[Event, Any, Any]):
        """Launch the thread body as a process; returns its completion event."""
        return self.loop.process(body)
