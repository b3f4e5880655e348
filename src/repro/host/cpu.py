"""CPU execution contexts: softirq cores and application threads.

A :class:`SoftirqCore` is a single serial worker draining a FIFO of work
items -- the NAPI/softirq loop.  Work arriving while the core is busy
queues up, which is exactly how head-of-line blocking on a CPU core
happens (paper §2): a small message's processing waits behind a large
message's packets when both land on the same core.

GRO/NAPI batching is modelled through *merge keys*: consecutive queued
items with the same key are drained together, the first at full cost and
the rest at their (cheaper) merge cost, and handed to their handler in
one call, as GRO hands the stack one merged batch.  Under load batches
form naturally; an unloaded core sees no batching, so latency is
unaffected -- matching how GRO behaves.

An :class:`AppThread` pins an application-level process to one app core.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Generator, Optional

from repro.sim.event_loop import Event, EventLoop
from repro.sim.resources import Resource


#: Receive work's one handler shape: called once per batch with the
#: batch's per-item arguments in submission order; returns the batch's
#: extra CPU seconds (see :meth:`SoftirqCore.submit`).
BatchHandler = Callable[[list], Optional[float]]


def is_charge(extra: object) -> bool:
    """True if a handler's return value is extra CPU seconds to charge.

    Only a positive int or float is a charge; ``None``, a ``bool`` or any
    other accidental return value is not.
    """
    return isinstance(extra, (int, float)) and not isinstance(extra, bool) and extra > 0


def per_item(fn: Callable[[Any], object]) -> BatchHandler:
    """The batch handler that runs ``fn`` on each item in order.

    Each item's charge is added to the batch's extra in item order, the
    way the core summed one handler per item.
    """

    def handle(items: list) -> float:
        extra_total = 0.0
        for item in items:
            extra = fn(item)
            if extra is not None and is_charge(extra):
                extra_total += extra
        return extra_total

    return handle


def discard(items: list) -> None:
    """The batch handler of work that does nothing (packets nobody takes)."""


class SoftirqCore:
    """One stack core: serial FIFO execution of submitted work.

    A callback state machine, not a process.  Each step files the same
    loop entries the generator loop it replaced did, so dispatch order,
    ``seq`` values and event counts are unchanged: a wake-up is filed
    with ``call_soon`` when work is taken (at ``submit`` if the core is
    idle, at the end of the previous batch otherwise); a batch's cost and
    the extra cost its handler returns each run on a ``call_later`` whose
    firing files one ``call_soon``; a zero-cost batch's handler runs in
    the wake-up itself.  An exception from a handler propagates out of
    ``loop.run()``.
    """

    def __init__(self, loop: EventLoop, name: str = "softirq"):
        self.loop = loop
        self.name = name
        # Queued work: (cost, handler, arg, merge_key, merge_cost) tuples.
        self._queue: deque[tuple] = deque()
        # True while nothing is queued and no batch is in service.
        self._idle = False
        # The batch in service: its handler and arguments, its cost, the
        # extra cost the handler returned, its span.
        self._handler: Optional[BatchHandler] = None
        self._args: list = []
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
        handler: BatchHandler,
        arg: Any = None,
        merge_key: Optional[object] = None,
        merge_cost: float = 0.0,
    ) -> None:
        """Queue one item of work: ``handler`` will see ``arg`` in a batch.

        Consecutive queued items sharing a non-None ``merge_key`` drain as
        one batch (GRO): the first at ``cost``, the rest at their
        ``merge_cost``, and the first item's ``handler`` is called once
        with every item's ``arg`` -- so items sharing a key must share a
        handler.  An item without a key is a batch of one.  The handler
        returns the batch's extra CPU seconds, charged after it runs;
        only a positive int or float counts (see :func:`is_charge`).
        """
        work = (cost, handler, arg, merge_key, merge_cost)
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

    def _serve(self, work: tuple) -> None:
        cost, handler, arg, merge_key, _ = work
        args = [arg]
        queue = self._queue
        if merge_key is not None and queue and queue[0][3] == merge_key:
            # Drain consecutive same-key items already queued.
            merge_costs = []
            while queue and queue[0][3] == merge_key:
                _, _, arg, _, merge_cost = queue.popleft()
                args.append(arg)
                merge_costs.append(merge_cost)
            cost += sum(merge_costs)
        self._handler = handler
        self._args = args
        self._cost = cost
        obs = self.loop.obs
        if obs is not None:
            # Explicit begin/end (not the context manager): the span
            # covers the cost timers, so stack-based parenting cannot apply.
            self._span = obs.tracer.begin("host.softirq", self.name, items=len(args))
        if cost > 0:
            self.loop.call_later(cost, self.loop.call_soon, self._charged)
        else:
            self._handle()

    def _charged(self) -> None:
        self.busy_time += self._cost
        self._handle()

    def _handle(self) -> None:
        extra = self._handler(self._args)
        if is_charge(extra):
            self._extra = extra
            self.loop.call_later(extra, self.loop.call_soon, self._extra_charged)
        else:
            self._extra = 0.0
            self._finish()

    def _extra_charged(self) -> None:
        self.busy_time += self._extra
        self._finish()

    def _finish(self) -> None:
        self.items_processed += len(self._args)
        self.batches += 1
        self._handler = None
        self._args = []
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
