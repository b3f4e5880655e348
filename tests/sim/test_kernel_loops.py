"""Differential suite: the kernel's callback loops against their generator bodies.

``SoftirqCore``, the NIC's descriptor engine and ``Resource.service`` used
to be generator processes: the core and the engine as infinite loops over
a ``Store``, the hold as ``acquire`` + ``timeout`` + ``release`` yielded
through a nested generator.  They are callbacks now, and the contract is
that the change is invisible: the same entries are filed at the same
points, so every handler runs at the same instant, with the same ``seq``
counter, and the loop dispatches the same number of events.

The generator bodies are kept below, verbatim, as reference models (the
way ``RefHeapLoop`` keeps the plain heap).  Seeded random schedules drive
one world built from the references and one built from the real classes,
and the logs must match entry for entry.  The schedules mix merge keys,
zero costs, costs that handlers return, work and descriptors posted from
handlers at the same instant, three transmit rings, and two threads
sharing one core.
"""

from __future__ import annotations

import random
from collections import deque

from repro.host.costs import CostModel
from repro.host.cpu import SoftirqCore, per_item
from repro.net.link import Link
from repro.nic.device import NUM_QUEUES, Nic
from repro.sim.event_loop import Event, EventLoop
from repro.sim.resources import Resource, Store

SEEDS = range(40)

# Same-instant, sub-cost and multi-cost gaps, in seconds.
TIMES = [0.0, 0.0, 1e-6, 1e-6, 2e-6, 2.5e-6, 5e-6, 1.2e-5]
COSTS = [0.0, 0.0, 1e-6, 2.5e-6]
EXTRAS = [None, None, 0, 0.0, 1e-6, 3e-6, -1.0, "not a cost"]
HOLDS = [0.0, 1e-6, 3e-6]
NUM_RINGS = NUM_QUEUES


# -- reference models: the generator bodies as they were -------------------------


class _RefWork:
    __slots__ = ("cost", "handler", "merge_key", "merge_cost")

    def __init__(self, cost, handler, merge_key, merge_cost):
        self.cost = cost
        self.handler = handler
        self.merge_key = merge_key
        self.merge_cost = merge_cost


class RefSoftirqCore:
    """``SoftirqCore`` as a process draining a ``Store``."""

    def __init__(self, loop, name="softirq"):
        self.loop = loop
        self.name = name
        self.queue = Store(loop, name=f"{name}.queue")
        self.busy_time = 0.0
        self.items_processed = 0
        self.batches = 0
        loop.process(self._run())

    def submit(self, cost, handler, merge_key=None, merge_cost=0.0):
        self.queue.put(_RefWork(cost, handler, merge_key, merge_cost))

    def _run(self):
        while True:
            work = yield self.queue.get()
            batch = [work]
            if work.merge_key is not None:
                # Drain consecutive same-key items already queued.
                while self.queue._items and (
                    self.queue._items[0].merge_key == work.merge_key
                ):
                    batch.append(self.queue.try_get())
            cost = batch[0].cost + sum(w.merge_cost for w in batch[1:])
            if cost > 0:
                yield self.loop.timeout(cost)
                self.busy_time += cost
            extra_total = 0.0
            for w in batch:
                extra = w.handler()
                if isinstance(extra, (int, float)) and extra > 0:
                    extra_total += extra
            if extra_total > 0:
                yield self.loop.timeout(extra_total)
                self.busy_time += extra_total
            self.items_processed += len(batch)
            self.batches += 1


class RefNicEngine:
    """The NIC's rings and doorbell, drained by a process."""

    def __init__(self, loop, num_queues, process):
        self.loop = loop
        self.num_queues = num_queues
        self._rings = [deque() for _ in range(num_queues)]
        self._doorbell = Store(loop, "nic.doorbell")
        self._process = process
        loop.process(self._engine())

    def post(self, queue_id, item):
        self._rings[queue_id].append(item)
        self._doorbell.put(None)

    def _engine(self):
        next_ring = 0
        while True:
            yield self._doorbell.get()
            item = None
            for i in range(self.num_queues):
                idx = (next_ring + i) % self.num_queues
                if self._rings[idx]:
                    item = self._rings[idx].popleft()
                    next_ring = (idx + 1) % self.num_queues
                    break
            if item is None:
                raise AssertionError("doorbell rang with empty rings")
            self._process(item)
            yield self.loop.timeout(0)


class RefResource:
    """``Resource`` whose ``service`` yields an acquire, then a timeout."""

    def __init__(self, loop, capacity=1):
        self.loop = loop
        self.capacity = capacity
        self._in_use = 0
        self._waiters = deque()
        self.busy_time = 0.0

    def acquire(self):
        ev = Event(self.loop)
        if self._in_use < self.capacity and not self._waiters:
            self._in_use += 1
            ev.succeed(self)
        else:
            self._waiters.append(ev)
        return ev

    def release(self):
        if self._waiters:
            self._waiters.popleft().succeed(self)
        else:
            self._in_use -= 1

    def service(self, duration):
        yield self.acquire()
        try:
            if duration > 0:
                yield self.loop.timeout(duration)
            self.busy_time += duration
        finally:
            self.release()


# -- one world per implementation, driven by the same seeded schedule ---------------


def _real_nic(loop, process):
    nic = Nic(loop, Link(loop), "a", CostModel())
    nic._process = process
    return nic


def _ref_work(handler, item):
    """The reference core's work: one zero-argument handler per item."""
    return (lambda: handler(*item),)


def _real_work(handler, item):
    """The real core's work: a batch handler and the item it is handed.

    ``per_item`` sums the items' extras in order, as the reference core
    did across its per-item handlers.
    """
    return per_item(lambda each: handler(*each)), item


REFERENCE = (RefSoftirqCore, lambda loop, process: RefNicEngine(loop, NUM_RINGS, process),
             RefResource, _ref_work)
REAL = (SoftirqCore, _real_nic, Resource, _real_work)


def _world(seed, impl):
    """Run one seeded schedule; returns (log, dispatched, final seq, books)."""
    core_cls, nic_factory, resource_cls, work = impl
    rng = random.Random(seed)
    loop = EventLoop()
    log = []
    counter = [0]

    def note(tag):
        log.append((round(loop.now, 12), tag, loop._seq))

    def new_tag(kind):
        counter[0] += 1
        return f"{kind}{counter[0]}"

    def submit(core_index):
        tag = new_tag("w")
        key = rng.choice([None, None, "a", "b"])
        cores[core_index].submit(
            rng.choice(COSTS),
            *work(handler, (tag, core_index)),
            merge_key=key,
            merge_cost=rng.choice([0.0, 1e-7]) if key else 0.0,
        )

    def post():
        nic.post(rng.randrange(NUM_RINGS), new_tag("d"))

    def handler(tag, core_index):
        note(tag)
        roll = rng.random()
        if roll < 0.25:
            submit(core_index)  # same core, same instant
        elif roll < 0.4:
            submit(1 - core_index)
        elif roll < 0.55:
            post()
        return rng.choice(EXTRAS)

    def process(item):
        note(item)
        roll = rng.random()
        if roll < 0.3:
            submit(rng.randrange(2))
        elif roll < 0.45:
            post()

    def thread(name, res):
        for _ in range(rng.randrange(1, 4)):
            yield from res.service(rng.choice(HOLDS))
            note(name)
            if rng.random() < 0.3:
                submit(rng.randrange(2))
            if rng.random() < 0.3:
                yield loop.timeout(rng.choice([0.0, 1e-6]))

    def arrive():
        roll = rng.random()
        if roll < 0.5:
            submit(rng.randrange(2))
        elif roll < 0.8:
            post()
        else:
            # Two threads sharing one core, or a capacity-2 device.
            res = shared if rng.random() < 0.7 else wide
            for _ in range(rng.randrange(1, 3)):
                loop.process(thread(new_tag("t"), res))

    cores = [core_cls(loop, f"softirq{i}") for i in range(2)]
    nic = nic_factory(loop, process)
    shared = resource_cls(loop)
    wide = resource_cls(loop, capacity=2)
    for _ in range(60):
        loop.call_at(rng.choice(TIMES) * rng.random() * 10, arrive)
    # Work queued before the loops take their first step.
    submit(0)
    post()
    loop.run()
    books = [(c.busy_time, c.items_processed, c.batches) for c in cores]
    books.append((shared.busy_time, wide.busy_time))
    return log, loop.dispatched, loop._seq, books


def test_callback_loops_match_generator_references():
    for seed in SEEDS:
        ref = _world(seed, REFERENCE)
        real = _world(seed, REAL)
        assert real[0] == ref[0], f"seed {seed}: handler log diverged"
        assert real[1:] == ref[1:], f"seed {seed}: dispatched/seq/books diverged"


def test_schedules_exercise_every_path():
    """The schedules are not vacuous: batches merge, holds queue, rings
    interleave, and the logs are long."""
    merged = queued = 0
    for seed in SEEDS:
        log, dispatched, _seq, books = _world(seed, REAL)
        assert len(log) > 50 and dispatched > len(log)
        merged += sum(items - batches for _busy, items, batches in books[:2])
        queued += len([tag for _t, tag, _s in log if tag.startswith("t")])
    assert merged > 0 and queued > 0
