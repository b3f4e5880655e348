"""Tests for FIFO resources and stores."""

import pytest

from repro.errors import SimulationError
from repro.sim.event_loop import EventLoop
from repro.sim.resources import Resource, Store


class TestResource:
    def test_capacity_must_be_positive(self):
        with pytest.raises(SimulationError):
            Resource(EventLoop(), capacity=0)

    def test_immediate_acquire_when_free(self):
        loop = EventLoop()
        res = Resource(loop)
        ev = res.acquire()
        loop.run()
        assert ev.triggered
        assert res.in_use == 1

    def test_release_without_acquire_rejected(self):
        with pytest.raises(SimulationError):
            Resource(EventLoop()).release()

    def test_fifo_wakeup_order(self):
        loop = EventLoop()
        res = Resource(loop)
        order = []

        def worker(name, hold):
            yield from res.service(hold)
            order.append(name)

        for name in ("a", "b", "c"):
            loop.process(worker(name, 1.0))
        loop.run()
        assert order == ["a", "b", "c"]
        assert loop.now == pytest.approx(3.0)

    def test_service_serialises_on_capacity_one(self):
        loop = EventLoop()
        res = Resource(loop)

        def worker():
            yield from res.service(2.0)

        loop.process(worker())
        loop.process(worker())
        loop.run()
        assert loop.now == pytest.approx(4.0)

    def test_capacity_two_runs_in_parallel(self):
        loop = EventLoop()
        res = Resource(loop, capacity=2)

        def worker():
            yield from res.service(2.0)

        for _ in range(4):
            loop.process(worker())
        loop.run()
        assert loop.now == pytest.approx(4.0)

    def test_busy_time_accumulates(self):
        loop = EventLoop()
        res = Resource(loop)

        def worker():
            yield from res.service(1.5)

        loop.process(worker())
        loop.process(worker())
        loop.run()
        assert res.busy_time == pytest.approx(3.0)
        assert res.utilization(elapsed=3.0) == pytest.approx(1.0)

    def test_utilization_with_idle_time(self):
        loop = EventLoop()
        res = Resource(loop)

        def worker():
            yield from res.service(1.0)

        loop.process(worker())
        loop.run()
        assert res.utilization(elapsed=4.0) == pytest.approx(0.25)

    def test_zero_service_wakes_at_the_grant(self):
        loop = EventLoop()
        res = Resource(loop)
        order = []

        def worker(name, hold):
            yield from res.service(hold)
            order.append((name, loop.now))

        loop.process(worker("a", 1.0))
        loop.process(worker("b", 0.0))
        loop.run()
        assert order == [("a", 1.0), ("b", 1.0)]
        assert res.in_use == 0

    def test_interrupted_service_gives_up_its_place(self):
        loop = EventLoop()
        res = Resource(loop)
        done = []

        def worker(name, hold):
            yield from res.service(hold)
            done.append((name, loop.now))

        holder = worker("holder", 2.0)
        queued = worker("queued", 1.0)
        for gen in (holder, queued, worker("last", 1.0)):
            loop.process(gen)
        # One closed while queued, one while holding the slot.
        loop.call_later(0.5, queued.close)
        loop.call_later(1.0, holder.close)
        loop.run()
        assert done == [("last", 2.0)]
        assert res.in_use == 0 and res.queue_length == 0
        assert res.busy_time == pytest.approx(1.0)

    def test_queue_length_reporting(self):
        loop = EventLoop()
        res = Resource(loop)
        res.acquire()
        res.acquire()
        res.acquire()
        loop.run()
        assert res.in_use == 1
        assert res.queue_length == 2


class TestStore:
    def test_put_then_get(self):
        loop = EventLoop()
        store = Store(loop)
        store.put("item")
        ev = store.get()
        loop.run()
        assert ev.value == "item"

    def test_get_blocks_until_put(self):
        loop = EventLoop()
        store = Store(loop)
        got = []

        def consumer():
            value = yield store.get()
            got.append((loop.now, value))

        loop.process(consumer())
        loop.call_later(2.0, lambda: store.put("late"))
        loop.run()
        assert got == [(2.0, "late")]

    def test_fifo_ordering(self):
        loop = EventLoop()
        store = Store(loop)
        for i in range(5):
            store.put(i)
        out = []

        def consumer():
            for _ in range(5):
                out.append((yield store.get()))

        loop.process(consumer())
        loop.run()
        assert out == [0, 1, 2, 3, 4]

    def test_multiple_getters_fifo(self):
        loop = EventLoop()
        store = Store(loop)
        order = []

        def consumer(name):
            yield store.get()
            order.append(name)

        loop.process(consumer("first"))
        loop.process(consumer("second"))
        loop.call_later(1.0, lambda: (store.put(1), store.put(2)))
        loop.run()
        assert order == ["first", "second"]

    def test_try_get(self):
        loop = EventLoop()
        store = Store(loop)
        assert store.try_get() is None
        store.put("x")
        assert store.try_get() == "x"
        assert store.try_get() is None

    def test_len_and_peek(self):
        loop = EventLoop()
        store = Store(loop)
        store.put(1)
        store.put(2)
        assert len(store) == 2
        assert store.peek_all() == [1, 2]
        assert len(store) == 2  # peek does not consume
