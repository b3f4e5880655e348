"""Softirq core and app thread tests."""

import pytest

from repro.host.cpu import AppThread, SoftirqCore, per_item
from repro.sim.event_loop import EventLoop
from repro.sim.resources import Resource
from tests.sim.helpers import run_process


class TestSoftirqCore:
    def test_serial_execution(self):
        loop = EventLoop()
        core = SoftirqCore(loop)
        times = []
        core.submit(1.0, lambda _: times.append(loop.now))
        core.submit(1.0, lambda _: times.append(loop.now))
        loop.run()
        assert times == [1.0, 2.0]

    def test_fifo_order(self):
        loop = EventLoop()
        core = SoftirqCore(loop)
        order = []
        for i in range(5):
            core.submit(0.1, order.extend, i)
        loop.run()
        assert order == [0, 1, 2, 3, 4]

    def test_extra_cost_from_handler(self):
        loop = EventLoop()
        core = SoftirqCore(loop)
        core.submit(1.0, lambda _: 2.0)  # handler reports 2s of extra work
        done = []
        core.submit(0.5, lambda _: done.append(loop.now))
        loop.run()
        assert done == [3.5]
        assert core.busy_time == pytest.approx(3.5)

    def test_head_of_line_blocking(self):
        # The paper's CPU-core HoLB: a small item queued behind a large one
        # waits for the whole large item.
        loop = EventLoop()
        core = SoftirqCore(loop)
        finished = {}
        core.submit(10.0, lambda _: finished.update(large=loop.now))
        core.submit(0.1, lambda _: finished.update(small=loop.now))
        loop.run()
        assert finished["small"] == pytest.approx(10.1)

    def test_merge_batches_consecutive_same_key(self):
        loop = EventLoop()
        core = SoftirqCore(loop)
        calls = []
        for i in range(4):
            core.submit(1.0, calls.append, i, merge_key="flow", merge_cost=0.1)
        loop.run()
        # One full cost + three merged costs, one handler call for all four.
        assert calls == [[0, 1, 2, 3]]
        assert core.busy_time == pytest.approx(1.3)
        assert core.batches == 1

    def test_merge_stops_at_different_key(self):
        loop = EventLoop()
        core = SoftirqCore(loop)
        core.submit(1.0, lambda _: None, merge_key="a", merge_cost=0.1)
        core.submit(1.0, lambda _: None, merge_key="b", merge_cost=0.1)
        core.submit(1.0, lambda _: None, merge_key="b", merge_cost=0.1)
        loop.run()
        assert core.batches == 2
        assert core.busy_time == pytest.approx(2.1)

    def test_no_batching_when_unloaded(self):
        # Items arriving after processing started do not retroactively merge.
        loop = EventLoop()
        core = SoftirqCore(loop)
        core.submit(1.0, lambda _: None, merge_key="k", merge_cost=0.1)
        loop.call_later(
            5.0, lambda: core.submit(1.0, lambda _: None, merge_key="k", merge_cost=0.1)
        )
        loop.run()
        assert core.batches == 2
        assert core.busy_time == pytest.approx(2.0)

    def test_raising_handler_propagates_out_of_run(self):
        # A handler's exception must not stop the core quietly, with
        # run() returning and every later item queued forever.
        loop = EventLoop()
        core = SoftirqCore(loop)
        ran = []

        def raises(_):
            raise RuntimeError("handler bug")

        core.submit(1.0, raises)
        core.submit(1.0, lambda _: ran.append(loop.now))
        with pytest.raises(RuntimeError, match="handler bug"):
            loop.run()
        assert loop.now == 1.0
        assert ran == []

    def test_utilization(self):
        loop = EventLoop()
        core = SoftirqCore(loop)
        core.submit(2.0, lambda _: None)
        loop.run()
        assert core.utilization(elapsed=4.0) == pytest.approx(0.5)

    def test_bool_return_is_not_a_charge(self):
        # A handler that happens to return True (a set's ``add`` result,
        # say) must not charge one second of softirq time.
        loop = EventLoop()
        core = SoftirqCore(loop)
        core.submit(1.0, lambda _: True)
        core.submit(1.0, per_item(lambda _: True))
        loop.run()
        assert core.busy_time == 2.0
        assert loop.now == 2.0

    def test_per_item_sums_charges_in_item_order(self):
        # Extras are added one at a time, in item order, as the core added
        # one handler's return per item: the float bits depend on it.
        extras = [0.1, None, 0.2, -1.0, "no", 0.3, False, 1e-17]
        handler = per_item(lambda i: extras[i])
        expected = 0.0
        for extra in (0.1, 0.2, 0.3, 1e-17):
            expected += extra
        assert handler(list(range(len(extras)))) == expected


class TestAppThread:
    def test_work_charges_core_time(self):
        loop = EventLoop()
        core = Resource(loop, 1, "app0")
        thread = AppThread(loop, core)

        def body():
            yield from thread.work(2.0)
            return loop.now

        assert run_process(loop, body()) == pytest.approx(2.0)
        assert core.busy_time == pytest.approx(2.0)

    def test_threads_sharing_core_serialize(self):
        loop = EventLoop()
        core = Resource(loop, 1, "app0")
        t1, t2 = AppThread(loop, core), AppThread(loop, core)
        ends = []

        def body(t):
            yield from t.work(1.0)
            ends.append(loop.now)

        loop.process(body(t1))
        loop.process(body(t2))
        loop.run()
        assert ends == [1.0, 2.0]

    def test_zero_work_is_free(self):
        loop = EventLoop()
        thread = AppThread(loop, Resource(loop))

        def body():
            yield from thread.work(0.0)
            yield loop.timeout(0)
            return loop.now

        assert run_process(loop, body()) == 0.0
