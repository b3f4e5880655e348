"""WeightedBulkhead: compartment isolation vs shared head-of-line blocking."""

import pytest

from repro.errors import ProtocolError
from repro.sim.event_loop import EventLoop
from repro.tenancy import WeightedBulkhead

WEIGHTS = {"victim": 1.0, "aggr": 1.0}


def occupy(loop, bulkhead, tenant, hold):
    """A process that holds one slot for ``hold`` virtual seconds."""

    def body():
        yield from bulkhead.acquire(tenant)
        try:
            yield loop.timeout(hold)
        finally:
            bulkhead.release(tenant)

    return loop.process(body())


def timed_acquire(loop, bulkhead, tenant, out):
    def body():
        t0 = loop.now
        yield from bulkhead.acquire(tenant)
        out.append(loop.now - t0)
        bulkhead.release(tenant)

    return loop.process(body())


class TestPartitionedIsolation:
    def test_aggressor_backlog_never_delays_victim(self):
        loop = EventLoop()
        bulkhead = WeightedBulkhead(loop, 4, WEIGHTS, partitioned=True)
        # The aggressor saturates its 2 slots and queues 10 deep.
        for _ in range(12):
            occupy(loop, bulkhead, "aggr", hold=1.0)
        waits: list = []
        timed_acquire(loop, bulkhead, "victim", waits)
        loop.run(until=0.5)
        assert waits == [0.0]
        assert bulkhead.waited["victim"] == 0
        assert bulkhead.waited["aggr"] == 10

    def test_tenant_waits_only_behind_itself(self):
        loop = EventLoop()
        bulkhead = WeightedBulkhead(loop, 4, WEIGHTS, partitioned=True)
        occupy(loop, bulkhead, "victim", hold=1.0)
        occupy(loop, bulkhead, "victim", hold=1.0)
        waits: list = []
        timed_acquire(loop, bulkhead, "victim", waits)
        loop.run(until=5.0)
        assert waits == [pytest.approx(1.0)]

    def test_capacity_follows_weights(self):
        loop = EventLoop()
        bulkhead = WeightedBulkhead(loop, 8, {"big": 3.0, "small": 1.0})
        assert bulkhead.capacity("big") == 6
        assert bulkhead.capacity("small") == 2


class TestSharedHeadOfLine:
    def test_aggressor_backlog_blocks_victim(self):
        loop = EventLoop()
        bulkhead = WeightedBulkhead(loop, 4, WEIGHTS, partitioned=False)
        for _ in range(8):
            occupy(loop, bulkhead, "aggr", hold=1.0)
        waits: list = []
        timed_acquire(loop, bulkhead, "victim", waits)
        loop.run(until=10.0)
        # 4 slots, 4 queued aggressors ahead of the victim: two full
        # service turns pass before the victim's request is admitted.
        assert waits == [pytest.approx(2.0)]
        assert bulkhead.waited["victim"] == 1

    def test_same_total_concurrency_either_mode(self):
        loop = EventLoop()
        shared = WeightedBulkhead(loop, 4, WEIGHTS, partitioned=False)
        parts = WeightedBulkhead(loop, 4, WEIGHTS, partitioned=True)
        assert shared.capacity("victim") == 4  # one pool, all of it
        assert parts.capacity("victim") + parts.capacity("aggr") == 4


class TestSlotAccounting:
    def test_fifo_handoff_within_compartment(self):
        loop = EventLoop()
        bulkhead = WeightedBulkhead(loop, 2, {"t": 1.0})
        order: list = []

        def body(tag, hold):
            yield from bulkhead.acquire("t")
            order.append(tag)
            yield loop.timeout(hold)
            bulkhead.release("t")

        for tag in ("a", "b", "c", "d", "e"):
            loop.process(body(tag, 0.1))
        loop.run(until=2.0)
        assert order == ["a", "b", "c", "d", "e"]
        assert bulkhead.active("t") == 0

    def test_release_without_acquire_rejected(self):
        loop = EventLoop()
        bulkhead = WeightedBulkhead(loop, 2, {"t": 1.0})
        with pytest.raises(ProtocolError):
            bulkhead.release("t")

    def test_unknown_tenant_rejected(self):
        loop = EventLoop()
        bulkhead = WeightedBulkhead(loop, 2, {"t": 1.0})
        with pytest.raises(ProtocolError):
            next(bulkhead.acquire("stranger"))

    def test_stats_shape(self):
        loop = EventLoop()
        bulkhead = WeightedBulkhead(loop, 4, WEIGHTS)
        occupy(loop, bulkhead, "aggr", hold=0.1)
        loop.run(until=1.0)
        stats = bulkhead.stats()
        assert stats["aggr"]["admitted"] == 1
        assert stats["aggr"]["peak_active"] == 1
        assert stats["victim"]["admitted"] == 0
