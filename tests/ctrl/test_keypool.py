"""KeyPool: standby keys, watermark refill, miss accounting (§4.5.1)."""

import random

import pytest

from repro.crypto.ecdh import EcdhKeyPair
from repro.ctrl import KeyPool
from repro.ctrl.keypool import REFILL_BATCH
from repro.errors import ProtocolError
from repro.sim.event_loop import EventLoop


def make_pool(**kw):
    loop = EventLoop()
    kw.setdefault("capacity", 8)
    kw.setdefault("low_watermark", 2)
    pool = KeyPool(loop, random.Random(7), **kw)
    return loop, pool


class TestTake:
    def test_prefilled_to_capacity(self):
        _loop, pool = make_pool()
        assert pool.size == 8

    def test_take_returns_distinct_keypairs(self):
        _loop, pool = make_pool()
        a, b = pool.take(), pool.take()
        assert isinstance(a, EcdhKeyPair)
        assert a.public_bytes() != b.public_bytes()
        assert pool.taken == 2

    def test_miss_returns_none_and_counts(self):
        _loop, pool = make_pool(prefill=False)
        assert pool.take() is None
        assert pool.misses == 1

    def test_take_or_generate_never_misses(self):
        _loop, pool = make_pool(prefill=False)
        key = pool.take_or_generate()
        assert isinstance(key, EcdhKeyPair)


class TestRefill:
    def test_refills_to_capacity_after_drain(self):
        capacity = 2 * REFILL_BATCH
        loop, pool = make_pool(capacity=capacity)
        for _ in range(capacity):
            assert pool.take() is not None
        assert pool.size == 0
        loop.run(until=1.0)
        assert pool.size == capacity
        assert pool.refilled == capacity
        assert pool.refill_ticks == 2  # two batches

    def test_refill_only_arms_below_watermark(self):
        loop, pool = make_pool()
        pool.take()  # size 7, watermark 2: no refill armed
        loop.run(until=1.0)
        assert pool.size == 7
        assert pool.refilled == 0

    def test_refill_interval_is_respected(self):
        loop, pool = make_pool(refill_interval=1e-3)
        for _ in range(8):
            pool.take()
        loop.run(until=0.5e-3)
        assert pool.size == 0  # first tick not due yet
        loop.run(until=10e-3)
        assert pool.size == 8

    def test_cancel_refill(self):
        loop, pool = make_pool()
        for _ in range(8):
            pool.take()
        pool.cancel_refill()
        loop.run(until=1.0)
        assert pool.size == 0


class TestValidation:
    def test_watermark_must_sit_below_capacity(self):
        with pytest.raises(ProtocolError):
            make_pool(capacity=4, low_watermark=4)

    def test_deterministic_under_fixed_seed(self):
        _l1, p1 = make_pool()
        _l2, p2 = make_pool()
        assert [k.public_bytes() for k in p1._keys] == [
            k.public_bytes() for k in p2._keys
        ]
