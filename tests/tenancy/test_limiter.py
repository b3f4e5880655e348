"""TokenBucket: shaping delays, refill bounds."""

import pytest

from repro.errors import ProtocolError
from repro.sim.event_loop import EventLoop
from repro.tenancy import TokenBucket


def make_bucket(rate_bps=8_000.0, burst_bytes=100.0):
    loop = EventLoop()
    # rate 8000 bps == 1000 bytes/s: delays read directly in milliseconds.
    return loop, TokenBucket(loop, rate_bps, burst_bytes)


class TestShaping:
    def test_conforming_burst_is_free(self):
        _loop, bucket = make_bucket()
        assert bucket.reserve(60) == 0.0
        assert bucket.reserve(40) == 0.0
        assert bucket.conforming == 2
        assert bucket.throttled == 0

    def test_excess_is_serialised_at_the_rate(self):
        _loop, bucket = make_bucket()
        bucket.reserve(100)  # drains the burst
        delay = bucket.reserve(50)
        assert delay == pytest.approx(50 / 1000.0)
        # A further reservation queues behind the previous debt.
        assert bucket.reserve(50) == pytest.approx(100 / 1000.0)
        assert bucket.throttled == 2
        assert bucket.throttle_wait_total == pytest.approx(0.15)

    def test_refill_caps_at_burst(self):
        loop, bucket = make_bucket()
        bucket.reserve(100)
        loop.run(until=10.0)  # 10 s of refill at 1000 B/s >> 100 B burst
        assert bucket.tokens == pytest.approx(100.0)

    def test_delay_is_exactly_refill_horizon(self):
        loop, bucket = make_bucket()
        bucket.reserve(100)
        delay = bucket.reserve(30)
        loop.run(until=delay)
        # After sleeping the returned delay the balance is whole again.
        assert bucket.tokens == pytest.approx(0.0, abs=1e-9)

    def test_zero_bytes_free(self):
        _loop, bucket = make_bucket()
        assert bucket.reserve(0) == 0.0
        assert bucket.conforming == 0


class TestValidation:
    def test_bad_rate_rejected(self):
        loop = EventLoop()
        with pytest.raises(ProtocolError):
            TokenBucket(loop, 0.0, 100.0)

    def test_bad_burst_rejected(self):
        loop = EventLoop()
        with pytest.raises(ProtocolError):
            TokenBucket(loop, 100.0, 0.0)
