"""The per-message path leaves no cyclic garbage.

A message's state -- its sealed segments on the sender, its reassembly
buffer on the receiver -- must be freed by reference counting when the
message completes.  If anything on that path forms a reference cycle (a
timer closure that re-arms itself, say), every message waits for the
cyclic GC instead, and how much memory a run peaks at depends on when
the collector happens to run.
"""

from __future__ import annotations

import gc

import pytest

from repro.bench.runner import build_rpc_harness
from repro.homa.codec import SegmentPlan
from repro.homa.message import InboundMessage, OutboundMessage

RPCS = 50
SIZE = 300_000


@pytest.fixture
def saved_garbage():
    """Collect with automatic GC off, keeping whatever cycles it finds."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield gc.garbage
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


def test_rpcs_leave_no_cyclic_garbage(saved_garbage):
    harness = build_rpc_harness("smt-sw")
    bed = harness.bed
    call = harness.call_factory(0)

    def body():
        for _ in range(RPCS):
            response = yield from call(bytes(SIZE), SIZE)
            assert len(response) == SIZE

    proc = bed.loop.process(body())
    bed.loop.run(until=bed.loop.now + 5.0)
    assert proc.triggered and proc.ok
    gc.collect()
    per_message = [
        obj for obj in saved_garbage
        if isinstance(obj, (OutboundMessage, InboundMessage, SegmentPlan))
    ]
    closures = [
        obj.__qualname__ for obj in saved_garbage
        if type(obj).__name__ == "function" and obj.__module__.startswith("repro.homa")
    ]
    assert per_message == []
    assert closures == []
