"""FrontendEngine: the per-replica books are written from each RPC's own values."""

from repro.errors import TransportError
from repro.lb.balancer import RandomBalancer
from repro.load import ClusterHarness, FixedSize
from repro.load.frontend import FrontendEngine, SkewedKeys
from repro.sim.trace import Histogram
from repro.testbed import ClosTestbed
from repro.units import USEC

CLIENTS, REPLICAS, DOOMED = [0, 1], [2, 3], 3
SIZE = 2048


def _run_with_a_failing_replica():
    """A front-end run where every RPC to ``DOOMED`` fails 40 us after it
    was sent -- long enough for RPCs to the healthy replica, sent later,
    to complete while it is still in flight.

    ``harness.call`` is replaced on the instance (the engine looks it up
    per call), and the replacement keeps its own per-destination record
    of what completed and how slowly.
    """
    bed = ClosTestbed.leaf_spine(num_racks=2, hosts_per_rack=2, num_spines=2, seed=1)
    harness = ClusterHarness(bed, "smt")
    engine = FrontendEngine(
        harness, FixedSize(SIZE), load=0.3, duration=0.2e-3,
        balancer=RandomBalancer(seed=5), clients=CLIENTS, replicas=REPLICAS,
        keys=SkewedKeys(8), seed=9,
    )
    engine.calibrate()
    loop, real_call = bed.loop, harness.call
    sent_to = {r: Histogram() for r in REPLICAS}

    def call(src, dst, thread, payload, **kw):
        t0 = loop.now
        if dst == DOOMED:
            yield loop.timeout(40 * USEC)
            raise TransportError("replica gone")
        response = yield from real_call(src, dst, thread, payload, **kw)
        # Clients sit in rack 0 and replicas in rack 1: always cross-rack.
        sent_to[dst].record((loop.now - t0) / engine.result.baseline_rtt[(SIZE, True)])
        return response

    harness.call = call
    return engine, engine.run(), sent_to


def test_failed_rpc_books_nothing_to_its_replica():
    engine, result, sent_to = _run_with_a_failing_replica()
    assert result.failed > 0
    assert result.completed > 0
    assert result.issued == result.completed + result.failed
    assert engine.replica_issued[DOOMED] == result.failed
    books = engine.replica_slowdowns
    assert sum(len(h) for h in books.values()) == result.completed
    # Each replica's histogram holds exactly the slowdowns of the RPCs
    # sent to it: none for the replica whose every RPC failed.
    assert len(books[DOOMED]) == 0
    for replica in REPLICAS:
        got, want = books[replica], sent_to[replica]
        assert len(got) == len(want)
        if len(want):
            assert got.mean() == want.mean()
            for q in range(0, 101, 5):
                assert got.percentile(q) == want.percentile(q)
    assert all(n == 0 for n in engine.replica_outstanding.values())
