"""No (key, nonce) pair seals two different plaintexts in any stream mesh.

Parallel connections each count records from 0, so connections that share
a traffic key repeat nonces over different bytes: a two-time pad under
FastAead, the forbidden case of GCM under ``aes-128-gcm``.  A
retransmission's byte-identical re-seal is allowed.
"""

import pytest

from repro.bench.runner import build_rpc_harness
from repro.crypto.aead import FastAead
from repro.load import HOMA_W4, ClusterHarness, OpenLoopEngine
from repro.load.shard import measure_baselines
from repro.sim.shard import ShardPlan, ShardRunner
from repro.testbed import ClosTestbed


@pytest.fixture
def sealed(monkeypatch):
    """``(mac key, nonce) -> {plaintexts sealed under it}`` for one mesh."""
    seen: dict = {}
    seal, seal_many = FastAead.seal, FastAead.seal_many

    def note(aead, nonce, plaintext):
        seen.setdefault((aead._mac_key, bytes(nonce)), set()).add(bytes(plaintext))

    def noting_seal(self, nonce, plaintext, aad=b""):
        note(self, nonce, plaintext)
        return seal(self, nonce, plaintext, aad)

    def noting_seal_many(self, items, out, offsets):
        for nonce, plaintext, _aad in items:
            note(self, nonce, plaintext)
        return seal_many(self, items, out, offsets)

    monkeypatch.setattr(FastAead, "seal", noting_seal)
    monkeypatch.setattr(FastAead, "seal_many", noting_seal_many)
    return seen


def _assert_unique(seen):
    assert sum(map(len, seen.values())) > 100  # distinct records sealed
    reused = [pair for pair, plaintexts in seen.items() if len(plaintexts) > 1]
    assert not reused, f"{len(reused)} of {len(seen)} (key, nonce) pairs reused"


def test_twelve_parallel_ktls_connections(sealed):
    harness = build_rpc_harness("ktls-sw")  # 12 connections, one per slot
    bed = harness.bed

    def slot(i):
        call = harness.call_factory(i)
        for _ in range(5):
            yield from call(bytes([i + 1]) * 300, 200 + i)

    done = [bed.loop.process(slot(i)) for i in range(12)]
    bed.loop.run(until=1.0)
    assert all(d.triggered and d.ok for d in done)
    _assert_unique(sealed)


def test_ktls_mesh_on_the_leaf_spine(sealed):
    bed = ClosTestbed.leaf_spine(num_racks=3, hosts_per_rack=2, num_spines=2, seed=1)
    engine = OpenLoopEngine(
        ClusterHarness(bed, "ktls"), HOMA_W4, load=0.3, duration=0.3e-3, seed=5
    )
    engine.calibrate()
    sealed.clear()  # calibration ran on a bed of its own, with the same keys
    result = engine.run()
    assert result.completed == result.issued > 0
    _assert_unique(sealed)


def test_ktls_mesh_cut_into_two_domains(sealed):
    plan = ShardPlan(num_racks=2, hosts_per_rack=2, num_spines=2)
    baselines = measure_baselines(plan, "ktls", HOMA_W4)
    sealed.clear()  # as above
    ShardRunner(
        plan.with_domains(2),
        workload_factory="repro.load.shard:build_domain_workload",
        workload_args={
            "system": "ktls", "distribution": HOMA_W4, "load": 0.3,
            "duration": 0.3e-3, "seed": 5, "baselines": baselines,
        },
    ).run()
    _assert_unique(sealed)
