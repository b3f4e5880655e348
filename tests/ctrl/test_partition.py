"""Partitioned control plane: hard per-tenant compartments.

The two properties the tenancy subsystem's control-plane half rests on,
fuzzed across >= 30 seeds each:

- churn confined: eviction in one tenant's partition never evicts
  another tenant's sessions, whatever the interleaving;
- backpressure charged to the causer: a tenant saturating its own
  compartment gets refused while every other tenant keeps being
  admitted, and the refusal counters land on the right tenant.
"""

import random

import pytest

from repro.ctrl import PartitionedKeyPool, PartitionedSessionTable
from repro.ctrl.partition import split_slots
from repro.errors import ProtocolError
from repro.sim.event_loop import EventLoop

SEEDS = range(30)


def never_busy():
    return False


class TestSplitSlots:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_partition_of_total_with_floors(self, seed):
        rng = random.Random(seed)
        tenants = [f"t{i}" for i in range(rng.randrange(1, 9))]
        weights = {name: rng.choice([0.1, 0.5, 1.0, 2.0, 7.5]) for name in tenants}
        total = rng.randrange(len(tenants), 200)
        alloc = split_slots(total, weights)
        assert sum(alloc.values()) == total
        assert all(slots >= 1 for slots in alloc.values())
        assert alloc == split_slots(total, weights)  # deterministic

    def test_weight_proportionality(self):
        alloc = split_slots(100, {"a": 3.0, "b": 1.0})
        assert alloc == {"a": 75, "b": 25}

    def test_too_few_slots_rejected(self):
        with pytest.raises(ProtocolError):
            split_slots(1, {"a": 1.0, "b": 1.0})

    def test_tiny_weights_still_get_a_slot(self):
        alloc = split_slots(4, {"a": 100.0, "b": 0.001, "c": 0.001, "d": 0.001})
        assert alloc["b"] == alloc["c"] == alloc["d"] == 1
        assert alloc["a"] == 1


class TestEvictionIsolation:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_churn_in_one_partition_never_evicts_another(self, seed):
        rng = random.Random(seed)
        table = PartitionedSessionTable(
            {"victim": 1.0, "aggr": 1.0}, capacity=8
        )
        evicted: dict[str, list] = {"victim": [], "aggr": []}
        # The victim settles in well under its compartment's capacity...
        for i in range(table.partition_capacity("victim") - 1):
            table.insert(
                "victim", ("v", i),
                on_evict=lambda i=i: evicted["victim"].append(i),
                busy=never_busy,
            )
        victim_before = table.sessions("victim")
        # ...then the aggressor churns far past its own capacity.
        for i in range(rng.randrange(20, 60)):
            table.insert(
                "aggr", ("a", i),
                on_evict=lambda i=i: evicted["aggr"].append(i),
                busy=never_busy,
            )
            if rng.random() < 0.3:
                table.touch("aggr", ("a", i))
        stats = table.stats()
        assert evicted["victim"] == []
        assert stats["victim"]["evicted_lru"] == 0
        assert table.sessions("victim") == victim_before
        assert stats["aggr"]["evicted_lru"] == len(evicted["aggr"]) > 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_interleaved_churn_keeps_compartments_disjoint(self, seed):
        rng = random.Random(seed)
        loop = EventLoop()
        names = ["a", "b", "c"]
        table = PartitionedSessionTable(
            {n: rng.choice([1.0, 2.0]) for n in names}, capacity=9
        )
        evicted_by: dict[str, set] = {n: set() for n in names}
        live: dict[str, set] = {n: set() for n in names}
        for i in range(200):
            tenant = rng.choice(names)
            key = (tenant, i)
            table.insert(
                tenant, key,
                on_evict=lambda t=tenant, k=key: (
                    evicted_by[t].add(k), live[t].discard(k)
                ),
                busy=never_busy,
            )
            live[tenant].add(key)
        for tenant in names:
            # Every eviction callback fired was for the tenant's own keys,
            # and the survivors exactly fill what the counters claim.
            assert all(k[0] == tenant for k in evicted_by[tenant])
            assert table.sessions(tenant) == len(live[tenant])
            assert len(live[tenant]) <= table.partition_capacity(tenant)


class TestBackpressureCharging:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_refusals_land_on_the_saturating_tenant(self, seed):
        rng = random.Random(seed)
        table = PartitionedSessionTable(
            {"noisy": 1.0, "quiet": 1.0}, capacity=rng.randrange(4, 12)
        )
        # The noisy tenant pins every slot of its own compartment busy.
        for i in range(table.partition_capacity("noisy")):
            table.insert(
                "noisy", ("n", i), on_evict=lambda: None,
                busy=lambda: True,
            )
        refusals = rng.randrange(1, 6)
        for _ in range(refusals):
            assert not table.admit("noisy")
        with pytest.raises(ProtocolError):
            table.insert(
                "noisy", ("n", 99), on_evict=lambda: None,
                busy=never_busy,
            )
        # The quiet tenant is untouched: admitted, insertable, clean counters.
        assert table.admit("quiet")
        table.insert(
            "quiet", ("q", 0), on_evict=lambda: None, busy=never_busy
        )
        stats = table.stats()
        assert stats["noisy"]["admission_refused"] == refusals + 1
        assert stats["quiet"]["admission_refused"] == 0
        assert stats["quiet"]["sessions"] == 1


class TestKeyPoolPartitions:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_draws_charged_and_streams_independent(self, seed):
        def draw_b_sequence(a_draws: int):
            loop = EventLoop()
            pool = PartitionedKeyPool(
                loop, {"a": 1.0, "b": 1.0}, seed=seed, capacity=8
            )
            for _ in range(a_draws):
                pool.take_or_generate("a")
            seq = [pool.take_or_generate("b").public_bytes() for _ in range(3)]
            pool.cancel_refill()
            return seq, pool.stats()

        rng = random.Random(seed)
        a_draws = rng.randrange(0, 12)
        seq_drained, stats = draw_b_sequence(a_draws)
        seq_quiet, _ = draw_b_sequence(0)
        # b's key sequence is identical whether or not a drew first.
        assert seq_drained == seq_quiet
        assert stats["a"]["taken"] + stats["a"]["misses"] == a_draws
        assert stats["b"]["taken"] + stats["b"]["misses"] == 3

    def test_exhaustion_is_per_tenant(self):
        loop = EventLoop()
        pool = PartitionedKeyPool(
            loop, {"a": 1.0, "b": 1.0}, seed=7, capacity=4
        )
        for _ in range(10):
            pool.take_or_generate("a")
        # a has outrun its standby stock; b still draws its prefill O(1).
        assert pool.stats()["a"]["misses"] > 0
        pool.take_or_generate("b")
        assert pool.stats()["b"]["misses"] == 0
        pool.cancel_refill()
