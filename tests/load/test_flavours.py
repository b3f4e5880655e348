"""Every flavour of the one open-loop engine keeps the same books, and the
three that offer plain uniform traffic offer the *same* traffic."""

import pytest

from repro.load import (
    HOMA_W4,
    ClusterHarness,
    FixedSize,
    OpenLoopEngine,
    TenantLoadEngine,
    TenantWorkload,
)
from repro.load.incident import IncidentEngine
from repro.load.shard import (
    ShardedClusterHarness,
    ShardedOpenLoopEngine,
    measure_baselines,
    merge_load_results,
)
from repro.net.domain_faults import IncidentEvent
from repro.sim.shard import ShardPlan, ShardRunner
from repro.sim.shard.domain import ShardDomain
from repro.tenancy import Tenant, TenantFabric
from repro.testbed import ClosTestbed
from repro.units import USEC

SEED, LOAD, DURATION = 5, 0.3, 0.15e-3


def _bed():
    return ClosTestbed.leaf_spine(num_racks=2, hosts_per_rack=2, num_spines=2, seed=1)


def _plain():
    engine = OpenLoopEngine(
        ClusterHarness(_bed(), "smt"), HOMA_W4, load=LOAD, duration=DURATION,
        seed=SEED,
    )
    return [engine.run()]


def _tenant():
    tenants = [Tenant("a", 0), Tenant("b", 1)]
    fabric = TenantFabric(_bed(), tenants, seed=3)
    engine = TenantLoadEngine(
        fabric, [TenantWorkload(t, HOMA_W4, LOAD / 2) for t in tenants],
        duration=DURATION, seed=SEED,
    )
    return list(engine.run().values())


def _incident():
    bed = _bed()
    controller = bed.domain_controller()
    controller.watch_spines(interval=15 * USEC, miss_threshold=2, resalt=True)
    engine = IncidentEngine(
        ClusterHarness(bed, "smt"), FixedSize(2048), load=LOAD, duration=DURATION,
        controller=controller,
        timeline=[
            IncidentEvent(40 * USEC, "spine_down", 0),
            IncidentEvent(90 * USEC, "spine_up", 0),
        ],
        seed=SEED,
    )
    result = engine.run()
    m = engine.metrics
    assert sum(len(h) for h in m.phase_slowdowns.values()) == result.completed
    assert sum(m.phase_failed.values()) == result.failed
    return [result]


def _sharded(domains):
    plan = ShardPlan(num_racks=2, hosts_per_rack=2, num_spines=2)
    baselines = measure_baselines(plan, "smt", HOMA_W4)
    run = ShardRunner(
        plan.with_domains(domains),
        workload_factory="repro.load.shard:build_domain_workload",
        workload_args={
            "system": "smt", "distribution": HOMA_W4, "load": LOAD,
            "duration": DURATION, "seed": SEED, "baselines": baselines,
        },
    ).run()
    return [merge_load_results(
        "smt", LOAD, DURATION, run.workloads(), baselines, run.spine_spread()
    )]


@pytest.mark.parametrize("flavour", [
    pytest.param(_plain, id="plain"),
    pytest.param(_tenant, id="tenant"),
    pytest.param(_incident, id="incident"),
    pytest.param(lambda: _sharded(1), id="sharded-1"),
    pytest.param(lambda: _sharded(2), id="sharded-2"),
])
def test_books_balance_after_the_drain(flavour):
    """What the ledger's ``_check_load_result`` relies on, per LoadResult."""
    for result in flavour():
        assert result.issued > 0
        assert result.issued == result.completed + result.failed
        assert len(result.slowdowns) == result.completed
        assert sum(len(h) for h in result.per_size.values()) == result.completed
        assert result.integrity_errors == 0


# -- open-loop purity ---------------------------------------------------------------


def _recording(call, issued, args_of):
    """``call`` wrapped to note (src, dst, request size) as each RPC starts."""

    def recorded(*args, **kw):
        src, dst, payload = args_of(args)
        issued.setdefault(src, []).append((dst, len(payload)))
        return call(*args, **kw)

    return recorded


def _plain_issues():
    harness = ClusterHarness(_bed(), "homa")
    engine = OpenLoopEngine(harness, HOMA_W4, load=LOAD, duration=DURATION, seed=SEED)
    engine.calibrate()
    issued = {}
    harness.call = _recording(harness.call, issued, lambda a: (a[0], a[1], a[3]))
    engine.run()
    return issued


def _one_tenant_issues():
    # SMT only, but the wire protocol does not reach the arrival process.
    tenant = Tenant("only", 0)
    fabric = TenantFabric(_bed(), [tenant], seed=3)
    engine = TenantLoadEngine(
        fabric, [TenantWorkload(tenant, HOMA_W4, LOAD)], duration=DURATION, seed=SEED
    )
    engine.calibrate()
    issued = {}
    fabric.call = _recording(fabric.call, issued, lambda a: (a[1], a[2], a[4]))
    engine.run()
    return issued


def _one_domain_issues():
    plan = ShardPlan(num_racks=2, hosts_per_rack=2, num_spines=2)
    baselines = measure_baselines(plan, "homa", HOMA_W4)
    domain = ShardDomain(plan.with_domains(1), 0)
    harness = ShardedClusterHarness(domain, "homa")
    engine = ShardedOpenLoopEngine(
        harness, HOMA_W4, LOAD, DURATION, baselines, seed=SEED
    )
    issued = {}
    harness.call = _recording(harness.call, issued, lambda a: (a[0], a[1], a[3]))
    engine.start()
    while not engine.done():
        domain.loop.run(until=domain.loop.now + DURATION)
    return issued


def test_one_arrival_process():
    """Same (seed, sender, load, distribution, link): same (dst, size) list.

    Open-loop arrivals never look at completions, so what a sender offers
    is a function of its RNG stream alone -- not of the harness, the
    tenant wrapper, the serial policy or the time domain.  The tenant
    bench's isolation-on/off comparison and the shard parity gates both
    lean on this.
    """
    plain = _plain_issues()
    assert sorted(plain) == [0, 1, 2, 3]
    assert all(len(seq) > 10 for seq in plain.values())
    assert _one_tenant_issues() == plain
    assert _one_domain_issues() == plain
