"""Multi-tenant open-loop load over a :class:`TenantFabric`.

:class:`TenantLoadEngine` is :class:`~repro.load.engine.OpenLoopEngine`
with one arrival stream per tenant: each tenant offers its *own* Poisson
open-loop load (its own target fraction of every host's uplink, its own
size distribution, its own seeded arrival processes) over the shared
fabric, and slowdowns aggregate per tenant.  Arrivals, the RPC-measure
body, calibration and the drain are the engine's; this module only says
what a tenant's stream is.  A victim tenant's p99 answers the question
the paper's isolation argument poses: *how much slower is my tail
because someone else is noisy?*

Determinism: the stream salt puts the tenant id into every sender's RNG
seed, so a (fabric, workloads, seed) tuple replays the identical
packet-level run with isolation on or off — the bench's strict
victim-p99 comparison depends on both runs sampling identical arrivals.

Baseline calibration bypasses the egress shaper (``shaped=False``): the
baseline is the idle fabric's RTT, not the tenant's entitlement, so a
throttled aggressor's queueing delay *counts as slowdown* — exactly the
cost the isolation tradeoff table reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

from repro.errors import ReproError
from repro.load.cluster import MIN_MESSAGE
from repro.load.distributions import SizeDistribution
from repro.load.engine import DEFAULT_RESPONSE, LoadResult, OpenLoopEngine, Stream

if TYPE_CHECKING:  # annotation-only: repro.tenancy imports this package
    from repro.tenancy.harness import TenantFabric
    from repro.tenancy.tenant import Tenant


@dataclass
class TenantWorkload:
    """One tenant's offered load: what it sends, and how hard."""

    tenant: Tenant
    distribution: SizeDistribution
    #: Offered load as a fraction of each host's uplink capacity.
    load: float

    def __post_init__(self):
        if not 0.0 < self.load < 1.0:
            raise ReproError(f"load fraction {self.load} outside (0, 1)")
        # The engine checks both again for every stream (ValueError); a
        # workload is rejected here, as ReproError, before a fabric exists.
        if min(self.distribution.support()) < MIN_MESSAGE:
            raise ReproError(f"{self.tenant.name}: sizes below {MIN_MESSAGE} B")


class TenantLoadEngine(OpenLoopEngine):
    """Drive every tenant's open-loop arrivals over one shared fabric."""

    def __init__(
        self,
        fabric: TenantFabric,
        workloads: list[TenantWorkload],
        duration: float,
        seed: int = 0,
        response_size: int = DEFAULT_RESPONSE,
        max_drain: float = 0.5,
    ):
        if not workloads:
            raise ReproError("need at least one tenant workload")
        self._bind(fabric, duration, seed, response_size, max_drain)
        self.fabric = fabric
        self.workloads = workloads
        self.results: dict[str, LoadResult] = {}
        for w in workloads:
            self.results[w.tenant.name] = self._tenant_stream(w).result

    def _tenant_stream(self, w: TenantWorkload) -> Stream:
        fabric, tenant, name = self.fabric, w.tenant, w.tenant.name

        def call(src, dst, thread, request, **kw):
            return fabric.call(name, src, dst, thread, request, **kw)

        return self._add_stream(
            name, w.distribution, w.load, tenant.tid * 131_071,
            f"tenant.{name}.slowdown",
            call=call,
            idle_call=partial(call, shaped=False),
            thread_for=lambda src, serial: fabric.thread_for(tenant, src, serial),
            server_errors=lambda: fabric.server_integrity_errors[name],
        )

    def run(self) -> dict[str, LoadResult]:
        """Calibrate, run every tenant's arrivals, drain, report."""
        self._drive()
        return self.results
