"""One time domain: an event loop, a fabric slice, hosts and a workload.

A :class:`ShardDomain` is everything the conservative scheduler advances
between two barriers: its own :class:`EventLoop`, the local racks' slice
of the :class:`~repro.net.clos.ClosFabric` with their hosts (from
:meth:`ShardPlan.build`, the function ``ClosTestbed.leaf_spine`` builds
the whole cluster with), the fabric's :meth:`~repro.net.clos.ClosFabric.cut`
along its up-trunks, and optionally a workload driving traffic.
Cross-domain packets leave through the cut's boundary senders into an
:class:`OutboundQueue` and arrive via :meth:`inject`, which schedules
them at their precomputed arrival times in deterministic merged order.

Workloads are resolved from a dotted ``module:function`` path (the same
name-not-closure rule the bench fleet uses), so a domain can be rebuilt
from its plan inside a worker process.  The factory is called as
``factory(domain, args)`` and must return an object with ``done()`` and
``result()``; ``result()`` must be picklable.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
from typing import Any, Optional

from repro.errors import SimulationError
from repro.host.host import Host
from repro.sim.event_loop import EventLoop
from repro.sim.shard.boundary import OutboundQueue, merge_batches
from repro.sim.shard.plan import ShardPlan


def resolve_workload_factory(path: str):
    """``"pkg.mod:fn"`` -> the callable (importable in any process)."""
    module_name, _, attr = path.partition(":")
    try:
        return getattr(import_module(module_name), attr)
    except (ImportError, AttributeError, ValueError) as exc:
        raise SimulationError(
            f"workload factory {path!r} does not resolve ({exc}); "
            "expected the form 'pkg.mod:fn'"
        ) from exc


@dataclass
class DomainResult:
    """One domain's picklable contribution to the merged run result."""

    domain: int
    racks: list[int]
    hosts: int
    events: int
    final_now: float
    #: {rack: per-spine upward packet counts} -- merged by stacking rows.
    spine_packets: dict[int, list[int]]
    fabric_stats: dict
    workload: Any = None
    obs_snapshot: Optional[dict] = None


class ShardDomain:
    """Build and step one time domain of a sharded cluster."""

    def __init__(
        self,
        plan: ShardPlan,
        domain: int,
        workload_factory: Optional[str] = None,
        workload_args: Optional[dict] = None,
    ):
        self.plan = plan
        self.domain = domain
        self.loop = EventLoop()
        self.outbound = OutboundQueue()
        self.local_racks = plan.racks_of_domain(domain)
        self.fabric, self.racks = plan.build(self.loop, racks=self.local_racks)
        self.fabric.cut(
            domain, plan._domain_of_rack, plan.rack_of_addr_map(), self.outbound.emit
        )
        #: Local hosts in rack-major order, alongside their global indices.
        self.hosts: list[Host] = [h for row in self.racks.values() for h in row]
        self.global_indices = [
            plan.global_index(rack, slot)
            for rack in self.local_racks
            for slot in range(plan.hosts_per_rack)
        ]
        self.obs = None
        if plan.observe:
            from repro.obs import Observability

            self.obs = Observability(self.loop)
            for host in self.hosts:
                self.obs.observe_host(host)
        self.workload = None
        if workload_factory is not None:
            factory = resolve_workload_factory(workload_factory)
            self.workload = factory(self, workload_args or {})

    # -- stepping (driven by the runner) ------------------------------------------

    def run_window(self, until: float) -> None:
        """Advance to the barrier at ``until``; records wait in ``outbound``."""
        self.loop.run(until=until)

    def inject(self, batches: list[tuple[int, list]]) -> None:
        """Deliver ``[(source_domain, records), ...]`` in deterministic order."""
        if not batches:
            return
        for arrival, spine, packet in merge_batches(batches):
            self.fabric.deliver(spine, packet, arrival)

    def next_event_time(self) -> Optional[float]:
        return self.loop.next_event_time()

    def workload_done(self) -> bool:
        return self.workload is None or self.workload.done()

    # -- results ------------------------------------------------------------------

    def result(self) -> DomainResult:
        return DomainResult(
            domain=self.domain,
            racks=self.local_racks,
            hosts=len(self.hosts),
            events=self.loop.dispatched,
            final_now=self.loop.now,
            spine_packets={
                rack: list(row) for rack, row in self.fabric.spine_packets.items()
            },
            fabric_stats=self.fabric.stats(),
            workload=None if self.workload is None else self.workload.result(),
            obs_snapshot=None if self.obs is None else self.obs.snapshot(),
        )
