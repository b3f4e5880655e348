"""Shard plans: how a leaf-spine fabric partitions into time domains.

A :class:`ShardPlan` is the complete, picklable description of a
leaf-spine cluster -- the one parameter list: the Clos topology
parameters, the host grid, and the assignment of racks to time domains.
:meth:`ShardPlan.build` is the only place a leaf-spine fabric gets its
NIC-attached hosts; the single-loop ``ClosTestbed`` builds all racks
from it and each ``ShardDomain`` its own.  Worker processes rebuild
their whole domain (fabric slice, hosts, workload) from the plan alone,
which is what keeps the ``multiprocessing`` carrier deterministic --
nothing crosses the pipe except the plan, encoded packets and picklable
results.

Racks are assigned to domains in contiguous blocks (rack ``r`` belongs to
domain ``r * domains // num_racks``), so every domain owns at least one
whole rack and the boundary cut always runs through leaf up-trunks.  The
synchronization lookahead is therefore the trunk propagation delay: a
packet finishing serialisation at ``t`` in one domain cannot affect any
other domain before ``t + TRUNK_DELAY`` (:mod:`repro.net.clos`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from repro.errors import SimulationError
from repro.host.costs import CostModel
from repro.host.host import Host
from repro.net.addressing import make_addr
from repro.net.clos import ClosFabric
from repro.nic.device import Nic
from repro.nic.tso import TsoMode
from repro.sim.event_loop import EventLoop
from repro.units import GBPS


@dataclass(frozen=True)
class ShardPlan:
    """Topology + partitioning for one leaf-spine cluster."""

    num_racks: int = 4
    hosts_per_rack: int = 2
    num_spines: int = 2
    domains: int = 1
    bandwidth_bps: float = 100 * GBPS
    mtu: int = 1500
    buffer_bytes: int = 128 * 1024
    trimming: bool = False
    num_app_cores: int = 12
    num_softirq_cores: int = 4
    tso_mode: TsoMode = TsoMode.FULL
    ecmp_salt: int = 0
    seed: int = 0
    #: Enable per-domain observability (metrics + spans, no packet taps).
    observe: bool = False
    #: Domain of each rack, derived in ``__post_init__``.
    _domain_of_rack: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if self.num_racks < 1 or self.num_spines < 1:
            raise SimulationError("a Clos fabric needs >= 1 rack and >= 1 spine")
        if not 1 <= self.domains <= self.num_racks:
            raise SimulationError(
                f"domains must be in [1, num_racks]; got {self.domains} "
                f"for {self.num_racks} racks"
            )
        if self.hosts_per_rack < 1:
            raise SimulationError("a rack needs >= 1 host")
        if max(self.num_racks, self.hosts_per_rack) > 255:
            # 10.(1+r).0.(1+i): rack and slot each ride one address octet.
            raise SimulationError(
                f"{self.num_racks} racks x {self.hosts_per_rack} hosts overflow "
                "the 10.(1+rack).0.(1+slot) address grid (255 each)"
            )
        object.__setattr__(
            self,
            "_domain_of_rack",
            tuple(r * self.domains // self.num_racks for r in range(self.num_racks)),
        )

    # -- partitioning -------------------------------------------------------------

    @property
    def num_hosts(self) -> int:
        return self.num_racks * self.hosts_per_rack

    def domain_of_rack(self, rack: int) -> int:
        return self._domain_of_rack[rack]

    def racks_of_domain(self, domain: int) -> list[int]:
        return [
            r for r in range(self.num_racks) if self._domain_of_rack[r] == domain
        ]

    # -- the host grid ------------------------------------------------------------

    def addr_of(self, rack: int, slot: int) -> int:
        """``10.(1+rack).0.(1+slot)``: the rack is readable off the address."""
        return make_addr(10, 1 + rack, 0, 1 + slot)

    def host_name(self, rack: int, slot: int) -> str:
        return f"r{rack}h{slot}"

    def global_index(self, rack: int, slot: int) -> int:
        """Host index in rack-major order, stable across domain counts."""
        return rack * self.hosts_per_rack + slot

    def rack_of_index(self, index: int) -> int:
        return index // self.hosts_per_rack

    def rack_of_addr_map(self) -> dict[int, int]:
        """Address -> rack for every host in the cluster (all domains)."""
        return {
            self.addr_of(r, i): r
            for r in range(self.num_racks)
            for i in range(self.hosts_per_rack)
        }

    def with_domains(self, domains: int) -> "ShardPlan":
        """The same cluster repartitioned into ``domains`` time domains."""
        return replace(self, domains=domains)

    def cost_model(self) -> CostModel:
        """The (deterministic) per-host cost model every domain shares."""
        return CostModel()

    # -- construction -------------------------------------------------------------

    def build(
        self,
        loop: EventLoop,
        racks: Optional[Sequence[int]] = None,
        costs: Optional[CostModel] = None,
    ) -> tuple[ClosFabric, dict[int, list[Host]]]:
        """The fabric over ``racks`` (default: all) and, per rack, its
        NIC-attached hosts.  A rack subset is one time domain's slice:
        the caller still has to :meth:`~repro.net.clos.ClosFabric.cut` it."""
        costs = costs or self.cost_model()
        fabric = ClosFabric(
            loop,
            self.num_racks,
            self.num_spines,
            bandwidth_bps=self.bandwidth_bps,
            mtu=self.mtu,
            buffer_bytes=self.buffer_bytes,
            trimming=self.trimming,
            ecmp_salt=self.ecmp_salt,
            racks=racks,
        )
        hosts: dict[int, list[Host]] = {}
        for rack in fabric.leaves:
            row = hosts[rack] = []
            for slot in range(self.hosts_per_rack):
                host = Host(
                    loop, self.host_name(rack, slot), self.addr_of(rack, slot), costs,
                    num_app_cores=self.num_app_cores,
                    num_softirq_cores=self.num_softirq_cores,
                )
                port = fabric.attach_host(rack, host.addr)
                host.attach_nic(Nic(loop, port, "a", costs, tso_mode=self.tso_mode))
                row.append(host)
        return fabric, hosts
