"""Testbed construction: the paper's two-machine back-to-back setup.

One call builds an event loop, two hosts with the paper's core counts
(12 application + 4 stack cores each, §5), a 100 Gb/s link and two NICs.
Everything downstream (transports, sessions, applications, benchmarks)
hangs off a :class:`Testbed`.

:class:`StarTestbed` (one switch: a one-rack leaf-spine) and
:class:`ClosTestbed` (leaf-spine, built from a
:class:`~repro.sim.shard.ShardPlan`) are the multi-host topologies; all
three share one base for the opt-in layers (``enable_obs``,
``enable_ctrl``, fault bookkeeping, ``run``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from repro.host.costs import CostModel
from repro.host.host import Host
from repro.net.addressing import make_addr
from repro.net.clos import ClosFabric
from repro.net.domain_faults import DomainFaultController
from repro.net.faults import FaultConfig, FaultInjector
from repro.net.link import Link
from repro.nic.device import Nic
from repro.nic.tso import TsoMode
from repro.sim.event_loop import EventLoop
from repro.errors import SimulationError
from repro.sim.shard import ShardPlan
from repro.units import GBPS

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.obs import Observability


class _Bed:
    """What every single-loop topology shares: the opt-in layers.

    A topology supplies ``loop``, ``hosts`` (the order planes, spans and
    seeds follow) and :meth:`_observe_wiring`; observability, control
    planes, fault-injector bookkeeping and ``run`` live here once.
    """

    __test__ = False  # not a pytest collection target despite the names

    # Installed by :meth:`enable_obs`; None keeps the bed unobserved.
    obs: Optional["Observability"] = None
    # Installed by :meth:`enable_ctrl`; one plane per host, ``hosts`` order.
    ctrl_planes: Optional[list] = None
    # Installed by ``install_faults``; {site key: injector}, None when clean.
    fault_injectors: Optional[dict] = None
    # The same injectors as (label, injector), in installation order.
    _faults: tuple = ()

    def enable_obs(self, capture_capacity: int = 4096) -> "Observability":
        """Switch on span tracing, metrics and packet capture.

        Idempotent; call before driving traffic so every packet is seen.
        Observes every link or switch egress port of the topology and
        every host.  Observation is strictly passive -- same event
        sequence, same RNG draws, byte-identical transcripts with or
        without it.
        """
        if self.obs is not None:
            return self.obs
        from repro.obs import Observability

        obs = Observability(self.loop, capture_capacity=capture_capacity)
        self._observe_wiring(obs)
        for host in self.hosts:
            obs.observe_host(host)
        for label, injector in self._faults:
            obs.observe_fault_injector(injector, f"faults.{label}")
        for plane in self.ctrl_planes or ():
            plane.bind_obs(obs)
        self.obs = obs
        return obs

    def enable_ctrl(self, config=None, seed: int = 2025) -> list:
        """Attach a session-lifecycle control plane to every host.

        Idempotent.  Returns the planes in :attr:`hosts` order (client,
        server on a back-to-back bed); endpoints opt in with
        ``ctrl=bed.ctrl_planes[i]`` (or via ``plane.adopt``).  Per-host
        seed offsets keep the hosts' standby-key streams independent yet
        replayable.
        """
        if self.ctrl_planes is None:
            from repro.ctrl import ControlPlane

            self.ctrl_planes = [
                ControlPlane(host, random.Random(seed + i), config=config)
                for i, host in enumerate(self.hosts)
            ]
        return self.ctrl_planes

    def _install_faults(
        self,
        faults: FaultConfig,
        fault_seed: int,
        sites: Iterable[tuple[object, str, Callable[[FaultInjector], None]]],
        prefix: str = "",
    ) -> None:
        """One seeded injector per ``(key, label, attach)`` site, in order.

        Site ``i`` draws from seed ``fault_seed + i``, so fates decorrelate
        across sites while the whole bed stays replayable from
        ``fault_seed`` alone.
        """
        self.fault_injectors, self._faults = {}, ()
        for i, (key, label, attach) in enumerate(sites):
            injector = FaultInjector(
                self.loop, faults, seed=fault_seed + i, name=prefix + label
            )
            attach(injector)
            self.fault_injectors[key] = injector
            self._faults += ((label, injector),)
            if self.obs is not None:
                self.obs.observe_fault_injector(injector, f"faults.{label}")

    def fault_stats(self) -> dict:
        """Fault counters per injection site, by label (empty when clean)."""
        return {label: injector.stats() for label, injector in self._faults}

    def run(self, until: Optional[float] = None) -> float:
        return self.loop.run(until=until)


@dataclass
class Testbed(_Bed):
    """Two hosts, one link, one loop -- the paper's §5 hardware."""

    loop: EventLoop
    link: Link
    client: Host
    server: Host
    rng: random.Random = field(default_factory=lambda: random.Random(0))

    @property
    def hosts(self) -> list[Host]:
        return [self.client, self.server]

    @property
    def faults_c2s(self) -> Optional[FaultInjector]:
        """Client->server injector; None on a clean testbed."""
        return (self.fault_injectors or {}).get("c2s")

    @property
    def faults_s2c(self) -> Optional[FaultInjector]:
        return (self.fault_injectors or {}).get("s2c")

    @staticmethod
    def back_to_back(
        bandwidth_bps: float = 100 * GBPS,
        delay: float = 1.0e-6,
        mtu: int = 1500,
        num_app_cores: int = 12,
        num_softirq_cores: int = 4,
        num_nic_queues: int = 4,
        tso_mode: TsoMode = TsoMode.FULL,
        costs: Optional[CostModel] = None,
        seed: int = 0,
    ) -> "Testbed":
        """Build the standard testbed; every knob mirrors a §5 parameter."""
        loop = EventLoop()
        link = Link(loop, bandwidth_bps=bandwidth_bps, delay=delay, mtu=mtu)
        costs = costs or CostModel()
        client = Host(
            loop, "client", make_addr(10, 0, 0, 1), costs,
            num_app_cores=num_app_cores, num_softirq_cores=num_softirq_cores,
        )
        server = Host(
            loop, "server", make_addr(10, 0, 0, 2), costs,
            num_app_cores=num_app_cores, num_softirq_cores=num_softirq_cores,
        )
        client.attach_nic(
            Nic(loop, link, "a", costs, num_queues=num_nic_queues, tso_mode=tso_mode)
        )
        server.attach_nic(
            Nic(loop, link, "b", costs, num_queues=num_nic_queues, tso_mode=tso_mode)
        )
        return Testbed(loop, link, client, server, random.Random(seed))

    @staticmethod
    def adversarial(
        faults: FaultConfig,
        fault_seed: int = 0,
        **kwargs,
    ) -> "Testbed":
        """A back-to-back testbed whose link misbehaves per ``faults``.

        Both directions get independent :class:`FaultInjector` streams
        (seeds ``fault_seed`` and ``fault_seed + 1``) so client->server and
        server->client fates decorrelate while the whole run stays
        replayable from ``fault_seed`` alone.
        """
        bed = Testbed.back_to_back(**kwargs)
        bed.install_faults(faults, fault_seed)
        return bed

    def install_faults(self, faults: FaultConfig, fault_seed: int = 0) -> None:
        """Attach seeded fault injectors to both link directions.

        May be called mid-simulation -- e.g. after a clean handshake -- to
        turn the weather bad at a chosen virtual time.
        """
        inject = self.link.inject_faults
        sites = [
            ("c2s", "c2s", partial(inject, "a")),
            ("s2c", "s2c", partial(inject, "b")),
        ]
        self._install_faults(faults, fault_seed, sites)

    def _observe_wiring(self, obs: "Observability") -> None:
        obs.observe_link(self.link, "c2s", "s2c")


@dataclass
class StarTestbed(_Bed):
    """N client hosts and one server behind a single switch.

    Built for incast experiments: the clients' combined load funnels into
    the server's port, where the switch's bounded buffer drops or -- with
    ``trimming`` -- trims packets NDP-style (paper §7).  The fabric is a
    one-rack :class:`~repro.net.clos.ClosFabric`: every host hangs off
    ``fabric.leaves[0]``, and its one spine carries no traffic.
    """

    loop: EventLoop
    fabric: ClosFabric
    clients: list[Host]
    server: Host

    @property
    def hosts(self) -> list[Host]:
        return [self.server, *self.clients]

    @staticmethod
    def star(
        num_clients: int,
        bandwidth_bps: float = 100 * GBPS,
        mtu: int = 1500,
        buffer_bytes: int = 128 * 1024,
        trimming: bool = False,
        num_app_cores: int = 12,
        num_softirq_cores: int = 4,
        tso_mode: TsoMode = TsoMode.FULL,
        costs: Optional[CostModel] = None,
    ) -> "StarTestbed":
        loop = EventLoop()
        costs = costs or CostModel()
        fabric = ClosFabric(
            loop, num_racks=1, num_spines=1, bandwidth_bps=bandwidth_bps,
            mtu=mtu, buffer_bytes=buffer_bytes, trimming=trimming,
        )
        server = Host(
            loop, "server", make_addr(10, 0, 1, 1), costs,
            num_app_cores=num_app_cores, num_softirq_cores=num_softirq_cores,
        )
        server.attach_nic(
            Nic(loop, fabric.attach_host(0, server.addr), "a", costs, tso_mode=tso_mode)
        )
        clients = []
        for i in range(num_clients):
            client = Host(
                loop, f"client{i}", make_addr(10, 0, 0, 10 + i), costs,
                num_app_cores=num_app_cores, num_softirq_cores=num_softirq_cores,
            )
            client.attach_nic(
                Nic(loop, fabric.attach_host(0, client.addr), "a", costs,
                    tso_mode=tso_mode)
            )
            clients.append(client)
        return StarTestbed(loop, fabric, clients, server)

    def _observe_wiring(self, obs: "Observability") -> None:
        obs.observe_switch(
            self.fabric.leaves[0], {host.addr: host.name for host in self.hosts}
        )


@dataclass
class ClosTestbed(_Bed):
    """N racks x M hosts behind a leaf-spine fabric with ECMP spines.

    The topology the loaded-slowdown workloads run on
    (``repro.load``): cross-rack traffic hashes over the spine tier, so
    tail latency under load reflects multi-hop queueing the way Homa's
    evaluation measures it.  Offers the same opt-in layers as
    :class:`Testbed`: ``enable_obs``, ``enable_ctrl`` and
    ``install_faults``.
    """

    loop: EventLoop
    fabric: ClosFabric
    racks: list[list[Host]]
    rng: random.Random = field(default_factory=lambda: random.Random(0))
    # Installed by :meth:`domain_controller`; kills whole failure domains.
    domains: Optional[object] = None

    @property
    def hosts(self) -> list[Host]:
        """Every host, rack-major order."""
        return [host for rack in self.racks for host in rack]

    def host(self, rack: int, index: int) -> Host:
        return self.racks[rack][index]

    @staticmethod
    def leaf_spine(
        num_racks: int = 3,
        hosts_per_rack: int = 4,
        costs: Optional[CostModel] = None,
        **plan_fields,
    ):
        """Build the fabric and one NIC-attached host per rack slot.

        Every other keyword is a :class:`~repro.sim.shard.ShardPlan` field
        (``num_spines``, ``bandwidth_bps``, ``trunk_bandwidth_bps``,
        ``mtu``, ``buffer_bytes``, ``trunk_buffer_bytes``, ``trimming``,
        ``num_app_cores``, ``num_softirq_cores``, ``tso_mode``, ``seed``,
        ``ecmp_salt``, ...): the plan is the cluster's one parameter list,
        and validates it (``observe`` only acts on a sharded run; call
        :meth:`enable_obs` on a bed).  Host
        ``i`` of rack ``r`` is named ``r{r}h{i}`` and addressed
        ``10.(1+r).0.(1+i)``, so the rack is readable off the address.

        A bed is one event loop, so ``domains > 1`` is rejected: a cluster
        cut into parallel time domains runs through
        :class:`~repro.sim.shard.ShardPlan` and
        :class:`~repro.sim.shard.ShardRunner` directly.
        """
        plan = ShardPlan(
            num_racks=num_racks, hosts_per_rack=hosts_per_rack, **plan_fields
        )
        if plan.domains > 1:
            raise SimulationError(
                "a ClosTestbed is one event loop; run a cluster cut into "
                "time domains through ShardPlan + ShardRunner"
            )
        loop = EventLoop()
        fabric, racks = plan.build(loop, costs=costs)
        return ClosTestbed(loop, fabric, list(racks.values()), random.Random(plan.seed))

    def _observe_wiring(self, obs: "Observability") -> None:
        fabric = self.fabric
        for r, leaf in fabric.leaves.items():
            port_names: dict = {host.addr: host.name for host in self.racks[r]}
            for s in range(fabric.num_spines):
                port_names[f"spine{s}"] = f"leaf{r}.up{s}"
            obs.observe_switch(leaf, port_names)
        for s, spine in enumerate(fabric.spines):
            obs.observe_switch(
                spine, {f"rack{r}": f"spine{s}.down{r}" for r in fabric.leaves}
            )
            obs.metrics.gauge(
                f"clos.spine{s}.packets", lambda s=s: fabric.spine_spread()[s]
            )

    def install_faults(self, faults: FaultConfig, fault_seed: int = 0) -> None:
        """Seeded fault injectors on every leaf egress port toward a host.

        Each host's downlink gets an independent stream (seed offset by
        host index), so fates decorrelate while the whole fabric stays
        replayable from ``fault_seed`` alone.  :attr:`fault_injectors` is
        keyed by host address, :meth:`fault_stats` by host name.
        """
        fabric = self.fabric
        sites = [
            (
                host.addr,
                host.name,
                partial(
                    fabric.leaves[fabric.rack_of(host.addr)].inject_faults, host.addr
                ),
            )
            for host in self.hosts
        ]
        self._install_faults(faults, fault_seed, sites, prefix="to.")

    def domain_controller(self):
        """The bed's failure-domain controller (spine/leaf/replica kills).

        Idempotent.  Enable the control plane *before* asking for the controller if
        replica crashes should tear down session state -- the controller
        captures ``ctrl_planes`` lazily, so order is actually free, but
        crashes only reach planes that exist when the crash happens.
        """
        if self.domains is None:
            self.domains = DomainFaultController(self)
        return self.domains
