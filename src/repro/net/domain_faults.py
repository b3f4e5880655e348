"""Failure-domain incidents: spines, leaves and replicas die whole.

The packet-level fault layer (``repro.net.faults``) flaps links and
corrupts payloads; production incidents are coarser -- a spine switch
loses power and every flow hashed onto it blackholes until the routing
plane reconverges, a leaf dies and its whole rack goes dark, a replica
process crashes and takes its session state and standby keys with it.
:class:`DomainFaultController` drives these against a
:class:`~repro.testbed.ClosTestbed`:

- **spine down** -- the spine :class:`~repro.net.switch.Switch` goes
  dark (queued packets die with its buffers).  Leaves keep steering the
  same flows into the blackhole until *re-convergence*: a manual
  :meth:`~DomainFaultController.reroute`, or -- with :meth:`watch_spines`
  -- a per-spine :class:`HeartbeatMonitor` modelling the routing
  protocol's hello timers, whose detection triggers :meth:`ClosFabric.reconverge
  <repro.net.clos.ClosFabric.reconverge>` (optionally with a fresh ECMP
  salt).  Live flows migrate to surviving spines; flows already on
  survivors keep their path.
- **leaf down** -- rack blackout: hosts behind the leaf can neither send
  nor receive (both the access ports and the spine trunks feed the dead
  switch).
- **replica crash** -- one host's downlink and uplink blackhole and, if
  the testbed runs the ``repro.ctrl`` control plane, the host's
  :class:`~repro.ctrl.session_table.SessionTable` is torn down and its
  standby :class:`~repro.ctrl.keypool.KeyPool` stock is discarded (keys
  die with the process).  Reviving the replica leaves the pools empty,
  so the client re-handshake storm hits admission backpressure and
  keypool misses -- the control-plane load the incident bench measures.

Everything is driven by virtual time and plain state flips: a fixed
schedule replays identically, and the controller's :attr:`log` plus the
``incident``-layer spans pin the event ordering for golden-trace tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import SimulationError

#: Actions that open an incident window / close it again.
DOWN_ACTIONS = ("spine_down", "leaf_down", "replica_crash")
UP_ACTIONS = ("spine_up", "leaf_up", "replica_revive")
#: Delay between a spine-state detection and the leaves' reprogrammed
#: tables (zero: the routing plane pushes the new tables at once).
SPINE_PROGRAM_DELAY = 0.0


class HeartbeatMonitor:
    """Periodic liveness probing with a consecutive-miss threshold.

    The monitor samples a boolean ``probe()`` every ``interval`` seconds;
    after ``miss_threshold`` consecutive misses the target is declared
    down and ``on_down`` fires, and the first successful probe afterwards
    declares it up again via ``on_up``.  Because probes are strictly
    periodic, detection latency is *bounded*: a target that dies at time
    ``t`` is declared down no later than ``t + interval * miss_threshold``
    (first failing probe within one interval, then ``miss_threshold - 1``
    more) -- the bound the property tests assert for every seed, and the
    bound the incident bench's detection-time band is checked against.

    The probe is an oracle function rather than a network RPC on purpose:
    the routing plane's liveness detection (BFD-style hellos) runs on
    dedicated queues that do not share fate with data-plane congestion, so
    modelling it as state sampling is faithful *and* keeps the monitor
    from perturbing the workload under test.
    """

    def __init__(
        self,
        loop,
        probe: Callable[[], bool],
        interval: float,
        miss_threshold: int = 3,
        on_down: Optional[Callable[[], None]] = None,
        on_up: Optional[Callable[[], None]] = None,
        name: str = "",
    ):
        if interval <= 0:
            raise SimulationError(f"heartbeat interval must be > 0, got {interval}")
        if miss_threshold < 1:
            raise SimulationError(
                f"miss threshold must be >= 1, got {miss_threshold}"
            )
        self.loop = loop
        self.probe = probe
        self.interval = interval
        self.miss_threshold = miss_threshold
        self.on_down = on_down
        self.on_up = on_up
        self.name = name
        self.up = True
        self.misses = 0
        self.probes = 0
        #: (virtual_time, "down" | "up") for every declaration.
        self.declarations: list[tuple[float, str]] = []
        self._periodic = None

    @property
    def detection_bound(self) -> float:
        """Worst-case seconds from death to the ``down`` declaration."""
        return self.interval * self.miss_threshold

    def start(self) -> "HeartbeatMonitor":
        """Arm the periodic probe; returns ``self`` for chaining."""
        if self._periodic is None:
            self._periodic = self.loop.every(self.interval, self._tick)
        return self

    def stop(self) -> None:
        if self._periodic is not None:
            self._periodic.cancel()
            self._periodic = None

    def _tick(self) -> None:
        self.probes += 1
        if self.probe():
            self.misses = 0
            if not self.up:
                self.up = True
                self.declarations.append((self.loop.now, "up"))
                if self.on_up is not None:
                    self.on_up()
            return
        self.misses += 1
        if self.up and self.misses >= self.miss_threshold:
            self.up = False
            self.declarations.append((self.loop.now, "down"))
            if self.on_down is not None:
                self.on_down()


@dataclass(frozen=True)
class IncidentEvent:
    """One scripted step of an incident timeline.

    ``at`` is seconds of virtual time relative to the moment the schedule
    is armed; ``action`` is a :class:`DomainFaultController` method name
    (``spine_down``, ``replica_crash``, ...); ``target`` is the spine or
    rack index, or the host index in :attr:`ClosTestbed.hosts` order.
    """

    at: float
    action: str
    target: int

    def describe(self) -> str:
        return f"t+{self.at * 1e6:.1f}us {self.action}({self.target})"


class DomainFaultController:
    """Kill and revive whole failure domains on a :class:`ClosTestbed`."""

    def __init__(self, bed):
        self.bed = bed
        self.loop = bed.loop
        self.fabric = bed.fabric
        #: Chronological (virtual_time, action, label) tuples.
        self.log: list[tuple[float, str, str]] = []
        #: Domain label -> virtual time a watcher declared it down.
        self.detections: dict[str, float] = {}
        #: Domain label -> virtual time the fault was injected.
        self.fault_times: dict[str, float] = {}
        self._crashed_hosts: set[int] = set()  # addrs
        self._spans: dict[str, object] = {}
        self._watchers: list = []
        self._on_revive: list[Callable[[int], None]] = []
        self.reroutes = 0

    # -- bookkeeping ------------------------------------------------------------

    def _record(self, action: str, label: str) -> None:
        self.log.append((self.loop.now, action, label))

    def _open_span(self, label: str) -> None:
        obs = self.loop.obs
        if obs is not None:
            self._spans[label] = obs.tracer.begin("incident", label)

    def _close_span(self, label: str) -> None:
        span = self._spans.pop(label, None)
        if span is not None:
            self.loop.obs.tracer.end(span)

    def render_log(self) -> str:
        """The event log as stable text (golden-trace material)."""
        return "\n".join(
            f"{t * 1e6:10.2f}us  {action:<16} {label}" for t, action, label in self.log
        )

    # -- spine incidents --------------------------------------------------------

    def spine_down(self, spine: int) -> None:
        label = f"spine{spine}"
        self.fabric.fail_spine(spine)
        self.fault_times[label] = self.loop.now
        self._record("spine_down", label)
        self._open_span(f"{label}.down")

    def spine_up(self, spine: int) -> None:
        label = f"spine{spine}"
        self.fabric.restore_spine(spine)
        self._record("spine_up", label)
        self._close_span(f"{label}.down")

    def reroute(self, salt: Optional[int] = None) -> None:
        """Reconverge the fabric's ECMP tables around the live spines."""
        live = self.fabric.reconverge(salt=salt)
        self.reroutes += 1
        self._record("reroute", "spines=" + ",".join(map(str, live)))

    def watch_spines(
        self,
        interval: float,
        miss_threshold: int = 2,
        resalt: bool = False,
    ) -> list:
        """Heartbeat-driven spine failure detection and re-convergence.

        Models the routing plane's hello timers: every spine is probed
        each ``interval``; after ``miss_threshold`` consecutive misses the
        spine is declared down (detection recorded) and the leaves'
        tables are reprogrammed :data:`SPINE_PROGRAM_DELAY` later.  Recovery is
        detected the same way and folds the spine back in.  With
        ``resalt`` each re-convergence also rotates the ECMP salt, so the
        whole flow population reshuffles instead of only migrating the
        orphaned flows.
        """
        monitors = []
        for s in range(self.fabric.num_spines):
            label = f"spine{s}"

            def on_down(label=label) -> None:
                self.detections[label] = self.loop.now
                self._record("detected_down", label)
                self.loop.timer_later(
                    SPINE_PROGRAM_DELAY, self._programmed_reroute, resalt
                )

            def on_up(label=label) -> None:
                self._record("detected_up", label)
                self.loop.timer_later(
                    SPINE_PROGRAM_DELAY, self._programmed_reroute, resalt
                )

            monitors.append(
                HeartbeatMonitor(
                    self.loop,
                    probe=lambda s=s: self.fabric.spine_up(s),
                    interval=interval,
                    miss_threshold=miss_threshold,
                    on_down=on_down,
                    on_up=on_up,
                    name=f"hb.{label}",
                ).start()
            )
        self._watchers.extend(monitors)
        return monitors

    def _programmed_reroute(self, resalt: bool) -> None:
        self.reroute(salt=self.fabric.ecmp_salt + 1 if resalt else None)

    # -- leaf incidents ---------------------------------------------------------

    def leaf_down(self, rack: int) -> None:
        label = f"leaf{rack}"
        self.fabric.fail_leaf(rack)
        self.fault_times[label] = self.loop.now
        self._record("leaf_down", label)
        self._open_span(f"{label}.down")

    def leaf_up(self, rack: int) -> None:
        label = f"leaf{rack}"
        self.fabric.restore_leaf(rack)
        self._record("leaf_up", label)
        self._close_span(f"{label}.down")

    # -- replica incidents ------------------------------------------------------

    def _host(self, index: int):
        hosts = self.bed.hosts
        if not 0 <= index < len(hosts):
            raise SimulationError(f"host index {index} out of range")
        return hosts[index]

    def replica_crash(self, host_index: int) -> None:
        """Kill one host: blackhole both directions, tear down its plane."""
        host = self._host(host_index)
        if host.addr in self._crashed_hosts:
            return
        self._crashed_hosts.add(host.addr)
        leaf = self.fabric.leaves[self.fabric.rack_of(host.addr)]
        leaf.set_port_down(host.addr, True)
        self.fabric.port(host.addr).set_loss_fn("a", _drop_all)
        if self.bed.ctrl_planes is not None:
            self.bed.ctrl_planes[host_index].crash()
        self.fault_times[host.name] = self.loop.now
        self._record("replica_crash", host.name)
        self._open_span(f"{host.name}.crash")

    def replica_revive(self, host_index: int) -> None:
        """Revive a crashed host.  Its control plane restarts *cold*:
        empty key pools and an empty session table, so re-handshakes pay
        for key generation until the refill timers catch up."""
        host = self._host(host_index)
        if host.addr not in self._crashed_hosts:
            return
        self._crashed_hosts.discard(host.addr)
        leaf = self.fabric.leaves[self.fabric.rack_of(host.addr)]
        leaf.set_port_down(host.addr, False)
        self.fabric.port(host.addr).set_loss_fn("a", None)
        if self.bed.ctrl_planes is not None:
            self.bed.ctrl_planes[host_index].restart()
        self._record("replica_revive", host.name)
        self._close_span(f"{host.name}.crash")
        for hook in self._on_revive:
            hook(host_index)

    def on_replica_revive(self, hook: Callable[[int], None]) -> None:
        self._on_revive.append(hook)

    # -- oracles (heartbeat probes sample these at their own cadence) ----------

    def is_host_up(self, addr: int) -> bool:
        """Reachability oracle: the host runs and its rack's leaf is up."""
        if addr in self._crashed_hosts:
            return False
        return self.fabric.leaf_up(self.fabric.rack_of(addr))

    # -- scheduling -------------------------------------------------------------

    def schedule(self, events, offset: float = 0.0) -> None:
        """Arm a timeline of :class:`IncidentEvent`; times are relative to
        ``loop.now + offset``."""
        for event in events:
            method = getattr(self, event.action, None)
            if method is None or event.action.startswith("_"):
                raise SimulationError(f"unknown incident action {event.action!r}")
            self.loop.timer_later(offset + event.at, method, event.target)

    def stop(self) -> None:
        """Cancel the spine watchers (teardown)."""
        for monitor in self._watchers:
            monitor.stop()
        self._watchers.clear()


def _drop_all(packet) -> bool:
    return True


#: No seeded incident starts after this virtual time.
SCHEDULE_HORIZON = 2.0e-3


def domain_schedule_from_seed(
    seed: int,
    num_spines: int,
    num_racks: int,
    num_hosts: int,
) -> list[IncidentEvent]:
    """A random-but-survivable kill+revive schedule derived from ``seed``.

    Used by the domain-fault fuzz mode: incidents are sequential (one
    domain dead at a time), every kill is revived before the next
    incident, and at least one spine always survives -- so Homa's resends
    can always win eventually, while the mix covers spine, leaf and
    replica domains.  The same seed always yields the same schedule.
    """
    rng = random.Random(seed * 7919 + 13)
    events: list[IncidentEvent] = []
    t = rng.uniform(0.10e-3, 0.30e-3)
    kinds = ["spine", "replica", "spine", "replica", "leaf"]
    for _ in range(rng.randint(1, 3)):
        if t >= SCHEDULE_HORIZON:
            break
        kind = rng.choice(kinds)
        duration = rng.uniform(0.08e-3, 0.35e-3)
        if kind == "spine" and num_spines > 1:
            s = rng.randrange(num_spines)
            events.append(IncidentEvent(t, "spine_down", s))
            events.append(IncidentEvent(t + duration, "spine_up", s))
        elif kind == "leaf" and num_racks > 1:
            r = rng.randrange(num_racks)
            events.append(IncidentEvent(t, "leaf_down", r))
            events.append(IncidentEvent(t + duration, "leaf_up", r))
        else:
            h = rng.randrange(num_hosts)
            events.append(IncidentEvent(t, "replica_crash", h))
            events.append(IncidentEvent(t + duration, "replica_revive", h))
        t += duration + rng.uniform(0.15e-3, 0.45e-3)
    return events
