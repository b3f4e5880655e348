"""Open-loop load through a scripted failure-domain incident.

:class:`IncidentEngine` extends the loaded-slowdown engine
(:class:`~repro.load.engine.OpenLoopEngine`) with an incident timeline:
the :class:`~repro.net.domain_faults.DomainFaultController` kills a
spine, a leaf or a replica mid-run and revives it later, while the
Poisson arrivals keep coming (open loop -- an outage does not throttle
offered load, it *stacks* it).  Every RPC is tagged by the phase it was
issued in -- ``before`` the fault, ``during`` the outage window, or
``after`` the revival -- and the per-phase slowdown histograms are the
experiment's core output: p99-during is what an incident does to the
tail, and p99-after shows whether the system actually re-converged.

The engine optionally wraps every call in a
:class:`~repro.resilience.kit.ResilienceKit` (per-attempt deadlines,
budgeted retries, breakers, heartbeat fail-fast) -- running the same
seeded timeline with the kit on and off isolates exactly what the kit
buys during re-convergence.  For replica crashes with the ``repro.ctrl``
control plane enabled, the revival triggers a re-handshake storm: every
surviving host re-establishes its session against the cold-restarted
replica through :class:`~repro.resilience.handshake.SessionReestablisher`,
and the resulting admission refusals and inline keygens are reported as
control-plane load.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ReproError
from repro.load.engine import OpenLoopEngine
from repro.net.domain_faults import (
    DOWN_ACTIONS,
    UP_ACTIONS,
    DomainFaultController,
    IncidentEvent,
)
from repro.resilience.handshake import SessionReestablisher
from repro.resilience.kit import ResilienceKit
from repro.sim.trace import Histogram

PHASES = ("before", "during", "after")
#: Per-attempt deadline = max(kit's floor, this x baseline RTT): a big
#: message's legitimate RTT scales with its size, so a flat deadline would
#: false-fire on the largest healthy messages.
DEADLINE_BASELINE_FACTOR = 6.0


@dataclass
class IncidentMetrics:
    """What the incident did, on top of the usual load result."""

    #: Virtual times of the first kill and the last revival, relative to
    #: the start of load.
    fault_at: float = 0.0
    revive_at: float = 0.0
    #: Seconds from the kill to the first watcher's ``down`` declaration
    #: (heartbeat detection); None when nothing watched the domain.
    detection_time: Optional[float] = None
    #: Seconds past the revival until the last RPC *issued during the
    #: outage* completed -- how long the backlog took to clear.
    recovery_time: float = 0.0
    phase_slowdowns: dict = field(default_factory=dict)  # phase -> Histogram
    phase_issued: dict = field(default_factory=dict)
    phase_completed: dict = field(default_factory=dict)
    phase_failed: dict = field(default_factory=dict)
    #: Packets that died inside dead switches/ports.
    blackholed: int = 0
    reconvergences: int = 0
    kit: Optional[dict] = None
    rehandshake: Optional[dict] = None

    def phase_p99(self, phase: str) -> float:
        hist = self.phase_slowdowns.get(phase)
        return hist.p99() if hist is not None and len(hist) else 0.0


class IncidentEngine(OpenLoopEngine):
    """Drive load through one scripted incident, with or without the kit."""

    def __init__(
        self,
        harness,
        distribution,
        load: float,
        duration: float,
        controller: DomainFaultController,
        timeline: list[IncidentEvent],
        kit: Optional[ResilienceKit] = None,
        reestablish_sessions: bool = False,
        seed: int = 0,
        **kwargs,
    ):
        super().__init__(harness, distribution, load, duration, seed=seed, **kwargs)
        if controller.bed is not harness.bed:
            raise ReproError("controller and harness must share one testbed")
        downs = [e.at for e in timeline if e.action in DOWN_ACTIONS]
        ups = [e.at for e in timeline if e.action in UP_ACTIONS]
        if not downs or not ups:
            raise ReproError("an incident timeline needs a kill and a revival")
        if max(ups) >= duration:
            raise ReproError("the revival must land inside the loaded window")
        self.controller = controller
        self.timeline = timeline
        self.kit = kit
        self.reestablish_sessions = reestablish_sessions
        self.metrics = IncidentMetrics(fault_at=min(downs), revive_at=max(ups))
        for phase in PHASES:
            self.metrics.phase_slowdowns[phase] = Histogram(f"incident.{phase}")
            self.metrics.phase_issued[phase] = 0
            self.metrics.phase_completed[phase] = 0
            self.metrics.phase_failed[phase] = 0
        self._load_start = 0.0
        self._last_during_done: Optional[float] = None
        self._reestablisher: Optional[SessionReestablisher] = None
        if reestablish_sessions:
            if harness.bed.ctrl_planes is None:
                raise ReproError(
                    "session re-establishment needs bed.enable_ctrl() first"
                )
            self._reestablisher = SessionReestablisher(
                harness.bed.loop, seed=seed + 17
            )
            controller.on_replica_revive(self._rehandshake_storm)

    # -- resilience-kit wiring ---------------------------------------------------

    def watch_hosts(self) -> None:
        """Heartbeat failure detection for every destination host.

        Probes the controller's reachability oracle (replica up and its
        leaf alive), so replica crashes and rack blackouts fail fast
        instead of burning per-attempt deadlines.  No-op without a kit.
        """
        if self.kit is None:
            return
        for idx, host in enumerate(self.harness.hosts):
            self.kit.watch(
                idx, lambda addr=host.addr: self.controller.is_host_up(addr)
            )

    # -- the re-handshake storm --------------------------------------------------

    def _rehandshake_storm(self, crashed_index: int) -> None:
        """Every surviving host re-handshakes the revived replica at once."""
        planes = self.bed.ctrl_planes
        loop = self.bed.loop
        for client in range(len(self.harness.hosts)):
            if client == crashed_index:
                continue

            def storm(client=client):
                thread = self.harness.thread_for(client, self._next_serial(client))
                yield from self._reestablisher.reestablish(
                    thread,
                    planes[client],
                    planes[crashed_index],
                    key=(client, crashed_index),
                )

            loop.process(storm())

    # -- phase-tagged RPCs: an RPC belongs to the phase it was issued in ----------

    def _phase(self, at: float) -> str:
        rel = at - self._load_start
        if rel < self.metrics.fault_at:
            return "before"
        if rel < self.metrics.revive_at:
            return "during"
        return "after"

    def _invoke(self, stream, src, dst, thread, request, base):
        # Runs in the RPC's own process at the instant it was issued.
        self.metrics.phase_issued[self._phase(self.loop.now)] += 1
        if self.kit is None:
            return stream.call(src, dst, thread, request)
        return self.kit.call(
            lambda deadline: stream.call(
                src, dst, thread, request, timeout=deadline
            ),
            dst=dst,
            caller=src,
            on_open="wait",
            timeout=max(
                self.kit.config.attempt_timeout,
                DEADLINE_BASELINE_FACTOR * base,
            ),
        )

    def _completed(self, stream, src, dst, size, serial, t0, slowdown):
        super()._completed(stream, src, dst, size, serial, t0, slowdown)
        phase = self._phase(t0)
        self.metrics.phase_slowdowns[phase].record(slowdown)
        self.metrics.phase_completed[phase] += 1
        if phase == "during":
            self._last_during_done = self.loop.now

    def _failed(self, stream, src, dst, size, serial, t0):
        self.metrics.phase_failed[self._phase(t0)] += 1

    # -- the run -----------------------------------------------------------------

    def run(self):
        """Calibrate on the healthy fabric, arm the incident, drive load."""
        if not self.result.baseline_rtt:
            self.calibrate()
        loop = self.bed.loop
        self._load_start = loop.now
        self.watch_hosts()
        self.controller.schedule(self.timeline)
        super().run()
        self._finalise_metrics()
        return self.result

    def _finalise_metrics(self) -> None:
        m = self.metrics
        fault_wall = self._load_start + m.fault_at
        revive_wall = self._load_start + m.revive_at
        detections = []
        for label, detected_at in self.controller.detections.items():
            injected = self.controller.fault_times.get(label)
            if injected is not None:
                detections.append(detected_at - injected)
        if self.kit is not None:
            for monitor in self.kit._monitors.values():
                for declared_at, verdict in monitor.declarations:
                    if verdict == "down" and declared_at >= fault_wall:
                        detections.append(declared_at - fault_wall)
        if detections:
            m.detection_time = min(detections)
        if self._last_during_done is not None:
            m.recovery_time = max(0.0, self._last_during_done - revive_wall)
        stats = self.bed.fabric.stats()
        m.blackholed = stats["leaf"]["blackholed"] + stats["spine"]["blackholed"]
        m.reconvergences = self.bed.fabric.reconvergences
        if self.kit is not None:
            kit = self.kit
            m.kit = {
                "calls": kit.calls,
                "retries": kit.retries,
                "fail_fast": kit.fail_fast,
                "parked": kit.parked,
                "fallbacks": kit.fallbacks,
                "exhausted": kit.exhausted,
                "budget_denied": kit.budget.denied,
            }
        if self._reestablisher is not None:
            re = self._reestablisher
            m.rehandshake = {
                "completed": re.completed,
                "admission_retries": re.admission_retries,
                "client_inline_keygens": re.client_inline_keygens,
                "server_inline_keygens": re.server_inline_keygens,
                "max_duration": max(re.durations) if re.durations else 0.0,
            }
