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

For replica crashes with the ``repro.ctrl`` control plane enabled, the
revival triggers a re-handshake storm: every surviving host runs a full
TLS 1.3 handshake (:meth:`~repro.core.endpoint.SmtEndpoint.connect`)
against an endpoint on the cold-restarted replica, each side on its
host's plane and SMT transport, and the planes' admission refusals and
key-pool misses are reported as control-plane load (§4.5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.endpoint import SmtEndpoint
from repro.crypto.ca import fixed_pki
from repro.errors import ReproError
from repro.load.engine import OpenLoopEngine
from repro.net.domain_faults import (
    DOWN_ACTIONS,
    UP_ACTIONS,
    DomainFaultController,
    IncidentEvent,
)
from repro.sim.trace import Histogram
from repro.tls.handshake import ServerCredentials

PHASES = ("before", "during", "after")
#: The name the revived replica's certificate carries in the storm.
REPLICA_NAME = "replica.dc.internal"


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
    phase_failed: dict = field(default_factory=dict)
    #: Packets that died inside dead switches/ports.
    blackholed: int = 0
    reconvergences: int = 0
    rehandshake: Optional[dict] = None

    def phase_p99(self, phase: str) -> float:
        hist = self.phase_slowdowns.get(phase)
        return hist.p99() if hist is not None and len(hist) else 0.0


class IncidentEngine(OpenLoopEngine):
    """Drive load through one scripted incident."""

    def __init__(
        self,
        harness,
        distribution,
        load: float,
        duration: float,
        controller: DomainFaultController,
        timeline: list[IncidentEvent],
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
        self.metrics = IncidentMetrics(fault_at=min(downs), revive_at=max(ups))
        for phase in PHASES:
            self.metrics.phase_slowdowns[phase] = Histogram(f"incident.{phase}")
            self.metrics.phase_failed[phase] = 0
        self._load_start = 0.0
        self._last_during_done: Optional[float] = None
        self._storm: list = []  # one connect process per surviving host
        self._storm_replica: Optional[int] = None
        if reestablish_sessions:
            if harness.bed.ctrl_planes is None:
                raise ReproError(
                    "session re-establishment needs bed.enable_ctrl() first"
                )
            controller.on_replica_revive(self._rehandshake_storm)

    # -- the re-handshake storm --------------------------------------------------

    def _rehandshake_storm(self, crashed_index: int) -> None:
        """Every surviving host re-handshakes the revived replica at once.

        The replica's one responder serves the hellos in turn, drawing
        each server share from its restarted (empty) pool; a miss pays
        keygen inline, and the pool's refill timer restocks between hellos.
        """
        planes = self.bed.ctrl_planes
        hosts = self.harness.hosts
        replica, plane = hosts[crashed_index], planes[crashed_index]
        ca, chain, key = fixed_pki(REPLICA_NAME)
        roots = (ca.certificate,)
        server = SmtEndpoint(replica, replica.alloc_port(), ctrl=plane)
        server.listen(
            replica.app_thread(0),
            ServerCredentials(chain=chain, signing_key=key),
            lambda: plane.handshake_config(trust_roots=roots),
        )
        self._storm_replica = crashed_index
        for client, host in enumerate(hosts):
            if client == crashed_index:
                continue
            endpoint = SmtEndpoint(host, host.alloc_port(), ctrl=planes[client])
            config = planes[client].handshake_config(
                server_name=REPLICA_NAME, trust_roots=roots
            )
            thread = self.harness.thread_for(client, self._next_serial(client))
            self._storm.append(self.loop.process(
                endpoint.connect(thread, replica.addr, server.port, config)
            ))

    # -- phase-tagged RPCs: an RPC belongs to the phase it was issued in ----------

    def _phase(self, at: float) -> str:
        rel = at - self._load_start
        if rel < self.metrics.fault_at:
            return "before"
        if rel < self.metrics.revive_at:
            return "during"
        return "after"

    def _completed(self, stream, src, dst, size, serial, t0, slowdown):
        super()._completed(stream, src, dst, size, serial, t0, slowdown)
        phase = self._phase(t0)
        self.metrics.phase_slowdowns[phase].record(slowdown)
        if phase == "during":
            self._last_during_done = self.loop.now

    def _failed(self, stream, src, dst, size, serial, t0):
        self.metrics.phase_failed[self._phase(t0)] += 1

    def _outstanding(self) -> bool:
        # The drain also waits out the storm: real handshakes outlast the
        # loaded window.
        return super()._outstanding() or any(not p.triggered for p in self._storm)

    # -- the run -----------------------------------------------------------------

    def run(self):
        """Calibrate on the healthy fabric, arm the incident, drive load."""
        if not self.result.baseline_rtt:
            self.calibrate()
        loop = self.bed.loop
        self._load_start = loop.now
        self.controller.schedule(self.timeline)
        super().run()
        self._finalise_metrics()
        return self.result

    def _finalise_metrics(self) -> None:
        m = self.metrics
        revive_wall = self._load_start + m.revive_at
        detections = []
        for label, detected_at in self.controller.detections.items():
            injected = self.controller.fault_times.get(label)
            if injected is not None:
                detections.append(detected_at - injected)
        if detections:
            m.detection_time = min(detections)
        if self._last_during_done is not None:
            m.recovery_time = max(0.0, self._last_during_done - revive_wall)
        stats = self.bed.fabric.stats()
        m.blackholed = stats["leaf"]["blackholed"] + stats["spine"]["blackholed"]
        m.reconvergences = self.bed.fabric.reconvergences
        if self._storm_replica is not None:
            planes = self.bed.ctrl_planes
            server = planes[self._storm_replica]
            done = [p.value for p in self._storm if p.triggered and p.ok]
            m.rehandshake = {
                "completed": len(done),
                "admission_refused": server.table.admission_refused,
                "client_inline_keygens": sum(
                    p.ecdh_pool.misses for p in planes if p is not server
                ),
                "server_inline_keygens": server.ecdh_pool.misses,
                "max_duration": max(
                    (s.finished_at - s.started_at for s in done), default=0.0
                ),
            }
