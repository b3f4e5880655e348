"""Probe-driven replica health with hysteresis damping.

A naive checker (one missed probe -> down, one success -> up) turns any
flapping replica into *herd migration*: every verdict flip republishes
membership, consistent-hash reassigns the flapped replica's keys, and
the whole key range it owns sloshes back and forth at probe frequency.
:class:`HealthChecker` damps it with hysteresis: :data:`DOWN_MISSES`
consecutive failures to declare down, :data:`UP_SUCCESSES` consecutive
successes to declare up.  An alternating pass/fail probe schedule
produces *zero* transitions -- the no-flap invariant the property suite
pins.

Probes are oracle callables (e.g. ``DomainFaultController.is_host_up``)
sampled every ``interval``; detection bound for a cleanly-dead replica
is ``interval * DOWN_MISSES``, mirroring
:class:`repro.resilience.heartbeat.HeartbeatMonitor`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

#: Consecutive failed probes that declare a replica down.
DOWN_MISSES = 2
#: Consecutive successful probes that declare it up again.
UP_SUCCESSES = 2


@dataclass
class _ReplicaHealth:
    probe: Callable[[], bool]
    up: bool = True
    ok_streak: int = 0
    fail_streak: int = 0


class HealthChecker:
    """Drives a :class:`ServiceRegistry`'s membership from probes."""

    def __init__(self, loop, registry, interval: float):
        self.loop = loop
        self.registry = registry
        self.interval = interval
        self._targets: dict = {}  # rid -> _ReplicaHealth
        self.probes = 0
        self.transitions = 0
        #: (virtual time, rid, "up"/"down") -- every committed transition.
        self.declarations: list[tuple[float, object, str]] = []
        self._periodic = None

    @property
    def detection_bound(self) -> float:
        return self.interval * DOWN_MISSES

    def watch(self, rid, probe: Callable[[], bool]) -> None:
        self._targets[rid] = _ReplicaHealth(probe=probe)

    def start(self):
        if self._periodic is None:
            self._periodic = self.loop.every(self.interval, self._tick)
        return self._periodic

    def stop(self) -> None:
        if self._periodic is not None:
            self._periodic.cancel()
            self._periodic = None

    def _tick(self) -> None:
        now = self.loop.now
        for rid, st in self._targets.items():
            self.probes += 1
            if st.probe():
                st.ok_streak += 1
                st.fail_streak = 0
                if not st.up and st.ok_streak >= UP_SUCCESSES:
                    self._flip(rid, st, True, now)
            else:
                st.fail_streak += 1
                st.ok_streak = 0
                if st.up and st.fail_streak >= DOWN_MISSES:
                    self._flip(rid, st, False, now)

    def _flip(self, rid, st: _ReplicaHealth, up: bool, now: float) -> None:
        st.up = up
        st.ok_streak = 0
        st.fail_streak = 0
        self.transitions += 1
        self.declarations.append((now, rid, "up" if up else "down"))
        self.registry.set_health(rid, up)

    def bind_obs(self, obs, name: str = "lb") -> None:
        m = obs.metrics
        m.gauge(f"{name}.health.probes", lambda: self.probes)
        m.gauge(f"{name}.health.transitions", lambda: self.transitions)
