"""Heartbeat-driven failure detection on the virtual clock.

A monitor samples a boolean ``probe()`` every ``interval`` seconds; after
``miss_threshold`` consecutive misses the target is declared down and
``on_down`` fires, and the first successful probe afterwards declares it
up again via ``on_up``.  Because probes are strictly periodic, detection
latency is *bounded*: a target that dies at time ``t`` is declared down
no later than ``t + interval * miss_threshold`` (first failing probe
within one interval, then ``miss_threshold - 1`` more) -- the bound the
property tests assert for every seed, and the bound the incident bench's
detection-time band is checked against.

The probe is an oracle function rather than a network RPC on purpose:
the routing plane's liveness detection (BFD-style hellos) runs on
dedicated queues that do not share fate with data-plane congestion, so
modelling it as state sampling is faithful *and* keeps the monitor from
perturbing the workload under test.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import SimulationError


class HeartbeatMonitor:
    """Periodic liveness probing with a consecutive-miss threshold."""

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
