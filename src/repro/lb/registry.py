"""Service discovery: one logical name -> N replica hosts, via DNS.

The paper's 0-RTT story already leans on the internal DNS for ticket
distribution (§4.5.2); a replicated service leans on the *same* resolver
for membership.  :class:`ServiceRegistry` publishes a
:class:`ServiceRecord` -- the ordered live-replica list -- under
``<service>.replicas`` with a bounded TTL, and republishes it on every
membership change plus periodically to keep the record from expiring.
Health verdicts arrive through :meth:`set_health` (driven by
:class:`repro.lb.health.HealthChecker`); only healthy replicas appear in
the published record, so resolvers stop steering new work at a dead
replica within one TTL + detection bound.
"""

from __future__ import annotations

from dataclasses import dataclass


def record_name(service: str) -> str:
    """The DNS name membership is published under."""
    return f"{service}.replicas"


@dataclass(frozen=True)
class ServiceRecord:
    """One published membership snapshot."""

    service: str
    replicas: tuple  # live replica ids (host addrs), registration order
    version: int


class ServiceRegistry:
    """Publishes health-gated membership for one service through DNS."""

    def __init__(self, loop, dns, service: str, ttl: float = 400e-6):
        self.loop = loop
        self.dns = dns
        self.service = service
        self.ttl = ttl
        # Refresh well inside the TTL so a quiet (change-free) service
        # never lets its membership record expire.
        self.publish_period = ttl / 2
        self._order: list = []  # registration order
        self._healthy: dict = {}  # rid -> bool
        self.version = 0
        self.publishes = 0
        self.membership_changes = 0
        #: (virtual time, event, replica id) -- rendered by goldens.
        self.log: list[tuple[float, str, object]] = []
        self._periodic = None
        self._down_spans: dict = {}  # rid -> open "lb.replica.down" span

    # -- membership ------------------------------------------------------------

    def register(self, rid) -> None:
        if rid in self._healthy:
            return
        self._order.append(rid)
        self._healthy[rid] = True
        self.membership_changes += 1
        self.log.append((self.loop.now, "register", rid))
        self.publish()

    def set_health(self, rid, up: bool) -> bool:
        """Record a health verdict; returns True if membership changed."""
        if rid not in self._healthy or self._healthy[rid] == up:
            return False
        self._healthy[rid] = up
        self.membership_changes += 1
        self.log.append((self.loop.now, "up" if up else "down", rid))
        obs = self.loop.obs
        if up:
            span = self._down_spans.pop(rid, None)
            if span is not None:
                obs.tracer.end(span)
        elif obs is not None:
            self._down_spans[rid] = obs.tracer.begin(
                "lb", "lb.replica.down", service=self.service, replica=str(rid)
            )
        self.publish()
        return True

    def live(self) -> tuple:
        return tuple(rid for rid in self._order if self._healthy[rid])

    def members(self) -> tuple:
        return tuple(self._order)

    def is_healthy(self, rid) -> bool:
        return bool(self._healthy.get(rid, False))

    # -- publication -----------------------------------------------------------

    def publish(self) -> ServiceRecord:
        self.version += 1
        record = ServiceRecord(self.service, self.live(), self.version)
        self.dns.publish(
            record_name(self.service), record, self.loop.now, ttl=self.ttl
        )
        self.publishes += 1
        return record

    def start(self):
        """Periodic TTL-refreshing republish."""
        if self._periodic is None:
            self._periodic = self.loop.every(self.publish_period, self.publish)
        return self._periodic

    def stop(self) -> None:
        if self._periodic is not None:
            self._periodic.cancel()
            self._periodic = None

    def resolve(self, loop):
        """Resolver-side lookup charging DNS latency (generator)."""
        record = yield from self.dns.resolve(record_name(self.service), loop)
        return record

    # -- observability ---------------------------------------------------------

    def render_log(self) -> str:
        lines = [
            f"{t * 1e6:10.1f}us  {event:<10} {rid}" for t, event, rid in self.log
        ]
        return "\n".join(lines)

    def bind_obs(self, obs, name: str = "lb") -> None:
        m = obs.metrics
        s = f"{name}.{self.service}"
        m.gauge(f"{s}.replicas.registered", lambda: len(self._order))
        m.gauge(f"{s}.replicas.live", lambda: len(self.live()))
        m.gauge(f"{s}.membership.changes", lambda: self.membership_changes)
        m.gauge(f"{s}.publishes", lambda: self.publishes)
