"""The internal DNS resolver.

Paper §4.5.2: the client performs a DNS query to retrieve the *SMT-ticket*
-- the server's long-term ECDH share, its certificate and a signature.
"The datacenter or cloud provider could operate its own root CA that also
acts as the internal DNS resolver."  Queries can happen long before a
handshake ("server information is often known in advance"), so the
resolver serves published records with an optional lookup latency:
:meth:`InternalDns.resolve` charges it through the event loop, while the
synchronous :meth:`InternalDns.query` path stays free for prefetched
tickets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ProtocolError


@dataclass
class DnsRecord:
    """One published record: opaque payload plus its expiry."""

    name: str
    payload: object
    published_at: float
    ttl: float

    def expired(self, now: float) -> bool:
        return now > self.published_at + self.ttl


@dataclass
class InternalDns:
    """An in-datacenter resolver mapping service names to SMT-tickets."""

    lookup_latency: float = 0.0  # virtual seconds per query (0 = prefetched)
    _records: dict[str, DnsRecord] = field(default_factory=dict)
    queries: int = 0
    expired_reaped: int = 0

    def _reap(self, now: float) -> None:
        """Purge expired records so the table stays bounded."""
        stale = [name for name, rec in self._records.items() if rec.expired(now)]
        for name in stale:
            del self._records[name]
        self.expired_reaped += len(stale)

    def publish(self, name: str, payload: object, now: float, ttl: float = 3600.0) -> None:
        """Publish/refresh a record (servers rotate tickets hourly, §4.5.3)."""
        self._reap(now)
        self._records[name] = DnsRecord(name, payload, now, ttl)

    def query(self, name: str, now: float) -> object:
        """Resolve ``name`` synchronously; raises if absent or expired."""
        self.queries += 1
        record = self._records.get(name)
        self._reap(now)
        if record is None:
            raise ProtocolError(f"no DNS record for {name!r}")
        if record.expired(now):
            raise ProtocolError(f"DNS record for {name!r} expired")
        return record.payload

    def resolve(self, name: str, loop):
        """Generator query charging ``lookup_latency`` through the loop.

        With zero latency it yields nothing, so ``yield from`` degenerates
        to the synchronous prefetched-ticket path.
        """
        if self.lookup_latency > 0:
            obs = loop.obs
            span = None
            if obs is not None:
                span = obs.tracer.begin("dns", "dns.lookup", record=name)
            yield loop.timeout(self.lookup_latency)
            if obs is not None:
                obs.tracer.end(span)
        return self.query(name, loop.now)

    def bind_obs(self, obs, name: str = "dns") -> None:
        """Expose resolver state as registry gauges."""
        m = obs.metrics
        m.gauge(f"{name}.records", lambda: len(self._records))
        m.gauge(f"{name}.queries", lambda: self.queries)
        m.gauge(f"{name}.expired_reaped", lambda: self.expired_reaped)
