"""Scheduled SMT-ticket rotation and client-side ticket refresh (§4.5.3).

The paper bounds the exposure of the 0-RTT long-term share by rotating it
"with a maximum lifetime of one hour" and republishing the fresh ticket
through the internal DNS.  :class:`TicketRotator` drives that schedule on
the event loop; a grace window on the server keeps 0-RTT attempts built
against the *previous* share working while clients catch up.
:class:`TicketCache` is the client half: it refreshes a cached ticket
through DNS before it expires, so connects never hold a stale one.
"""

from __future__ import annotations

import random
from typing import Any, Generator, Optional

from repro.crypto.ecdh import EcdhKeyPair
from repro.errors import ProtocolError


class TicketRotator:
    """Rotate a :class:`ZeroRttServer`'s share and republish via DNS."""

    def __init__(
        self,
        loop,
        zserver,
        dns,
        dns_name: str,
        period: Optional[float] = None,
        grace: Optional[float] = None,
        ttl: Optional[float] = None,
    ):
        self.loop = loop
        self.zserver = zserver
        self.dns = dns
        self.dns_name = dns_name
        self.period = zserver.lifetime if period is None else period
        if grace is not None:
            zserver.grace_window = grace
        self.ttl = self.period if ttl is None else ttl
        self.rotations = 0
        self._periodic = None

    def start(self):
        """Publish the first ticket now, then republish every period."""
        if self._periodic is not None:
            return self._periodic
        self._publish()
        self._periodic = self.loop.every(self.period, self._publish)
        return self._periodic

    def stop(self) -> None:
        if self._periodic is not None:
            self._periodic.cancel()
            self._periodic = None

    def _publish(self) -> None:
        now = self.loop.now
        ticket = self.zserver.rotate(now)
        self.dns.publish(self.dns_name, ticket, now, ttl=self.ttl)
        self.rotations += 1


class SharedShareRotator:
    """One logical service's long-term share, rotated across N replicas.

    The replicated-service front end (``repro.lb``) puts N replica hosts
    behind one DNS name.  If every replica rotated its own long-term
    share, a ticket minted by replica A would be rejected by replica B
    and DNS-distributed 0-RTT would silently degrade into per-replica
    session affinity.  This rotator makes tickets *portable*: each
    period it generates a single :class:`EcdhKeyPair`, installs it into
    every replica's :class:`~repro.core.zero_rtt.ZeroRttServer` (via
    ``rotate(now, keypair=...)``), and publishes one service-wide ticket
    -- so any replica accepts any client's 0-RTT attempt.

    Replicas that crash lose the in-memory share
    (:meth:`ZeroRttServer.forget_share`); :meth:`resync` reinstalls the
    *current* share on revival, closing the fallback-to-1-RTT window.
    """

    def __init__(
        self,
        loop,
        zservers: list,
        dns,
        dns_name: str,
        rng: Optional[random.Random] = None,
        period: Optional[float] = None,
        grace: Optional[float] = None,
        ttl: Optional[float] = None,
        up_fn=None,
    ):
        if not zservers:
            raise ProtocolError("a shared-share rotator needs >= 1 replica")
        self.loop = loop
        self.zservers = list(zservers)
        self.dns = dns
        self.dns_name = dns_name
        self.rng = rng if rng is not None else random.Random(0)
        self.period = zservers[0].lifetime if period is None else period
        if grace is not None:
            for z in self.zservers:
                z.grace_window = grace
        self.ttl = self.period if ttl is None else ttl
        #: ``up_fn(replica_index) -> bool``: a rotation cannot install the
        #: new share on a dead replica; it is skipped (and counted) and
        #: must be :meth:`resync`'d on revival before accepting 0-RTT.
        self.up_fn = up_fn
        self.rotations = 0
        self.resyncs = 0
        self.missed_installs = 0
        self.current: Optional[EcdhKeyPair] = None
        self._periodic = None

    def start(self):
        """Publish the first service ticket now, then rotate every period."""
        if self._periodic is not None:
            return self._periodic
        self._publish()
        self._periodic = self.loop.every(self.period, self._publish)
        return self._periodic

    def stop(self) -> None:
        if self._periodic is not None:
            self._periodic.cancel()
            self._periodic = None

    def _publish(self) -> None:
        now = self.loop.now
        self.current = EcdhKeyPair.generate(self.rng)
        ticket = None
        for i, z in enumerate(self.zservers):
            if self.up_fn is not None and not self.up_fn(i):
                self.missed_installs += 1
                continue
            minted = z.rotate(now, keypair=self.current)
            if ticket is None:
                ticket = minted  # one service-wide ticket: first live replica
        if ticket is None:
            return  # every replica is down; nothing publishable this period
        self.dns.publish(self.dns_name, ticket, now, ttl=self.ttl)
        self.rotations += 1

    def resync(self, zserver) -> None:
        """Reinstall the current share on a (revived) replica.

        Idempotent: a replica already holding the current share keeps its
        replay-defence state untouched.
        """
        if self.current is None:
            return
        if (
            zserver.long_term is not None
            and zserver.long_term.public_bytes() == self.current.public_bytes()
        ):
            return
        zserver.rotate(self.loop.now, keypair=self.current)
        self.resyncs += 1


class TicketCache:
    """Client-side ticket store with refresh-before-expiry semantics."""

    def __init__(self, dns, trust_roots, refresh_margin: float = 60.0):
        self.dns = dns
        self.trust_roots = trust_roots
        self.refresh_margin = refresh_margin
        self._cache: dict = {}
        self.hits = 0
        self.refreshes = 0
        #: Refresh attempts that found the DNS record expired/reaped but
        #: could still serve the cached ticket (valid until not_after).
        self.stale_served = 0
        #: Lookups with no usable ticket at all -- the caller must fall
        #: back to a fresh 1-RTT handshake.
        self.unavailable = 0

    def get(self, name: str, loop) -> Generator[Any, Any, object]:
        """The current ticket for ``name``, or ``None`` when unobtainable.

        A generator (``yield from``): the DNS fetch charges lookup latency
        through the loop; a cache hit yields nothing.

        The DNS-TTL staleness race: a refresh inside ``refresh_margin``
        can find the record already expired and reaped (ticket republish
        racing record expiry during a replica failover).  Rather than
        raising, the cache degrades gracefully -- it keeps serving the
        cached ticket while that is still verifiable (``not_after`` in
        the future), and returns ``None`` once nothing usable remains so
        the caller falls back to a fresh 1-RTT handshake.
        """
        ticket = self._cache.get(name)
        if ticket is not None and loop.now + self.refresh_margin <= ticket.not_after:
            self.hits += 1
            return ticket
        try:
            fresh = yield from self.dns.resolve(name, loop)
        except ProtocolError:
            if ticket is not None and loop.now <= ticket.not_after:
                self.stale_served += 1
                return ticket
            self._cache.pop(name, None)
            self.unavailable += 1
            return None
        fresh.verify(self.trust_roots, loop.now)
        self._cache[name] = fresh
        self.refreshes += 1
        return fresh
