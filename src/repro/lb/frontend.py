"""The replicated-service front end: session opens through the hash ring.

:class:`ServiceFrontend` is the client-side machinery for one logical
service: resolve the health-gated replica list through DNS (latency
charged, staleness tolerated), let its consistent-hash ring pick a
replica, then open a session with the paper's 0-RTT machinery -- the
DNS-distributed SMT-ticket (§4.5.2) against the *picked* replica's
:class:`~repro.core.zero_rtt.ZeroRttServer`.

Ticket portability is the reproduction target: with a
:class:`~repro.ctrl.rotation.SharedShareRotator` every replica holds the
same long-term share, so a ticket minted by replica A is accepted 0-RTT
by replica B (``cross_accepts``).  With per-replica shares
(:class:`~repro.ctrl.rotation.TicketRotator` per replica, one ticket
published), every cross-replica attempt is rejected and the open falls
back to a full 1-RTT handshake (``fallbacks_1rtt``) -- 0-RTT silently
degrades into session affinity.  Both sides' derived traffic keys are
compared on every accepted 0-RTT open (``key_mismatches`` must stay 0).

Handshake economics follow :mod:`repro.resilience.handshake`: Table 2
keygen terms charged to the opening app thread, a half-RTT for the 0-RTT
first flight, a full RTT for the 1-RTT fallback, pool-aware server-side
keygen when the replica has a control plane.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.zero_rtt import ZeroRttClient, share_fingerprint
from repro.errors import AuthenticationError, ProtocolError
from repro.lb.balancer import ConsistentHashBalancer
from repro.resilience.handshake import CLIENT_KEYGEN, HANDSHAKE_CPU, SERVER_KEYGEN


class ReplicaServer:
    """Server side of one replica: host, 0-RTT state, optional plane."""

    def __init__(self, host, zserver, plane=None):
        self.host = host
        self.zserver = zserver
        self.plane = plane
        if plane is not None:
            plane.attach_zero_rtt(zserver)
        self.zero_rtt_accepts = 0
        self.zero_rtt_rejects = 0
        self.one_rtt_handshakes = 0

    @property
    def rid(self):
        return self.host.addr


@dataclass
class FrontendSession:
    """One client session, pinned to (and migratable between) replicas."""

    sid: int
    key: object  # balancing key (stable client identity)
    replica: object  # current replica id
    mode: str  # "0rtt" | "1rtt"
    opened_at: float
    migrations: int = 0
    closed: bool = False


@dataclass
class _Counters:
    opens: int = 0
    zero_rtt_accepts: int = 0
    fallbacks_1rtt: int = 0
    cross_attempts: int = 0
    cross_accepts: int = 0
    key_mismatches: int = 0
    migrations: int = 0
    stale_membership: int = 0


class ServiceFrontend:
    """Hash-routed session opens against one replicated service."""

    def __init__(
        self,
        loop,
        registry,
        replicas: dict,
        tickets,
        trust_roots,
        rtt: float = 10e-6,
        minter_rid=None,
        seed: int = 0,
    ):
        self.loop = loop
        self.registry = registry
        self.service = registry.service
        self.replicas = dict(replicas)  # rid -> ReplicaServer
        self.balancer = ConsistentHashBalancer()
        self.tickets = tickets
        self.trust_roots = trust_roots
        self.rtt = rtt
        # The replica whose ZeroRttServer minted the published service
        # ticket; an open against any *other* replica is a cross-replica
        # 0-RTT attempt -- the portability measurement.
        self.minter_rid = (
            minter_rid if minter_rid is not None else next(iter(self.replicas))
        )
        self.seed = seed
        self.counters = _Counters()
        self.draining: set = set()
        self.sessions: list[FrontendSession] = []
        self._by_rid: dict = {rid: set() for rid in self.replicas}
        self._next_sid = 0

    # -- routing ---------------------------------------------------------------

    def candidates(self, exclude=()) -> list:
        cands = [
            rid
            for rid in self.registry.live()
            if rid not in self.draining and rid not in exclude
        ]
        return cands

    def route(self, key, exclude=()):
        """Pick a replica for one unit of work keyed by ``key``."""
        cands = self.candidates(exclude)
        if not cands:
            raise ProtocolError(f"no routable replica for {self.service!r}")
        return self.balancer.pick(key, cands)

    # -- session opens ---------------------------------------------------------

    def open_session(self, thread, key):
        """Open one session (generator); returns a :class:`FrontendSession`.

        0-RTT when a service ticket is available and the picked replica
        accepts it; otherwise counted 1-RTT fallback.  Raises only when
        no replica is routable at all.
        """
        c = self.counters
        c.opens += 1
        obs = self.loop.obs
        # Membership through DNS, with graceful degradation to the last
        # locally-known snapshot when the record raced its TTL.
        try:
            record = yield from self.registry.resolve(self.loop)
            members = record.replicas
        except ProtocolError:
            c.stale_membership += 1
            members = self.registry.live()
        cands = [rid for rid in members if rid not in self.draining]
        if not cands:
            raise ProtocolError(f"no routable replica for {self.service!r}")
        rid = self.balancer.pick(key, cands)
        replica = self.replicas[rid]
        span = None
        if obs is not None:
            span = obs.tracer.begin(
                "lb", "lb.open", service=self.service, replica=str(rid)
            )
        ticket = yield from self.tickets.get(self.service, self.loop)
        mode = None
        if ticket is not None:
            if rid != self.minter_rid:
                c.cross_attempts += 1
            rng = random.Random(self.seed * 1_000_003 + c.opens)
            client = ZeroRttClient(ticket, self.trust_roots, self.loop.now, rng)
            yield from thread.work(CLIENT_KEYGEN + HANDSHAKE_CPU)
            share, chlo_random, cw, sw, _ = client.start()
            fp = share_fingerprint(ticket.long_term_share)
            yield self.loop.timeout(self.rtt / 2)  # first-flight one-way delay
            try:
                scw, ssw, _ = replica.zserver.accept_zero_rtt(
                    share, chlo_random, self.loop.now, client_share_fp=fp
                )
            except (ProtocolError, AuthenticationError):
                replica.zero_rtt_rejects += 1
            else:
                replica.zero_rtt_accepts += 1
                c.zero_rtt_accepts += 1
                if rid != self.minter_rid:
                    c.cross_accepts += 1
                if scw.key != cw.key or ssw.key != sw.key:
                    c.key_mismatches += 1
                mode = "0rtt"
        if mode is None:
            c.fallbacks_1rtt += 1
            if obs is not None:
                fb = obs.tracer.begin(
                    "lb", "lb.fallback.1rtt", service=self.service, replica=str(rid)
                )
                obs.tracer.end(fb)
            yield from self._open_1rtt(thread, replica)
            mode = "1rtt"
        if obs is not None:
            obs.tracer.end(span)
        session = FrontendSession(
            sid=self._next_sid, key=key, replica=rid, mode=mode,
            opened_at=self.loop.now,
        )
        self._next_sid += 1
        self.sessions.append(session)
        self._by_rid[rid].add(session.sid)
        return session

    def _open_1rtt(self, thread, replica: ReplicaServer):
        """Full handshake against ``replica``: Table 2 costs + one RTT."""
        cost = 2 * HANDSHAKE_CPU + CLIENT_KEYGEN
        if replica.plane is not None:
            _, pooled = replica.plane.take_ecdh()
            if not pooled:
                cost += SERVER_KEYGEN
        else:
            cost += SERVER_KEYGEN
        yield from thread.work(cost)
        yield self.loop.timeout(self.rtt)
        replica.one_rtt_handshakes += 1

    # -- session bookkeeping ---------------------------------------------------

    def sessions_on(self, rid) -> list[FrontendSession]:
        return [
            s for s in self.sessions if s.sid in self._by_rid.get(rid, ()) and
            not s.closed
        ]

    def close_session(self, session: FrontendSession) -> None:
        session.closed = True
        self._by_rid[session.replica].discard(session.sid)

    def migrate(self, session: FrontendSession):
        """Re-home a session off its current replica; returns the new
        replica id, or ``None`` when nowhere else is routable."""
        cands = self.candidates(exclude=(session.replica,))
        if not cands:
            return None
        new_rid = self.balancer.pick(session.key, cands)
        self._by_rid[session.replica].discard(session.sid)
        self._by_rid[new_rid].add(session.sid)
        session.replica = new_rid
        session.migrations += 1
        self.counters.migrations += 1
        return new_rid

    # -- draining --------------------------------------------------------------

    def mark_draining(self, rid) -> None:
        self.draining.add(rid)

    def clear_draining(self, rid) -> None:
        self.draining.discard(rid)

    # -- observability ---------------------------------------------------------

    def bind_obs(self, obs, name: str = "lb") -> None:
        m = obs.metrics
        c = self.counters
        s = f"{name}.{self.service}"
        m.gauge(f"{s}.opens", lambda: c.opens)
        m.gauge(f"{s}.zero_rtt.accepts", lambda: c.zero_rtt_accepts)
        m.gauge(f"{s}.cross.attempts", lambda: c.cross_attempts)
        m.gauge(f"{s}.cross.accepts", lambda: c.cross_accepts)
        m.gauge(f"{s}.fallbacks_1rtt", lambda: c.fallbacks_1rtt)
        m.gauge(f"{s}.key_mismatches", lambda: c.key_mismatches)
        m.gauge(f"{s}.migrations", lambda: c.migrations)
        m.gauge(f"{s}.stale_membership", lambda: c.stale_membership)
        m.gauge(
            f"{s}.sessions",
            lambda: sum(1 for x in self.sessions if not x.closed),
        )
