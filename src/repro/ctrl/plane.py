"""The per-host session-lifecycle control plane (paper §4.5).

:class:`ControlPlane` ties the pieces together for one host: standby key
pools (§4.5.1), lane-based message-ID spaces with proactive rekey before
exhaustion (§4.5.2), and a bounded session table with LRU eviction
and handshake admission backpressure.  Endpoints opt in by passing
``ctrl=`` at construction (or via :meth:`adopt`); unmanaged endpoints
behave exactly as before -- the control plane is strictly additive.

Lane allocation: the transport's shared counter hands out even message
IDs from 2; a managed session instead draws from its own
:class:`~repro.core.seqspace.MessageIdSpace` slice ``[lane * lane_size,
(lane+1) * lane_size)``.  Distinct lanes per host keep sender-side
``(dest_addr, msg_id)`` keys collision-free by construction, and a small
``lane_size`` lets tests and benchmarks drive a session to its watermark
in a handful of RPCs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.core.seqspace import MessageIdSpace
from repro.crypto.ecdh import EcdhKeyPair
from repro.ctrl.keypool import KeyPool
from repro.ctrl.rekey import RekeyManager
from repro.ctrl.session_table import SessionTable
from repro.tls.handshake import HandshakeConfig


@dataclass
class CtrlConfig:
    """Knobs for one host's control plane."""

    ecdh_pool_capacity: int = 32
    ecdh_low_watermark: int = 8
    refill_interval: float = 100e-6
    prefill: bool = True
    rekey_watermark_fraction: float = 0.75
    lane_size: int = 1 << 32  # message IDs per managed session before rekey
    session_capacity: int = 1024


class ControlPlane:
    """Key pools + rekeying + session table for one host."""

    def __init__(
        self,
        host,
        rng: random.Random,
        config: Optional[CtrlConfig] = None,
        name: Optional[str] = None,
    ):
        self.host = host
        self.loop = host.loop
        self.rng = rng
        self.config = cfg = config or CtrlConfig()
        self.name = name or f"{host.name}.ctrl"
        self.ecdh_pool = KeyPool(
            self.loop,
            rng,
            capacity=cfg.ecdh_pool_capacity,
            low_watermark=cfg.ecdh_low_watermark,
            refill_interval=cfg.refill_interval,
            prefill=cfg.prefill,
        )
        self.table = SessionTable(capacity=cfg.session_capacity)
        self.rekeys = RekeyManager(self.loop, rng, keypool=self.ecdh_pool)
        self._next_lane = 0
        self._managed: list = []  # sessions with an assigned ID lane
        self._rekey_threads: dict[int, object] = {}
        # The replica's 0-RTT server state, if it serves one (repro.lb):
        # a crash forgets the in-memory long-term share, so a revived
        # replica rejects 0-RTT until the service's SharedShareRotator
        # resyncs it -- the ticket-portability gap the frontend measures.
        self.zero_rtt = None
        self.crashes = 0
        self.restarts = 0
        host.ctrl = self
        obs = self.loop.obs
        if obs is not None:
            self.bind_obs(obs)

    # -- endpoint wiring -------------------------------------------------------

    def adopt(self, endpoint, rekey_thread=None) -> None:
        """Manage ``endpoint``'s sessions from now on.

        ``rekey_thread`` is the AppThread background rekeys charge their
        CPU to (client side); without one, watermark rekeys stay off and
        exhaustion raises as for unmanaged sessions.
        """
        endpoint.ctrl = self
        if rekey_thread is not None:
            self._rekey_threads[id(endpoint)] = rekey_thread

    def handshake_config(self, **kwargs) -> HandshakeConfig:
        """A HandshakeConfig drawing standby keys from this host's pool."""
        kwargs.setdefault("rng", self.rng)
        kwargs.setdefault("keypool", self.ecdh_pool)
        return HandshakeConfig(**kwargs)

    # -- hooks called by SmtEndpoint -------------------------------------------

    def attach_zero_rtt(self, zserver) -> None:
        """Tie ``zserver``'s share lifetime to this host's process."""
        self.zero_rtt = zserver

    def admit_handshake(self) -> bool:
        return self.table.admit()

    def take_ecdh(self) -> tuple[EcdhKeyPair, bool]:
        """(keypair, came_from_pool) -- a miss generates inline."""
        key = self.ecdh_pool.take()
        if key is not None:
            return key, True
        return EcdhKeyPair.generate(self.rng), False

    def on_session_registered(self, endpoint, peer_addr, peer_port, session) -> None:
        max_ids = endpoint.allocation.max_message_ids
        lane_span = min(self.config.lane_size, max_ids)
        num_lanes = max(1, max_ids // lane_span)
        lane = self._next_lane % num_lanes
        self._next_lane += 1
        session.id_space = MessageIdSpace(
            endpoint.allocation,
            first_msg_id=lane * lane_span + 2,
            capacity=lane_span - 2,
            watermark_fraction=self.config.rekey_watermark_fraction,
        )
        self._managed.append(session)
        thread = self._rekey_threads.get(id(endpoint))
        if thread is not None:
            self.rekeys.manage(endpoint, peer_addr, peer_port, session, thread)
        key = (id(endpoint), peer_addr, peer_port)
        self.table.insert(
            key,
            on_evict=lambda: endpoint.close_session(peer_addr, peer_port),
            busy=lambda: (
                session.inflight_rpcs > 0 or session.tx_gate_event is not None
            ),
        )
        session.on_activity = lambda: self.table.touch(key)

    def on_session_closed(self, endpoint, peer_addr, peer_port) -> None:
        self.table.remove((id(endpoint), peer_addr, peer_port))

    # -- failure domains -------------------------------------------------------

    def crash(self) -> None:
        """The host process dies: session state and standby keys vanish.

        Sessions are dropped without notification (peers find out from
        failed RPCs); the key pools are emptied and their refill timers
        stop.  Counters survive -- they model the operator's external
        metrics store, and the incident bench reads them post-mortem.
        """
        self.table.clear(notify=False)
        self.ecdh_pool.clear()
        if self.zero_rtt is not None:
            self.zero_rtt.forget_share()
        self.crashes += 1

    def restart(self) -> None:
        """Cold restart after :meth:`crash`: pools start *empty*.

        Unlike first boot (which prefills), a restart rebuilds standby
        stock via watermark refill only, so the post-incident re-handshake
        storm pays inline keygen (§4.5.1's C1.1/S2.1 costs) until the
        refill timers catch up -- the control-plane pressure the incident
        bench measures.
        """
        self.restarts += 1

    # -- observability ---------------------------------------------------------

    @property
    def msgid_resets(self) -> int:
        return sum(
            s.id_space.resets for s in self._managed if s.id_space is not None
        )

    def bind_obs(self, obs) -> None:
        """Export ``ctrl.*`` gauges under this plane's name."""
        m = obs.metrics
        n = self.name
        t = self.table
        m.gauge(f"{n}.sessions", lambda: len(t))
        m.gauge(f"{n}.sessions.inserted", lambda: t.inserted)
        m.gauge(f"{n}.sessions.evicted_lru", lambda: t.evicted_lru)
        m.gauge(f"{n}.sessions.admission_refused", lambda: t.admission_refused)
        p = self.ecdh_pool
        m.gauge(f"{n}.keypool.ecdh.size", lambda: p.size)
        m.gauge(f"{n}.keypool.ecdh.taken", lambda: p.taken)
        m.gauge(f"{n}.keypool.ecdh.misses", lambda: p.misses)
        m.gauge(f"{n}.keypool.ecdh.refilled", lambda: p.refilled)
        r = self.rekeys
        m.gauge(f"{n}.rekeys.scheduled", lambda: r.scheduled)
        m.gauge(f"{n}.rekeys.completed", lambda: r.completed)
        m.gauge(f"{n}.rekeys.inflight", lambda: r.inflight)
        m.gauge(f"{n}.rekeys.fs_upgrades", lambda: r.fs_upgrades)
        m.gauge(f"{n}.msgid.resets", lambda: self.msgid_resets)
