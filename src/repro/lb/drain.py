"""Graceful replica removal: drain sessions instead of breaking them.

Taking a replica out of rotation (maintenance, rebalance, pre-crash
evacuation) must not sever live sessions: :class:`ConnectionDrainer`
marks the replica *draining* -- the ring stops steering new work at it
immediately -- then migrates each of its sessions to another live
replica in one pass.  Completeness (every pre-drain session ends up
elsewhere, none dropped) is the property the lb test-suite pins.
"""

from __future__ import annotations

from repro.errors import ProtocolError


class ConnectionDrainer:
    """Migrates every session off a draining replica."""

    def __init__(self, loop, frontend):
        self.loop = loop
        self.frontend = frontend
        self.drains = 0
        self.migrated_sessions = 0
        #: (virtual time, rid, sessions migrated) per completed drain.
        self.log: list[tuple[float, object, int]] = []

    def drain(self, rid, deregister: bool = False) -> int:
        """Drain ``rid``; returns the number of sessions moved.

        With ``deregister`` the replica also leaves the registry once
        empty.  Raises :class:`ProtocolError`, and takes ``rid`` out of
        draining, when a session has no other replica to go to.
        """
        fe = self.frontend
        fe.mark_draining(rid)
        obs = self.loop.obs
        span = None
        if obs is not None:
            span = obs.tracer.begin(
                "lb", "lb.drain", service=fe.service, replica=str(rid)
            )
        moved = 0
        for session in fe.sessions_on(rid):
            if fe.migrate(session) is None:
                fe.clear_draining(rid)
                raise ProtocolError(
                    f"drain of {rid!r} stuck: "
                    f"{len(fe.sessions_on(rid))} sessions left"
                )
            moved += 1
            self.migrated_sessions += 1
        if deregister:
            fe.registry.deregister(rid)
        if obs is not None:
            obs.tracer.end(span)
        self.drains += 1
        self.log.append((self.loop.now, rid, moved))
        return moved
