"""Graceful replica removal: drain sessions instead of breaking them.

Taking a replica out of rotation (maintenance, rebalance, pre-crash
evacuation) must not sever live sessions: :class:`ConnectionDrainer`
marks the replica *draining* -- the balancer stops steering new work at
it immediately -- then migrates each of its sessions to another live
replica as soon as the session goes idle, polling busy ones every
``poll_interval``.  The drain completes when the replica holds no
sessions; completeness (every pre-drain session ends up elsewhere, none
dropped) is the property the lb test-suite pins.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.errors import ProtocolError


class ConnectionDrainer:
    """Migrates sessions off a draining replica until it is empty."""

    def __init__(self, loop, frontend, poll_interval: float = 20e-6):
        self.loop = loop
        self.frontend = frontend
        self.poll_interval = poll_interval
        self.drains = 0
        self.migrated_sessions = 0
        #: (virtual time, rid, sessions migrated) per completed drain.
        self.log: list[tuple[float, object, int]] = []

    def drain(
        self, rid, deregister: bool = False, max_polls: int = 10_000
    ) -> Generator[Any, Any, int]:
        """Drain ``rid`` (generator); returns the number of sessions moved.

        With ``deregister`` the replica also leaves the registry once
        empty.  Raises :class:`ProtocolError` if sessions remain busy
        (or unroutable) after ``max_polls`` polls.
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
        polls = 0
        while True:
            remaining = fe.sessions_on(rid)
            if not remaining:
                break
            progressed = False
            for session in remaining:
                if session.idle and fe.migrate(session) is not None:
                    moved += 1
                    self.migrated_sessions += 1
                    progressed = True
            if fe.sessions_on(rid):
                polls += 1
                if polls > max_polls:
                    fe.clear_draining(rid)
                    raise ProtocolError(
                        f"drain of {rid!r} stuck: "
                        f"{len(fe.sessions_on(rid))} sessions left"
                    )
                # Busy (or momentarily unroutable) sessions: wait for
                # in-flight work to complete, then retry.
                if not progressed:
                    yield self.loop.timeout(self.poll_interval)
        if deregister:
            fe.registry.deregister(rid)
        if obs is not None:
            obs.tracer.end(span)
        self.drains += 1
        self.log.append((self.loop.now, rid, moved))
        return moved
