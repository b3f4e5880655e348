"""Proactive session rekeying before message-ID exhaustion (§4.5.2).

The 48-bit composite message-ID space is finite; the paper notes that
session resumption "updates cryptographic keys and thus resets the
message ID space".  :class:`RekeyManager` watches each managed session's
:class:`~repro.core.seqspace.MessageIdSpace` high watermark and, before
the space runs out, drains in-flight RPCs and asks the endpoint for a
rekey (:meth:`repro.core.endpoint.SmtEndpoint.rekey`, which resets the ID
space) -- all invisible to callers (new calls briefly park on the
session's tx gate).  This module only schedules; the exchange itself
belongs to the endpoint.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Generator, Optional

from repro.crypto.ecdh import EcdhKeyPair
from repro.errors import ProtocolError


@dataclass
class ManagedSession:
    """One client-side session under rekey management."""

    endpoint: object
    peer_addr: int
    peer_port: int
    session: object
    thread: object
    rekeys_run: int = field(default=0)


class RekeyManager:
    """Drives drain-then-switch rekeys for managed client sessions."""

    def __init__(self, loop, rng: Optional[random.Random] = None, keypool=None):
        self.loop = loop
        self.rng = rng or random.Random(0)
        self.keypool = keypool
        self.scheduled = 0
        self.completed = 0
        self.fs_upgrades = 0
        self.inflight = 0
        self.entries: list[ManagedSession] = []

    def manage(
        self, endpoint, peer_addr: int, peer_port: int, session, thread
    ) -> ManagedSession:
        """Arm the high-watermark trigger on ``session``'s ID space."""
        entry = ManagedSession(endpoint, peer_addr, peer_port, session, thread)
        self.entries.append(entry)
        space = session.id_space
        if space is not None:
            space.on_high_watermark = lambda: self.schedule(entry)
        return entry

    def schedule(self, entry: ManagedSession) -> None:
        """Kick off a background rekey unless one is already running."""
        if entry.session.tx_gate_event is not None:
            return
        self.scheduled += 1
        self.loop.process(self._gated(entry))

    def upgrade_to_fs(
        self, entry: ManagedSession, pregenerated: Optional[EcdhKeyPair] = None
    ) -> Generator[Any, Any, None]:
        """Explicit forward-secrecy upgrade: fresh ECDH, fs-keys, ID reset.

        Run on the caller's process (``yield from``); drains like a
        watermark rekey.  The ephemeral comes from ``pregenerated``, the
        manager's keypool, or (charging C1.1) inline generation.
        """
        if entry.session.tx_gate_event is not None:
            raise ProtocolError("session is already rekeying")
        return self._gated(entry, fs=True, pregenerated=pregenerated)

    def _gated(
        self, entry: ManagedSession, fs: bool = False, pregenerated=None
    ) -> Generator[Any, Any, None]:
        """Close ``entry``'s tx gate now; the returned rekey reopens it."""
        session = entry.session
        self.inflight += 1
        session.tx_gate_event = self.loop.event()

        def rekey() -> Generator[Any, Any, None]:
            try:
                while session.inflight_rpcs > 0:  # drain
                    session.drain_waiter = waiter = self.loop.event()
                    yield waiter
                # Push any batched ACKs out before the ID space resets, so
                # stale acknowledgements cannot land on a reused message ID.
                entry.endpoint.transport.flush_acks(entry.peer_addr)
                eph = pregenerated
                if fs and eph is None and self.keypool is not None:
                    eph = self.keypool.take()
                if fs and eph is None:
                    eph = EcdhKeyPair.generate(self.rng)
                    yield from entry.thread.work(
                        entry.endpoint.cost_model.op_cost_for("C1.1")
                    )
                yield from entry.endpoint.rekey(
                    entry.thread, entry.peer_addr, entry.peer_port, eph
                )
                entry.rekeys_run += 1
                self.fs_upgrades += fs
                self.completed += 1
            finally:
                self.inflight -= 1
                gate, session.tx_gate_event = session.tx_gate_event, None
                if gate is not None:
                    gate.succeed()

        return rekey()
