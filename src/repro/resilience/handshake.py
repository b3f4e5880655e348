"""Post-crash session re-establishment against the control plane.

When a replica crashes, every client that held a secure session to it
must re-handshake after the revival -- all at once.  That storm is
exactly the load the paper's §4.5 machinery exists to absorb: standby
key pools hide the Table 2 keygen terms (C1.1 = 61.3us client, S2.1 =
67.9us server), and the bounded session table applies admission
backpressure when the storm outruns capacity.  A crashed replica makes
it worse than steady-state churn: its pools restart *empty*
(:meth:`~repro.ctrl.plane.ControlPlane.restart`), so early re-handshakes
miss the pool and pay keygen inline.

:class:`SessionReestablisher` replays those economics without dragging
the full TLS state machine across the cluster mesh: it asks the server
plane for admission (retrying with backoff on refusal -- counted there
as ``admission_refused``), draws one keypair from each side's pool
(misses generate inline at Table 2 cost, charged to the calling app
thread), spends one network round trip, and registers the session in the
server's table.  The incident bench reads the planes' counters
afterwards as the "handshake-storm load on the control plane" metric.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.errors import TransportError
from repro.resilience.retry import BackoffPolicy
from repro.units import USEC

#: Table 2 keygen terms (paper §5.1): charged inline on a pool miss.
CLIENT_KEYGEN = 61.3 * USEC  # C1.1
SERVER_KEYGEN = 67.9 * USEC  # S2.1
#: Non-keygen handshake CPU per side (Table 2 remainder, rounded): the
#: part pools cannot remove -- key derivation, transcript hashing, AEAD
#: of the flight.  Kept deliberately small and symmetric.
HANDSHAKE_CPU = 12.0 * USEC
#: One network round trip of the re-handshake.
HANDSHAKE_RTT = 10e-6
#: Admission refusals a re-handshake absorbs before it gives up.
MAX_ADMISSION_RETRIES = 64


class SessionReestablisher:
    """Drives one client's re-handshakes against a revived replica."""

    def __init__(self, loop, seed: int = 0):
        self.loop = loop
        self.backoff = BackoffPolicy(base=20e-6, cap=200e-6, jitter=0.3, seed=seed)
        self.completed = 0
        self.admission_retries = 0
        self.client_inline_keygens = 0
        self.server_inline_keygens = 0
        #: Wall (virtual) time each re-handshake took, storm analysis.
        self.durations: list[float] = []

    def reestablish(
        self,
        thread,
        client_plane,
        server_plane,
        key: tuple,
    ) -> Generator[Any, Any, float]:
        """One re-handshake; returns its virtual-time duration.

        ``key`` identifies the session in the server's table (any
        hashable -- the incident engine uses ``(client_addr,
        server_addr)``).  Raises :class:`TransportError` if the server
        refuses admission more than :data:`MAX_ADMISSION_RETRIES` times.
        """
        started = self.loop.now
        refusals = 0
        while not server_plane.admit_handshake():
            refusals += 1
            self.admission_retries += 1
            if refusals > MAX_ADMISSION_RETRIES:
                raise TransportError(
                    f"handshake admission refused {refusals} times by "
                    f"{server_plane.name}"
                )
            # An admission refusal is learned after a round trip, then the
            # client backs off before re-flighting.
            yield self.loop.timeout(HANDSHAKE_RTT + self.backoff.delay(refusals - 1))
        client_key, client_pooled = client_plane.take_ecdh()
        cost = HANDSHAKE_CPU
        if not client_pooled:
            cost += CLIENT_KEYGEN
            self.client_inline_keygens += 1
        server_key, server_pooled = server_plane.take_ecdh()
        # Server-side CPU is charged to the client's thread as a stand-in:
        # the virtual-time shape (storm serialised behind keygen) is what
        # the experiment measures, not per-core attribution.
        cost += HANDSHAKE_CPU
        if not server_pooled:
            cost += SERVER_KEYGEN
            self.server_inline_keygens += 1
        yield from thread.work(cost)
        yield self.loop.timeout(HANDSHAKE_RTT)
        server_plane.table.insert(
            key,
            on_evict=lambda: None,
            busy=lambda: False,
            now=self.loop.now,
        )
        duration = self.loop.now - started
        self.durations.append(duration)
        self.completed += 1
        return duration
