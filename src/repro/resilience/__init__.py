"""Failure detection and post-crash session re-establishment.

The paper's transport fails *closed* (a session that cannot authenticate
dies with :class:`~repro.errors.SessionFailedError`).  This package holds
what the failure-domain incidents need around it: heartbeat-driven
failure detection (:mod:`repro.resilience.heartbeat`), which the spine
watchers of :mod:`repro.net.domain_faults` run, and, after a replica
crash, :class:`~repro.resilience.handshake.SessionReestablisher`, which
replays the paper's §4.5 handshake economics (pool draws, admission
backpressure with jittered backoff from :mod:`repro.resilience.retry`,
Table 2 keygen terms) for the re-connection storm.

Everything runs on the virtual clock with caller-supplied seeds, so an
incident run replays identically -- including every jittered backoff.
"""

from repro.resilience.handshake import SessionReestablisher
from repro.resilience.heartbeat import HeartbeatMonitor
from repro.resilience.retry import BackoffPolicy

__all__ = [
    "BackoffPolicy",
    "HeartbeatMonitor",
    "SessionReestablisher",
]
