"""Replicated-service front end: discovery, L4 balancing, 0-RTT portability.

One logical service name fronts N replica hosts on the Clos fabric:
:class:`ServiceRegistry` publishes health-gated membership through the
internal DNS (TTL-bounded, §4.5.2's resolver doing double duty),
:class:`HealthChecker` drives membership from probes with hysteresis
damping, a :class:`ConsistentHashBalancer` ring picks replicas, and
:class:`ConnectionDrainer` migrates sessions off replicas leaving
rotation.  :class:`ServiceFrontend` ties it together and measures the
paper-level reproduction target: DNS-distributed SMT-tickets accepted
0-RTT *across* replicas when the service shares one long-term share
(:class:`~repro.ctrl.rotation.SharedShareRotator`), versus forced
1-RTT fallback under per-replica shares.
"""

from repro.lb.balancer import ConsistentHashBalancer
from repro.lb.drain import ConnectionDrainer
from repro.lb.frontend import FrontendSession, ReplicaServer, ServiceFrontend
from repro.lb.health import HealthChecker
from repro.lb.registry import ServiceRecord, ServiceRegistry, record_name

__all__ = [
    "ConnectionDrainer",
    "ConsistentHashBalancer",
    "FrontendSession",
    "HealthChecker",
    "ReplicaServer",
    "ServiceFrontend",
    "ServiceRecord",
    "ServiceRegistry",
    "record_name",
]
