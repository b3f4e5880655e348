"""Byte-exact packet formats and the wire: links, switches, one fabric.

Packets carry real header fields and payload bytes; ``encode``/``decode``
give the exact on-wire layout (tested for round-trip identity), while the
simulator moves the structured objects for speed.  Every wire is one
:class:`~repro.net.link.Egress` -- per-priority queues (Homa's network
priorities), serialisation at line rate, propagation delay, optional loss
and fault injection: a :class:`Link` holds two, and every host uplink and
switch port one.  :class:`ClosFabric` is the one multi-host fabric; the
star bed is its one-rack case.
"""

from repro.net.addressing import format_addr
from repro.net.clos import ClosFabric, ecmp_hash
from repro.net.domain_faults import (
    DomainFaultController,
    IncidentEvent,
    domain_schedule_from_seed,
)
from repro.net.faults import FaultConfig, FaultInjector, schedule_from_seed
from repro.net.headers import (
    PROTO_HOMA,
    PROTO_SMT,
    PROTO_TCP,
    IPv4Header,
    PacketType,
    TransportHeader,
)
from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.switch import Switch

__all__ = [
    "ClosFabric",
    "ecmp_hash",
    "format_addr",
    "IPv4Header",
    "TransportHeader",
    "PacketType",
    "PROTO_TCP",
    "PROTO_SMT",
    "PROTO_HOMA",
    "Packet",
    "Link",
    "Switch",
    "FaultConfig",
    "FaultInjector",
    "schedule_from_seed",
    "DomainFaultController",
    "IncidentEvent",
    "domain_schedule_from_seed",
]
