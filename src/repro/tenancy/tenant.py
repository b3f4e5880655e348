"""Tenant identities and the ordered tenant registry.

A :class:`Tenant` is the unit of isolation everywhere in this package:
sessions, AEAD contexts, key-pool and session-table partitions, rate
limits, bulkhead slots and ``tenant.*`` metrics are all keyed by it.
Identity is deliberately tiny — a name, a small integer id and a weight —
so it can be threaded through codec providers and metric names without
dragging configuration along.

The registry is ordered (registration order), and every derived
resource split (weights, seeds, ports) iterates it in that order, so a
fixed tenant list yields a fixed resource layout run after run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.errors import ProtocolError


@dataclass(frozen=True)
class Tenant:
    """One tenant's identity and entitlement.

    ``weight`` sets this tenant's share of partitioned resources
    (bulkhead slots, session-table and key-pool capacity).  ``rate_fraction``
    is the egress entitlement as a fraction of a host uplink; ``None``
    leaves the tenant unshaped even when isolation is on.
    """

    name: str
    tid: int
    weight: float = 1.0
    rate_fraction: Optional[float] = None

    def __post_init__(self):
        if not self.name:
            raise ProtocolError("tenant name must be non-empty")
        if self.tid < 0:
            raise ProtocolError(f"tenant id must be >= 0, got {self.tid}")
        if self.weight <= 0:
            raise ProtocolError(f"tenant weight must be > 0, got {self.weight}")
        if self.rate_fraction is not None and not 0.0 < self.rate_fraction <= 1.0:
            raise ProtocolError(
                f"rate fraction {self.rate_fraction} outside (0, 1]"
            )


class TenantRegistry:
    """Registration-ordered set of tenants with unique names and ids."""

    def __init__(self, tenants: Optional[list[Tenant]] = None):
        self._by_name: dict[str, Tenant] = {}
        self._by_tid: dict[int, Tenant] = {}
        for tenant in tenants or ():
            self.register(tenant)

    def register(self, tenant: Tenant) -> Tenant:
        if tenant.name in self._by_name:
            raise ProtocolError(f"tenant {tenant.name!r} already registered")
        if tenant.tid in self._by_tid:
            raise ProtocolError(f"tenant id {tenant.tid} already registered")
        self._by_name[tenant.name] = tenant
        self._by_tid[tenant.tid] = tenant
        return tenant

    def by_name(self, name: str) -> Tenant:
        tenant = self._by_name.get(name)
        if tenant is None:
            raise ProtocolError(f"unknown tenant {name!r}")
        return tenant

    def names(self) -> list[str]:
        return list(self._by_name)

    def weights(self) -> dict[str, float]:
        """Tenant name -> weight, in registration order."""
        return {t.name: t.weight for t in self}

    def __iter__(self) -> Iterator[Tenant]:
        return iter(self._by_name.values())

    def __len__(self) -> int:
        return len(self._by_name)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name
