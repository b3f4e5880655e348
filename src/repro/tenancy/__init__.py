"""Multi-tenant fabric: identities, isolation primitives, tenant meshes.

The paper's whole motivation is tenant isolation in clouds (§1: tenants
sharing a datacenter network must not read or disturb each other), yet a
transport bench proves nothing about *disturb* until several tenants
contend for the same fabric and host resources.  This package supplies
the missing layer:

- :mod:`repro.tenancy.tenant` — the :class:`Tenant` identity (name, id,
  weight, offered-load entitlement) and an ordered registry;
- :mod:`repro.tenancy.limiter` — a virtual-time token bucket for
  host-egress rate limiting (throttling / rate-limiting pattern), used
  as a shaper (delay);
- :mod:`repro.tenancy.bulkhead` — weighted bulkhead partitions of a
  host's service concurrency (bulkhead pattern): each tenant gets
  reserved slots so one tenant's backlog cannot occupy every server
  thread;
- :mod:`repro.tenancy.harness` — :class:`TenantFabric`, which runs one
  SMT RPC mesh *per tenant* over a shared :class:`ClosTestbed`, with
  per-tenant AEAD contexts (tenant-salted pairwise traffic keys drawn
  through per-tenant :class:`~repro.ctrl.PartitionedKeyPool` slices),
  per-tenant session registration in a
  :class:`~repro.ctrl.PartitionedSessionTable`, and the isolation
  primitives wired at host egress (token bucket) and ingress (bulkhead).

The noisy-neighbor experiment (``repro.bench.tenant``) drives this
subsystem with one aggressor tenant near saturation and measures the
victim tenant's p99 slowdown with isolation off vs on.
"""

from repro.tenancy.bulkhead import WeightedBulkhead
from repro.tenancy.harness import IsolationConfig, TenantFabric
from repro.tenancy.limiter import TokenBucket
from repro.tenancy.tenant import Tenant, TenantRegistry

__all__ = [
    "IsolationConfig",
    "Tenant",
    "TenantFabric",
    "TenantRegistry",
    "TokenBucket",
    "WeightedBulkhead",
]
