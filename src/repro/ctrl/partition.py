"""Per-tenant partitions of the control plane's bounded resources.

A multi-tenant host cannot share one LRU session table or one standby
key pool across tenants: a churning aggressor would evict a quiet
victim's sessions and drain the standby keys the victim's handshakes
depend on — control-plane noisy-neighborhood, the host-side analogue of
the fabric contention ``repro.bench.tenant`` measures.  These wrappers
split the total capacity into *hard* per-tenant compartments:

- :class:`PartitionedSessionTable` — one
  :class:`~repro.ctrl.session_table.SessionTable` per tenant, capacity
  split by tenant weight (largest remainder, every tenant >= 1).
  Eviction and idle sweeps run inside one compartment only, by
  construction: tenant A filling its slice can never evict tenant B's
  sessions, and admission backpressure (refused handshakes) is charged
  to the tenant that caused it.
- :class:`PartitionedKeyPool` — one
  :class:`~repro.ctrl.keypool.KeyPool` per tenant with its own seeded
  RNG stream and watermark refill, so one tenant's handshake storm
  exhausts only its own standby stock (its misses pay inline keygen;
  other tenants keep drawing O(1)).

Both expose the same per-tenant counters their single-tenant parts do,
plus cross-partition aggregates for ``tenant.*`` gauges.
"""

from __future__ import annotations

import random
from math import floor
from typing import Callable

from repro.ctrl.keypool import KeyPool
from repro.ctrl.session_table import SessionTable
from repro.errors import ProtocolError

#: Each tenant's key pool refills once its stock falls to this fraction of
#: its compartment (the single-tenant pool's 8 of 32).
LOW_WATERMARK_FRACTION = 0.25


def split_slots(total: int, weights: dict[str, float]) -> dict[str, int]:
    """Largest-remainder weighted split; every tenant gets >= 1 slot.

    Deterministic: remainders tie-break by registration (dict) order.
    Shared by every compartmentalised budget (session tables, key pools,
    bulkhead service slots).
    """
    if total < len(weights):
        raise ProtocolError(
            f"{total} slots cannot cover {len(weights)} tenants at >= 1 each"
        )
    wsum = sum(weights.values())
    quotas = {name: total * w / wsum for name, w in weights.items()}
    alloc = {name: max(1, floor(q)) for name, q in quotas.items()}
    spare = total - sum(alloc.values())
    if spare < 0:
        # The >= 1 floors overshot (many tiny-weight tenants): reclaim from
        # the largest allocations, biggest first, never below 1.
        for name in sorted(alloc, key=lambda n: (-alloc[n], list(alloc).index(n))):
            if spare == 0:
                break
            take = min(alloc[name] - 1, -spare)
            alloc[name] -= take
            spare += take
        return alloc
    order = sorted(
        weights, key=lambda n: (-(quotas[n] - floor(quotas[n])), list(weights).index(n))
    )
    for name in order[:spare]:
        alloc[name] += 1
    return alloc


class PartitionedSessionTable:
    """Weighted per-tenant compartments over one session-table budget."""

    def __init__(self, weights: dict[str, float], capacity: int = 1024):
        if not weights:
            raise ProtocolError("need at least one tenant")
        self.capacity = capacity
        self._alloc = split_slots(capacity, weights)
        self._tables = {
            tenant: SessionTable(capacity=slots)
            for tenant, slots in self._alloc.items()
        }

    def partition(self, tenant: str) -> SessionTable:
        table = self._tables.get(tenant)
        if table is None:
            raise ProtocolError(f"tenant {tenant!r} has no session partition")
        return table

    def partition_capacity(self, tenant: str) -> int:
        return self._alloc[tenant]

    # -- SessionTable API, tenant-scoped --------------------------------------

    def admit(self, tenant: str) -> bool:
        """Backpressure is per tenant: a full compartment refuses only
        its own tenant's handshakes."""
        return self.partition(tenant).admit()

    def insert(
        self,
        tenant: str,
        key: tuple,
        on_evict: Callable[[], None],
        busy: Callable[[], bool],
    ) -> None:
        self.partition(tenant).insert(key, on_evict, busy)

    def touch(self, tenant: str, key: tuple) -> None:
        self.partition(tenant).touch(key)

    def remove(self, tenant: str, key: tuple) -> bool:
        return self.partition(tenant).remove(key)

    def __len__(self) -> int:
        return sum(len(t) for t in self._tables.values())

    def sessions(self, tenant: str) -> int:
        return len(self.partition(tenant))

    def stats(self) -> dict:
        return {
            tenant: {
                "capacity": self._alloc[tenant],
                "sessions": len(table),
                "inserted": table.inserted,
                "evicted_lru": table.evicted_lru,
                "admission_refused": table.admission_refused,
            }
            for tenant, table in self._tables.items()
        }


class PartitionedKeyPool:
    """Weighted per-tenant standby-key compartments.

    Each tenant's pool draws from its own ``random.Random`` stream
    (``seed + tid-order offset``), so one tenant's draw pattern never
    perturbs another's key sequence — partitions are deterministic in
    isolation, the property the tenancy fuzz tests pin.
    """

    def __init__(
        self, loop, weights: dict[str, float], seed: int = 0, capacity: int = 32
    ):
        if not weights:
            raise ProtocolError("need at least one tenant")
        self.loop = loop
        self.capacity = capacity
        self._alloc = split_slots(capacity, weights)
        self._pools: dict[str, KeyPool] = {}
        for offset, (tenant, slots) in enumerate(self._alloc.items()):
            self._pools[tenant] = KeyPool(
                loop,
                random.Random(seed * 1_000_003 + offset),
                capacity=slots,
                low_watermark=min(
                    max(0, int(slots * LOW_WATERMARK_FRACTION)), slots - 1
                ),
            )

    def partition(self, tenant: str) -> KeyPool:
        pool = self._pools.get(tenant)
        if pool is None:
            raise ProtocolError(f"tenant {tenant!r} has no key partition")
        return pool

    def partition_capacity(self, tenant: str) -> int:
        return self._alloc[tenant]

    def take(self, tenant: str):
        return self.partition(tenant).take()

    def take_or_generate(self, tenant: str):
        return self.partition(tenant).take_or_generate()

    @property
    def size(self) -> int:
        return sum(p.size for p in self._pools.values())

    def stats(self) -> dict:
        return {
            tenant: {
                "capacity": self._alloc[tenant],
                "size": pool.size,
                "taken": pool.taken,
                "misses": pool.misses,
                "refilled": pool.refilled,
            }
            for tenant, pool in self._pools.items()
        }

    def cancel_refill(self) -> None:
        for pool in self._pools.values():
            pool.cancel_refill()
