"""Weighted bulkhead partitions of a host's service concurrency.

The bulkhead pattern: split a shared resource pool into per-tenant
compartments so one tenant's flood cannot sink every compartment.  Here
the resource is *service slots* — the number of requests a host will
serve concurrently.  In **shared** mode (isolation off) all tenants draw
from one FIFO pool: an aggressor's backlog occupies every slot and
victims queue behind it (head-of-line blocking at the host, the same
mechanism the paper's §2 argues transports must avoid on the wire).  In
**partitioned** mode each tenant gets a weighted reserved share, so a
victim's requests only ever wait behind the victim's own traffic.

Slot accounting is deterministic: waiters wake strictly FIFO within
their compartment, and a released slot is handed directly to the oldest
waiter (the compartment never transits through a free state another
tenant could steal in shared mode).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator

from repro.ctrl.partition import split_slots
from repro.errors import ProtocolError

__all__ = ["WeightedBulkhead", "split_slots"]


class _Compartment:
    __slots__ = ("slots", "active", "waiters", "admitted", "queued", "peak_active",
                 "peak_queue")

    def __init__(self, slots: int):
        self.slots = slots
        self.active = 0
        self.waiters: deque = deque()
        self.admitted = 0
        self.queued = 0
        self.peak_active = 0
        self.peak_queue = 0


class WeightedBulkhead:
    """Per-tenant (or shared) compartments over ``total_slots``."""

    def __init__(
        self,
        loop,
        total_slots: int,
        weights: dict[str, float],
        partitioned: bool = True,
    ):
        if total_slots < 1:
            raise ProtocolError(f"need >= 1 slot, got {total_slots}")
        self.loop = loop
        self.total_slots = total_slots
        self.partitioned = partitioned
        if partitioned:
            self._alloc = split_slots(total_slots, weights)
            self._parts = {
                tenant: _Compartment(slots) for tenant, slots in self._alloc.items()
            }
        else:
            # One compartment every tenant maps onto; per-tenant counters
            # still track who occupied it.
            self._alloc = {tenant: total_slots for tenant in weights}
            shared = _Compartment(total_slots)
            self._parts = {tenant: shared for tenant in weights}
        self.admitted = {tenant: 0 for tenant in weights}
        self.waited = {tenant: 0 for tenant in weights}

    def capacity(self, tenant: str) -> int:
        """Slots this tenant may hold at once (reserved share)."""
        return self._alloc[tenant]

    def _part(self, tenant: str) -> _Compartment:
        part = self._parts.get(tenant)
        if part is None:
            raise ProtocolError(f"tenant {tenant!r} has no bulkhead compartment")
        return part

    def acquire(self, tenant: str) -> Generator[Any, Any, None]:
        """Take one slot, waiting FIFO while the compartment is full."""
        part = self._part(tenant)
        if part.active < part.slots and not part.waiters:
            part.active += 1
        else:
            gate = self.loop.event()
            part.waiters.append(gate)
            part.queued += 1
            self.waited[tenant] += 1
            part.peak_queue = max(part.peak_queue, len(part.waiters))
            yield gate  # the releaser hands us its slot: active unchanged
        part.admitted += 1
        self.admitted[tenant] += 1
        part.peak_active = max(part.peak_active, part.active)

    def release(self, tenant: str) -> None:
        part = self._part(tenant)
        if part.active < 1:
            raise ProtocolError(f"bulkhead release without acquire ({tenant})")
        if part.waiters:
            part.waiters.popleft().succeed(None)  # slot changes hands
        else:
            part.active -= 1

    def active(self, tenant: str) -> int:
        return self._part(tenant).active

    def stats(self) -> dict:
        """Per-tenant admission/wait counters plus compartment peaks."""
        out = {}
        for tenant in self.admitted:
            part = self._parts[tenant]
            out[tenant] = {
                "slots": self._alloc[tenant],
                "admitted": self.admitted[tenant],
                "waited": self.waited[tenant],
                "peak_active": part.peak_active,
                "peak_queue": part.peak_queue,
            }
        return out
