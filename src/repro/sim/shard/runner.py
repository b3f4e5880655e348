"""Conservative parallel execution of sharded domains.

The scheduler is a windowed (bounded-lag) variant of null-message time
synchronization.  At a barrier time ``T`` every domain has processed all
events at or before ``T`` and every cross-domain message generated before
``T`` has been delivered, so each domain's next pending event is strictly
in the future.  Let ``E`` be the global minimum next-event time (counting
undelivered boundary arrivals) and ``L`` the lookahead -- the minimum
propagation delay of any boundary link.  No event in ``[E, E + L/2]`` can
schedule work in another domain before ``E + L > E + L/2``, so every
domain may safely advance to ``U = E + L/2`` in parallel; the barrier at
``U`` exchanges the window's boundary messages and the cycle repeats.
``L/2`` (not ``L``) keeps the guarantee strict under the event loop's
inclusive ``run(until=U)`` semantics: a message generated exactly at
``E`` arrives at ``E + L``, strictly after the window closes.

Two carriers execute the same protocol:

- in-process (default): all domains in one process, stepped round-robin.
  Virtual-time results are identical to the multiprocessing carrier, and
  every dispatched event is visible to this process's
  ``events_dispatched()`` counter -- which is what lets CI pin the scale
  bench's event count exactly.
- ``multiprocessing``: one worker process per domain, coordinated over
  pipes in a star.  Only the plan, window commands, encoded packet blobs
  and picklable results cross the pipes: workers run the boundary codec,
  so the coordinator routes records and blobs alike, unopened.

Determinism: every domain's computation is a pure function of (plan,
domain id, injected batches, barrier sequence), the coordinator computes
the barrier sequence from deterministic per-domain reports, and inboxes
are merged in a deterministic order -- so an N-domain run replays bit for
bit, on either carrier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.errors import SimulationError
from repro.net.clos import TRUNK_DELAY
from repro.sim.shard.boundary import decode_batch
from repro.sim.shard.domain import DomainResult, ShardDomain, resolve_workload_factory
from repro.sim.shard.plan import ShardPlan


@dataclass
class ShardRunResult:
    """The merged outcome of one sharded run."""

    plan: ShardPlan
    domains: list[DomainResult]
    windows: int
    final_barrier: float

    @property
    def events(self) -> int:
        """Total simulation events dispatched across every domain loop."""
        return sum(d.events for d in self.domains)

    @property
    def hosts(self) -> int:
        return sum(d.hosts for d in self.domains)

    def workloads(self) -> list[Any]:
        """Per-domain workload payloads, domain order."""
        return [d.workload for d in self.domains]

    def spine_spread(self) -> list[int]:
        """Cluster-wide upward packets per spine (sums exactly match the
        single-loop fabric's counters)."""
        spread = [0] * self.plan.num_spines
        for d in self.domains:
            for row in d.spine_packets.values():
                for s, count in enumerate(row):
                    spread[s] += count
        return spread

    def fabric_stats(self) -> dict:
        """Merged per-tier fabric counters, ClosFabric.stats() shape."""
        leaf = {"dropped": 0, "trimmed": 0, "queued": 0, "blackholed": 0}
        spine = {"dropped": 0, "trimmed": 0, "queued": 0, "blackholed": 0}
        for d in self.domains:
            for key, value in d.fabric_stats["leaf"].items():
                leaf[key] += value
            for key, value in d.fabric_stats["spine"].items():
                spine[key] += value
        return {"leaf": leaf, "spine": spine, "spine_spread": self.spine_spread()}

    def obs_snapshots(self) -> list[dict]:
        """Per-domain observability snapshots (empty if unobserved)."""
        return [d.obs_snapshot for d in self.domains if d.obs_snapshot is not None]


class _InProcessDomain:
    """Carrier adapter: the domain lives in this process."""

    def __init__(self, plan, domain, factory, args):
        self._domain = ShardDomain(plan, domain, factory, args)
        self._pending = None

    def poll(self):
        return self._domain.next_event_time(), self._domain.workload_done()

    def begin(self, until: float, inbox: list) -> None:
        self._domain.inject(inbox)
        self._domain.run_window(until)
        self._pending = (self._domain.outbound.take(), *self.poll())

    def end(self):
        pending, self._pending = self._pending, None
        return pending

    def finish(self) -> DomainResult:
        return self._domain.result()


def _domain_worker(conn, plan, domain, factory, args):
    """Worker-process main: build the domain, then step on command."""
    shard = ShardDomain(plan, domain, factory, args)
    conn.send(("ready", shard.next_event_time(), shard.workload_done()))
    while True:
        msg = conn.recv()
        if msg[0] == "window":
            _, until, inbox = msg
            shard.inject([(src, decode_batch(blob)) for src, blob in inbox])
            shard.run_window(until)
            out = shard.outbound.drain()  # records -> one wire blob per dest
            conn.send(("out", out, shard.next_event_time(), shard.workload_done()))
        elif msg[0] == "finish":
            conn.send(("result", shard.result()))
            conn.close()
            return
        else:  # pragma: no cover - protocol guard
            raise SimulationError(f"unknown shard command {msg[0]!r}")


class _PipeDomain:
    """Carrier adapter: the domain lives in a worker process."""

    def __init__(self, plan, domain, factory, args):
        # Imported here, its one user: it pulls in socket and selectors,
        # which an in-process run never needs.
        import multiprocessing

        ctx = multiprocessing.get_context()
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(
            target=_domain_worker,
            args=(child, plan, domain, factory, args),
            daemon=True,
        )
        self._proc.start()
        child.close()
        self._ready = self._conn.recv()

    def poll(self):
        tag, next_t, done = self._ready
        if tag != "ready":  # pragma: no cover - protocol guard
            raise SimulationError(f"unexpected worker hello {tag!r}")
        return next_t, done

    def begin(self, until: float, inbox: list) -> None:
        self._conn.send(("window", until, inbox))

    def end(self):
        tag, out, next_t, done = self._conn.recv()
        if tag != "out":  # pragma: no cover - protocol guard
            raise SimulationError(f"unexpected worker reply {tag!r}")
        return out, next_t, done

    def finish(self) -> DomainResult:
        self._conn.send(("finish",))
        tag, result = self._conn.recv()
        self._conn.close()
        self._proc.join()
        return result


@dataclass
class ShardRunner:
    """Drive a :class:`ShardPlan` to completion under a workload."""

    plan: ShardPlan
    workload_factory: Optional[str] = None
    workload_args: Optional[dict] = None
    #: True fans each domain out to a ``multiprocessing`` worker.
    use_processes: bool = False
    windows: int = field(default=0, init=False)

    def run(self) -> ShardRunResult:
        plan = self.plan
        if self.workload_factory is not None:
            # Fail here, in the caller's process, not once per worker.
            resolve_workload_factory(self.workload_factory)
        carrier = _PipeDomain if self.use_processes else _InProcessDomain
        handles = [
            carrier(plan, d, self.workload_factory, self.workload_args)
            for d in range(plan.domains)
        ]
        polls = [h.poll() for h in handles]
        nexts = [p[0] for p in polls]
        dones = [p[1] for p in polls]
        has_workload = self.workload_factory is not None
        inboxes: list[list] = [[] for _ in handles]
        pending_arrivals: list[Optional[float]] = [None] * len(handles)
        half_lookahead = TRUNK_DELAY / 2.0
        barrier = 0.0
        while True:
            if has_workload and all(dones):
                break
            candidates = [t for t in nexts if t is not None]
            candidates.extend(t for t in pending_arrivals if t is not None)
            if not candidates:
                break
            until = min(candidates) + half_lookahead
            for d, handle in enumerate(handles):
                handle.begin(until, inboxes[d])
            inboxes = [[] for _ in handles]
            pending_arrivals = [None] * len(handles)
            for src, handle in enumerate(handles):
                out, nexts[src], dones[src] = handle.end()
                for dest, (batch, min_arrival) in out.items():
                    inboxes[dest].append((src, batch))
                    prior = pending_arrivals[dest]
                    if prior is None or min_arrival < prior:
                        pending_arrivals[dest] = min_arrival
            barrier = until
            self.windows += 1
        # Undelivered final inboxes (and pending events past the stop
        # time) are intentionally left unrun -- the workload's books have
        # balanced, exactly like a single-loop drain that stops once
        # completed + failed == issued.
        return ShardRunResult(
            plan=plan,
            domains=[h.finish() for h in handles],
            windows=self.windows,
            final_barrier=barrier,
        )
