"""Open-loop load through a replicated-service front end.

:class:`FrontendEngine` specialises :class:`OpenLoopEngine` for the
L4-balanced shape: a *client* subset of hosts generates Poisson arrivals
(same per-sender uplink-load semantics), and every RPC's destination is
chosen by a :class:`repro.lb.balancer.Balancer` over the *replica*
subset -- keyed by a popularity-skewed balancing key, load-signalled by
the client-side outstanding-request counts.  This is where the
consistent-hash vs least-loaded trade-off becomes measurable: under a
skewed key distribution the hash ring concentrates the hot keys' traffic
on one replica (queueing blows up its p99 slowdown) while
power-of-two-choices spreads it.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from typing import Optional, Sequence

from repro.errors import ReproError
from repro.load.engine import OpenLoopEngine
from repro.sim.trace import Histogram


class SkewedKeys:
    """Zipf-like key popularity: P(rank r) proportional to 1/(r+1)**s.

    With ``exponent`` around 1 and a small key space, the top key draws
    an outsized share of arrivals -- the regime where affinity balancing
    hotspots.  ``hot_share(k)`` reports the probability mass of the top
    ``k`` keys so benches can state the skew they ran with.
    """

    def __init__(self, num_keys: int, exponent: float = 1.2):
        if num_keys < 1:
            raise ReproError(f"need >= 1 key, got {num_keys}")
        weights = [1.0 / (r + 1) ** exponent for r in range(num_keys)]
        total = sum(weights)
        self.num_keys = num_keys
        self.exponent = exponent
        self._cumulative = []
        acc = 0.0
        for w in weights:
            acc += w / total
            self._cumulative.append(acc)
        self._cumulative[-1] = 1.0

    def sample(self, rng: random.Random) -> int:
        return bisect_right(self._cumulative, rng.random())

    def hot_share(self, k: int = 1) -> float:
        return self._cumulative[min(k, self.num_keys) - 1]


class FrontendEngine(OpenLoopEngine):
    """Open-loop load where a balancer picks each RPC's replica."""

    def __init__(
        self,
        harness,
        distribution,
        load: float,
        duration: float,
        balancer,
        clients: Sequence[int],
        replicas: Sequence[int],
        keys: SkewedKeys,
        seed: int = 0,
        **kwargs,
    ):
        super().__init__(harness, distribution, load, duration, seed=seed, **kwargs)
        if set(clients) & set(replicas):
            raise ReproError("client and replica host sets must be disjoint")
        self.clients = list(clients)
        # Only the client subset offers load, in host order.
        self.senders = [h for h in self.senders if h in self.clients]
        self.replica_indices = list(replicas)
        self.balancer = balancer
        self.keys = keys
        self.replica_outstanding: dict[int, int] = {r: 0 for r in replicas}
        self.replica_issued: dict[int, int] = {r: 0 for r in replicas}
        self.replica_slowdowns: dict[int, Histogram] = {
            r: Histogram(f"replica{r}") for r in replicas
        }
        self.unroutable = 0

    def _pick_dst(self, src: int, rng: random.Random) -> Optional[int]:
        key = self.keys.sample(rng)
        cands = self.replica_indices
        if not cands:
            self.unroutable += 1
            return None
        return self.balancer.pick(key, cands, self.replica_outstanding)

    def _invoke(self, stream, src, dst, thread, request, base):
        self.replica_outstanding[dst] += 1
        self.replica_issued[dst] += 1
        try:
            call = stream.call(src, dst, thread, request)
            del request  # not held while the response is awaited
            response = yield from call
        finally:
            self.replica_outstanding[dst] -= 1
        return response

    def _completed(self, stream, src, dst, size, serial, t0, slowdown):
        super()._completed(stream, src, dst, size, serial, t0, slowdown)
        self.replica_slowdowns[dst].record(slowdown)
