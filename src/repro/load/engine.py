"""The open-loop engine and the loaded-slowdown metric.

Homa's evaluation style: messages arrive by a Poisson process at a
target fraction of link capacity whether or not earlier messages have
finished (open loop — queueing delay compounds instead of throttling the
offered load), sizes come from a workload distribution, and each
message's *slowdown* is its observed RTT divided by the best-case RTT an
identical message sees on the unloaded fabric.  p50 slowdown ~1 means
the median message is unaffected by load; p99 is the tail the paper's
datacenter-transport arguments are about.

:class:`OpenLoopEngine` is the one body of that method.  It drives a
list of :class:`Stream` s — each a size distribution, a load fraction,
the call that carries its RPCs and the :class:`LoadResult` they are
booked in — through one arrival loop, one RPC-measure body, one
calibration loop and one drain.  The plain engine has one stream; the
tenant engine has one per tenant.  What the other flavours really do
differently sits behind small overridable seams:

- ``_pick_dst(src, rng)`` — uniform over the other hosts; the front-end
  engine asks a balancer;
- ``_next_serial(src)`` — one global counter; the sharded engine
  namespaces serials per sender;
- ``_invoke(...)`` — the call itself; the incident engine wraps it in
  the resilience kit, the front-end engine counts it as outstanding;
- ``_completed(...)`` / ``_failed(...)`` — the books, written from the
  RPC's own values; phases, per-replica histograms and the sharded
  completion records hang here;
- ``_rack_of(index)`` — the path class of a host pair.

The engine is deterministic end to end: per-(stream, sender)
``random.Random`` streams (seeded from the engine seed, the stream salt
and the sender index) drive inter-arrival gaps, destination choice and
size sampling — in that order, once each per arrival — so a given
(topology, system, load, seed) tuple replays the identical packet-level
run; the benchmark's band checks rely on that.

Baseline calibration exploits the workload distributions' finite
support: before load starts, every distinct size is measured once
intra-rack and once cross-rack on the idle fabric, and each loaded RPC
is normalised by the baseline matching its size and path class.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import ceil
from typing import Any, Callable, Generator, Optional

from repro.errors import ReproError
from repro.load.cluster import (
    MIN_MESSAGE,
    ClusterHarness,
    build_request,
    verify_response,
)
from repro.load.distributions import SizeDistribution
from repro.net.headers import HEADERS_SIZE
from repro.sim.trace import Histogram

#: Default reply size: slowdown measures request delivery plus a small
#: fixed-cost response, like an RPC ack.
DEFAULT_RESPONSE = 64


def wire_bytes(size: int, mtu: int) -> int:
    """Payload plus per-packet header bytes at the given MTU."""
    mss = mtu - HEADERS_SIZE
    packets = max(1, ceil(size / mss))
    return size + packets * HEADERS_SIZE


def offered_rate(
    distribution: SizeDistribution, load: float, bandwidth: float, mtu: int
) -> float:
    """Messages per second one sender offers to load its uplink to ``load``.

    The mean is over the bytes a *request* puts on the sender's uplink;
    the response rides the reverse direction and is excluded, so ``load``
    is the uplink utilisation target.
    """
    mean_wire = sum(wire_bytes(s, mtu) * p for s, p in distribution.probabilities())
    return load * bandwidth / (8.0 * mean_wire)


@dataclass
class LoadResult:
    """One system's loaded run: counts, slowdown stats, fabric evidence."""

    system: str
    load: float
    duration: float
    issued: int = 0
    completed: int = 0
    failed: int = 0
    #: Responses that failed client-side verification plus requests the
    #: servers flagged — any nonzero value means bytes were reassembled
    #: wrong somewhere.
    integrity_errors: int = 0
    achieved_bytes: int = 0
    slowdowns: Histogram = field(default_factory=Histogram)
    per_size: dict[int, Histogram] = field(default_factory=dict)
    #: (size, cross_rack) -> unloaded best-case RTT in seconds.
    baseline_rtt: dict = field(default_factory=dict)
    spine_spread: list = field(default_factory=list)

    @property
    def p50(self) -> float:
        return self.slowdowns.p50()

    @property
    def p99(self) -> float:
        return self.slowdowns.p99()

    @property
    def mean(self) -> float:
        return self.slowdowns.mean()


@dataclass
class Stream:
    """One Poisson arrival process per sender, and the book it fills."""

    label: str
    dist: SizeDistribution
    #: Added to every sender's RNG seed, so two streams on one host draw
    #: independent gap / destination / size sequences.
    salt: int
    #: Arrivals per second per sender (see :func:`offered_rate`).
    rate: float
    #: ``call(src, dst, thread, request, **kw)`` — a generator returning
    #: the response.  It must look the harness's ``call`` up when invoked,
    #: not capture it: the ledger replaces that attribute on the instance.
    call: Callable[..., Generator[Any, Any, bytes]]
    #: The same RPC as calibration issues it, on the idle fabric.
    idle_call: Callable[..., Generator[Any, Any, bytes]]
    #: ``thread_for(src, serial)`` — the client app thread for one RPC.
    thread_for: Callable[[int, int], Any]
    #: Requests of this stream that failed server-side verification.
    server_errors: Callable[[], int]
    result: LoadResult


class OpenLoopEngine:
    """Drive one :class:`ClusterHarness` at a target load fraction."""

    def __init__(
        self,
        harness: ClusterHarness,
        distribution: SizeDistribution,
        load: float,
        duration: float,
        seed: int = 0,
        response_size: int = DEFAULT_RESPONSE,
        max_drain: float = 0.5,
    ):
        self._bind(harness, duration, seed, response_size, max_drain)
        self.result = self._harness_stream(distribution, load).result

    def _bind(self, harness, duration, seed, response_size, max_drain) -> None:
        """Engine state that does not depend on the streams.

        ``harness.bed`` supplies the loop, the fabric's link parameters
        and the observability registry; ``harness.hosts`` the senders.
        """
        self.harness = harness
        self.bed = harness.bed
        self.loop = self.bed.loop
        self.duration = duration
        self.seed = seed
        self.response_size = max(response_size, MIN_MESSAGE)
        self.max_drain = max_drain
        self.streams: list[Stream] = []
        #: Host indices that run an arrival process per stream, and the
        #: size of the index space destinations are drawn from.
        self.senders = range(len(harness.hosts))
        self.num_hosts = len(harness.hosts)
        self._serial = 0
        self._cross_of: dict[tuple[int, int], bool] = {}

    def _harness_stream(self, distribution, load) -> Stream:
        """The one stream of an engine whose harness carries one system."""
        harness = self.harness
        return self._add_stream(
            harness.system, distribution, load, 0, "load.slowdown",
            call=lambda *args, **kw: harness.call(*args, **kw),
            thread_for=harness.thread_for,
            server_errors=lambda: harness.server_integrity_errors,
        )

    def _add_stream(
        self, label, distribution, load, salt, hist_name,
        call, thread_for, server_errors, idle_call=None,
    ) -> Stream:
        if not 0.0 < load < 1.0:
            raise ValueError(f"load fraction {load} outside (0, 1)")
        if min(distribution.support()) < MIN_MESSAGE:
            raise ValueError(
                f"distribution {distribution.name} has sizes below {MIN_MESSAGE} B"
            )
        fabric = self.bed.fabric
        obs = self.bed.obs
        # p50/p99 aggregation through the observability registry when
        # there is one, so snapshots and golden traces see the histogram.
        slowdowns = (
            obs.metrics.histogram(hist_name) if obs is not None
            else Histogram(hist_name)
        )
        stream = Stream(
            label, distribution, salt,
            offered_rate(distribution, load, fabric.bandwidth, fabric.mtu),
            call, idle_call or call, thread_for, server_errors,
            LoadResult(
                system=label, load=load, duration=self.duration,
                slowdowns=slowdowns,
            ),
        )
        self.streams.append(stream)
        return stream

    # -- seams ---------------------------------------------------------------------

    def _rack_of(self, index: int) -> int:
        return self.bed.fabric.rack_of(self.harness.hosts[index].addr)

    def _next_serial(self, src: int) -> int:
        # One counter for every sender and stream.  The sharded engine
        # strides serials per sender instead, and the two do not merge:
        # ``thread_for`` rotates app threads by serial, so the numbering
        # decides which core each RPC's client work queues on.
        self._serial += 1
        return self._serial

    def _pick_dst(self, src: int, rng: random.Random) -> Optional[int]:
        """Destination for one arrival; ``None`` drops it unissued."""
        dst = rng.randrange(self.num_hosts - 1)
        if dst >= src:
            dst += 1
        return dst

    def _invoke(self, stream: Stream, src, dst, thread, request, base: float):
        """The generator that carries one request; ``base`` is the
        request's unloaded RTT, for deadlines that scale with it."""
        return stream.call(src, dst, thread, request)

    def _completed(self, stream: Stream, src, dst, size, serial, t0, slowdown):
        """Book one verified-or-counted response; ``t0`` is its issue time."""
        stream.result.slowdowns.record(slowdown)
        stream.result.per_size.setdefault(size, Histogram()).record(slowdown)

    def _failed(self, stream: Stream, src, dst, size, serial, t0):
        """One RPC raised ``ReproError``; ``result.failed`` already counts it."""

    # -- calibration --------------------------------------------------------------

    def _pick_pairs(self) -> dict[bool, tuple[int, int]]:
        """A representative (src, dst) host-index pair per path class."""
        racks: dict[int, list[int]] = {}
        for idx in range(self.num_hosts):
            racks.setdefault(self._rack_of(idx), []).append(idx)
        pairs: dict[bool, tuple[int, int]] = {}
        ordered = sorted(racks)
        first = racks[ordered[0]]
        if len(first) >= 2:
            pairs[False] = (first[0], first[1])
        if len(ordered) >= 2:
            pairs[True] = (first[0], racks[ordered[1]][0])
        if not pairs:
            raise ReproError("cluster too small: need 2 hosts")
        return pairs

    def calibrate(self) -> dict:
        """Measure the unloaded best-case RTT per (stream, size, path class).

        Returns the first stream's baselines — the only stream's, outside
        the tenant engine.
        """
        pairs = self._pick_pairs()
        loop = self.loop

        def body():
            for stream in self.streams:
                for cross, (src, dst) in sorted(pairs.items()):
                    for size in stream.dist.support():
                        serial = self._next_serial(src)
                        request = build_request(serial, size, self.response_size)
                        thread = stream.thread_for(src, serial)
                        t0 = loop.now
                        response = yield from stream.idle_call(
                            src, dst, thread, request
                        )
                        if not verify_response(response, serial, self.response_size):
                            raise ReproError(
                                f"{stream.label}: calibration integrity "
                                f"failure at {size} B"
                            )
                        stream.result.baseline_rtt[(size, cross)] = loop.now - t0

        done = loop.process(body())
        # The loop directly, not ``bed.run``: the sharded engine calibrates
        # on a lone time domain, which has a loop but no testbed around it.
        loop.run(until=loop.now + 2.0)
        if not done.triggered:
            raise ReproError("baseline calibration deadlocked")
        if not done.ok:
            raise done.value
        for stream in self.streams:
            baselines = stream.result.baseline_rtt
            measured = {cross for _, cross in baselines}
            # Single-host racks (or a single rack): the one class measured
            # stands in for the other.
            for missing in {False, True} - measured:
                for (size, _cross), rtt in list(baselines.items()):
                    baselines[(size, missing)] = rtt
        return self.streams[0].result.baseline_rtt

    # -- the loaded run -----------------------------------------------------------

    def _is_cross(self, src: int, dst: int) -> bool:
        cached = self._cross_of.get((src, dst))
        if cached is None:
            cached = self._rack_of(src) != self._rack_of(dst)
            self._cross_of[(src, dst)] = cached
        return cached

    def _one_rpc(self, stream: Stream, src: int, dst: int, size: int, serial: int):
        loop = self.loop
        result = stream.result
        thread = stream.thread_for(src, serial)
        base = result.baseline_rtt[(size, self._is_cross(src, dst))]
        t0 = loop.now
        try:
            response = yield from self._invoke(
                stream, src, dst, thread,
                build_request(serial, size, self.response_size), base,
            )
        except ReproError:
            result.failed += 1
            self._failed(stream, src, dst, size, serial, t0)
            return
        rtt = loop.now - t0
        if not verify_response(response, serial, self.response_size):
            result.integrity_errors += 1
        result.achieved_bytes += size + self.response_size
        result.completed += 1
        self._completed(stream, src, dst, size, serial, t0, rtt / base)

    def _arrivals(self, stream: Stream, src: int, end_time: float):
        loop = self.loop
        rng = random.Random(self.seed * 1_000_003 + stream.salt + src)
        result = stream.result
        while True:
            yield loop.timeout(rng.expovariate(stream.rate))
            if loop.now >= end_time:
                return
            dst = self._pick_dst(src, rng)
            if dst is None:
                continue
            size = stream.dist.sample(rng)
            serial = self._next_serial(src)
            result.issued += 1
            loop.process(self._one_rpc(stream, src, dst, size, serial))

    def start(self) -> None:
        """Spawn every (stream, sender) arrival process (call once)."""
        self.end_time = self.loop.now + self.duration
        for stream in self.streams:
            for src in self.senders:
                self.loop.process(self._arrivals(stream, src, self.end_time))

    def _outstanding(self) -> bool:
        return any(
            s.result.completed + s.result.failed < s.result.issued
            for s in self.streams
        )

    def run(self) -> LoadResult:
        """Calibrate, generate ``duration`` seconds of load, drain, report."""
        self._drive()
        return self.result

    def _drive(self) -> None:
        if not all(s.result.baseline_rtt for s in self.streams):
            self.calibrate()
        loop = self.loop
        self.start()
        self.bed.run(until=self.end_time)
        # Drain: open-loop arrivals have stopped; give in-flight RPCs
        # (including loss recovery) bounded time to finish.
        deadline = self.end_time + self.max_drain
        while loop.now < deadline and self._outstanding():
            self.bed.run(until=min(deadline, loop.now + 0.01))
        for stream in self.streams:
            stream.result.integrity_errors += stream.server_errors()
            stream.result.spine_spread = self.bed.fabric.spine_spread()
