"""The six ledger workloads.

Every workload is a class with the same three phases, which the rep
process (``rep.py``) times separately:

``setup(seed, scale, observe)``
    build PKI / testbeds / harnesses / sessions, calibrate baselines;
``warmup()``
    a discarded ~5 % of the operations, so lazy set-up and caches settle;
``timed()``
    the measured section: a *fixed number of operations* derived from
    ``scale`` alone (never from host speed), so a virtual-time change
    cannot change the amount of work.

``report()`` then returns the virtual-clock results and the correctness
book (attempted / failed ops).  Everything a workload touches in
``src/repro`` is a public name; where a bench module only has an
underscore helper the wiring is rebuilt here.

``rpc_small``, ``rpc_bulk`` and ``session_churn`` build all their inputs
from ``seed``: the closed-loop workloads deal message sizes from a
shuffled deck holding each size in exact proportion, so two seeds offer
the same bytes in a different order.  The three open-loop fabric
workloads are single-trace: there ``seed`` only decides where one fixed
arrival trace is cut (see ``TRACE_SEED``).
"""

from __future__ import annotations

import random
import time
from typing import Optional

from repro.bench.loaded import LOAD_HOMA_CONFIG
from repro.bench.runner import build_rpc_harness
from repro.bench.tenant import (
    AGGRESSOR_ENTITLEMENT,
    AGGRESSOR_LOAD,
    TENANT_HOMA_CONFIG,
    VICTIM_LOAD,
)
from repro.core.endpoint import SmtEndpoint
from repro.core.zero_rtt import ZeroRttServer
from repro.crypto.ca import CertificateAuthority
from repro.crypto.cert import KEY_ALG_ECDSA
from repro.crypto.ecdsa import EcdsaKeyPair
from repro.ctrl import CtrlConfig, TicketCache, TicketRotator
from repro.dns.resolver import InternalDns
from repro.homa import HomaConfig
from repro.load import (
    HOMA_W4,
    ClusterHarness,
    OpenLoopEngine,
    TenantLoadEngine,
    TenantWorkload,
)
from repro.load.engine import DEFAULT_RESPONSE
from repro.load.shard import measure_baselines, merge_load_results
from repro.sim.event_loop import events_dispatched
from repro.sim.shard import ShardPlan, ShardRunner
from repro.tenancy import IsolationConfig, Tenant
from repro.tenancy.harness import TenantFabric
from repro.testbed import ClosTestbed, Testbed
from repro.tls.handshake import HandshakeConfig, ServerCredentials

KB = 1024
USEC = 1e-6


# -- shared helpers ---------------------------------------------------------------


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile: p99 of 1000 samples leaves 10 beyond it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = -(-int(q * 1_000_000) * len(ordered) // 1_000_000)  # ceil(q * n)
    return ordered[min(len(ordered) - 1, max(0, rank - 1))]


def deck(proportions: dict, count: int, rng: random.Random) -> list:
    """``count`` sizes holding each size in exact proportion, shuffled.

    Rounding remainders go to the smallest sizes, so the deck is a pure
    function of (proportions, count) up to order.
    """
    sizes = sorted(proportions)
    total = sum(proportions.values())
    out = []
    for size in sizes:
        out.extend([size] * int(count * proportions[size] / total))
    i = 0
    while len(out) < count:
        out.append(sizes[i % len(sizes)])
        i += 1
    rng.shuffle(out)
    return out


#: The three open-loop workloads are *single-trace*: the load engines'
#: seed (gaps, destinations, sizes), the ECMP salt and the key material
#: all derive from this constant, not from ``--seed``.  Loaded fabrics
#: are chaotic -- re-rolling the trace moved the SMT cell's event count
#: by +-20 % and its p99 latency by 60 % across eight seeds, more than
#: any bound the benchmark contract allows -- so ``--seed`` only decides
#: where the one trace is cut (``trace_cut``): runs share a bit-identical
#: prefix and differ in the last <= 2 % of arrivals.  Nothing measured
#: across seeds on these workloads says anything about other traces; see
#: README "What the seed changes".
TRACE_SEED = 11


#: Warm-up runs replay a different trace than the timed section.
WARMUP_TRACE_OFFSET = 7919


def trace_cut(seed: int) -> float:
    """Arrival-window multiplier in [1.00, 1.02), a hash of ``seed``."""
    return 1.0 + 0.02 * ((seed * 2654435761) % (1 << 32)) / (1 << 32)


class Book:
    """Correctness book for one workload: ops attempted and failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def fail(self, count: int, why: str) -> None:
        if count > 0:
            self.failed += count
            self.notes.append(f"{count} x {why}")


def _virt_summary(lat_s: list, slowdowns: list, ops: int, payload_bytes: int,
                  virt_s: float) -> dict:
    """The SMT end-to-end virtual metrics from raw per-op samples.

    ``ops`` and ``payload_bytes`` are what completed inside ``virt_s``.
    """
    lat_us = [v / USEC for v in lat_s]
    return {
        "samples": len(lat_us),
        "virt_lat_p50_us": percentile(lat_us, 0.50),
        "virt_lat_p99_us": percentile(lat_us, 0.99),
        "virt_slowdown_p50": percentile(slowdowns, 0.50),
        "virt_slowdown_p99": percentile(slowdowns, 0.99),
        "virt_ops_per_s": ops / virt_s,
        "virt_goodput_gbps": payload_bytes * 8 / virt_s / 1e9,
    }


class Workload:
    """Base: phase protocol plus the bookkeeping every workload shares."""

    name = ""
    #: Called with a label after each cell of the timed section (the
    #: traced pass snapshots per-cell aggregates here).
    cell_done = staticmethod(lambda label: None)

    def __init__(self) -> None:
        self.book = Book()
        self.events = 0  # sim events dispatched inside timed()
        self.calibrate_s = 0.0  # host seconds of baseline calibration

    def setup(self, seed: int, scale: float, observe: bool) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def timed(self) -> None:
        events0 = events_dispatched()
        self._timed()
        self.events = events_dispatched() - events0

    def _timed(self) -> None:
        raise NotImplementedError

    def report(self) -> dict:
        raise NotImplementedError

    def op_times(self) -> list:
        """(virtual start, virtual end) of the SMT ops, in completion order."""
        raise NotImplementedError


# -- rpc_small / rpc_bulk: closed loop on the back-to-back testbed ----------------


class _Cell:
    """One (system, phase) closed-loop run on its own back-to-back bed."""

    def __init__(self, label: str, system: str, depth: int, sizes: dict,
                 per_slot: int, response: Optional[int],
                 config: Optional[HomaConfig] = None):
        self.label = label
        self.config = config
        self.system = system
        self.depth = depth
        self.sizes = sizes
        self.per_slot = per_slot
        self.response = response  # None: echo the request size
        self.harness = None
        self.baseline: dict[int, float] = {}
        self.lat: list[float] = []
        self.op_t: list[tuple] = []  # (virtual start, virtual end) per op
        self.slow: list[float] = []
        self.bytes = 0  # payload bytes completed inside the saturated window
        self.delivered = 0  # payload bytes of every verified op
        self.virt_s = 0.0
        self.window_ops = 0  # ops completed inside the saturated window
        self.completed = 0
        self.bad = 0


class _ClosedLoop(Workload):
    """Shared machinery of ``rpc_small`` and ``rpc_bulk``."""

    def _cells(self, scale: float) -> list[_Cell]:
        raise NotImplementedError

    def setup(self, seed: int, scale: float, observe: bool) -> None:
        self.seed = seed
        self.cells = self._cells(scale)
        for cell in self.cells:
            cell.harness = build_rpc_harness(
                cell.system, config=cell.config, seed=seed, observe=observe
            )
            self._calibrate(cell)

    def _response_size(self, cell: _Cell, size: int) -> int:
        return size if cell.response is None else cell.response

    def _calibrate(self, cell: _Cell) -> None:
        """Unloaded best-case RTT per size, one RPC at a time."""
        bed = cell.harness.bed
        loop = bed.loop
        call = cell.harness.call_factory(0)

        def body():
            for size in sorted(cell.sizes):
                best = None
                for _ in range(2):  # second pass sees warm flow state
                    t0 = loop.now
                    yield from call(bytes(size), self._response_size(cell, size))
                    rtt = loop.now - t0
                    best = rtt if best is None else min(best, rtt)
                cell.baseline[size] = best

        done = loop.process(body())
        loop.run(until=loop.now + 5.0)
        if not (done.triggered and done.ok):
            raise RuntimeError(f"{self.name}/{cell.label}: calibration failed")

    def _drive(self, cell: _Cell, per_slot: int, stream: int, record: bool,
               depth: Optional[int] = None) -> None:
        """``depth`` slots, each issuing ``per_slot`` RPCs back to back.

        Rates are taken over the *saturated window*, from the start until
        the first slot exhausts its quota: after that the loop drains
        with fewer slots in flight, which is not the saturation rate.
        """
        bed = cell.harness.bed
        loop = bed.loop
        start = loop.now
        window_end = []
        done_at: list[tuple[float, int]] = []  # (completion time, payload bytes)
        payloads = {size: bytes(size) for size in cell.sizes}

        def slot_body(slot: int):
            rng = random.Random((self.seed * 8191 + stream) * 4099 + slot)
            call = cell.harness.call_factory(slot)
            # Slots start within 2 us of each other in a seeded order, so
            # even a single-size cell queues differently under each seed.
            yield loop.timeout(rng.random() * 2e-6)
            for size in deck(cell.sizes, per_slot, rng):
                want = self._response_size(cell, size)
                t0 = loop.now
                response = yield from call(payloads[size], want)
                if not record:
                    continue
                cell.completed += 1
                if len(response) != want or response.count(0) != want:
                    cell.bad += 1
                    continue
                rtt = loop.now - t0
                cell.lat.append(rtt)
                cell.op_t.append((t0, loop.now))
                cell.slow.append(rtt / cell.baseline[size])
                done_at.append((loop.now, size + want))
                cell.delivered += size + want
            window_end.append(loop.now)

        depth = cell.depth if depth is None else depth
        handles = [loop.process(slot_body(s)) for s in range(depth)]
        loop.run(until=loop.now + 30.0)
        if not record:
            return
        book = self.book
        book.attempted += depth * per_slot
        for handle in handles:
            if handle.triggered and not handle.ok:
                book.notes.append(f"{cell.label}: {handle.value!r}")
        book.fail(cell.bad, f"{cell.label}: wrong response")
        book.fail(
            depth * per_slot - cell.completed,
            f"{cell.label}: RPC never completed",
        )
        if window_end:
            end = min(window_end)
            cell.virt_s = end - start
            in_window = [b for t, b in done_at if t <= end]
            cell.window_ops = len(in_window)
            cell.bytes = sum(in_window)

    def warmup(self) -> None:
        for i, cell in enumerate(self.cells):
            ops = max(1, round(0.05 * cell.depth * cell.per_slot))
            slots = min(cell.depth, ops)
            self._drive(cell, -(-ops // slots), 1000 + i, record=False, depth=slots)

    def _timed(self) -> None:
        for i, cell in enumerate(self.cells):
            self._drive(cell, cell.per_slot, i, record=True)
            self.cell_done(cell.label)

    def op_times(self) -> list:
        return [t for c in self.cells if c.system == "smt-sw" for t in c.op_t]

    def report(self) -> dict:
        smt = [c for c in self.cells if c.system == "smt-sw"]
        lat = [v for c in smt for v in c.lat]
        slow = [v for c in smt for v in c.slow]
        virt_s = sum(c.virt_s for c in smt)
        out = _virt_summary(
            lat, slow, sum(c.window_ops for c in smt),
            sum(c.bytes for c in smt), virt_s,
        )
        rate = {}
        for cell in self.cells:
            rate.setdefault(cell.system, [0, 0.0])
            rate[cell.system][0] += cell.window_ops
            rate[cell.system][1] += cell.virt_s
        rates = {s: n / t for s, (n, t) in rate.items() if t > 0}
        out["virt_smt_over_ktls"] = rates["smt-sw"] / rates["ktls-sw"]
        out["delivered_bytes"] = sum(
            c.delivered for c in self.cells if c.system != "homa"
        )
        out["cells"] = {
            c.label: {
                "system": c.system,
                "ops": len(c.lat),
                "virt_s": c.virt_s,
                "virt_ops_per_s": c.window_ops / c.virt_s if c.virt_s else 0.0,
                "virt_slowdown_p99": percentile(c.slow, 0.99),
            }
            for c in self.cells
        }
        return out


class RpcSmall(_ClosedLoop):
    """Per-packet work: 64 B - 1 KB RPCs, 50 slots, four systems."""

    name = "rpc_small"
    SIZES = {64: 1, 256: 1, 1024: 1}
    #: RPCs per slot per nominal run, by system (sized so each system's
    #: cell costs about a quarter of the timed section).
    PER_SLOT = {"smt-sw": 80, "smt-hw": 80, "homa": 90, "ktls-sw": 80}

    def _cells(self, scale: float) -> list[_Cell]:
        return [
            _Cell(system, system, 50, self.SIZES,
                  max(3, round(per_slot * scale)), None)
            for system, per_slot in self.PER_SLOT.items()
        ]


class RpcBulk(_ClosedLoop):
    """Per-byte work: 64 KB - 256 KB requests with a 64 B reply.

    smt-sw runs twice: *shallow* keeps in-flight records under
    FastAead's 512-entry memos, *deep* (64 x 256 KB in flight) overruns
    them so every open takes the full verify-and-decrypt path.
    """

    name = "rpc_bulk"
    SHALLOW = {64 * KB: 7, 128 * KB: 2, 256 * KB: 1}
    DEEP = {256 * KB: 1}
    #: 16 MB in flight toward one receiver queues for milliseconds on a
    #: lossless link; a patient resend timer keeps that from reading as
    #: loss (spurious RESENDs, then RPC timeouts).
    DEEP_CONFIG = HomaConfig(resend_interval=50e-3, max_resends=20)
    #: (label, system, depth, sizes, RPCs per slot per nominal run)
    PLAN = (
        ("smt-sw.shallow", "smt-sw", 4, SHALLOW, 215),
        ("smt-sw.deep", "smt-sw", 64, DEEP, 3, DEEP_CONFIG),
        ("smt-hw", "smt-hw", 4, SHALLOW, 100),
        ("ktls-sw", "ktls-sw", 4, SHALLOW, 64),
        ("homa", "homa", 4, SHALLOW, 60),
    )

    def _cells(self, scale: float) -> list[_Cell]:
        return [
            _Cell(label, system, depth, sizes,
                  max(1, round(per_slot * scale)), 64, *config)
            for label, system, depth, sizes, per_slot, *config in self.PLAN
        ]


# -- fabric_loaded / tenant_hot / fabric_sharded: open loop on the Clos fabric ----


class _OpSamples:
    """Per-RPC virtual latencies and slowdowns, taken at the harness call.

    The load engines keep slowdown histograms only; the ledger needs the
    latency itself too, so it wraps the harness's public ``call`` with a
    pass-through generator that notes start and end time per RPC.
    Open-loop arrivals are scheduled in virtual time, so each RPC starts
    exactly when it was due: the generator is never late.
    """

    def __init__(self, loop, fabric, hosts):
        self.loop = loop
        self.rack_of = lambda index: fabric.rack_of(hosts[index].addr)
        self.started = None  # virtual time of the first recorded RPC
        self.ops: list[tuple] = []  # (tag, size, cross, latency, done, bytes)

    def wrap(self, call, tag_of=None):
        loop = self.loop
        rack = self.rack_of

        def timed_call(*args, **kwargs):
            tag, src, dst, payload = tag_of(args) if tag_of else (None, *_sdp(args))
            t0 = loop.now
            if self.started is None:
                self.started = t0
            response = yield from call(*args, **kwargs)
            now = loop.now
            self.ops.append((
                tag, len(payload), rack(src) != rack(dst), now - t0, now,
                len(payload) + len(response),
            ))
            return response

        return timed_call

    def reset(self) -> None:
        self.started = None
        self.ops.clear()

    def window(self, duration: float) -> tuple[int, int]:
        """(ops, payload bytes) completed while load was still offered.

        The window runs ``duration`` virtual seconds from the first
        arrival; stragglers that finish in the drain count toward the
        latency tail but not toward the delivered rate.
        """
        end = self.started + duration
        done = [op for op in self.ops if op[4] <= end]
        return len(done), sum(op[5] for op in done)


def _sdp(args: tuple) -> tuple:
    """(src, dst, payload) of a ``ClusterHarness.call(src, dst, thread, payload)``."""
    return args[0], args[1], args[3]


class _SystemRun:
    """One system's open-loop cell: bed, harness, engine, samples."""

    def __init__(self, system: str):
        self.system = system
        self.engine = None
        self.fabric = None  # the TenantFabric, on tenant_hot
        self.samples: Optional[_OpSamples] = None
        self.result = None
        self.duration = 0.0


def _slowdowns(ops: list, baseline: dict) -> list:
    return [op[3] / baseline[(op[1], op[2])] for op in ops]


def _load_books(results) -> dict:
    """Issued/completed/failed/integrity totals over engine results."""
    books = {"issued": 0, "completed": 0, "failed": 0, "integrity_errors": 0}
    for result in results:
        for name in books:
            books[name] += getattr(result, name)
    return books


def _smt_vs_ktls_summary(cells: dict) -> dict:
    """End-to-end view of per-system cells that carry ``lat``/``slow``.

    Consumes those two raw lists: what stays in ``cells`` is JSON-sized.
    """
    smt = cells["smt"]
    out = _virt_summary(
        smt["lat"], smt["slow"], smt["window_ops"], smt["window_bytes"],
        smt["virt_s"],
    )
    out["virt_smt_over_ktls"] = (
        cells["ktls"]["virt_slowdown_p99"] / smt["virt_slowdown_p99"]
    )
    for cell in cells.values():
        del cell["lat"], cell["slow"]
    return out


def _check_load_result(book: Book, label: str, result, recorded: int) -> None:
    """Fold one engine ``LoadResult`` into the correctness book."""
    book.attempted += result.issued
    book.fail(result.failed, f"{label}: RPC failed")
    book.fail(result.integrity_errors, f"{label}: integrity fill mismatch")
    book.fail(
        result.issued - result.completed - result.failed,
        f"{label}: RPC never completed",
    )
    if recorded != result.completed:
        book.fail(1, f"{label}: ledger saw {recorded} RPCs, engine {result.completed}")


class FabricLoaded(Workload):
    """The paper-relevant tail: 50 % open-loop load over a leaf-spine fabric."""

    name = "fabric_loaded"
    SYSTEMS = ("homa", "smt", "tcp", "ktls")
    LOAD = 0.5
    #: Virtual seconds of Poisson arrivals per nominal run.  smt and ktls
    #: get the longer window: the SMT p99 needs >= 1000 samples and the
    #: kTLS/SMT tail ratio must compare equal windows.
    DURATION = {"homa": 0.27e-3, "smt": 0.4e-3, "tcp": 0.27e-3, "ktls": 0.4e-3}

    def _bed(self, observe: bool) -> ClosTestbed:
        bed = ClosTestbed.leaf_spine(
            num_racks=3, hosts_per_rack=2, num_spines=2,
            num_app_cores=12, seed=TRACE_SEED, ecmp_salt=TRACE_SEED,
        )
        if observe:
            bed.enable_obs()
        return bed

    def setup(self, seed: int, scale: float, observe: bool) -> None:
        self.runs = []
        for system in self.SYSTEMS:
            run = _SystemRun(system)
            bed = self._bed(observe)
            harness = ClusterHarness(bed, system, config=LOAD_HOMA_CONFIG)
            run.samples = _OpSamples(bed.loop, bed.fabric, harness.hosts)
            harness.call = run.samples.wrap(harness.call)
            run.duration = self.DURATION[system] * scale * trace_cut(seed)
            run.engine = OpenLoopEngine(
                harness, HOMA_W4, load=self.LOAD, duration=run.duration,
                seed=TRACE_SEED,
            )
            t0 = time.perf_counter()
            run.engine.calibrate()
            self.calibrate_s += time.perf_counter() - t0
            self.runs.append(run)

    def warmup(self) -> None:
        for run in self.runs:
            warm = OpenLoopEngine(
                run.engine.harness, HOMA_W4, load=self.LOAD,
                duration=run.duration * 0.05, seed=TRACE_SEED + WARMUP_TRACE_OFFSET,
            )
            warm.result.baseline_rtt.update(run.engine.result.baseline_rtt)
            warm.run()
            run.samples.reset()

    def _timed(self) -> None:
        for run in self.runs:
            run.result = run.engine.run()
            self.cell_done(run.system)

    def op_times(self) -> list:
        smt = next(r for r in self.runs if r.system == "smt")
        return [(op[4] - op[3], op[4]) for op in smt.samples.ops]

    def report(self) -> dict:
        cells = {}
        for run in self.runs:
            result, ops = run.result, run.samples.ops
            _check_load_result(self.book, run.system, result, len(ops))
            slow = _slowdowns(ops, result.baseline_rtt)
            spread = result.spine_spread
            window_ops, window_bytes = run.samples.window(run.duration)
            cells[run.system] = {
                "system": run.system,
                "ops": len(ops),
                "issued": result.issued,
                "virt_s": run.duration,
                "window_ops": window_ops,
                "window_bytes": window_bytes,
                "virt_slowdown_p50": percentile(slow, 0.50),
                "virt_slowdown_p99": percentile(slow, 0.99),
                "spine_min_share": min(spread) / sum(spread) if sum(spread) else 0.0,
                "lat": [op[3] for op in ops],
                "slow": slow,
            }
        out = _smt_vs_ktls_summary(cells)
        out["load"] = _load_books(r.result for r in self.runs)
        out["delivered_bytes"] = sum(
            r.result.achieved_bytes for r in self.runs
            if r.system in ("smt", "ktls")
        )
        out["cells"] = cells
        return out


class TenantHot(Workload):
    """The slow path: a 90 % aggressor beside a 10 % victim, both modes.

    Trims, RESENDs and backoff timers dominate here.  The two isolation
    modes run from the same seeds, so their arrival processes are
    identical and the victim's tail is directly comparable.
    """

    name = "tenant_hot"
    DURATION = 0.26e-3  # virtual seconds of arrivals per mode per nominal run
    FABRIC_SEED = 3

    def _mode(self, enabled: bool, duration: float, observe: bool):
        bed = ClosTestbed.leaf_spine(
            num_racks=3, hosts_per_rack=2, num_spines=2,
            num_app_cores=4, seed=TRACE_SEED, ecmp_salt=TRACE_SEED,
        )
        obs = bed.enable_obs() if observe else None
        fabric = TenantFabric(
            bed,
            [
                Tenant("victim", 0, weight=1.0),
                Tenant("aggr", 1, weight=1.0, rate_fraction=AGGRESSOR_ENTITLEMENT),
            ],
            isolation=IsolationConfig(enabled=enabled),
            config=TENANT_HOMA_CONFIG,
            seed=self.FABRIC_SEED + TRACE_SEED,
        )
        if obs is not None:
            obs.observe_tenant_fabric(fabric)
        run = _SystemRun("isolated" if enabled else "shared")
        run.samples = _OpSamples(bed.loop, bed.fabric, fabric.hosts)
        # TenantFabric.call(tenant_name, src, dst, thread, payload, ...)
        fabric.call = run.samples.wrap(
            fabric.call, tag_of=lambda a: (a[0], a[1], a[2], a[4])
        )
        run.fabric = fabric
        run.duration = duration
        run.engine = self._engine(fabric, duration, TRACE_SEED)
        return run

    def _engine(self, fabric, duration: float, seed: int) -> TenantLoadEngine:
        return TenantLoadEngine(
            fabric,
            [
                TenantWorkload(fabric.registry.by_name("victim"), HOMA_W4, VICTIM_LOAD),
                TenantWorkload(fabric.registry.by_name("aggr"), HOMA_W4, AGGRESSOR_LOAD),
            ],
            duration=duration,
            seed=seed,
        )

    def setup(self, seed: int, scale: float, observe: bool) -> None:
        duration = self.DURATION * scale * trace_cut(seed)
        self.runs = [
            self._mode(enabled, duration, observe) for enabled in (False, True)
        ]
        for run in self.runs:
            t0 = time.perf_counter()
            run.engine.calibrate()
            self.calibrate_s += time.perf_counter() - t0

    def warmup(self) -> None:
        for run in self.runs:
            warm = self._engine(
                run.fabric, run.duration * 0.05, TRACE_SEED + WARMUP_TRACE_OFFSET
            )
            for name, result in run.engine.results.items():
                warm.results[name].baseline_rtt.update(result.baseline_rtt)
            warm.run()
            run.samples.reset()

    def _timed(self) -> None:
        for run in self.runs:
            run.result = run.engine.run()
            self.cell_done(run.system)

    def op_times(self) -> list:
        iso = next(r for r in self.runs if r.system == "isolated")
        return [(op[4] - op[3], op[4]) for op in iso.samples.ops]

    def report(self) -> dict:
        cells = {}
        victim_p90 = {}
        for run in self.runs:
            ops = run.samples.ops
            slow_all = []
            for tenant, result in run.result.items():
                mine = [op for op in ops if op[0] == tenant]
                _check_load_result(
                    self.book, f"{run.system}/{tenant}", result, len(mine)
                )
                slow = _slowdowns(mine, result.baseline_rtt)
                slow_all.extend(slow)
                cells[f"{run.system}.{tenant}"] = {
                    "ops": len(mine),
                    "issued": result.issued,
                    "virt_slowdown_p50": percentile(slow, 0.50),
                    "virt_slowdown_p90": percentile(slow, 0.90),
                }
                if tenant == "victim":
                    victim_p90[run.system] = percentile(slow, 0.90)
            run.slow_all = slow_all
        iso = next(r for r in self.runs if r.system == "isolated")
        window_ops, window_bytes = iso.samples.window(iso.duration)
        out = _virt_summary(
            [op[3] for op in iso.samples.ops], iso.slow_all,
            window_ops, window_bytes, iso.duration,
        )
        shared = next(r for r in self.runs if r.system == "shared")
        # No kTLS here: the headline ratio is the tail the isolation
        # primitives buy, shared over isolated, over all SMT RPCs.
        out["virt_smt_over_ktls"] = (
            percentile(shared.slow_all, 0.99) / out["virt_slowdown_p99"]
        )
        out["victim_p90"] = victim_p90
        results = [res for run in self.runs for res in run.result.values()]
        out["load"] = _load_books(results)
        out["delivered_bytes"] = sum(res.achieved_bytes for res in results)
        out["throttle_events"] = sum(
            run.fabric.throttle_stats(t)["throttled"]
            for run in self.runs for t in ("victim", "aggr")
        )
        out["bulkhead_waits"] = sum(
            run.fabric.bulkhead_stats(t)["waited"]
            for run in self.runs for t in ("victim", "aggr")
        )
        out["cells"] = cells
        return out


class FabricSharded(Workload):
    """The ``sim`` layer driven differently: 4 time domains, windowed runs.

    The same open-loop mesh as ``fabric_loaded`` on a 4 x 4 cluster, but
    the kernel advances through thousands of short ``run(until)`` windows
    with the boundary codec between them.  ``ShardRunner.run`` builds its
    domains itself, so the timed section includes that construction.
    """

    name = "fabric_sharded"
    SYSTEMS = ("smt", "ktls")
    LOAD = 0.5
    DURATION = 1.6e-4
    FACTORY = "repro.load.shard:build_domain_workload"
    #: Overridden by the traced pass's extra reps (1-domain, mp carrier).
    domains = 4
    use_processes = False

    def setup(self, seed: int, scale: float, observe: bool) -> None:
        self.duration = self.DURATION * scale * trace_cut(seed)
        self.plan = ShardPlan(
            num_racks=4, hosts_per_rack=4, num_spines=2, seed=TRACE_SEED,
            ecmp_salt=TRACE_SEED, observe=observe,
        ).with_domains(self.domains)
        self.args = {}
        for system in self.SYSTEMS:
            t0 = time.perf_counter()
            baselines = measure_baselines(
                self.plan, system, HOMA_W4, config=LOAD_HOMA_CONFIG
            )
            self.calibrate_s += time.perf_counter() - t0
            self.args[system] = {
                "system": system,
                "config": LOAD_HOMA_CONFIG,
                "distribution": HOMA_W4,
                "load": self.LOAD,
                "duration": self.duration,
                "seed": TRACE_SEED,
                "baselines": baselines,
            }
        self.results = {}

    def _run(self, system: str, args: dict):
        return ShardRunner(
            self.plan,
            workload_factory=self.FACTORY,
            workload_args=args,
            use_processes=self.use_processes,
        ).run()

    def warmup(self) -> None:
        for system, args in self.args.items():
            warm = dict(args, duration=self.duration * 0.05,
                        seed=TRACE_SEED + WARMUP_TRACE_OFFSET)
            self._run(system, warm)

    def _timed(self) -> None:
        for system, args in self.args.items():
            self.results[system] = self._run(system, args)
            self.cell_done(system)

    def op_times(self) -> list:
        return self._smt_times

    def timed(self) -> None:
        super().timed()
        if self.use_processes:
            # Worker processes dispatch their own events; only the merged
            # results carry the total.
            self.events = sum(r.events for r in self.results.values())

    def report(self) -> dict:
        cells = {}
        merged = {}
        for system, run in self.results.items():
            args = self.args[system]
            merged[system] = merge_load_results(
                system, self.LOAD, self.duration, run.workloads(),
                args["baselines"], run.spine_spread(),
            )
            records = sorted(
                (rec for payload in run.workloads()
                 for rec in payload["completions"]),
                key=lambda r: (r[0], r[1], r[2]),
            )
            _check_load_result(self.book, system, merged[system], len(records))
            # (t_complete, src, serial, size, cross, slowdown): the
            # latency is the slowdown times its own denominator.
            slow = [r[5] for r in records]
            lat = [r[5] * args["baselines"][(r[3], r[4])] for r in records]
            if system == "smt":
                self._smt_times = [
                    (r[0] - v, r[0]) for r, v in zip(records, lat)
                ]
            in_window = [r for r in records if r[0] <= self.duration]
            spread = merged[system].spine_spread
            cells[system] = {
                "system": system,
                "ops": len(records),
                "issued": merged[system].issued,
                "virt_s": self.duration,
                "window_ops": len(in_window),
                "window_bytes": sum(r[3] + DEFAULT_RESPONSE for r in in_window),
                "virt_slowdown_p50": percentile(slow, 0.50),
                "virt_slowdown_p99": percentile(slow, 0.99),
                "spine_min_share": min(spread) / sum(spread) if sum(spread) else 0.0,
                "events": run.events,
                "windows": run.windows,
                "lat": lat,
                "slow": slow,
            }
        out = _smt_vs_ktls_summary(cells)
        out["load"] = _load_books(merged.values())
        out["delivered_bytes"] = sum(m.achieved_bytes for m in merged.values())
        out["cells"] = cells
        return out


# -- session_churn: sequential connection setup -----------------------------------


class _Combo:
    """One (handshake variant, key-pool mode) on its own back-to-back bed."""

    def __init__(self, variant: str, pooled: bool, sessions: int):
        self.variant = variant
        self.pooled = pooled
        self.sessions = sessions
        self.label = f"{variant}.{'pool' if pooled else 'inline'}"
        self.handshake_lat: list[float] = []
        self.handshake_host: list[float] = []
        self.ops: list[tuple] = []  # (size, latency, cold, virtual end)
        self.baseline: dict[int, float] = {}
        self.connect = None  # generator function: one session, set by setup


class SessionChurn(Workload):
    """``crypto`` and ``tls`` used differently: a new session every 8 RPCs.

    One client opens sessions back to back -- 1-RTT ECDSA, 0-RTT
    SMT-ticket, and ticket plus forward secrecy, each with and without
    ``enable_ctrl`` key pools -- and sends ``RPCS_PER_SESSION`` echo RPCs
    over each.  The first RPC of a session is *cold*: its latency runs
    from the start of the connect to its own reply.  Tickets rotate on a
    compressed schedule and are republished through DNS.
    """

    name = "session_churn"
    VARIANTS = ("1rtt", "smt", "fs")
    RPCS_PER_SESSION = 8
    #: Sessions per combo per nominal run (1-RTT costs ~3x a ticket setup).
    SESSIONS = {"1rtt": 12, "smt": 38, "fs": 24}
    #: Echo payloads spread evenly over [64, 1024] B; the warm RTT is
    #: calibrated on this grid and interpolated in between.
    ECHO_GRID = tuple(range(64, 1025, 64))
    DATA_PORT = 7000
    DNS_NAME = "server.dc.internal"
    TICKET_LIFETIME = 5e-3
    GRACE_WINDOW = 2.5e-3
    REFRESH_MARGIN = 2.5e-3
    DNS_LATENCY = 2e-6
    SPACING = 1e-3  # idle gap between sessions, off the latency path
    SESSION_CAPACITY = 4

    def setup(self, seed: int, scale: float, observe: bool) -> None:
        self.seed = seed
        rng = random.Random(seed)
        ca = CertificateAuthority("dc-root", rng)
        key = EcdsaKeyPair.generate(rng)
        leaf = ca.issue("server", KEY_ALG_ECDSA, key.public_bytes())
        self.roots = (ca.certificate,)
        self.chain = ca.chain_for(leaf)
        self.key = key
        self.combos = []
        for variant in self.VARIANTS:
            for pooled in (False, True):
                combo = _Combo(
                    variant, pooled, max(1, round(self.SESSIONS[variant] * scale))
                )
                self._build(combo, observe)
                self.combos.append(combo)
        # Session pre-establishment: one session per combo calibrates the
        # warm echo RTT per payload size (the slowdown denominator).
        for combo in self.combos:
            self._sessions(combo, 1, calibrate=True)

    def _build(self, combo: _Combo, observe: bool) -> None:
        seed = self.seed
        roots = self.roots
        bed = Testbed.back_to_back(seed=seed)
        if observe:
            bed.enable_obs()
        cc = sc = None
        if combo.pooled:
            cc, sc = bed.enable_ctrl(
                config=CtrlConfig(
                    ecdh_pool_capacity=16,
                    ecdh_low_watermark=4,
                    session_capacity=self.SESSION_CAPACITY,
                ),
                seed=seed + 2025,
            )
        sep = SmtEndpoint(bed.server, self.DATA_PORT, aead_kind="fast", ctrl=sc)
        server_thread = bed.server.app_thread(0)
        combo.bed, combo.cc, combo.sc = bed, cc, sc
        combo.dns = InternalDns(lookup_latency=self.DNS_LATENCY)
        combo.rotator = combo.cache = None
        if combo.variant == "1rtt":
            creds = ServerCredentials(chain=self.chain, signing_key=self.key)
            hs_rng = random.Random(seed + 1)

            def server_cfg():
                if sc is not None:
                    return sc.handshake_config(trust_roots=roots)
                return HandshakeConfig(rng=hs_rng, trust_roots=roots)

            sep.listen(server_thread, creds, server_cfg)
        else:
            zserver = ZeroRttServer(
                "server", self.chain, self.key, random.Random(seed + 2),
                lifetime=self.TICKET_LIFETIME, grace_window=self.GRACE_WINDOW,
            )
            combo.rotator = TicketRotator(
                bed.loop, zserver, combo.dns, self.DNS_NAME,
                ttl=self.TICKET_LIFETIME,
            )
            combo.rotator.start()
            combo.cache = TicketCache(
                combo.dns, roots, refresh_margin=self.REFRESH_MARGIN
            )
            sep.serve_zero_rtt(
                server_thread, zserver,
                pregenerate=False,  # inline combos charge server keygen
                keypool=sc.ecdh_pool if sc is not None else None,
            )

        def echo():
            thread = bed.server.app_thread(1)
            while True:
                rpc = yield from sep.socket.recv_request(thread)
                yield from sep.socket.reply(thread, rpc, rpc.payload)

        bed.loop.process(echo())
        combo.serial = 0

    def _connect(self, combo: _Combo, cep, thread):
        """One handshake of the combo's variant; returns HandshakeStats."""
        bed, cc, roots = combo.bed, combo.cc, self.roots
        combo.serial += 1
        i = combo.serial
        if combo.variant == "1rtt":
            if cc is not None:
                cfg = cc.handshake_config(server_name="server", trust_roots=roots)
            else:
                cfg = HandshakeConfig(
                    rng=random.Random(self.seed + 100 + i),
                    server_name="server", trust_roots=roots,
                )
            stats = yield from cep.connect(
                thread, bed.server.addr, self.DATA_PORT, cfg
            )
            return stats
        ticket = yield from combo.cache.get(self.DNS_NAME, bed.loop)
        stats = yield from cep.connect_zero_rtt(
            thread, bed.server.addr, self.DATA_PORT, ticket, roots,
            forward_secrecy=(combo.variant == "fs"),
            rng=random.Random(self.seed + 200 + i),
            pregenerated=cc.ecdh_pool.take() if cc is not None else None,
            share_fingerprint=True,
        )
        return stats

    def _sessions(self, combo: _Combo, count: int, record: bool = False,
                  calibrate: bool = False) -> None:
        bed = combo.bed
        loop = bed.loop
        book = self.book
        thread = bed.client.app_thread(0)
        per = len(self.ECHO_GRID) if calibrate else self.RPCS_PER_SESSION
        rng = random.Random(self.seed * 6151 + combo.serial)
        lo, hi = self.ECHO_GRID[0], self.ECHO_GRID[-1]
        if calibrate:
            sizes = list(self.ECHO_GRID) * count
        else:
            # Evenly spaced over [lo, hi] with a few bytes of seeded
            # jitter, then shuffled: every seed offers nearly the same
            # bytes, yet no two seeds the same latencies.
            n = count * per
            sizes = [
                min(hi, max(lo, lo + i * (hi - lo) // max(1, n - 1)
                            + rng.randint(-8, 8)))
                for i in range(n)
            ]
            rng.shuffle(sizes)
        completed = [0]

        def client():
            for s in range(count):
                cep = SmtEndpoint(
                    bed.client, bed.client.alloc_port(), aead_kind="fast",
                    ctrl=combo.cc,
                )
                t0 = loop.now
                host0 = time.perf_counter()
                stats = yield from self._connect(combo, cep, thread)
                if record:
                    # One client, nothing else in flight: the host time
                    # between these two points is this handshake's.
                    combo.handshake_host.append(time.perf_counter() - host0)
                for k in range(per):
                    size = sizes[s * per + k]
                    payload = rng.randbytes(size)
                    if k:
                        t0 = loop.now
                    reply = yield from cep.socket.call(
                        thread, bed.server.addr, self.DATA_PORT, payload
                    )
                    lat = loop.now - t0
                    completed[0] += 1
                    if reply != payload:
                        book.fail(1, f"{combo.label}: echo mismatch")
                    elif calibrate:
                        if k:  # the cold RPC is not a baseline
                            combo.baseline[size] = lat
                    elif record:
                        combo.ops.append((size, lat, k == 0, loop.now))
                if calibrate:
                    # size[0] rode the cold RPC; measure it warm as well.
                    t0 = loop.now
                    yield from cep.socket.call(
                        thread, bed.server.addr, self.DATA_PORT, bytes(sizes[0])
                    )
                    combo.baseline[sizes[0]] = loop.now - t0
                if record:
                    combo.handshake_lat.append(stats.finished_at - stats.started_at)
                yield loop.timeout(self.SPACING)

        if record:
            book.attempted += count * per
        done = loop.process(client())
        # Step in short slices: the ticket rotator never goes idle, so a
        # long run(until) would keep minting tickets after the client ends.
        deadline = loop.now + 5.0
        while not done.triggered and loop.now < deadline:
            loop.run(until=loop.now + self.SPACING)
        if not done.triggered:
            book.notes.append(f"{combo.label}: deadlock")
        elif not done.ok:
            book.notes.append(f"{combo.label}: {done.value!r}")
        if record:
            book.fail(count * per - completed[0], f"{combo.label}: RPC never completed")

    def warmup(self) -> None:
        for combo in self.combos:
            self._sessions(combo, 1)

    def _timed(self) -> None:
        for combo in self.combos:
            self._sessions(combo, combo.sessions, record=True)
            if combo.rotator is not None:
                combo.rotator.stop()  # freeze counters when the workload ends
            self.cell_done(combo.label)

    def op_times(self) -> list:
        return [(op[3] - op[1], op[3]) for c in self.combos for op in c.ops]

    def _baseline(self, combo: _Combo, size: int) -> float:
        """Warm echo RTT at ``size``, interpolated on the calibrated grid."""
        step = self.ECHO_GRID[1] - self.ECHO_GRID[0]
        lo = max(self.ECHO_GRID[0], size - (size - self.ECHO_GRID[0]) % step)
        hi = min(self.ECHO_GRID[-1], lo + step)
        if hi == lo:
            return combo.baseline[lo]
        frac = (size - lo) / (hi - lo)
        return combo.baseline[lo] * (1 - frac) + combo.baseline[hi] * frac

    def report(self) -> dict:
        lat, slow, nbytes = [], [], 0
        cells = {}
        for combo in self.combos:
            for size, latency, _cold, _end in combo.ops:
                lat.append(latency)
                slow.append(latency / self._baseline(combo, size))
                nbytes += 2 * size
            cold = [op[1] for op in combo.ops if op[2]]
            cells[combo.label] = {
                "sessions": len(combo.handshake_lat),
                "ops": len(combo.ops),
                "handshake_p50_us": percentile(combo.handshake_lat, 0.5) / USEC,
                "cold_rpc_p50_us": percentile(cold, 0.5) / USEC,
                "pool_misses": (
                    combo.cc.ecdh_pool.misses + combo.sc.ecdh_pool.misses
                    if combo.pooled else 0
                ),
                "evicted_lru": combo.sc.table.evicted_lru if combo.pooled else 0,
                "rotations": combo.rotator.rotations if combo.rotator else 0,
                "cache_refreshes": combo.cache.refreshes if combo.cache else 0,
                "dns_queries": combo.dns.queries,
            }
        busy = sum(lat)  # one client, one RPC at a time: idle gaps excluded
        out = _virt_summary(lat, slow, len(lat), nbytes, busy)
        # The session-setup headline (Fig. 12): what the standard 1-RTT TLS
        # handshake costs a cold RPC over the 0-RTT SMT-ticket exchange.
        out["virt_smt_over_ktls"] = (
            cells["1rtt.inline"]["cold_rpc_p50_us"]
            / cells["smt.inline"]["cold_rpc_p50_us"]
        )
        handshakes = [v for c in self.combos for v in c.handshake_lat]
        out["handshakes"] = len(handshakes)
        host = [v for c in self.combos for v in c.handshake_host]
        out["handshake_host_ms"] = sum(host) / len(host) * 1e3
        out["delivered_bytes"] = nbytes
        out["handshake_virt_p90_us"] = percentile(handshakes, 0.90) / USEC
        out["cells"] = cells
        return out


WORKLOADS = {
    cls.name: cls
    for cls in (RpcSmall, RpcBulk, FabricLoaded, TenantHot, FabricSharded,
                SessionChurn)
}
