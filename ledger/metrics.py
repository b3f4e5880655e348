"""Metric declarations and the arithmetic that turns reps into metrics.

``BENCHMARK.json`` is the list the driver reads (names, units, direction,
bounds); this module is the one place that computes each of those names
from the raw rep outputs, and it carries what ``BENCHMARK.json``'s fixed
schema has no room for: which workloads a per-layer metric applies to
and which end-to-end metric it is predicted to move (``MOVES``).
"""

from __future__ import annotations

import statistics

WORKLOADS = (
    "rpc_small", "rpc_bulk", "fabric_loaded", "tenant_hot",
    "fabric_sharded", "session_churn",
)
FABRIC = ("fabric_loaded", "tenant_hot", "fabric_sharded")

#: Profile buckets reported as ``<layer>.host_self_s`` / ``host_share``.
#: ``ledger`` is the benchmark's own code (workload generators, the
#: tracer's wrappers); ``other`` is whatever no owned caller reaches.
HOST_LAYERS = (
    "sim", "net", "nic", "host", "homa", "tcp", "ktls", "core", "tls",
    "crypto", "ctrl", "dns", "load", "tenancy", "obs", "apps", "bench",
    "ledger", "other",
)

END_TO_END = (
    "setup_s", "wall_s", "peak_rss_mb", "virt_lat_p50_us", "virt_lat_p99_us",
    "virt_slowdown_p50", "virt_slowdown_p99", "virt_ops_per_s",
    "virt_goodput_gbps", "virt_smt_over_ktls",
)
HOST_CLOCK = ("setup_s", "wall_s", "peak_rss_mb")

#: Paper bands for ``virt_smt_over_ktls`` where EXPERIMENTS.md has one.
PAPER_BANDS = {
    "rpc_small": "Fig. 7: SMT over kTLS 1.16-1.41x at 64 B-1 KB",
    "session_churn": "Fig. 12: Init saves 52-55 % over Init-1RTT, i.e. 2.08-2.22x",
}

#: layer metric (or prefix) -> (end-to-end metric it moves, on which
#: workloads, predicted no change on).  Written before any measurement.
MOVES = (
    ("sim.ns_per_event, sim.host_share", "wall_s",
     "rpc_small, fabric_loaded, tenant_hot", "session_churn"),
    ("homa.host_self_s", "wall_s", "rpc_small, rpc_bulk",
     "session_churn and the tcp/ktls cells"),
    ("crypto.aead_ns_per_byte, core.*_ns_per_byte, tls.host_self_s", "wall_s",
     "rpc_bulk (split shallow/deep)", "rpc_small, session_churn"),
    ("crypto.asym_ms_per_op, tls.handshake_host_ms", "wall_s and setup_s",
     "session_churn (PKI on every workload)", "-"),
    ("net.ns_per_packet", "wall_s", "fabric_*, rpc_bulk", "session_churn"),
    ("sim.shard.*", "wall_s", "fabric_sharded only", "-"),
    ("homa.retx_ratio, net.trimmed, tenancy.*",
     "virt_slowdown_p99 (and wall_s through sim.events)",
     "tenant_hot, fabric_loaded", "-"),
    ("nic.offload_*", "virt_ops_per_s, virt_goodput_gbps", "the smt-hw cells", "-"),
    ("memo, capture and reassembly buffers", "peak_rss_mb",
     "rpc_bulk, fabric_sharded", "-"),
    ("load.calibrate_s", "setup_s", "fabric_*", "-"),
)


def median_min_max(values: list) -> tuple:
    return statistics.median(values), min(values), max(values)


def _spans(trace: dict) -> dict:
    return {row["name"]: row for row in trace["spans"]}


def _span_sum(spans: dict, names: tuple, field: str):
    return sum(spans[n][field] for n in names if n in spans)


def per_layer(workload: str, plain: dict, traced: dict, extras: dict) -> dict:
    """Every per-layer metric that applies to ``workload``.

    ``plain`` is an untraced rep (its ``wall_s`` is the denominator of
    every host rate), ``traced`` the traced rep, ``extras`` the extra
    reps keyed by mode (``obs``, ``shard1``, ``shardmp``).  A metric that
    is undefined on this workload is absent from the result.
    """
    trace = traced["trace"]
    report = traced["report"]
    cells = report["cells"]
    counts = trace["counts"]
    counters = trace["counters"]
    spans = _spans(trace)
    wall = plain["wall_s"]
    out: dict = {}

    # -- host time by layer: raw profile buckets -----------------------------------
    buckets = dict(trace["buckets"])
    buckets["other"] = buckets.get("other", 0.0) + buckets.pop("testbed", 0.0)
    for layer in HOST_LAYERS:
        seconds = buckets.pop(layer, 0.0)
        if seconds > 0:
            out[f"{layer}.host_self_s"] = seconds
            out[f"{layer}.host_share"] = seconds / trace["wall_s"]
    if buckets:  # a repro package this table does not know yet
        extra = sum(buckets.values())
        out["other.host_self_s"] = out.get("other.host_self_s", 0.0) + extra
        out["other.host_share"] = out["other.host_self_s"] / trace["wall_s"]

    # -- sim ---------------------------------------------------------------------------
    events = plain["events"]
    out["sim.events"] = events
    out["sim.events_per_s"] = events / wall
    out["sim.ns_per_event"] = wall / events * 1e9
    armed = counts.get("sim.timers_armed", 0)
    cancelled = counts.get("sim.timers_cancelled", 0)
    out["sim.timers_armed"] = armed
    out["sim.timers_cancelled"] = cancelled
    if armed:
        out["sim.timer_cancel_ratio"] = cancelled / armed
    if workload == "fabric_sharded":
        out["sim.shard.windows"] = sum(c["windows"] for c in cells.values())
        out["sim.shard.boundary_blobs"] = counts.get("sim.shard.boundary_blobs", 0)
        out["sim.shard.boundary_bytes"] = counts.get("sim.shard.boundary_bytes", 0)
        if "shard1" in extras:
            out["sim.shard.inproc_over_1domain"] = wall / extras["shard1"]["wall_s"]
        if "shardmp" in extras:
            mp = extras["shardmp"]
            out["sim.shard.mp_wall_s"] = mp["wall_s"]
            out["sim.shard.mp_cpu_s"] = mp["cpu_s"]
            out["sim.shard.mp_over_inproc"] = mp["wall_s"] / wall

    # -- net / nic / host ----------------------------------------------------------------
    packets = counts.get("net.packets", 0)
    out["net.packets"] = packets
    out["net.bytes"] = counts.get("net.bytes", 0)
    if packets:
        out["net.ns_per_packet"] = wall / packets * 1e9
    out["net.dropped"] = counters["net.dropped"]
    if workload in FABRIC:
        out["net.queued"] = counters["net.queued"]
        out["net.trimmed"] = counters["net.trimmed"]
        shares = [c["spine_min_share"] for c in cells.values()
                  if "spine_min_share" in c]
        if shares:
            out["net.spine_min_share"] = min(shares)
    out["nic.segments_posted"] = counters["nic.segments_posted"]
    out["nic.tso_packets"] = counters["nic.tso_packets"]
    if workload in ("rpc_small", "rpc_bulk"):
        out["nic.offload_records"] = counters["nic.offload_records"]
        out["nic.offload_resyncs"] = trace["offload_resyncs"]
    if counters["host.app_capacity_s"]:
        out["host.virt_app_busy_frac"] = (
            counters["host.app_busy_s"] / counters["host.app_capacity_s"]
        )
        out["host.virt_softirq_busy_frac"] = (
            counters["host.softirq_busy_s"] / counters["host.softirq_capacity_s"]
        )
    out["host.softirq_items"] = counters["host.softirq_items"]

    # -- transports ----------------------------------------------------------------------
    data = counts.get("homa.data", 0)
    out["homa.messages_tx"] = counters["homa.messages_tx"]
    out["homa.packets_tx"] = sum(
        v for k, v in counts.items() if k.startswith("homa.")
    )
    out["homa.packets_retx"] = counters["homa.packets_retx"]
    if data:
        out["homa.retx_ratio"] = counters["homa.packets_retx"] / data
    out["homa.resends_rx"] = counts.get("homa.resend", 0)
    out["homa.grants_tx"] = counts.get("homa.grant", 0)
    out["homa.sender_timeouts"] = counters["homa.sender_timeouts"]
    for layer, cell in (("homa", "homa"), ("tcp", "tcp"), ("ktls", "ktls"),
                        ("ktls", "ktls-sw")):
        if cell in cells and "virt_slowdown_p99" in cells[cell]:
            out[f"{layer}.virt_p99"] = cells[cell]["virt_slowdown_p99"]
    if any(cell in cells for cell in ("tcp", "ktls", "ktls-sw")):
        out["tcp.segments_tx"] = counts.get("tcp.segments", 0)
        out["tcp.retransmits"] = counters["tcp.retransmits"]
        out["tcp.rto_fires"] = counters["tcp.rto_fires"]
        out["ktls.records"] = counters["ktls.records"]

    # -- core / tls / crypto ---------------------------------------------------------------
    out["core.records_sealed"] = counters["core.records_sealed"]
    out["core.records_opened"] = counters["core.records_opened"]
    out["core.auth_failures"] = counters["core.auth_failures"]
    for op in ("encode", "decode"):
        row = spans.get(f"core.SmtCodec.{op}")
        if row and row["bytes"]:
            # Inclusive: framing plus the record seals/opens underneath.
            out[f"core.{op}_ns_per_byte"] = row["total_s"] / row["bytes"] * 1e9
    seal = spans.get("tls.RecordProtection.seal", {"calls": 0})["calls"]
    out["tls.records_sealed"] = seal + counts.get("tls.batch_records", 0)
    out["tls.records_opened"] = sum(
        spans.get(f"tls.RecordProtection.{op}", {"calls": 0})["calls"]
        for op in ("open", "open_parsed")
    )
    aead = ("crypto.FastAead.seal", "crypto.FastAead.seal_many",
            "crypto.FastAead.open")
    out["crypto.aead_seal_calls"] = _span_sum(spans, aead[:2], "calls")
    out["crypto.aead_open_calls"] = _span_sum(spans, aead[2:], "calls")
    aead_bytes = _span_sum(spans, aead, "bytes")
    out["crypto.aead_bytes"] = aead_bytes
    if aead_bytes:
        out["crypto.aead_ns_per_byte"] = (
            _span_sum(spans, aead, "self_s") / aead_bytes * 1e9
        )
    delivered = report.get("delivered_bytes", 0)
    if aead_bytes and delivered:
        out["crypto.aead_bytes_per_delivered_byte"] = aead_bytes / delivered
    if workload == "rpc_bulk":
        marks = trace["cell_aead_open"]
        order = list(marks)
        for phase in ("shallow", "deep"):
            label = f"smt-sw.{phase}"
            at = order.index(label)
            t0, b0 = marks[order[at - 1]] if at else (0.0, 0)
            t1, b1 = marks[label]
            if b1 > b0:
                out[f"crypto.aead_open_ns_per_byte.{phase}"] = (
                    (t1 - t0) / (b1 - b0) * 1e9
                )
    asym = ("crypto.ecdsa_sign", "crypto.ecdsa_verify",
            "crypto.EcdhKeyPair.shared_secret")
    if workload == "session_churn":
        out["crypto.ecdsa_signs"] = _span_sum(spans, asym[:1], "calls")
        out["crypto.ecdsa_verifies"] = _span_sum(spans, asym[1:2], "calls")
        out["crypto.ecdh_ops"] = _span_sum(spans, asym[2:], "calls")
        ops = _span_sum(spans, asym, "calls")
        if ops:
            out["crypto.asym_ms_per_op"] = (
                _span_sum(spans, asym, "total_s") / ops * 1e3
            )
        out["tls.handshakes"] = report["handshakes"]
        out["tls.handshake_host_ms"] = plain["report"]["handshake_host_ms"]
        out["tls.handshake_virt_p90_us"] = report["handshake_virt_p90_us"]
        for name in ("pool_misses", "evicted_lru", "rotations", "cache_refreshes"):
            out[f"ctrl.{name}"] = sum(c[name] for c in cells.values())
        out["dns.queries"] = sum(c["dns_queries"] for c in cells.values())

    # -- load / tenancy --------------------------------------------------------------------
    if workload in FABRIC:
        load = report["load"]
        for name in ("issued", "completed", "failed", "integrity_errors"):
            out[f"load.{name}"] = load[name]
        out["load.calibrate_s"] = plain["calibrate_s"]
        # Arrivals are scheduled in virtual time: every RPC starts at its
        # due time, by construction.
        out["load.generator_late_us"] = 0.0
    if workload == "tenant_hot":
        out["tenancy.throttle_events"] = report["throttle_events"]
        out["tenancy.bulkhead_waits"] = report["bulkhead_waits"]
        p90 = report["victim_p90"]
        out["tenancy.victim_p90_isolated"] = p90["isolated"]
        out["tenancy.victim_p90_shared"] = p90["shared"]
        out["tenancy.isolation_gain"] = p90["shared"] / p90["isolated"]

    # -- the instruments themselves ----------------------------------------------------------
    out["obs.spans"] = counters["obs.spans"]
    if "obs" in extras:
        out["obs.overhead_ratio"] = extras["obs"]["wall_s"] / wall
    out["trace.overhead_ratio"] = trace["wall_s"] / wall
    # Traced wall that cProfile charged to no function, so to no layer:
    # the host_share values sum to one less this.
    out["trace.unattributed_share"] = trace["unattributed_share"]
    return out
