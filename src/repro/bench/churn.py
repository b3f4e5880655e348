"""Connection churn under the session-lifecycle control plane (§4.5).

Datacenter hosts set up and tear down sessions at high rates (Homa's
workloads, the position paper's churn argument), so the *control plane*
around the handshake matters as much as the handshake itself.  This
experiment measures sequential connection setup across three variants --
the full 1-RTT TLS handshake, the 0-RTT SMT-ticket exchange, and the
SMT-ticket exchange with forward-secrecy upgrade -- each with and
without standby key pools (§4.5.1).

The headline check is Table 2 minus keygen: pools must remove *exactly*
the key-generation terms from the critical path (C1.1 = 61.3us on the
client, S2.1 = 67.9us on the server) and nothing else.  The SMT-ticket
variants additionally run the whole ticket lifecycle: scheduled rotation
republished through DNS (§4.5.3, with a grace window), client-side
ticket refresh before expiry, and DNS lookup latency charged through the
event loop.  Pooled combos run a bounded server session table whose LRU
evictions the report checks count-for-count.

Every check is virtual-time or count based -- nothing depends on host
wall time, so the report is bit-identical across machines.
"""

from __future__ import annotations

import random

from repro.bench.report import ExperimentReport
from repro.core.endpoint import SmtEndpoint
from repro.core.zero_rtt import ZeroRttServer
from repro.crypto.ca import fixed_pki
from repro.ctrl import CtrlConfig, TicketCache, TicketRotator
from repro.dns.resolver import InternalDns
from repro.testbed import Testbed
from repro.tls.handshake import HandshakeConfig, ServerCredentials
from repro.units import USEC

VARIANTS = ("1rtt", "smt", "fs")
DATA_PORT = 7000
DNS_NAME = "server.dc.internal"
TICKET_LIFETIME = 5e-3  # compressed rotation schedule for the bench
GRACE_WINDOW = 2.5e-3
REFRESH_MARGIN = 2.5e-3
DNS_LATENCY = 2e-6
SPACING = 1e-3  # idle gap between connections (off the latency path)

# Table 2 keygen terms the pools must remove from the critical path.
CLIENT_KEYGEN_US = 61.3  # C1.1
SERVER_KEYGEN_US = 67.9  # S2.1



def _percentile(sorted_vals: list[float], frac: float) -> float:
    idx = min(len(sorted_vals) - 1, int(frac * len(sorted_vals)))
    return sorted_vals[idx]


def _run_combo(variant: str, pooled: bool, n: int, capacity: int, seed: int) -> dict:
    """``n`` sequential connections of one variant; returns measurements."""
    ca, chain, key = fixed_pki("server")
    roots = (ca.certificate,)
    creds = ServerCredentials(chain=chain, signing_key=key)
    bed = Testbed.back_to_back()
    cc = sc = None
    if pooled:
        cc, sc = bed.enable_ctrl(
            config=CtrlConfig(
                ecdh_pool_capacity=16,
                ecdh_low_watermark=4,
                session_capacity=capacity,
            ),
            seed=seed,
        )
    sep = SmtEndpoint(bed.server, DATA_PORT, ctrl=sc)
    server_thread = bed.server.app_thread(0)

    dns = InternalDns(lookup_latency=DNS_LATENCY)
    rotator = None
    cache = None
    if variant == "1rtt":
        hs_rng = random.Random(seed + 1)

        def server_cfg():
            if sc is not None:
                return sc.handshake_config(trust_roots=roots)
            return HandshakeConfig(rng=hs_rng, trust_roots=roots)

        sep.listen(server_thread, creds, server_cfg)
    else:
        zserver = ZeroRttServer(
            "server",
            chain,
            key,
            random.Random(seed + 2),
            lifetime=TICKET_LIFETIME,
            grace_window=GRACE_WINDOW,
        )
        rotator = TicketRotator(
            bed.loop, zserver, dns, DNS_NAME, ttl=TICKET_LIFETIME
        )
        rotator.start()
        cache = TicketCache(dns, roots, refresh_margin=REFRESH_MARGIN)
        sep.serve_zero_rtt(
            server_thread,
            zserver,
            pregenerate=False,  # pool-off combos charge S2.1 inline
            keypool=sc.ecdh_pool if sc is not None else None,
        )

    def echo():
        thread = bed.server.app_thread(1)
        while True:
            rpc = yield from sep.socket.recv_request(thread)
            yield from sep.socket.reply(thread, rpc, rpc.payload)

    bed.loop.process(echo())

    latencies: list[float] = []

    def client():
        thread = bed.client.app_thread(0)
        for i in range(n):
            cep = SmtEndpoint(bed.client, bed.client.alloc_port(), ctrl=cc)
            if variant == "1rtt":
                if cc is not None:
                    cfg = cc.handshake_config(
                        server_name="server", trust_roots=roots
                    )
                else:
                    cfg = HandshakeConfig(
                        rng=random.Random(seed + 100 + i),
                        server_name="server",
                        trust_roots=roots,
                    )
                stats = yield from cep.connect(
                    thread, bed.server.addr, DATA_PORT, cfg
                )
            else:
                ticket = yield from cache.get(DNS_NAME, bed.loop)
                stats = yield from cep.connect_zero_rtt(
                    thread,
                    bed.server.addr,
                    DATA_PORT,
                    ticket,
                    roots,
                    forward_secrecy=(variant == "fs"),
                    rng=random.Random(seed + 200 + i),
                    pregenerated=cc.ecdh_pool.take() if cc is not None else None,
                    share_fingerprint=True,
                )
            latencies.append(stats.finished_at - stats.started_at)
            reply = yield from cep.socket.call(
                thread, bed.server.addr, DATA_PORT, b"churn"
            )
            if reply != b"churn":
                raise AssertionError("echo mismatch")
            yield bed.loop.timeout(SPACING)
        if rotator is not None:
            rotator.stop()  # freeze counters when the workload ends

    done = bed.loop.process(client())
    bed.loop.run(until=5.0)
    if not done.triggered:
        raise AssertionError(f"churn {variant} pooled={pooled}: deadlock")
    if not done.ok:
        raise done.value

    out = {
        "latencies": latencies,
        "dns_queries": dns.queries,
        "rotations": rotator.rotations if rotator is not None else 0,
        "cache_hits": cache.hits if cache is not None else 0,
        "cache_refreshes": cache.refreshes if cache is not None else 0,
        "pool_misses": 0,
        "evicted_lru": 0,
        "admission_refused": 0,
    }
    if pooled:
        out["pool_misses"] = cc.ecdh_pool.misses + sc.ecdh_pool.misses
        out["evicted_lru"] = sc.table.evicted_lru
        out["admission_refused"] = sc.table.admission_refused
    return out


def run(quick: bool = False) -> ExperimentReport:
    n = 6 if quick else 12
    capacity = 3 if quick else 4
    report = ExperimentReport(
        "Churn: connection setup with the session control plane"
        + (" (quick)" if quick else "")
    )
    results: dict[tuple[str, bool], dict] = {}
    for variant in VARIANTS:
        for pooled in (False, True):
            results[(variant, pooled)] = _run_combo(
                variant, pooled, n=n, capacity=capacity, seed=40
            )

    rows = []
    stats: dict[tuple[str, bool], dict] = {}
    for (variant, pooled), res in results.items():
        lat = sorted(res["latencies"])
        mean = sum(lat) / len(lat)
        p50 = _percentile(lat, 0.50)
        p99 = _percentile(lat, 0.99)
        rate = len(lat) / sum(lat)  # back-to-back setup throughput
        stats[(variant, pooled)] = {"mean": mean, "p50": p50, "p99": p99}
        rows.append(
            (
                variant,
                "pool" if pooled else "inline",
                round(p50 / USEC, 1),
                round(p99 / USEC, 1),
                round(mean / USEC, 1),
                round(rate),
            )
        )
    report.add_table(
        ["variant", "keys", "p50 (us)", "p99 (us)", "mean (us)", "setups/s"],
        rows,
    )

    def saving_us(variant: str) -> float:
        return (
            stats[(variant, False)]["mean"] - stats[(variant, True)]["mean"]
        ) / USEC

    both = CLIENT_KEYGEN_US + SERVER_KEYGEN_US
    report.check(
        "1rtt: pool removes client+server keygen (us)",
        saving_us("1rtt"), both - 1.0, both + 1.0,
    )
    report.check(
        "smt: pool removes client keygen (us)",
        saving_us("smt"), CLIENT_KEYGEN_US - 1.0, CLIENT_KEYGEN_US + 1.0,
    )
    report.check(
        "fs: pool removes client+server keygen (us)",
        saving_us("fs"), both - 1.0, both + 1.0,
    )
    pool_misses = sum(
        res["pool_misses"] for (_, pooled), res in results.items() if pooled
    )
    report.check("key pool misses across pooled combos", pool_misses, 0, 0)
    expected_evictions = 3 * (n - capacity)
    evicted = sum(
        res["evicted_lru"] for (_, pooled), res in results.items() if pooled
    )
    report.check(
        "server LRU evictions (count)", evicted,
        expected_evictions, expected_evictions,
    )
    ticket_combos = [
        res for (variant, _), res in results.items() if variant != "1rtt"
    ]
    report.check(
        "ticket rotations driven by the scheduler (count)",
        min(res["rotations"] for res in ticket_combos), 1, n,
    )
    report.check(
        "client ticket refreshes through DNS (count)",
        min(res["cache_refreshes"] for res in ticket_combos), 1, n,
    )
    report.check(
        "every connect used cache or refresh (count)",
        sum(res["cache_hits"] + res["cache_refreshes"] for res in ticket_combos),
        4 * n, 4 * n,
    )
    report.check(
        "smt p99 below 1rtt p99 (pooled)",
        float(stats[("smt", True)]["p99"] < stats[("1rtt", True)]["p99"]),
        1, 1,
    )
    return report
