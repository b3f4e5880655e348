"""Figure 12: key-exchange latency (paper §5.6).

Five handshake variants over the simulated Homa transport:

- ``Init-1RTT``: standard TLS 1.3 full handshake (baseline, no pre-gen).
- ``Init-FS``:   0-RTT SMT-ticket exchange with the forward-secrecy
                 upgrade (server replies with an ephemeral share).
- ``Init``:      0-RTT SMT-ticket exchange, no forward secrecy.
- ``Rsmp-FS``:   PSK resumption with fresh ECDHE, pre-generated keys.
- ``Rsmp``:      PSK resumption without ECDHE, pre-generated keys.

The latency reported is handshake completion at the client (the client
has final keys and the server's confirming flight), matching the paper's
"RTT of the initial handshake and session resumption".  For the 0-RTT
variants, *data* can flow from keys_ready (≈0); the table shows both.
"""

from __future__ import annotations

import random

from repro.bench.report import ExperimentReport
from repro.core.endpoint import SmtEndpoint
from repro.core.zero_rtt import ZeroRttServer
from repro.crypto.ca import fixed_pki
from repro.crypto.ecdh import EcdhKeyPair
from repro.dns.resolver import InternalDns
from repro.testbed import Testbed
from repro.tls.handshake import HandshakeConfig, ServerCredentials, SessionTicket
from repro.units import USEC

VARIANTS = ("Init-1RTT", "Init-FS", "Init", "Rsmp-FS", "Rsmp")
DATA_PORT = 7000



def _bed_with_endpoints():
    bed = Testbed.back_to_back()
    cep = SmtEndpoint(bed.client, bed.client.alloc_port())
    sep = SmtEndpoint(bed.server, DATA_PORT)
    return bed, cep, sep


def _full_handshake(pregenerate: bool, ticket: SessionTicket | None = None,
                    forward_secrecy: bool = True, cache: dict | None = None,
                    seed: int = 5):
    """Run one handshake over the wire; returns (stats, issued tickets)."""
    ca, chain, key = fixed_pki("server")

    bed, cep, sep = _bed_with_endpoints()
    roots = (ca.certificate,)
    creds = ServerCredentials(chain=chain, signing_key=key)
    rng = random.Random(seed)

    def server_cfg():
        return HandshakeConfig(
            rng=random.Random(seed + 1), trust_roots=roots,
            pregenerated_keypair=EcdhKeyPair.generate(rng) if pregenerate else None,
        )

    sep.listen(bed.server.app_thread(0), creds, server_cfg, issue_tickets=1,
               session_cache=cache)
    out = {}

    def client():
        thread = bed.client.app_thread(0)
        cfg = HandshakeConfig(
            rng=random.Random(seed + 2), server_name="server", trust_roots=roots,
            pregenerated_keypair=EcdhKeyPair.generate(rng) if pregenerate else None,
            ticket=ticket, forward_secrecy=forward_secrecy,
        )
        out["stats"] = yield from cep.connect(thread, bed.server.addr, DATA_PORT, cfg)

    done = bed.loop.process(client())
    bed.loop.run(until=1.0)
    if not done.ok:
        raise done.value
    return out["stats"], cep.tickets.get((bed.server.addr, DATA_PORT), [])


def _zero_rtt(forward_secrecy: bool, seed: int = 9):
    ca, chain, key = fixed_pki("server")
    bed, cep, sep = _bed_with_endpoints()
    roots = (ca.certificate,)
    zserver = ZeroRttServer("server", chain, key, random.Random(seed))
    dns = InternalDns()
    dns.publish("server.dc.internal", zserver.rotate(now=0.0), now=0.0)
    sep.serve_zero_rtt(bed.server.app_thread(0), zserver)
    ticket = dns.query("server.dc.internal", now=0.0)
    out = {}

    def client():
        thread = bed.client.app_thread(0)
        out["stats"] = yield from cep.connect_zero_rtt(
            thread, bed.server.addr, DATA_PORT, ticket, roots,
            forward_secrecy=forward_secrecy,
            rng=random.Random(seed + 1),
            pregenerated=EcdhKeyPair.generate(random.Random(seed + 2)),
        )

    done = bed.loop.process(client())
    bed.loop.run(until=1.0)
    if not done.ok:
        raise done.value
    return out["stats"]


def run() -> ExperimentReport:
    report = ExperimentReport("Figure 12: key-exchange latency (us)")
    latency: dict[str, float] = {}
    data_ready: dict[str, float] = {}

    stats, tickets = _full_handshake(pregenerate=False)
    latency["Init-1RTT"] = stats.finished_at - stats.started_at
    data_ready["Init-1RTT"] = stats.setup_latency

    stats = _zero_rtt(forward_secrecy=True)
    latency["Init-FS"] = stats.finished_at - stats.started_at
    data_ready["Init-FS"] = stats.setup_latency

    stats = _zero_rtt(forward_secrecy=False)
    latency["Init"] = stats.finished_at - stats.started_at
    data_ready["Init"] = stats.setup_latency

    cache: dict = {}
    _stats, tickets = _full_handshake(pregenerate=True, cache=cache)
    stats, _ = _full_handshake(pregenerate=True, ticket=tickets[0],
                               forward_secrecy=True, cache=cache)
    latency["Rsmp-FS"] = stats.finished_at - stats.started_at
    data_ready["Rsmp-FS"] = stats.setup_latency

    cache = {}
    _stats, tickets = _full_handshake(pregenerate=True, cache=cache)
    stats, _ = _full_handshake(pregenerate=True, ticket=tickets[0],
                               forward_secrecy=False, cache=cache)
    latency["Rsmp"] = stats.finished_at - stats.started_at
    data_ready["Rsmp"] = stats.setup_latency

    report.add_table(
        ["variant", "handshake (us)", "client keys ready (us)"],
        [
            (v, round(latency[v] / USEC, 1), round(data_ready[v] / USEC, 1))
            for v in VARIANTS
        ],
    )
    base = latency["Init-1RTT"]
    saving = lambda v: (base - latency[v]) / base * 100.0  # noqa: E731
    report.check("Init saving over Init-1RTT (%)", saving("Init"), 52, 55, slack=1.0)
    report.check("Init-FS saving over Init-1RTT (%)", saving("Init-FS"), 37, 44,
                 slack=1.0)
    report.check(
        "Rsmp-FS minus Rsmp (us)",
        (latency["Rsmp-FS"] - latency["Rsmp"]) / USEC, 338, 387, slack=0.3,
    )
    report.check("0-RTT data usable immediately (us)",
                 data_ready["Init"] / USEC, 0, 300)
    report.check("ordering: Rsmp < Init < Init-FS < Init-1RTT",
                 float(latency["Rsmp"] < latency["Init"] < latency["Init-FS"]
                       < latency["Init-1RTT"]), 1, 1)
    return report
