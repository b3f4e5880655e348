"""Front-end session opens run real SMT handshakes over the fabric.

Each open is a client :class:`~repro.core.endpoint.SmtEndpoint` on the
front end's host talking to the picked replica's endpoint, which serves
0-RTT and the full handshake on one responder.  What the opens leave in
the two endpoints is the evidence: one registered session each side,
with mirrored traffic keys.
"""

from __future__ import annotations

import random

from repro.core.zero_rtt import ZeroRttServer
from repro.crypto.ca import fixed_pki
from repro.ctrl import TicketCache
from repro.dns.resolver import InternalDns
from repro.lb import ReplicaServer, ServiceFrontend, ServiceRegistry
from repro.testbed import ClosTestbed

SERVICE = "svc.open.internal"


def _service():
    """Two replicas with their own shares; replica 0's ticket is published."""
    bed = ClosTestbed.leaf_spine(num_racks=2, hosts_per_rack=2, num_spines=2, seed=5)
    ca, chain, key = fixed_pki(SERVICE)
    roots = (ca.certificate,)
    dns = InternalDns(lookup_latency=2e-6)
    zservers = [
        ZeroRttServer(SERVICE, chain, key, random.Random(100 + i)) for i in range(2)
    ]
    tickets = [z.rotate(now=0.0) for z in zservers]
    dns.publish(SERVICE, tickets[0], now=0.0)
    replicas = {
        h.addr: ReplicaServer(h, z) for h, z in zip(bed.hosts[2:], zservers)
    }
    registry = ServiceRegistry(bed.loop, dns, SERVICE)
    for rid in replicas:
        registry.register(rid)
    registry.start()
    fe = ServiceFrontend(
        bed.hosts[0], registry, replicas, TicketCache(dns, roots), roots,
        minter_rid=bed.hosts[2].addr,
    )
    return bed, fe, replicas, registry


def _open(bed, fe, registry, want_rid):
    """Open one session whose key the ring maps to ``want_rid``."""
    key = next(k for k in (f"key-{i}" for i in range(100)) if fe.route(k) == want_rid)
    done = bed.loop.process(fe.open_session(bed.hosts[0].app_thread(0), key))
    bed.run(until=bed.loop.now + 0.02)
    registry.stop()
    assert done.triggered and done.ok, getattr(done, "value", None)
    return done.value


def _mirrored(session, replica) -> bool:
    ours = session.endpoint.session_for(replica.rid, replica.endpoint.port)
    theirs = replica.endpoint.session_for(session.endpoint.host.addr,
                                          session.endpoint.port)
    return (ours.write_keys, ours.read_keys) == (theirs.read_keys, theirs.write_keys)


def test_zero_rtt_open_leaves_mirrored_keys_in_both_endpoints():
    bed, fe, replicas, registry = _service()
    minter = replicas[bed.hosts[2].addr]
    session = _open(bed, fe, registry, minter.rid)
    assert session.mode == "0rtt"
    assert minter.zero_rtt_accepts == 1 and fe.counters.key_mismatches == 0
    assert _mirrored(session, minter)
    assert minter.endpoint.handshakes_rejected == 0


def test_rejected_zero_rtt_open_falls_back_to_a_full_handshake():
    # Replica 1 holds its own share, so replica 0's ticket fails there: the
    # client drops the session it registered for the 0-RTT flight and runs
    # connect against the same replica endpoint.
    bed, fe, replicas, registry = _service()
    other = replicas[bed.hosts[3].addr]
    session = _open(bed, fe, registry, other.rid)
    assert session.mode == "1rtt"
    assert other.zero_rtt_rejects == 1 and other.endpoint.handshakes_rejected == 1
    assert fe.counters.cross_attempts == 1 and fe.counters.fallbacks_1rtt == 1
    assert _mirrored(session, other)
