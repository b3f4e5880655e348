"""Per-session state under churn on a back-to-back bed.

N sessions open in sequence, 1-RTT, 0-RTT and 0-RTT with forward secrecy
in turn, each on a fresh client endpoint (as the front end and the churn
bench open them) and each with one echo RPC; at most K are alive at once.
N is kept small because every handshake runs real ECDH.  After every
completed handshake the process-wide crypto memos, the generated-share
table among them, must be within their caps, and the agreed-secret table
empty; the per-peer tables of both hosts must stay within c*K, which
needs sessions that end.
"""

import random

import pytest

from repro.core.endpoint import SmtEndpoint
from repro.core.zero_rtt import ZeroRttServer
from repro.crypto import cert, ec, ecdh
from repro.crypto.ca import fixed_pki
from repro.ctrl.rotation import TicketCache
from repro.dns.resolver import InternalDns
from repro.testbed import Testbed
from repro.tls.handshake import HandshakeConfig, ServerCredentials

N = 200
K = 8
C = 3
DATA_PORT = 7000


def _retire(endpoint: SmtEndpoint) -> None:
    """End one client endpoint's session.  Nothing can today: the front
    end and the churn bench drop the endpoint and the server never hears
    of it.  ROADMAP "Sessions that end" (a) makes this
    ``endpoint.close()``."""


def _churn(observe) -> None:
    """Open N sessions with at most K alive; ``observe(server, opened)``
    runs after every completed handshake, ``opened`` being every client
    endpoint made so far."""
    ca, chain, key = fixed_pki("server")
    roots = (ca.certificate,)
    bed = Testbed.back_to_back()
    sep = SmtEndpoint(bed.server, DATA_PORT)
    hs_rng = random.Random(2)
    sep.listen(
        bed.server.app_thread(0),
        ServerCredentials(chain=chain, signing_key=key),
        lambda: HandshakeConfig(rng=hs_rng, trust_roots=roots),
    )
    zserver = ZeroRttServer("server", chain, key, random.Random(3))
    dns = InternalDns()
    dns.publish("server", zserver.rotate(now=0.0), now=0.0)
    sep.serve_zero_rtt(bed.server.app_thread(0), zserver)
    cache = TicketCache(dns, roots)

    def echo():
        thread = bed.server.app_thread(1)
        while True:
            rpc = yield from sep.socket.recv_request(thread)
            yield from sep.socket.reply(thread, rpc, rpc.payload)

    bed.loop.process(echo())
    opened: list[SmtEndpoint] = []

    def client():
        thread = bed.client.app_thread(0)
        alive: list[SmtEndpoint] = []
        for i in range(N):
            cep = SmtEndpoint(bed.client, bed.client.alloc_port())
            if i % 3 == 0:
                yield from cep.connect(
                    thread, bed.server.addr, DATA_PORT,
                    HandshakeConfig(rng=random.Random(100 + i),
                                    server_name="server", trust_roots=roots),
                )
            else:
                ticket = yield from cache.get("server", bed.loop)
                yield from cep.connect_zero_rtt(
                    thread, bed.server.addr, DATA_PORT, ticket, roots,
                    forward_secrecy=(i % 3 == 2), rng=random.Random(100 + i),
                )
            opened.append(cep)
            observe(sep, opened)
            reply = yield from cep.socket.call(
                thread, bed.server.addr, DATA_PORT, b"churn"
            )
            assert reply == b"churn"
            alive.append(cep)
            if len(alive) > K:
                _retire(alive.pop(0))

    done = bed.loop.process(client())
    bed.loop.run(until=10.0)
    assert done.triggered, "the churn did not finish"
    if not done.ok:
        raise done.value
    assert len(opened) == N
    assert sep.handshakes_rejected == 0


def test_crypto_memos_stay_bounded_and_agreements_complete(monkeypatch):
    monkeypatch.setattr(ecdh, "_agreed", {})
    monkeypatch.setattr(ecdh, "_generated", {})
    shares, ladders, combs, agreed = set(), [], [], []
    real_agree, real_ladder, real_comb = (
        ecdh.EcdhKeyPair.shared_secret, ec._wnaf_mult, ec._comb_mult
    )

    def agree(pair, peer_public):
        # Every share here was generated in this process, so a first half
        # is one comb on the product of the two private scalars and a
        # second half reads the first half's secret.
        shares.add(peer_public)
        product = pair.private * ecdh._generated[peer_public] % ec.N
        before = len(combs)
        secret = real_agree(pair, peer_public)
        assert combs[before:] in ([], [product])
        agreed.append(len(combs) - before)
        return secret

    def ladder(k, px, py):
        ladders.append(ec.ECPoint(px, py))
        return real_ladder(k, px, py)

    def comb(*terms):
        combs.append(terms[0][0])
        return real_comb(*terms)

    monkeypatch.setattr(ecdh.EcdhKeyPair, "shared_secret", agree)
    monkeypatch.setattr(ec, "_wnaf_mult", ladder)
    monkeypatch.setattr(ec, "_comb_mult", comb)
    seen = []

    def observe(server, opened):
        # Both halves of every agreement ran in this process, so the
        # second half read and removed what the first half filed.
        assert ecdh._agreed == {}
        assert len(ecdh._generated) <= ecdh._GENERATED_MAX
        assert len(cert._verified) <= cert._VERIFIED_MAX
        assert len(ec._key_tables) <= ec._KEY_TABLES_MAX
        seen.append(len(opened))

    _churn(observe)
    assert seen == list(range(1, N + 1))
    # One agreement per 1-RTT and 0-RTT session, two with forward
    # secrecy; each is one comb, not one per side, and no share meets a
    # k*Q ladder (certificate keys still do, on their first sighting).
    agreements = sum(2 if i % 3 == 2 else 1 for i in range(N))
    assert len(agreed) == 2 * agreements
    assert sum(agreed) == agreements
    assert [point for point in ladders if point in shares] == []


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="SmtEndpoint has no close(): every client endpoint keeps two "
    "sockets bound and its session, and the server keeps every session "
    "and window (ROADMAP 'Sessions that end', (a) and (b))",
)
def test_per_peer_state_stays_within_c_times_k():
    def observe(server, opened):
        client_transport = opened[0].transport
        for transport in (client_transport, server.transport):
            assert len(transport._sockets) <= C * K, "bound sockets"
            assert len(transport.delivered_ids) <= C * K, "delivered_ids windows"
        assert len(server._sessions) <= C * K, "server sessions"
        assert sum(len(ep._sessions) for ep in opened) <= C * K, "client sessions"

    _churn(observe)
