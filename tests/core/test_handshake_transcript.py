"""Pinned handshake-port transcripts: every exchange and every CPU charge.

``HomaSocket.call`` and ``HomaSocket.reply`` are wrapped at class level,
so the log holds every exchange on the handshake port -- its kind byte,
request bytes, reply bytes and the virtual times at which the request
left and the reply came back (client side) or was sent (server side).
``AppThread.work`` is wrapped the same way, so every CPU charge on both
hosts lands in the log with its thread, virtual time and exact float.
The log and each loop's ``dispatched`` count are digested and compared
against pins.  The scenarios cover every handshake-port path that a
bench, a ledger workload or the control plane reaches:

- Figure 12's five variants (1-RTT, 0-RTT with and without the fs
  upgrade, resumption with and without ECDHE);
- 0-RTT with the fs upgrade from pooled keys, from inline keys, and
  from a pool that misses, plus 0-RTT without fs carrying a share
  fingerprint;
- an admission refusal of each hello kind;
- watermark rekeys under the control plane;
- an explicit ``upgrade_to_fs`` with a pool hit and with a pool miss.

A digest moves only if a flight carries other bytes, travels at another
virtual instant, or the CPU is charged differently.
"""

import hashlib
import random

import pytest

from repro.bench import fig12
from repro.core.endpoint import HANDSHAKE_PORT, SmtEndpoint
from repro.core.zero_rtt import ZeroRttServer
from repro.crypto.ca import fixed_pki
from repro.crypto.ecdh import EcdhKeyPair
from repro.ctrl import ControlPlane, CtrlConfig
from repro.ctrl.keypool import KeyPool
from repro.dns.resolver import InternalDns
from repro.errors import ProtocolError
from repro.homa.socket import HomaSocket
from repro.host.cpu import AppThread
from repro.testbed import Testbed
from repro.tls.handshake import HandshakeConfig, ServerCredentials

PORT = 7000


class Recorder:
    """Class-level wrappers that log exchanges, replies and CPU charges."""

    def __init__(self, monkeypatch):
        self.log = []
        self.loops = {}
        call, reply, work = HomaSocket.call, HomaSocket.reply, AppThread.work
        log, loops = self.log, self.loops

        def logged_call(sock, thread, dest_addr, dest_port, payload, *args, **kw):
            if dest_port != HANDSHAKE_PORT:
                return (yield from call(sock, thread, dest_addr, dest_port, payload,
                                        *args, **kw))
            sent = sock.transport.loop.now
            request = bytes(payload)
            try:
                response = yield from call(sock, thread, dest_addr, dest_port,
                                           payload, *args, **kw)
            except Exception as exc:
                log.append(("call", request[0], request, sent, type(exc).__name__,
                            sock.transport.loop.now))
                raise
            log.append(("call", request[0], request, sent, bytes(response),
                        sock.transport.loop.now))
            return response

        def logged_reply(sock, thread, rpc, payload):
            if sock.port == HANDSHAKE_PORT:
                log.append(("reply", bytes(rpc.payload[:1]), bytes(payload),
                            sock.transport.loop.now))
            yield from reply(sock, thread, rpc, payload)

        def logged_work(thread, cost):
            loops.setdefault(id(thread.loop), thread.loop)
            log.append(("work", thread.name, thread.loop.now, cost))
            yield from work(thread, cost)

        monkeypatch.setattr(HomaSocket, "call", logged_call)
        monkeypatch.setattr(HomaSocket, "reply", logged_reply)
        monkeypatch.setattr(AppThread, "work", logged_work)

    def summary(self):
        dispatched = tuple(loop.dispatched for loop in self.loops.values())
        digest = hashlib.sha256(repr((self.log, dispatched)).encode()).hexdigest()
        exchanges = sum(1 for entry in self.log if entry[0] == "call")
        charges = sum(1 for entry in self.log if entry[0] == "work")
        return digest[:16], exchanges, charges, dispatched


# -- shared fixtures ---------------------------------------------------------------


def _pki():
    ca, chain, key = fixed_pki("server")
    return (ca.certificate,), chain, key


def _echo(bed, sep):
    def server():
        thread = bed.server.app_thread(1)
        while True:
            rpc = yield from sep.socket.recv_request(thread)
            yield from sep.socket.reply(thread, rpc, rpc.payload)

    bed.loop.process(server())


def _run(bed, body):
    done = bed.loop.process(body())
    bed.loop.run(until=1.0)
    assert done.triggered and done.ok, getattr(done, "value", "deadlock")


# -- Figure 12 -----------------------------------------------------------------------


def fig12_init_1rtt():
    fig12._full_handshake(pregenerate=False)


def fig12_init_fs():
    fig12._zero_rtt(forward_secrecy=True)


def fig12_init():
    fig12._zero_rtt(forward_secrecy=False)


def _fig12_resume(forward_secrecy):
    cache = {}
    _stats, tickets = fig12._full_handshake(pregenerate=True, cache=cache)
    fig12._full_handshake(pregenerate=True, ticket=tickets[0],
                          forward_secrecy=forward_secrecy, cache=cache)


def fig12_rsmp_fs():
    _fig12_resume(True)


def fig12_rsmp():
    _fig12_resume(False)


# -- 0-RTT ---------------------------------------------------------------------------


def _zero_rtt(forward_secrecy, keypool=None, pregenerate=True, client_pool=False,
              fingerprint=False, ctrl=False):
    roots, chain, key = _pki()
    bed = Testbed.back_to_back()
    sc = bed.enable_ctrl(config=CtrlConfig(ecdh_pool_capacity=4,
                                           ecdh_low_watermark=1))[1] if ctrl else None
    cep = SmtEndpoint(bed.client, bed.client.alloc_port())
    sep = SmtEndpoint(bed.server, PORT, ctrl=sc)
    zserver = ZeroRttServer("server", chain, key, random.Random(9))
    dns = InternalDns()
    dns.publish("server", zserver.rotate(now=0.0), now=0.0)
    if keypool == "ctrl":
        keypool = sc.ecdh_pool
    elif keypool is not None:
        keypool = KeyPool(bed.loop, random.Random(4), capacity=2,
                          low_watermark=0, prefill=keypool == "stocked")
    sep.serve_zero_rtt(bed.server.app_thread(0), zserver, pregenerate=pregenerate,
                       keypool=keypool)
    _echo(bed, sep)

    def client():
        thread = bed.client.app_thread(0)
        for i in range(2):
            ep = cep if i == 0 else SmtEndpoint(bed.client, bed.client.alloc_port())
            yield from ep.connect_zero_rtt(
                thread, bed.server.addr, PORT, dns.query("server", now=bed.loop.now),
                roots, forward_secrecy=forward_secrecy, rng=random.Random(40 + i),
                pregenerated=(EcdhKeyPair.generate(random.Random(50 + i))
                              if client_pool else None),
                share_fingerprint=fingerprint,
            )
            reply = yield from ep.socket.call(thread, bed.server.addr, PORT, b"0rtt")
            assert reply == b"0rtt"

    _run(bed, client)


def zrtt_fs_pooled():
    _zero_rtt(True, keypool="ctrl", client_pool=True, ctrl=True)


def zrtt_fs_inline():
    _zero_rtt(True, pregenerate=False)


def zrtt_fs_pool_miss():
    _zero_rtt(True, keypool="empty", pregenerate=False)


def zrtt_fs_pool_hit():
    _zero_rtt(True, keypool="stocked", client_pool=True)


def zrtt_no_fs():
    _zero_rtt(False, fingerprint=True)


# -- admission refusals --------------------------------------------------------------


def _saturated_server(bed):
    ctrl = ControlPlane(bed.server, random.Random(12),
                        config=CtrlConfig(session_capacity=1, prefill=False))
    ctrl.table.insert(("pin",), lambda: None, busy=lambda: True)
    return SmtEndpoint(bed.server, PORT, ctrl=ctrl)


def refused_1rtt():
    roots, chain, key = _pki()
    bed = Testbed.back_to_back()
    sep = _saturated_server(bed)
    cep = SmtEndpoint(bed.client, bed.client.alloc_port())
    sep.listen(bed.server.app_thread(0),
               ServerCredentials(chain=chain, signing_key=key),
               lambda: HandshakeConfig(rng=random.Random(13), trust_roots=roots))

    def client():
        with pytest.raises(ProtocolError, match="refused"):
            yield from cep.connect(
                bed.client.app_thread(0), bed.server.addr, PORT,
                HandshakeConfig(rng=random.Random(14), server_name="server",
                                trust_roots=roots),
            )

    _run(bed, client)


def refused_zrtt():
    roots, chain, key = _pki()
    bed = Testbed.back_to_back()
    sep = _saturated_server(bed)
    cep = SmtEndpoint(bed.client, bed.client.alloc_port())
    zserver = ZeroRttServer("server", chain, key, random.Random(9))
    ticket = zserver.rotate(now=0.0)
    sep.serve_zero_rtt(bed.server.app_thread(0), zserver)

    def client():
        with pytest.raises(ProtocolError, match="refused"):
            yield from cep.connect_zero_rtt(
                bed.client.app_thread(0), bed.server.addr, PORT, ticket, roots,
                forward_secrecy=True, rng=random.Random(42),
            )

    _run(bed, client)


# -- control-plane rekeys -------------------------------------------------------------


def _managed(config, seed=21):
    roots, chain, key = _pki()
    bed = Testbed.back_to_back()
    cc, sc = bed.enable_ctrl(config=config, seed=seed)
    sep = SmtEndpoint(bed.server, PORT, ctrl=sc)
    cep = SmtEndpoint(bed.client, bed.client.alloc_port(), ctrl=cc)
    cc.adopt(cep, rekey_thread=bed.client.app_thread(1))
    sep.listen(bed.server.app_thread(0),
               ServerCredentials(chain=chain, signing_key=key),
               lambda: sc.handshake_config(trust_roots=roots))
    _echo(bed, sep)

    def connect(thread):
        yield from cep.connect(
            thread, bed.server.addr, PORT,
            cc.handshake_config(server_name="server", trust_roots=roots),
        )

    return bed, cep, cc, sc, connect


SMALL_LANES = dict(lane_size=64, rekey_watermark_fraction=0.5,
                   ecdh_pool_capacity=8, ecdh_low_watermark=2)


def watermark_rekey():
    bed, cep, cc, sc, connect = _managed(CtrlConfig(**SMALL_LANES))

    def client():
        thread = bed.client.app_thread(0)
        yield from connect(thread)
        for i in range(40):
            payload = bytes([i]) * 24
            assert (yield from cep.socket.call(thread, bed.server.addr, PORT,
                                               payload)) == payload
        assert cc.rekeys.completed == 2

    _run(bed, client)


def _upgrade(miss):
    config = CtrlConfig(**SMALL_LANES, refill_interval=1.0 if miss else 100e-6)
    bed, cep, cc, sc, connect = _managed(config)

    def client():
        thread = bed.client.app_thread(0)
        yield from connect(thread)
        yield from cep.socket.call(thread, bed.server.addr, PORT, b"pre")
        if miss:
            for pool in (cc.ecdh_pool, sc.ecdh_pool):
                while pool.take() is not None:
                    pass
        misses = cc.ecdh_pool.misses
        (entry,) = cc.rekeys.entries
        yield from cc.rekeys.upgrade_to_fs(entry)
        assert (cc.ecdh_pool.misses > misses) == miss
        assert cc.rekeys.fs_upgrades == 1
        assert (yield from cep.socket.call(thread, bed.server.addr, PORT,
                                           b"post")) == b"post"

    _run(bed, client)


def upgrade_fs_pool_hit():
    _upgrade(miss=False)


def upgrade_fs_pool_miss():
    _upgrade(miss=True)


SCENARIOS = {
    f.__name__: f
    for f in (
        fig12_init_1rtt, fig12_init_fs, fig12_init, fig12_rsmp_fs, fig12_rsmp,
        zrtt_fs_pooled, zrtt_fs_inline, zrtt_fs_pool_miss, zrtt_fs_pool_hit,
        zrtt_no_fs, refused_1rtt, refused_zrtt, watermark_rekey,
        upgrade_fs_pool_hit, upgrade_fs_pool_miss,
    )
}

#: Captured before the handshake port was collapsed into one responder;
#: (digest, handshake exchanges, CPU charges, dispatched per loop).
PINS = {
    'fig12_init': ('fcb51d444bc5ea54', 1, 7, (70,)),
    'fig12_init_1rtt': ('bb25f5985ef6c154', 2, 12, (122,)),
    'fig12_init_fs': ('fe8673f2ca881526', 1, 9, (76,)),
    'fig12_rsmp': ('feda278906d055a1', 4, 24, (122, 122)),
    'fig12_rsmp_fs': ('9085fb2941990d70', 4, 24, (122, 122)),
    'refused_1rtt': ('9aa696c88bf0f652', 1, 5, (64,)),
    'refused_zrtt': ('dcf94a7dd5e887df', 1, 5, (64,)),
    'upgrade_fs_pool_hit': ('c2ed8a8d72d3e7d6', 3, 26, (265,)),
    'upgrade_fs_pool_miss': ('e6a167335d311a87', 3, 28, (271,)),
    'watermark_rekey': ('609a8968ae813aac', 4, 180, (1880,)),
    'zrtt_fs_inline': ('41fb0091ccbf60c5', 2, 28, (245,)),
    'zrtt_fs_pool_hit': ('91801af6d7876066', 2, 26, (240,)),
    'zrtt_fs_pool_miss': ('5f4a32f61f5b4287', 2, 27, (243,)),
    'zrtt_fs_pooled': ('aa9cdaec459a5097', 2, 26, (239,)),
    'zrtt_no_fs': ('33086d4bfc99d1d1', 2, 22, (205,)),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_handshake_transcript_pinned(name, monkeypatch):
    recorder = Recorder(monkeypatch)
    SCENARIOS[name]()
    assert recorder.summary() == PINS[name]


def test_scenarios_exercise_every_path(monkeypatch):
    # The pins are only worth something if the runs reach every message
    # kind, both rekey modes, both fs replies and both refusals.
    seen = {}
    for name, scenario in SCENARIOS.items():
        recorder = Recorder(monkeypatch)
        scenario()
        seen[name] = {(e[1], len(e[4])) for e in recorder.log if e[0] == "call"}
        monkeypatch.undo()
    assert {kind for calls in seen.values() for kind, _ in calls} == {1, 2, 3, 4}
    assert (4, 1) in seen["watermark_rekey"]  # REKEY_UPDATE: one-byte ack
    assert (4, 65) in seen["upgrade_fs_pool_miss"]  # REKEY_FS: ephemeral share
    assert (3, 65) in seen["zrtt_fs_pool_miss"] and (3, 1) in seen["zrtt_no_fs"]
    refusal = len(b"\x00SMT-HS-REFUSED")
    assert seen["refused_1rtt"] == {(1, refusal)}
    assert seen["refused_zrtt"] == {(3, refusal)}
