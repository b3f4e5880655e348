"""Pinned Homa transmit schedules: every descriptor the engine posts, in order.

Each bed NIC's ``post`` is wrapped at instance level, so the log holds
every descriptor a Homa transport hands its NIC -- DATA segments, explicit
retransmissions, GRANTs, RESENDs, batched ACKs and offload resyncs -- with
the virtual time, ring and header fields it was posted with.  The log,
``loop.dispatched`` and every transport's counters are digested and
compared against pins.  Four scenarios cover the engine's transmit paths:

- ``smt_sw_faults``: software SMT under drop, reorder, duplicate and
  corrupt faults with corruption recovery and a backed-off resend timer;
- ``smt_hw_drops``: offloaded SMT under drops (resync descriptors and
  software ``reseal_range`` retransmissions);
- ``star_trim``: plain-Homa incast into a trimming switch (trim-driven
  fast RESENDs);
- ``homa_grants``: plain Homa with a 300 KB message (grants) beside a
  burst of small RPCs (ACKs flushed by batch size).

A digest moves only if the engine posted something different, somewhere
else, or at another virtual instant.
"""

import hashlib

import pytest

from repro.bench.runner import message_pair
from repro.homa import HomaConfig
from repro.net.faults import FaultConfig
from repro.net.headers import PacketType
from repro.nic.tso import TsoSegment
from repro.testbed import Testbed
from repro.units import KB
from tests.core.test_incast import build_star, run_incast

PORT = 7000
COUNTERS = (
    "messages_sent", "messages_delivered", "replays_dropped", "spurious_ignored",
    "resend_requests", "packets_retransmitted", "corrupt_recoveries",
)


def _record_posts(loop, nics, log):
    """Wrap each NIC's ``post`` so every descriptor lands in ``log``."""
    for index, nic in enumerate(nics):
        post = nic.post

        def logged(queue, item, post=post, index=index):
            if isinstance(item, TsoSegment):
                h = item.header
                log.append((
                    index, loop.now, queue, h.pkt_type, h.msg_id, h.tso_offset,
                    h.retransmit_offset, h.msg_len, h.grant_offset, h.priority,
                    len(item.payload), item.tls is not None,
                ))
            else:  # an offload resync descriptor
                log.append((index, loop.now, queue, "resync", item.seqno))
            post(queue, item)

        nic.post = logged


def _echo(bed, ssock):
    def server():
        thread = bed.server.app_thread(0)
        while True:
            rpc = yield from ssock.recv_request(thread)
            yield from ssock.reply(thread, rpc, rpc.payload)

    bed.loop.process(server())


def _calls(bed, csock, payloads, concurrent=False):
    """Issue echo RPCs (one caller in sequence, or one caller each)."""
    done = []

    def caller(batch, idx):
        thread = bed.client.app_thread(idx % 12)
        for payload in batch:
            response = yield from csock.call(thread, bed.server.addr, PORT, payload)
            assert response == payload
            done.append(len(payload))

    batches = [[p] for p in payloads] if concurrent else [payloads]
    return done, [bed.loop.process(caller(b, i)) for i, b in enumerate(batches)]


def _finish(bed, procs, log, transports):
    bed.loop.run(until=2.0)
    for proc in procs:
        assert proc.triggered and proc.ok, getattr(proc, "value", "deadlock")
    counters = tuple(tuple(getattr(t, f) for f in COUNTERS) for t in transports)
    return log, counters, bed.loop.dispatched


def _payloads(n, size_of):
    return [bytes((i * 7 + j) & 0xFF for j in range(size_of(i))) for i in range(n)]


def _two_host(system, bed, config, payloads, concurrent=False):
    log = []
    _record_posts(bed.loop, [bed.client.nic, bed.server.nic], log)
    csock, ssock = message_pair(bed, system, PORT, config)
    _echo(bed, ssock)
    _, procs = _calls(bed, csock, payloads, concurrent)
    return _finish(bed, procs, log, [csock.transport, ssock.transport])


def smt_sw_faults():
    faults = FaultConfig(
        drop_rate=0.03, reorder_rate=0.05, duplicate_rate=0.03, corrupt_rate=0.02
    )
    config = HomaConfig(
        corruption_recovery=True, resend_backoff=2.0, resend_interval=300e-6,
        max_resends=30,
    )
    payloads = _payloads(16, lambda i: 200 + (i * 3_731) % 24_000)
    return _two_host("smt-sw", Testbed.adversarial(faults, 5), config, payloads)


def smt_hw_drops():
    config = HomaConfig(resend_interval=300e-6, max_resends=30)
    payloads = _payloads(10, lambda i: 1_000 + (i * 17_389) % 120_000)
    bed = Testbed.adversarial(FaultConfig(drop_rate=0.02), 9)
    return _two_host("smt-hw", bed, config, payloads)


def homa_grants():
    payloads = [bytes(range(256)) * (300 * KB // 256)] + _payloads(12, lambda i: 64 + i)
    return _two_host("homa", Testbed.back_to_back(), None, payloads, concurrent=True)


def star_trim():
    bed, ssock, socks = build_star(6, trimming=True, buffer_bytes=24 * KB)
    log = []
    _record_posts(bed.loop, [host.nic for host in bed.hosts], log)
    done, procs = run_incast(bed, socks, 40 * KB, until=2.0)
    assert sorted(done) == list(range(6))
    transports = [ssock.transport] + [s.transport for s in socks]
    counters = tuple(tuple(getattr(t, f) for f in COUNTERS) for t in transports)
    return log, counters, bed.loop.dispatched


SCENARIOS = {
    "smt_sw_faults": smt_sw_faults,
    "smt_hw_drops": smt_hw_drops,
    "star_trim": star_trim,
    "homa_grants": homa_grants,
}

#: Captured before the Homa engine's record and packet path were
#: collapsed; (digest, descriptors posted, loop.dispatched).
PINS = {
    "smt_sw_faults": ("4762944681e9bb43", 234, 3263),
    "smt_hw_drops": ("d0549ef69068bf13", 923, 8958),
    "star_trim": ("aec2b08c242df5bb", 151, 2821),
    "homa_grants": ("9497cbf0f6285c19", 45, 1977),
}


def _summary(record):
    digest = hashlib.sha256(repr(record).encode()).hexdigest()[:16]
    return (digest, len(record[0]), record[-1])


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_transmit_schedule_pinned(name):
    assert _summary(SCENARIOS[name]()) == PINS[name]


def _types(log):
    return {entry[3] for entry in log}


def test_scenarios_exercise_every_path():
    # The pins are only worth something if the runs actually retransmit,
    # resync, trim, grant and batch.
    log, counters, _ = smt_sw_faults()
    assert sum(c[COUNTERS.index("corrupt_recoveries")] for c in counters) > 0
    assert any(entry[6] for entry in log)  # explicit-offset retransmissions
    assert PacketType.RESEND in _types(log)
    log, counters, _ = smt_hw_drops()
    assert "resync" in _types(log)
    assert any(entry[3] == PacketType.DATA and entry[6] for entry in log)
    assert any(entry[3] == PacketType.DATA and entry[11] for entry in log)
    log, counters, _ = star_trim()
    assert PacketType.RESEND in _types(log)
    assert counters[0][COUNTERS.index("resend_requests")] > 0
    log, counters, _ = homa_grants()
    assert PacketType.GRANT in _types(log)
    acks = [entry for entry in log if entry[3] == PacketType.ACK]
    assert any(entry[7] > 1 for entry in acks)  # msg_len = IDs in one batch
