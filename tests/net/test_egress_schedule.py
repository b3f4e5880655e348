"""Pinned egress schedules: every bed kind replays one exact packet timeline.

Seeded packet streams (priorities 0-7, IP sizes 60-1500 B, same-instant
bursts) run through a ``Link``, the one-rack star bed with a small buffer
(trimming off and on) and a 2-rack x 2-spine ``ClosFabric``.  Each receiver
logs (arrival time, packet identity, trimmed flag); the logs, the port
counters and ``loop.dispatched`` are digested and compared against pins.
A change to any egress port's queueing, serialisation, buffering,
trimming or propagation shows up here as a different digest.
"""

import hashlib
import random

import pytest

from repro.net.clos import ClosFabric
from repro.net.headers import HEADERS_SIZE, PROTO_HOMA, IPv4Header, TransportHeader
from repro.net.link import Link
from repro.net.packet import Packet
from repro.sim.event_loop import EventLoop
from repro.testbed import StarTestbed
from repro.units import GBPS

#: Counter fields every egress has reported under these names throughout.
LINK_FIELDS = ("tx_packets", "tx_bytes", "dropped")
SWITCH_FIELDS = ("dropped", "trimmed")


def _bursts(seed, senders, dsts_of, count):
    """``count`` same-instant bursts: (time, sender, [packets]).

    Gaps are exponential around one MTU's serialisation time at 100 Gb/s,
    so queues build and drain; each packet's ``msg_id`` is its identity.
    """
    rng = random.Random(seed)
    t = 0.0
    serial = 0
    out = []
    for _ in range(count):
        t += rng.expovariate(1 / 0.15e-6)
        src = rng.choice(senders)
        packets = []
        for _ in range(rng.randint(1, 6)):
            dst = rng.choice(dsts_of(src))
            size = rng.randint(60, 1500)
            serial += 1
            packets.append(
                Packet(
                    IPv4Header(src, dst, PROTO_HOMA, size),
                    TransportHeader(
                        1000 + rng.randrange(4), 2000, serial,
                        priority=rng.randrange(8),
                    ),
                    bytes(size - HEADERS_SIZE),
                )
            )
        out.append((t, src, packets))
    return out


def _drive(loop, bursts, send_one, send_burst):
    """Schedule every burst; even ones ride ``send_burst``, odd ones not."""
    for i, (t, src, packets) in enumerate(bursts):
        if i % 2:
            loop.call_at(t, lambda src=src, ps=packets: [send_one(src, p) for p in ps])
        else:
            loop.call_at(t, lambda src=src, ps=packets: send_burst(src, ps))


def _logger(loop, log, where):
    def receive(packet):
        log.append((
            where, loop.now, packet.ip.src_addr, packet.transport.msg_id,
            packet.transport.priority, len(packet.payload),
            bool(packet.meta.get("trimmed")),
        ))

    return receive


def _digest(record) -> str:
    return hashlib.sha256(repr(record).encode()).hexdigest()[:16]


def _pick(stats, fields):
    return tuple(stats[f] for f in fields)


def link_record():
    loop = EventLoop()
    link = Link(loop, bandwidth_bps=100 * GBPS, delay=1e-6, mtu=1500)
    log = []
    link.attach("a", _logger(loop, log, "a"))
    link.attach("b", _logger(loop, log, "b"))
    # Exercise both post-serialisation branches: a loss_fn on one side,
    # a tap (which routes delivery through the port's _deliver) on the other.
    link.set_loss_fn("a", lambda p: p.transport.msg_id % 7 == 0)
    taps = []
    link.install_tap("b", lambda p, verdict: taps.append((p.transport.msg_id, verdict)))
    side = {1: "a", 2: "b"}
    bursts = _bursts(1, [1, 2], lambda src: [3 - src], 400)
    _drive(
        loop, bursts,
        lambda src, p: link.send(side[src], p),
        lambda src, ps: link.send_burst(side[src], ps),
    )
    loop.run()
    stats = tuple(_pick(link.stats(s), LINK_FIELDS) for s in ("a", "b"))
    return log, taps, stats, loop.dispatched


def star_record(trimming):
    bed = StarTestbed.star(3, buffer_bytes=8 * 1024, trimming=trimming)
    loop = bed.loop
    addrs = [host.addr for host in bed.hosts]
    log = []
    for addr in addrs:
        bed.fabric.port(addr).attach("a", _logger(loop, log, addr))
    # The switch every host hangs off, whatever fabric class built it.
    switch = bed.fabric.port(bed.server.addr)._switch
    bursts = _bursts(
        2, addrs, lambda src: [a for a in addrs if a != src] + [bed.server.addr] * 3, 500
    )
    _drive(
        loop, bursts,
        lambda src, p: bed.fabric.port(src).send("a", p),
        lambda src, ps: bed.fabric.port(src).send_burst("a", ps),
    )
    loop.run()
    stats = tuple(
        (_pick(bed.fabric.port(a).stats("a"), LINK_FIELDS),
         _pick(switch.stats(a), SWITCH_FIELDS))
        for a in addrs
    )
    return log, stats, switch.totals(), loop.dispatched


def clos_record():
    loop = EventLoop()
    fabric = ClosFabric(
        loop, num_racks=2, num_spines=2, trunk_bandwidth_bps=40 * GBPS,
        buffer_bytes=16 * 1024, trunk_buffer_bytes=6 * 1024, ecmp_salt=5,
    )
    log = []
    addrs = []
    for rack in range(2):
        for h in range(2):
            addr = 0x0A000000 + 256 * rack + h + 1
            addrs.append(addr)
            fabric.attach_host(rack, addr).attach("x", _logger(loop, log, addr))
    bursts = _bursts(3, addrs, lambda src: [a for a in addrs if a != src], 500)
    _drive(
        loop, bursts,
        lambda src, p: fabric.port(src).send("x", p),
        lambda src, ps: fabric.port(src).send_burst("x", ps),
    )
    loop.run()
    uplinks = tuple(_pick(fabric.port(a).stats("x"), LINK_FIELDS) for a in addrs)
    return log, uplinks, fabric.stats(), loop.dispatched


#: Captured before the egress ports were unified; a digest moves only if
#: the virtual-time schedule (or a counter) of some egress port moved.
PINS = {
    "link": ("86492c178821743c", 1237, 2967),
    "star_drop": ("3441f436b90e772d", 1673, 7384),
    "star_trim": ("3da7eebaa64da5d5", 1759, 7556),
    "clos": ("43c31d8cb36dd01e", 1746, 12176),
}


def _summary(record):
    log = record[0]
    return (_digest(record), len(log), record[-1])


@pytest.mark.parametrize(
    "name,build",
    [
        ("link", link_record),
        ("star_drop", lambda: star_record(False)),
        ("star_trim", lambda: star_record(True)),
        ("clos", clos_record),
    ],
)
def test_schedule_pinned(name, build):
    assert _summary(build()) == PINS[name]


def test_beds_exercise_every_path():
    # The pins are only worth something if the streams actually queue,
    # drop, trim and cross the spines.
    _, taps, (a, b), _ = link_record()
    assert a[2] > 0 and b[2] == 0
    assert {verdict for _, verdict in taps} == {"delivered"}
    _, _, drop_totals, _ = star_record(False)
    _, _, trim_totals, _ = star_record(True)
    assert drop_totals["dropped"] > 0 and drop_totals["trimmed"] == 0
    assert trim_totals["trimmed"] > 0
    log, _, stats, _ = clos_record()
    assert stats["leaf"]["dropped"] + stats["spine"]["dropped"] > 0
    assert all(stats["spine_spread"])
    assert len({entry[4] for entry in log}) == 8
