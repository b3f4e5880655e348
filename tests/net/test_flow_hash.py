"""Differential test of the one memoised 5-tuple hash against a reference.

``ref_flow_hash`` is the plain, un-memoised hash loop and
``ref_ecmp_hash`` adds the salt finalizer ``ecmp_hash`` applies on top;
both are kept here as the model.  Every caller that steers by flow --
``flow_hash``, ``FlowTuple.rss_hash``, softirq core choice, ECMP spine
choice -- must agree with it bit for bit.
"""

import random

import pytest

from repro.host.host import Host
from repro.net import ecmp_hash
from repro.net.addressing import FLOW_HASH_MEMO, FlowTuple, flow_hash
from repro.net.headers import HEADERS_SIZE, IPv4Header, TransportHeader
from repro.net.packet import Packet
from repro.sim.event_loop import EventLoop

MASK64 = 0xFFFFFFFFFFFFFFFF
#: (src_addr, src_port, dst_addr, dst_port, proto) field widths in bits.
WIDTHS = (32, 16, 32, 16, 8)


def ref_flow_hash(src_addr, src_port, dst_addr, dst_port, proto):
    h = 0x9E3779B97F4A7C15
    for part in (src_addr, src_port, dst_addr, dst_port, proto):
        h ^= part
        h = (h * 0xBF58476D1CE4E5B9) & MASK64
        h ^= h >> 31
    return h


def ref_ecmp_hash(five, salt):
    h = ref_flow_hash(*five)
    if salt:
        h = (h ^ (salt * 0x9E3779B97F4A7C15)) & MASK64
        h ^= h >> 33
        h = (h * 0xFF51AFD7ED558CCD) & MASK64
    h ^= h >> 29
    return h


def _tuples():
    rng = random.Random(20251015)
    out = [tuple(rng.getrandbits(w) for w in WIDTHS) for _ in range(10_000)]
    for edge in (0, None):  # None: all ones
        out.append(tuple(0 if edge == 0 else (1 << w) - 1 for w in WIDTHS))
        for i, w in enumerate(WIDTHS):
            # One field at the edge, the rest random.
            five = [rng.getrandbits(v) for v in WIDTHS]
            five[i] = 0 if edge == 0 else (1 << w) - 1
            out.append(tuple(five))
    return out


TUPLES = _tuples()


def _packet(five):
    src, sport, dst, dport, proto = five
    ip = IPv4Header(src, dst, proto, HEADERS_SIZE)
    return Packet(ip, TransportHeader(sport, dport, 0))


def test_flow_hash_and_rss_hash_match_reference():
    for five in TUPLES:
        want = ref_flow_hash(*five)
        assert flow_hash(*five) == want, five
        assert FlowTuple(*five).rss_hash() == want, five


def test_softirq_core_matches_reference():
    host = Host(EventLoop(), "h", 0x0A000001, num_app_cores=1, num_softirq_cores=4)
    cores = host.softirq_cores
    for five in TUPLES:
        assert host.softirq_core_for(_packet(five)) is cores[ref_flow_hash(*five) % 4]
        src, sport, _, dport, proto = five
        local = (src, sport, host.addr, dport, proto)
        assert (
            host.softirq_core_for_flow(src, sport, dport, proto)
            is cores[ref_flow_hash(*local) % 4]
        )


@pytest.mark.parametrize("salt", [0, 0x5EED])
def test_ecmp_hash_matches_reference(salt):
    for five in TUPLES:
        assert ecmp_hash(_packet(five), salt) == ref_ecmp_hash(five, salt), five


def test_memo_stays_bounded():
    rng = random.Random(7)
    for n in range(100_000):
        flow_hash(rng.getrandbits(32), n & 0xFFFF, n, rng.getrandbits(16), 146)
    info = flow_hash.cache_info()
    assert info.maxsize == FLOW_HASH_MEMO
    assert info.currsize <= FLOW_HASH_MEMO
