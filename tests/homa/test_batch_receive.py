"""Batched receive against the per-packet reference.

The softirq core hands Homa's DATA handler (the one ``classify`` returns)
one GRO batch of packets per call.  The contract is that this is
invisible: the same packets in the same order deliver the same messages,
count the same spurious and replayed packets, post the same GRANT and
RESEND descriptors, and return the same extra cost, float bits included,
as the per-packet handler did with the core summing its returns.

That per-packet handler is kept below as the reference model, verbatim
but for its duplicate check, which now reads the peer's delivered-ID
window for a message not in progress.
Each case builds two identical receivers, feeds one the packets one at a
time through the reference and the other the same packets as batches,
and compares everything observable.
"""

from __future__ import annotations

import random
from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.homa import HomaConfig, HomaTransport
from repro.host.costs import CostModel
from repro.homa.message import InboundMessage
from repro.net.headers import PROTO_HOMA, PacketType, TransportHeader
from repro.net.packet import Packet
from repro.nic.tso import TsoSegment, split_segment
from repro.testbed import Testbed

PEER = 7  # the sender's address
PEER_PORT = 4000
PORTS = (6000, 6001)
NO_SESSION_PORT = 4001  # a peer port whose session does not exist yet
MSS = 1440  # the NIC payload at the default 1 500 B MTU
SEG_PACKETS = 3  # packets per TSO segment: several segments per message
MAX_WIRE_LEN = 2 * 1024 * 1024  # repro.homa.engine.MAX_WIRE_LEN, by value
# Costs whose sums round differently in different groupings, so adding a
# packet's extras in another order shows in the returned bits.
COSTS = CostModel(
    homa_rx_per_message=1.1e-6 / 3,
    smt_replay_check=0.7e-6 / 3,
    homa_grant_tx=0.3e-6 / 7,
    homa_deliver_fixed=2.3e-6 / 11,
    homa_wake=1.7e-6 / 13,
)


# -- the per-packet reference: _handle_data before batching, verbatim ----------------


def reference_handle_data(self, packet: Packet) -> Optional[float]:
    t = packet.transport
    key = (packet.ip.src_addr, t.src_port, t.msg_id)
    if key not in self._inbound and t.msg_id in self.delivered_ids.get(key[:2], ()):
        self.spurious_ignored += 1
        return None
    socket = self._sockets.get(t.dst_port)
    if socket is None:
        return None
    try:
        codec = socket.codec_for(packet.ip.src_addr, t.src_port)
    except ProtocolError:
        # Data raced ahead of session establishment: drop; the sender's
        # RESEND machinery retries once the session exists.
        self.spurious_ignored += 1
        return None
    inbound = self._inbound.get(key)
    extra = 0.0
    if inbound is None:
        # First packet of an unseen message: replay filter (paper §6.1:
        # replayed IDs are dropped without decryption).
        extra += self.costs.homa_rx_per_message + self.costs.smt_replay_check
        obs = self.loop.obs
        if not codec.accept_message(t.msg_id):
            self.replays_dropped += 1
            if obs is not None:
                obs.metrics.counter(
                    f"{self.host.name}.homa.rx.replays_dropped"
                ).add()
            return extra
        inbound = InboundMessage(
            msg_id=t.msg_id,
            peer_addr=packet.ip.src_addr,
            peer_port=t.src_port,
            local_port=t.dst_port,
            wire_len=t.msg_len,
            segment_capacity=codec.segment_capacity(self.host.nic.mtu_payload),
            mss=self.host.nic.mtu_payload,
            granted=min(t.msg_len, self.config.unscheduled_bytes),
            last_progress=self.loop.now,
        )
        self._inbound[key] = inbound
        if obs is not None:
            # Closed in _deliver, after reassembly completes.
            inbound.obs_span = obs.tracer.begin(
                "homa.rx",
                f"{self.host.name}.msg{t.msg_id}",
                peer=packet.ip.src_addr,
                bytes=t.msg_len,
            )
        if not inbound.complete:
            inbound.resend_timer = self.loop.timer_later(
                self._resend_interval(inbound), self._resend_check, inbound
            )
    if not packet.payload and t.msg_len:
        # A trimmed packet (NDP-style, paper §7): the payload was cut
        # at an overloaded switch but the plaintext transport metadata
        # tells us exactly what to re-request -- immediately, once.
        asm_state = inbound.segments.get(t.tso_offset)
        if (
            (asm_state is None or not asm_state.complete)
            and t.tso_offset not in inbound.trim_requested
        ):
            inbound.trim_requested.add(t.tso_offset)
            self.resend_requests += 1
            self._send_resend(
                inbound.peer_addr, inbound.peer_port, inbound.msg_id,
                t.tso_offset, inbound.segment_length(t.tso_offset),
            )
            return (extra + self.costs.homa_grant_tx) or None
        return extra or None
    asm = inbound.assembler(t.tso_offset)
    was_complete = asm.complete
    if t.retransmit_offset:
        asm.add_explicit_packet(t.retransmit_offset - 1, packet.payload)
    else:
        asm.add_tso_packet(packet.ip.ipid, packet.payload)
    if asm.spurious:
        self.spurious_ignored += asm.spurious
        asm.spurious = 0
    if asm.complete and not was_complete:
        inbound.received_bytes += asm.seg_len
        inbound.last_progress = self.loop.now
    if inbound.complete and not inbound.delivered:
        inbound.delivered = True
        extra += self._deliver(key, inbound, socket)
    elif not inbound.complete:
        extra += self._maybe_grant(inbound)
    return extra or None


def reference_batch(transport, packets) -> float:
    """The reference handler per packet, summed as the core summed it."""
    extra_total = 0.0
    for packet in packets:
        extra = reference_handle_data(transport, packet)
        if isinstance(extra, (int, float)) and extra > 0:
            extra_total += extra
    return extra_total


# -- a receiver whose every output is recorded -------------------------------------


class _Codec:
    """Fixed segments; a replay filter that rejects the IDs it is given."""

    def __init__(self, replayed):
        self.replayed = set(replayed)

    def segment_capacity(self, mss: int) -> int:
        return SEG_PACKETS * mss

    def accept_message(self, msg_id: int) -> bool:
        return msg_id not in self.replayed


class _Socket:
    def __init__(self, port: int, codec: _Codec, delivered: list):
        self.port = port
        self._codec = codec
        self._delivered = delivered

    def codec_for(self, peer_addr: int, peer_port: int):
        if peer_port == NO_SESSION_PORT:
            raise ProtocolError("no session yet")
        return self._codec

    def deliver(self, inbound: InboundMessage, wire) -> None:
        # The socket's own port: a message must reach the socket its
        # packets' dst_port names, which is not always inbound.local_port.
        self._delivered.append((self.port, inbound.msg_id, bytes(wire)))


class Receiver:
    """One server transport with recording sockets and a recording NIC."""

    def __init__(self, replayed=()):
        bed = Testbed.back_to_back(costs=COSTS)
        self.loop = bed.loop
        config = HomaConfig(unscheduled_bytes=4 * MSS, grant_window=6 * MSS)
        self.transport = HomaTransport(bed.server, config, proto=PROTO_HOMA)
        self.posted: list = []
        self.delivered: list = []
        nic = bed.server.nic
        nic.post = lambda queue, seg: self.posted.append(
            (queue, seg.dst_addr, seg.header, bytes(seg.payload))
        )
        codec = _Codec(replayed)
        for port in PORTS:
            self.transport.bind(_Socket(port, codec, self.delivered), port)

    def observed(self) -> dict:
        t = self.transport
        return {
            "delivered": self.delivered,
            "posted": self.posted,
            "spurious_ignored": t.spurious_ignored,
            "replays_dropped": t.replays_dropped,
            "resend_requests": t.resend_requests,
            "messages_delivered": t.messages_delivered,
            "inbound": {
                key: (m.received_bytes, m.granted, sorted(m.trim_requested))
                for key, m in t._inbound.items()
            },
            "delivered_ids": [
                (peer, window.watermark, dict(window._chunks))
                for peer, window in t.delivered_ids.items()
            ],
            "timers": self.loop._seq,
        }


def run_both(batches, replayed=()):
    """Feed ``batches`` per packet to one receiver and as batches to another."""
    ref, real = Receiver(replayed), Receiver(replayed)
    ref_extras = [reference_batch(ref.transport, batch) for batch in batches]
    real_extras = []
    for batch in batches:
        handler = real.transport.classify(batch[0])[1]
        real_extras.append(handler(list(batch)))
    assert [x.hex() for x in real_extras] == [float(x).hex() for x in ref_extras]
    assert real.observed() == ref.observed()
    return real


# -- packets ------------------------------------------------------------------------


class Message:
    """The DATA packets of one message, as TSO cuts them.

    Each message's first segment takes IPIDs 0xFFFF, 0, 1: the wrap.
    """

    def __init__(self, msg_id: int, length: int, dst_port: int = PORTS[0],
                 src_port: int = PEER_PORT):
        self.msg_id = msg_id
        self.dst_port = dst_port
        self.src_port = src_port
        self.wire = bytes((msg_id * 7 + i) & 0xFF for i in range(length))
        self.packets: list[Packet] = []
        cap = SEG_PACKETS * MSS
        for off in range(0, length, cap):
            seg = TsoSegment(PEER, 1, PROTO_HOMA, self.header(off),
                             self.wire[off : off + cap], MSS)
            self.packets += split_segment(seg, (0xFFFF - off // MSS) & 0xFFFF)

    def header(self, tso_offset: int, retransmit_offset: int = 0) -> TransportHeader:
        return TransportHeader(
            src_port=self.src_port,
            dst_port=self.dst_port,
            msg_id=self.msg_id,
            pkt_type=PacketType.DATA,
            msg_len=len(self.wire),
            tso_offset=tso_offset,
            retransmit_offset=retransmit_offset,
        )

    def trimmed(self, index: int) -> Packet:
        """Packet ``index`` with its payload cut by a switch."""
        p = self.packets[index]
        return Packet(p.ip, p.transport, b"", dict(p.meta, trimmed=True))

    def explicit(self, tso_offset: int, offset: int) -> Packet:
        """A retransmitted packet carrying its in-segment byte offset."""
        start = tso_offset + offset
        seg_end = min(tso_offset + SEG_PACKETS * MSS, len(self.wire))
        chunk = self.wire[start : min(start + MSS, seg_end)]
        return split_segment(
            TsoSegment(PEER, 1, PROTO_HOMA, self.header(tso_offset, offset + 1), chunk, MSS),
            0,
        )[0]


def interleave(*lists):
    out = []
    for i in range(max(len(x) for x in lists)):
        out += [x[i] for x in lists if i < len(x)]
    return out


# -- the cases ----------------------------------------------------------------------


def test_two_messages_interleaved_in_one_batch():
    a, b = Message(10, 20 * MSS), Message(12, 17 * MSS + 100)
    real = run_both([interleave(a.packets, b.packets)])
    assert {m for _port, m, _w in real.delivered} == {10, 12}
    assert any(h.pkt_type == PacketType.GRANT for _q, _d, h, _p in real.posted)


def test_single_packet_messages():
    # Each message completes on its first packet: first-packet and
    # delivery costs land in one packet's extra.
    msgs = [Message(2 * i + (i & 1), 200 + 300 * i) for i in range(5)]
    real = run_both([[m.packets[0] for m in msgs]])
    assert len(real.delivered) == 5


def test_two_dst_ports_under_one_merge_key():
    a = Message(10, 11 * MSS, dst_port=PORTS[0])
    b = Message(12, 8 * MSS + 5, dst_port=PORTS[1])
    real = run_both([a.packets[:4] + interleave(a.packets[4:], b.packets)])
    assert sorted(real.delivered) == [(PORTS[0], 10, a.wire), (PORTS[1], 12, b.wire)]


def test_one_message_id_to_two_ports():
    # Inbound state is keyed by the peer socket and ID, the socket by the
    # local port: each packet must reach the socket its own port names,
    # even when the port changes mid-message within one batch.
    a = Message(10, 9 * MSS)
    stray = Message(10, 9 * MSS, dst_port=PORTS[1])
    run_both([a.packets[:3] + stray.packets[3:5] + a.packets[5:] + stray.packets[:3]])


def test_completion_mid_batch_then_late_duplicate():
    a, b = Message(10, 5 * MSS), Message(12, 4 * MSS)
    batch = a.packets + [a.packets[2], a.packets[0]] + b.packets + [a.packets[-1]]
    real = run_both([batch])
    assert real.transport.spurious_ignored == 3
    assert [m for _port, m, _w in real.delivered] == [10, 12]


def test_trimmed_and_explicit_retransmit_mid_batch():
    a = Message(10, 9 * MSS)
    batch = (
        a.packets[:2]
        + [a.trimmed(2), a.packets[3], a.trimmed(2)]  # second trim: already asked
        + [a.explicit(0, 2 * MSS)]  # a TSO segment cannot take an explicit packet
        + a.packets[4:]
        + [a.explicit(0, 0), a.explicit(0, MSS), a.explicit(0, 2 * MSS)]
    )
    real = run_both([batch])
    assert any(h.pkt_type == PacketType.RESEND for _q, _d, h, _p in real.posted)
    assert real.delivered == [(PORTS[0], 10, a.wire)]


def test_replayed_id():
    a, b = Message(10, 4 * MSS), Message(12, 4 * MSS)
    real = run_both([interleave(a.packets, b.packets)], replayed={10})
    assert real.transport.replays_dropped == len(a.packets)
    assert [m for _port, m, _w in real.delivered] == [12]


def test_data_before_its_session_exists():
    early = Message(10, 4 * MSS, src_port=NO_SESSION_PORT)
    real = run_both([early.packets])
    assert real.transport.spurious_ignored == len(early.packets)
    assert real.delivered == []


def test_unbound_port_and_response_ids():
    # Packets for a port nobody bound are dropped silently; an odd ID is
    # a response, whose delivery queues a batched ACK.
    nobody = Message(10, 2 * MSS, dst_port=5999)
    response = Message(13, 6 * MSS)
    run_both([interleave(nobody.packets, response.packets)])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_random_batches_match_per_packet(seed):
    """Shuffled, duplicated, trimmed and retransmitted packets of a few
    messages, cut into batches at random points."""
    rng = random.Random(seed)
    msgs = [
        Message(2 * i + rng.randrange(2), rng.randrange(14) * MSS + rng.randrange(1, MSS),
                dst_port=rng.choice(PORTS))
        for i in range(rng.randrange(1, 4))
    ]
    stream = []
    for m in msgs:
        packets = list(m.packets)
        if rng.random() < 0.5:
            rng.shuffle(packets)
        for _ in range(rng.randrange(3)):
            packets.insert(rng.randrange(len(packets) + 1), rng.choice(m.packets))
        if rng.random() < 0.3:
            packets.insert(rng.randrange(len(packets) + 1), m.trimmed(rng.randrange(len(m.packets))))
        if rng.random() < 0.3:
            tso = rng.randrange(0, len(m.wire), SEG_PACKETS * MSS)
            seg_len = min(SEG_PACKETS * MSS, len(m.wire) - tso)
            packets += [m.explicit(tso, off) for off in range(0, seg_len, MSS)]
        stream = interleave(stream, packets) if rng.random() < 0.5 else stream + packets
    cuts = sorted(rng.sample(range(1, len(stream)), min(len(stream) - 1, rng.randrange(4))))
    batches = [stream[i:j] for i, j in zip([0] + cuts, cuts + [len(stream)])]
    replayed = {msgs[0].msg_id} if rng.random() < 0.2 else ()
    run_both(batches, replayed)




def with_len(packet: Packet, msg_len: int) -> Packet:
    return Packet(packet.ip, packet.transport._replace(msg_len=msg_len), packet.payload)


def test_forged_length_leaves_no_state(monkeypatch):
    """A first DATA header is not authenticated, so its ``msg_len`` is
    bounded before the receiver allocates, arms a timer or asks the replay
    filter to burn the ID."""
    asked = []
    monkeypatch.setattr(_Codec, "accept_message", lambda _, i: not asked.append(i))
    real = Message(10, 2 * MSS)
    rx = Receiver()
    for msg_len in (MAX_WIRE_LEN + 1, 2**32 - 1):
        forged = with_len(real.packets[0], msg_len)
        assert rx.transport.classify(forged)[1]([forged]) == 0.0
    assert not rx.transport._inbound and not asked
    assert rx.loop._seq == Receiver().loop._seq  # no timer armed
    assert rx.transport.oversize_dropped == 2
    rx.transport.classify(real.packets[0])[1](list(real.packets))
    assert asked == [10]
    assert rx.delivered == [(PORTS[0], 10, real.wire)]


def test_length_at_the_bound_is_taken():
    rx = Receiver()
    at_bound = with_len(Message(10, MSS).packets[0], MAX_WIRE_LEN)
    rx.transport.classify(at_bound)[1]([at_bound])
    assert [m.wire_len for m in rx.transport._inbound.values()] == [MAX_WIRE_LEN]
