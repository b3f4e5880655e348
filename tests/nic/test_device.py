"""NIC device tests: rings, doorbell ordering, TSO integration, IPIDs."""

import pytest

from repro.errors import ProtocolError, SimulationError
from repro.net.headers import PROTO_SMT, TransportHeader
from repro.nic.tls_offload import ResyncDescriptor
from repro.nic.tso import TsoSegment
from repro.testbed import Testbed


def make_segment(bed, payload, msg_id=2, tso_offset=0):
    header = TransportHeader(
        1000, 2000, msg_id, msg_len=len(payload), tso_offset=tso_offset
    )
    return TsoSegment(
        bed.client.addr, bed.server.addr, PROTO_SMT, header, payload,
        bed.client.nic.mtu_payload,
    )


def collect_packets(bed):
    received = []
    bed.link.attach("b", lambda p: received.append(p))
    return received


class TestTransmit:
    def test_segment_becomes_packets(self):
        bed = Testbed.back_to_back()
        received = collect_packets(bed)
        bed.client.nic.post(0, make_segment(bed, bytes(5000)))
        bed.run()
        assert len(received) == 4
        assert b"".join(p.payload for p in received) == bytes(5000)

    def test_within_ring_order_preserved(self):
        bed = Testbed.back_to_back()
        received = collect_packets(bed)
        for i in range(5):
            bed.client.nic.post(0, make_segment(bed, bytes([i]) * 100, msg_id=2 * i + 2))
        bed.run()
        assert [p.transport.msg_id for p in received] == [2, 4, 6, 8, 10]

    def test_round_robin_across_rings(self):
        bed = Testbed.back_to_back()
        received = collect_packets(bed)
        # Two items per ring posted before the engine runs: expect
        # interleaving (ring0, ring1, ring0, ring1), not batching.
        for i in range(2):
            bed.client.nic.post(0, make_segment(bed, b"a" * 10, msg_id=100 + i * 2))
            bed.client.nic.post(1, make_segment(bed, b"b" * 10, msg_id=200 + i * 2))
        bed.run()
        ids = [p.transport.msg_id for p in received]
        assert ids == [100, 200, 102, 202]

    def test_invalid_ring_rejected(self):
        bed = Testbed.back_to_back()
        with pytest.raises(SimulationError):
            bed.client.nic.post(99, make_segment(bed, b"x"))

    def test_ipids_increment_per_flow(self):
        bed = Testbed.back_to_back()
        received = collect_packets(bed)
        bed.client.nic.post(0, make_segment(bed, bytes(3000), msg_id=2))
        bed.client.nic.post(0, make_segment(bed, bytes(3000), msg_id=4, tso_offset=0))
        bed.run()
        ipids = [p.ip.ipid for p in received]
        assert ipids == list(range(len(ipids)))  # continuous across segments

    def test_raising_descriptor_propagates_out_of_run(self):
        # A descriptor whose processing raises must not stop the engine
        # quietly, leaving every later descriptor in its ring.
        bed = Testbed.back_to_back()
        received = collect_packets(bed)
        nic = bed.client.nic
        nic.post(0, ResyncDescriptor(context_key="no such flow", seqno=0))
        nic.post(0, make_segment(bed, b"x" * 100))
        with pytest.raises(ProtocolError, match="unknown context"):
            bed.run()
        assert received == []

    def test_stats_counters(self):
        bed = Testbed.back_to_back()
        collect_packets(bed)
        bed.client.nic.post(0, make_segment(bed, bytes(5000)))
        bed.run()
        assert bed.client.nic.segments_sent == 1
        assert bed.client.nic.packets_sent == 4


class TestReceive:
    def test_rx_handler_invoked_after_nic_latency(self):
        bed = Testbed.back_to_back()
        arrivals = []
        bed.server.nic.set_rx_handler(lambda p: arrivals.append(bed.loop.now))
        bed.client.nic.post(0, make_segment(bed, b"x" * 100))
        bed.run()
        assert len(arrivals) == 1
        # tx nic latency + wire + rx nic latency all elapsed.
        assert arrivals[0] > 2 * bed.client.nic.costs.nic_fixed_latency

    def test_no_handler_drops_silently(self):
        bed = Testbed.back_to_back()
        bed.server.nic.set_rx_handler(None)
        bed.client.nic.post(0, make_segment(bed, b"x"))
        bed.run()  # must not raise
