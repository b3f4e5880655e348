"""Homa engine integration tests: RPCs, grants, loss recovery."""

import math

from repro.bench.runner import message_pair
from repro.errors import AuthenticationError, TransportError
from repro.homa import HomaConfig, HomaSocket, HomaTransport
from repro.homa.codec import PlainCodec
from repro.homa.message import InboundMessage
from repro.net.headers import PacketType
from repro.testbed import Testbed
from repro.units import KB, MB


def make_bed(**config_kwargs):
    bed = Testbed.back_to_back()
    config = HomaConfig(**config_kwargs) if config_kwargs else None
    ct = HomaTransport(bed.client, config)
    st = HomaTransport(bed.server, HomaConfig(**config_kwargs) if config_kwargs else None)
    csock = HomaSocket(ct, bed.client.alloc_port())
    ssock = HomaSocket(st, 6000)
    return bed, ct, st, csock, ssock


def echo_server(bed, ssock, thread_idx=0):
    def server():
        t = bed.server.app_thread(thread_idx)
        while True:
            rpc = yield from ssock.recv_request(t)
            yield from ssock.reply(t, rpc, rpc.payload)

    return bed.loop.process(server())


def run_client(bed, csock, payloads):
    results = []

    def client():
        t = bed.client.app_thread(0)
        for payload in payloads:
            t0 = bed.loop.now
            response = yield from csock.call(t, bed.server.addr, 6000, payload)
            results.append((response, bed.loop.now - t0))

    done = bed.loop.process(client())
    bed.loop.run(until=10.0)
    assert done.triggered, "client deadlocked"
    if not done.ok:
        raise done.value
    return results


class TestBasicRpc:
    def test_small_echo(self):
        bed, ct, st, csock, ssock = make_bed()
        echo_server(bed, ssock)
        [(response, rtt)] = run_client(bed, csock, [b"q" * 64])
        assert response == b"q" * 64
        assert 3e-6 < rtt < 50e-6

    def test_multi_packet_message(self):
        bed, ct, st, csock, ssock = make_bed()
        echo_server(bed, ssock)
        payload = bytes(i & 0xFF for i in range(8192))
        [(response, _)] = run_client(bed, csock, [payload])
        assert response == payload

    def test_message_larger_than_unscheduled_uses_grants(self):
        bed, ct, st, csock, ssock = make_bed()
        echo_server(bed, ssock)
        payload = bytes(300 * KB)
        [(response, _)] = run_client(bed, csock, [payload])
        assert response == payload
        # Grant packets actually flowed (receiver-driven transfer).
        assert bed.link.stats("b")["tx_packets"] > 0

    def test_many_sequential_rpcs(self):
        bed, ct, st, csock, ssock = make_bed()
        echo_server(bed, ssock)
        results = run_client(bed, csock, [bytes([i]) * 100 for i in range(20)])
        assert [r[0][0] for r in results] == list(range(20))

    def test_concurrent_rpcs_single_socket(self):
        bed, ct, st, csock, ssock = make_bed()
        echo_server(bed, ssock)
        done_flags = []

        def one_caller(i):
            t = bed.client.app_thread(i % 12)
            response = yield from csock.call(
                t, bed.server.addr, 6000, bytes([i]) * 256
            )
            assert response == bytes([i]) * 256
            done_flags.append(i)

        for i in range(30):
            bed.loop.process(one_caller(i))
        bed.loop.run(until=10.0)
        assert sorted(done_flags) == list(range(30))

    def test_sender_state_freed_after_ack(self):
        bed, ct, st, csock, ssock = make_bed()
        echo_server(bed, ssock)
        run_client(bed, csock, [b"x" * 100])
        bed.loop.run()
        assert not ct._outbound, "client kept outbound state after ACK"
        assert not st._outbound, "server kept outbound state after ACK"

    def test_empty_message_rejected(self):
        from repro.errors import ProtocolError

        bed, ct, st, csock, ssock = make_bed()

        def client():
            t = bed.client.app_thread(0)
            yield from csock.call(t, bed.server.addr, 6000, b"")

        proc = bed.loop.process(client())
        bed.loop.run(until=1.0)
        assert not proc.ok and isinstance(proc.value, ProtocolError)



#: ``repro.homa.engine.MAX_WIRE_LEN``, by value: twice the 1 MB message bound.
MAX_WIRE_LEN = 2 * MB


class TestSizeBound:
    """A plain-Homa message of exactly ``MAX_WIRE_LEN`` wire bytes goes
    through; one byte more is refused before anything is sent."""

    def test_message_at_the_bound_is_delivered(self):
        bed, ct, st, csock, ssock = make_bed()
        echo_server(bed, ssock)
        payload = bytes(i & 0xFF for i in range(MAX_WIRE_LEN))
        [(response, _)] = run_client(bed, csock, [payload])
        assert response == payload

    def test_one_byte_more_raises(self):
        bed, ct, st, csock, ssock = make_bed()

        def client():
            t = bed.client.app_thread(0)
            yield from csock.call(t, bed.server.addr, 6000, bytes(MAX_WIRE_LEN + 1))

        proc = bed.loop.process(client())
        bed.loop.run(until=1.0)
        assert not proc.ok and isinstance(proc.value, TransportError)
        assert "exceeds the maximum" in str(proc.value)
        assert not ct._outbound and bed.link.stats("a")["tx_packets"] == 0


class TestLossRecovery:
    def _run_with_loss(self, drop, payload_size, resend_interval=50e-6):
        bed, ct, st, csock, ssock = make_bed(resend_interval=resend_interval)
        state = {"n": 0}

        def loss_fn(packet):
            if packet.transport.pkt_type == PacketType.DATA:
                state["n"] += 1
                return drop(state["n"])
            return False

        bed.link.set_loss_fn("a", loss_fn)
        echo_server(bed, ssock)
        payload = bytes(i & 0xFF for i in range(payload_size))
        [(response, rtt)] = run_client(bed, csock, [payload])
        assert response == payload
        return bed, ct, st

    def test_lost_packet_recovered_by_resend(self):
        bed, ct, st, = self._run_with_loss(lambda n: n == 2, 8192)
        assert st.resend_requests >= 1
        assert ct.packets_retransmitted >= 1

    def test_first_packet_loss(self):
        self._run_with_loss(lambda n: n == 1, 8192)

    def test_whole_segment_loss(self):
        # All packets of the first segment of a multi-segment message.
        self._run_with_loss(lambda n: n <= 44, 100_000)

    def test_duplicate_injection_is_ignored(self):
        # Replay a DATA packet at the network level: receiver must not
        # deliver the message twice.
        bed, ct, st, csock, ssock = make_bed()
        replayed = []
        original = bed.link._a_to_b.receiver

        def duplicator(packet):
            original(packet)
            if packet.transport.pkt_type == PacketType.DATA and not replayed:
                replayed.append(True)
                original(packet)  # inject a copy

        bed.link._a_to_b.receiver = duplicator
        echo_server(bed, ssock)
        [(response, _)] = run_client(bed, csock, [b"h" * 64])
        assert response == b"h" * 64
        assert st.spurious_ignored >= 1
        assert st.messages_delivered == 1  # the request, delivered once

    def test_response_loss_recovered(self):
        bed, ct, st, csock, ssock = make_bed(resend_interval=50e-6)
        state = {"n": 0}

        def loss_fn(packet):
            if packet.transport.pkt_type == PacketType.DATA:
                state["n"] += 1
                return state["n"] == 1  # first response data packet
            return False

        bed.link.set_loss_fn("b", loss_fn)
        echo_server(bed, ssock)
        [(response, _)] = run_client(bed, csock, [b"k" * 128])
        assert response == b"k" * 128
        assert ct.resend_requests >= 1

    def test_resend_check_counts_a_stall_from_nine_tenths_of_the_interval(self):
        # A message is stalled once 0.9 x its (jittered) RESEND interval
        # has passed without progress: at that instant, not only after it.
        # last_progress = 0.0 keeps the subtraction exact, so checks at the
        # float just below 0.9 x interval and at it fall on either side.
        bed, ct, st, csock, ssock = make_bed()
        mss = bed.server.nic.mtu_payload
        inbound = InboundMessage(
            msg_id=2, peer_addr=bed.client.addr, peer_port=csock.port,
            local_port=6000, wire_len=100 * KB, segment_capacity=4 * mss, mss=mss,
        )
        st._inbound[(inbound.peer_addr, inbound.peer_port, inbound.msg_id)] = inbound
        at = st._resend_interval(inbound) * 0.9
        before = math.nextafter(at, 0.0)
        bed.loop.call_at(before, st._resend_check, inbound)
        bed.loop.run(until=before)
        assert inbound.resends == 0
        bed.loop.call_at(at, st._resend_check, inbound)
        bed.loop.run(until=at)
        assert bed.loop.now - inbound.last_progress == at
        assert inbound.resends == 1


class TestStateLimits:
    def test_abandoned_inbound_closes_its_rx_span(self):
        # Every DATA packet past the first segment is lost, retransmissions
        # included: the server gives up after max_resends, and each
        # abandoned message's homa.rx span must close, not stay open.
        bed, ct, st, csock, ssock = make_bed(resend_interval=50e-6, max_resends=3)
        obs = bed.enable_obs()
        bed.link.set_loss_fn(
            "a",
            lambda p: p.transport.pkt_type == PacketType.DATA and p.transport.tso_offset > 0,
        )
        echo_server(bed, ssock)
        failures = []

        def client():
            t = bed.client.app_thread(0)
            try:
                yield from csock.call(t, bed.server.addr, 6000, bytes(100 * KB))
            except TransportError as exc:
                failures.append(exc)

        bed.loop.process(client())
        bed.loop.run(until=1.0)
        assert failures and st.messages_delivered == 0
        rx = [s for s in obs.tracer.spans() if s.layer == "homa.rx"]
        assert rx and all(s.attrs.get("outcome") == "abandoned" for s in rx)
        assert all(s.attrs["resends"] == 4 for s in rx)
        assert obs.tracer.layer_summary()["homa.rx"]["open"] == 0

    def test_delivered_memory_keeps_the_newest_ids(self):
        # A full delivered-ID memory forgets its oldest entry, not all of
        # them: a late copy of the newest request is still a duplicate,
        # so plain Homa (whose codec accepts every ID) runs it only once.
        bed, ct, st, csock, ssock = make_bed()
        st._delivered.update(dict.fromkeys((0, 0, 2 * i) for i in range(100_000)))
        requests = []
        original = bed.link._a_to_b.receiver

        def capture(packet):
            if packet.transport.pkt_type == PacketType.DATA:
                requests.append(packet)
            original(packet)

        bed.link._a_to_b.receiver = capture
        echo_server(bed, ssock)
        [(response, _)] = run_client(bed, csock, [b"r" * 64])
        assert response == b"r" * 64 and len(requests) == 1
        delivered, spurious = st.messages_delivered, st.spurious_ignored
        original(requests[0])  # the network delivers a late duplicate
        bed.loop.run()
        assert st.messages_delivered == delivered == 1
        assert st.spurious_ignored == spurious + 1
        assert len(st._delivered) == 100_000

    def test_failed_response_decode_cancels_its_retry_chain(self):
        # Without corruption recovery a response that does not
        # authenticate fails the call; its retry chain goes with it
        # rather than staying filed (and its timer firing) forever.
        bed = Testbed.back_to_back()
        csock, ssock = message_pair(bed, "smt-sw", 6000)
        codec = csock.codec_for(bed.server.addr, 6000)

        def forged(msg_id, wire):
            raise AuthenticationError("forced")

        codec.decode = forged
        echo_server(bed, ssock)
        failures = []

        def client():
            t = bed.client.app_thread(0)
            try:
                yield from csock.call(t, bed.server.addr, 6000, b"z" * 64)
            except AuthenticationError as exc:
                failures.append(exc)

        bed.loop.process(client())
        bed.loop.run(until=1.0)
        assert len(failures) == 1
        assert csock._response_timers == {}


class TestReceiverDriven:
    def test_grants_pace_large_messages(self):
        bed, ct, st, csock, ssock = make_bed(
            unscheduled_bytes=10 * KB, grant_window=10 * KB
        )
        echo_server(bed, ssock)
        payload = bytes(100 * KB)
        [(response, _)] = run_client(bed, csock, [payload])
        assert response == payload

    def test_unscheduled_only_for_small(self):
        bed, ct, st, csock, ssock = make_bed(unscheduled_bytes=60 * KB)
        grants = []
        original = bed.link._b_to_a.receiver

        def watch(packet):
            if packet.transport.pkt_type == PacketType.GRANT:
                grants.append(packet)
            original(packet)

        bed.link._b_to_a.receiver = watch
        echo_server(bed, ssock)
        run_client(bed, csock, [b"s" * 1000])
        assert grants == []  # small message: no grant traffic

    def test_control_packets_high_priority(self):
        bed, ct, st, csock, ssock = make_bed()
        control_prios = []
        original = bed.link._b_to_a.receiver

        def watch(packet):
            if packet.transport.pkt_type in (PacketType.GRANT, PacketType.ACK):
                control_prios.append(packet.transport.priority)
            original(packet)

        bed.link._b_to_a.receiver = watch
        echo_server(bed, ssock)
        run_client(bed, csock, [bytes(200 * KB)])
        assert control_prios and all(p == 7 for p in control_prios)


class TestCodecContract:
    def test_session_hooks_bracket_every_call(self):
        # HomaSocket.call has one arm: any codec's gate/started/finished
        # hooks run, and rpc_finished runs when the call fails too.
        class Counting(PlainCodec):
            started = finished = gates = 0
            refused = 1  # responses left to fail authentication

            def decode(self, msg_id, wire):
                if self.refused:
                    self.refused -= 1
                    raise AuthenticationError("response does not authenticate")
                return super().decode(msg_id, wire)

            def tx_gate(self):
                self.gates += 1
                return None

            def rpc_started(self):
                self.started += 1

            def rpc_finished(self):
                self.finished += 1

        bed = Testbed.back_to_back()
        codec = Counting()
        csock = HomaSocket(
            HomaTransport(bed.client), bed.client.alloc_port(),
            codec_provider=lambda addr, port: codec,
        )
        ssock = HomaSocket(HomaTransport(bed.server), 6000)
        echo_server(bed, ssock)
        failures = []

        def client():
            t = bed.client.app_thread(0)
            try:  # corruption_recovery is off: a bad response fails the call
                yield from csock.call(t, bed.server.addr, 6000, b"x" * 64)
            except AuthenticationError as exc:
                failures.append(exc)
            assert (codec.started, codec.finished) == (1, 1)
            response = yield from csock.call(t, bed.server.addr, 6000, b"y" * 64)
            assert response == b"y" * 64

        done = bed.loop.process(client())
        bed.loop.run(until=1.0)
        assert done.triggered and done.ok, getattr(done, "value", "deadlock")
        assert len(failures) == 1
        assert (codec.gates, codec.started, codec.finished) == (2, 2, 2)

    def test_plain_codec_is_unmanaged(self):
        codec = PlainCodec()
        assert codec.alloc_msg_id() is None and codec.tx_gate() is None
        assert codec.forgive_message(2) is True
