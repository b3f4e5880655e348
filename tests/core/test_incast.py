"""Multi-host incast over the switch fabric, with and without trimming."""

from repro.core.codec import SmtCodec
from repro.core.session import SmtSession
from repro.homa import HomaConfig, HomaSocket, HomaTransport
from repro.net.headers import PROTO_HOMA, PROTO_SMT
from repro.testbed import StarTestbed
from repro.tls.keyschedule import TrafficKeys
from repro.units import KB


INCAST_CONFIG = dict(
    # Small unscheduled window so the receiver's grants pace the fan-in
    # (blasting 8 x 60 KB of unscheduled data into one switch buffer is
    # congestion collapse for any transport).
    unscheduled_bytes=8 * KB,
    grant_window=8 * KB,
    resend_interval=300e-6,
    max_resends=100,
)
# Four-packet TSO segments: grants and retransmissions then operate at a
# granularity the switch buffer can absorb (NDP runs per-packet; full
# 64 KB segments defeat receiver-driven pacing under heavy fan-in).
INCAST_PPS = 4
# Events each scenario dispatches: the star bed's whole virtual-time
# schedule in one number (drops and trims included), pinned so a change
# to the fabric under it cannot pass unnoticed.
DISPATCHED = {"drop": 6831, "trim": 4577, "smt": 2218}


def build_star(num_clients, trimming, encrypted=False, buffer_bytes=64 * 1024):
    bed = StarTestbed.star(num_clients, trimming=trimming, buffer_bytes=buffer_bytes)
    proto = PROTO_SMT if encrypted else PROTO_HOMA
    st = HomaTransport(bed.server, HomaConfig(**INCAST_CONFIG), proto=proto)
    server_codecs = {}
    if encrypted:
        def server_provider(addr, port):
            if (addr, port) not in server_codecs:
                ck = TrafficKeys(key=addr.to_bytes(16, "big"), iv=b"\x01" * 12)
                sk = TrafficKeys(key=(addr + 1).to_bytes(16, "big"), iv=b"\x02" * 12)
                server_codecs[(addr, port)] = SmtCodec(
                    SmtSession(sk, ck, aead_kind="fast"), bed.server.costs,
                    packets_per_segment=INCAST_PPS,
                )
            return server_codecs[(addr, port)]

        ssock = HomaSocket(st, 7000, codec_provider=server_provider)
    else:
        from repro.homa.codec import PlainCodec

        plain = PlainCodec(proto, packets_per_segment=INCAST_PPS)
        ssock = HomaSocket(st, 7000, codec_provider=lambda a, p: plain)

    def echo():
        thread = bed.server.app_thread(0)
        while True:
            rpc = yield from ssock.recv_request(thread)
            yield from ssock.reply(thread, rpc, b"ok")

    bed.loop.process(echo())

    client_socks = []
    for i, client in enumerate(bed.clients):
        ct = HomaTransport(client, HomaConfig(**INCAST_CONFIG), proto=proto)
        if encrypted:
            ck = TrafficKeys(key=client.addr.to_bytes(16, "big"), iv=b"\x01" * 12)
            sk = TrafficKeys(key=(client.addr + 1).to_bytes(16, "big"), iv=b"\x02" * 12)
            codec = SmtCodec(SmtSession(ck, sk, aead_kind="fast"), client.costs,
                             packets_per_segment=INCAST_PPS)
            sock = HomaSocket(ct, client.alloc_port(),
                              codec_provider=lambda a, p, c=codec: c)
        else:
            from repro.homa.codec import PlainCodec

            plain = PlainCodec(proto, packets_per_segment=INCAST_PPS)
            sock = HomaSocket(ct, client.alloc_port(),
                              codec_provider=lambda a, p, c=plain: c)
        client_socks.append(sock)
    return bed, ssock, client_socks


def run_incast(bed, client_socks, message_size, until=50e-3):
    done_flags = []

    def sender(i, sock):
        thread = bed.clients[i].app_thread(0)
        response = yield from sock.call(
            thread, bed.server.addr, 7000, bytes([i & 0xFF]) * message_size
        )
        assert response == b"ok"
        done_flags.append(i)

    procs = [bed.loop.process(sender(i, s)) for i, s in enumerate(client_socks)]
    bed.loop.run(until=until)
    for p in procs:
        if p.triggered and not p.ok:
            raise p.value
    return done_flags, procs


class TestIncastPlain:
    def test_small_fanin_all_complete(self):
        bed, ssock, socks = build_star(4, trimming=False)
        done, procs = run_incast(bed, socks, 2000)
        assert sorted(done) == [0, 1, 2, 3]

    def test_heavy_incast_with_drops_recovers(self):
        # 8 senders x 60 KB into a 32 KB buffer: drops are guaranteed;
        # the RESEND machinery must complete every message.
        bed, ssock, socks = build_star(8, trimming=False)
        done, procs = run_incast(bed, socks, 60 * KB, until=0.5)
        assert sorted(done) == list(range(8))
        assert bed.fabric.leaves[0].stats(bed.server.addr)["dropped"] > 0
        assert bed.loop.dispatched == DISPATCHED["drop"]

    def test_heavy_incast_with_trimming_recovers(self):
        bed, ssock, socks = build_star(8, trimming=True)
        done, procs = run_incast(bed, socks, 60 * KB, until=0.5)
        assert sorted(done) == list(range(8))
        assert bed.fabric.leaves[0].stats(bed.server.addr)["trimmed"] > 0
        assert bed.loop.dispatched == DISPATCHED["trim"]

    def test_trimming_triggers_fast_resends(self):
        bed, ssock, socks = build_star(8, trimming=True)
        run_incast(bed, socks, 60 * KB, until=0.5)
        st = bed.server._transports[PROTO_HOMA]
        assert st.resend_requests > 0

    def test_trimming_finishes_faster_than_drops(self):
        # Trimming converts losses into immediate resend requests instead
        # of timeout-driven discovery.
        def completion_time(trimming):
            bed, ssock, socks = build_star(8, trimming=trimming)
            done_at = {}

            def sender(i, sock):
                thread = bed.clients[i].app_thread(0)
                yield from sock.call(thread, bed.server.addr, 7000, bytes(60 * KB))
                done_at[i] = bed.loop.now

            for i, s in enumerate(socks):
                bed.loop.process(sender(i, s))
            bed.loop.run(until=1.0)
            assert len(done_at) == 8
            return max(done_at.values())

        assert completion_time(True) < completion_time(False)


class TestIncastEncrypted:
    def test_smt_incast_with_trimming(self):
        # Trimmed SMT packets still carry plaintext transport metadata
        # (paper §7): recovery works identically under encryption.
        bed, ssock, socks = build_star(6, trimming=True, encrypted=True)
        done, procs = run_incast(bed, socks, 40 * KB, until=0.2)
        assert sorted(done) == list(range(6))
        assert bed.loop.dispatched == DISPATCHED["smt"]

    def test_smt_incast_payload_intact(self):
        bed, ssock, socks = build_star(4, trimming=True, encrypted=True)
        done, procs = run_incast(bed, socks, 20 * KB, until=0.2)
        assert sorted(done) == [0, 1, 2, 3]
