"""RPC framing tests over bytestream channels."""

from repro.apps.rpc import RpcChannel, frame
from repro.bench.runner import CLIENT_KEYS, SERVER_KEYS
from repro.errors import ProtocolError
from repro.ktls import ktls_pair
from repro.tcp import connect_pair
from repro.testbed import Testbed


def build(mode="sw"):
    bed = Testbed.back_to_back()
    conn_c, conn_s = connect_pair(bed.client, bed.server, 5000)
    c, s = ktls_pair(conn_c, conn_s, mode, CLIENT_KEYS, SERVER_KEYS)
    return bed, RpcChannel(c), RpcChannel(s)


class TestFraming:
    def test_frame_layout(self):
        framed = frame(b"abc", 7, False)
        assert len(framed) == 13 + 3
        assert framed[-3:] == b"abc"

    def test_feed_and_pop(self):
        rpc = RpcChannel(None)
        rpc.feed(frame(b"x", 1, False) + frame(b"y", 2, True))
        assert rpc.pop_message() == (1, False, b"x")
        assert rpc.pop_message() == (2, True, b"y")
        assert rpc.pop_message() is None

    def test_partial_feed(self):
        rpc = RpcChannel(None)
        data = frame(b"payload", 1, False)
        rpc.feed(data[:5])
        assert rpc.pop_message() is None
        rpc.feed(data[5:])
        assert rpc.pop_message() == (1, False, b"payload")


class TestRoundTrip:
    def test_blocking_call(self):
        bed, crpc, srpc = build()
        result = {}

        def server():
            t = bed.server.app_thread(0)
            req_id, payload = yield from srpc.recv_request(t)
            yield from srpc.send_response(t, req_id, payload.upper())

        def client():
            t = bed.client.app_thread(0)
            result["r"] = yield from crpc.call(t, b"hello")

        bed.loop.process(server())
        done = bed.loop.process(client())
        bed.loop.run(until=1.0)
        assert done.ok and result["r"] == b"HELLO"

    def test_pipelined_requests(self):
        bed, crpc, srpc = build()
        got = []

        def server():
            t = bed.server.app_thread(0)
            for _ in range(5):
                req_id, payload = yield from srpc.recv_request(t)
                yield from srpc.send_response(t, req_id, payload)

        def client():
            t = bed.client.app_thread(0)
            ids = []
            for i in range(5):
                ids.append((yield from crpc.send_request(t, bytes([i]))))
            for _ in range(5):
                req_id, payload = yield from crpc.recv_response(t)
                got.append((req_id, payload))

        bed.loop.process(server())
        done = bed.loop.process(client())
        bed.loop.run(until=1.0)
        assert done.ok
        assert sorted(got) == [(i + 1, bytes([i])) for i in range(5)]

    def test_response_type_mismatch_detected(self):
        bed, crpc, srpc = build()

        def server():
            t = bed.server.app_thread(0)
            # Misbehaving server: sends a *request* back.
            yield from srpc.recv_request(t)
            yield from srpc.send_request(t, b"surprise")

        def client():
            t = bed.client.app_thread(0)
            yield from crpc.call(t, b"hi")

        bed.loop.process(server())
        done = bed.loop.process(client())
        bed.loop.run(until=1.0)
        assert not done.ok and isinstance(done.value, ProtocolError)

    def test_large_payload(self):
        bed, crpc, srpc = build()
        result = {}
        payload = bytes(i & 0xFF for i in range(150_000))

        def server():
            t = bed.server.app_thread(0)
            req_id, got = yield from srpc.recv_request(t)
            yield from srpc.send_response(t, req_id, got)

        def client():
            t = bed.client.app_thread(0)
            result["r"] = yield from crpc.call(t, payload)

        bed.loop.process(server())
        done = bed.loop.process(client())
        bed.loop.run(until=5.0)
        assert done.ok and result["r"] == payload
