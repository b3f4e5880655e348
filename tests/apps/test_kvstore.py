"""Key-value store tests: protocol, store semantics, both servers."""

import pytest

from repro.apps.kvstore import (
    KVStore,
    MessageKvServer,
    StreamKvServer,
    decode_command,
    decode_reply,
    encode_get,
    encode_reply,
    encode_set,
)
from repro.apps.kvstore.protocol import OP_GET, OP_SET, STATUS_NOT_FOUND, STATUS_OK
from repro.apps.rpc import RpcChannel
from repro.bench.runner import CLIENT_KEYS, SERVER_KEYS
from repro.errors import ProtocolError
from repro.homa import HomaSocket, HomaTransport
from repro.host.costs import CostModel
from repro.ktls import ktls_pair
from repro.tcp import connect_pair
from repro.testbed import Testbed


class TestProtocol:
    def test_get_roundtrip(self):
        op, key, value = decode_command(encode_get(b"user1"))
        assert op == OP_GET and key == b"user1" and value == b""

    def test_set_roundtrip(self):
        op, key, value = decode_command(encode_set(b"k", b"v" * 100))
        assert op == OP_SET and key == b"k" and value == b"v" * 100

    def test_reply_roundtrip(self):
        status, value = decode_reply(encode_reply(STATUS_OK, b"data"))
        assert status == STATUS_OK and value == b"data"

    def test_truncated_command_rejected(self):
        with pytest.raises(ProtocolError):
            decode_command(encode_set(b"k", b"v" * 100)[:-5])

    def test_short_command_rejected(self):
        with pytest.raises(ProtocolError):
            decode_command(b"\x01")


class TestStore:
    def test_set_then_get(self):
        store = KVStore(CostModel())
        reply, _ = store.execute(encode_set(b"k", b"value"))
        assert decode_reply(reply)[0] == STATUS_OK
        reply, _ = store.execute(encode_get(b"k"))
        assert decode_reply(reply) == (STATUS_OK, b"value")

    def test_missing_key(self):
        store = KVStore(CostModel())
        reply, _ = store.execute(encode_get(b"nope"))
        assert decode_reply(reply)[0] == STATUS_NOT_FOUND
        assert store.misses == 1

    def test_overwrite(self):
        store = KVStore(CostModel())
        store.execute(encode_set(b"k", b"v1"))
        store.execute(encode_set(b"k", b"v2"))
        reply, _ = store.execute(encode_get(b"k"))
        assert decode_reply(reply)[1] == b"v2"

    def test_preload_free(self):
        store = KVStore(CostModel())
        store.preload({b"a": b"1", b"b": b"2"})
        assert len(store) == 2

    def test_costs_scale_with_value_size(self):
        store = KVStore(CostModel())
        store.preload({b"small": b"x", b"big": b"y" * 4096})
        _, small_cost = store.execute(encode_get(b"small"))
        _, big_cost = store.execute(encode_get(b"big"))
        assert big_cost > small_cost

    def test_unknown_op_rejected(self):
        store = KVStore(CostModel())
        import struct

        bad = struct.pack("!BH", 99, 1) + b"k" + struct.pack("!I", 0)
        with pytest.raises(ProtocolError):
            store.execute(bad)


class TestMessageServer:
    def test_serves_over_homa(self):
        bed = Testbed.back_to_back()
        ct = HomaTransport(bed.client)
        st = HomaTransport(bed.server)
        csock = HomaSocket(ct, bed.client.alloc_port())
        ssock = HomaSocket(st, 6379)
        store = KVStore(bed.server.costs)
        server = MessageKvServer(ssock, store)
        bed.loop.process(server.run(bed.server.app_thread(0)))
        results = {}

        def client():
            t = bed.client.app_thread(0)
            reply = yield from csock.call(
                t, bed.server.addr, 6379, encode_set(b"k", b"hello")
            )
            assert decode_reply(reply)[0] == STATUS_OK
            reply = yield from csock.call(t, bed.server.addr, 6379, encode_get(b"k"))
            results["get"] = decode_reply(reply)

        done = bed.loop.process(client())
        bed.loop.run(until=1.0)
        assert done.ok
        assert results["get"] == (STATUS_OK, b"hello")
        assert server.requests_served == 2


class TestStreamServer:
    def test_serves_multiple_connections_single_thread(self):
        bed = Testbed.back_to_back()
        store = KVStore(bed.server.costs)
        server = StreamKvServer(bed.loop, bed.server.costs, store)
        channels = []
        for _ in range(3):
            conn_c, conn_s = connect_pair(bed.client, bed.server, bed.server.alloc_port())
            c, s = ktls_pair(conn_c, conn_s, "sw", CLIENT_KEYS, SERVER_KEYS)
            server.add_client(s)
            channels.append(RpcChannel(c))
        bed.loop.process(server.run(bed.server.app_thread(0)))
        results = {}

        def client(i, rpc):
            t = bed.client.app_thread(i)
            reply = yield from rpc.call(t, encode_set(b"key%d" % i, b"val%d" % i))
            assert decode_reply(reply)[0] == STATUS_OK
            reply = yield from rpc.call(t, encode_get(b"key%d" % i))
            results[i] = decode_reply(reply)[1]

        procs = [bed.loop.process(client(i, rpc)) for i, rpc in enumerate(channels)]
        bed.loop.run(until=2.0)
        assert all(p.ok for p in procs)
        assert results == {0: b"val0", 1: b"val1", 2: b"val2"}
        assert server.requests_served == 6

    def test_pipelined_requests_one_connection(self):
        bed = Testbed.back_to_back()
        store = KVStore(bed.server.costs)
        store.preload({b"key%d" % i: b"v%d" % i for i in range(10)})
        server = StreamKvServer(bed.loop, bed.server.costs, store)
        conn_c, conn_s = connect_pair(bed.client, bed.server, 6379)
        c, s = ktls_pair(conn_c, conn_s, "sw", CLIENT_KEYS, SERVER_KEYS)
        server.add_client(s)
        bed.loop.process(server.run(bed.server.app_thread(0)))
        rpc = RpcChannel(c)
        got = []

        def client():
            t = bed.client.app_thread(0)
            for i in range(10):
                yield from rpc.send_request(t, encode_get(b"key%d" % i))
            for _ in range(10):
                _req, payload = yield from rpc.recv_response(t)
                got.append(decode_reply(payload)[1])

        done = bed.loop.process(client())
        bed.loop.run(until=2.0)
        assert done.ok
        assert sorted(got) == sorted(b"v%d" % i for i in range(10))
