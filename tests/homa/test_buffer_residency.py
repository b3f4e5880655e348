"""Who holds an RPC's bytes, and until when.

Like ``sendmsg``, a send is done with the application's buffer once the
transport has sealed or copied it: from then on the transport resends its
own copy, so nothing between the application and the socket may keep the
plaintext while the RPC waits for its response.  Plain Homa is the
exception: its plans are views of the application's buffer, which it
holds until the request is acked.  A server loop likewise lets go of a
request once it has replied, rather than holding it while it waits for
the next one.

Buffers are watched through weak references with the cyclic GC off, so
a buffer counts as released only when reference counting frees it.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.apps.rpc import RpcChannel
from repro.bench.loaded import LOAD_HOMA_CONFIG
from repro.bench.runner import build_rpc_harness, message_pair, stream_pairs
from repro.homa.socket import InboundRpc
from repro.load import FixedSize, OpenLoopEngine
from repro.load import engine as engine_module
from repro.load.cluster import (
    ClusterHarness,
    build_request,
    serve_messages,
    serve_stream,
)
from repro.tenancy import IsolationConfig, Tenant, TenantFabric
from repro.testbed import ClosTestbed, Testbed

SIZE = 64 * 1024
RESPONSE = 64
PORT = 7000
#: Virtual-time step while waiting for the first packet on the wire.
STEP = 100e-9


class _Buffer(bytearray):
    """A request buffer a weak reference can watch (``bytes`` cannot be)."""


@pytest.fixture(autouse=True)
def no_cyclic_gc():
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _until_first_packet(bed, nic) -> None:
    """Run until ``nic`` has put a packet on the wire."""
    before = nic.packets_sent
    for _ in range(10_000):
        if nic.packets_sent > before:
            return
        bed.loop.run(until=bed.loop.now + STEP)
    raise AssertionError("no packet left the client")


def _send_and_watch(bed, start_rpc, nic=None, request=SIZE):
    """Start one RPC on a fresh buffer; returns (weakref, rpc process).

    ``start_rpc(box)`` returns the RPC's generator and must pass the
    buffer on as ``box.pop()``, so no frame of the test names it.  The
    buffer holds ``request`` (bytes, or that many zeros) and leaves on
    ``nic`` (default: the client's).
    """
    box = [_Buffer(request)]
    ref = weakref.ref(box[0])
    proc = bed.loop.process(start_rpc(box))
    _until_first_packet(bed, nic or bed.client.nic)
    assert not box
    assert not proc.triggered, "the response is already back"
    return ref, proc


def _finish(bed, proc):
    bed.loop.run(until=bed.loop.now + 1.0)
    assert proc.triggered and proc.ok, getattr(proc, "value", "deadlock")
    assert len(proc.value) == RESPONSE


def _message_rpc(system):
    bed = Testbed.back_to_back()
    csock, ssock = message_pair(bed, system, PORT)

    def server():
        thread = bed.server.app_thread(0)
        while True:
            rpc = yield from ssock.recv_request(thread)
            yield from ssock.reply(thread, rpc, bytes(RESPONSE))

    bed.loop.process(server())
    thread = bed.client.app_thread(0)
    ref, proc = _send_and_watch(
        bed, lambda box: csock.call(thread, bed.server.addr, PORT, box.pop())
    )
    return bed, ref, proc


@pytest.mark.parametrize("system", ["smt-sw", "smt-hw"])
def test_smt_call_releases_the_request_once_encoded(system):
    bed, ref, proc = _message_rpc(system)
    assert ref() is None
    _finish(bed, proc)


def test_plain_homa_keeps_the_request_until_the_response():
    # Its plans are views of the request: the bytes it would resend.
    bed, ref, proc = _message_rpc("homa")
    assert ref() is not None
    _finish(bed, proc)
    assert ref() is None


def test_ktls_send_request_releases_the_request_once_framed():
    bed = Testbed.back_to_back()
    [(client, server)] = stream_pairs(bed, "ktls-sw", PORT, 1)
    crpc, srpc = RpcChannel(client), RpcChannel(server)

    def serve():
        thread = bed.server.app_thread(0)
        req_id, _payload = yield from srpc.recv_request(thread)
        yield from srpc.send_response(thread, req_id, bytes(RESPONSE))

    def call(box):
        thread = bed.client.app_thread(0)
        yield from crpc.send_request(thread, box.pop())
        _req_id, response = yield from crpc.recv_response(thread)
        return response

    bed.loop.process(serve())
    ref, proc = _send_and_watch(bed, call)
    assert ref() is None
    _finish(bed, proc)


def _pair(num_app_cores=2):
    """Two hosts under one leaf: host 0 calls host 1."""
    return ClosTestbed.leaf_spine(
        num_racks=1, hosts_per_rack=2, num_spines=1,
        num_app_cores=num_app_cores, seed=1,
    )


def _tenant_fabric():
    bed = _pair(num_app_cores=4)
    fabric = TenantFabric(
        bed, [Tenant("only", 0)], isolation=IsolationConfig(enabled=True),
        config=LOAD_HOMA_CONFIG, seed=3,
    )
    return bed, fabric, fabric.thread_for(fabric.registry.by_name("only"), 0, 1)


@pytest.mark.parametrize("system", ["smt", "ktls"])
def test_cluster_call_releases_the_request(system):
    bed = _pair()
    harness = ClusterHarness(bed, system, config=LOAD_HOMA_CONFIG)
    thread = harness.thread_for(0, 1)
    ref, proc = _send_and_watch(
        bed, lambda box: harness.call(0, 1, thread, box.pop()),
        nic=harness.hosts[0].nic, request=build_request(1, SIZE, RESPONSE),
    )
    assert ref() is None
    _finish(bed, proc)
    assert harness.server_integrity_errors == 0


def test_engine_rpc_releases_the_request(monkeypatch):
    # The load engine builds each request itself: watch the one it builds.
    bed = _pair()
    harness = ClusterHarness(bed, "smt", config=LOAD_HOMA_CONFIG)
    engine = OpenLoopEngine(harness, FixedSize(SIZE), load=0.3, duration=1e-4)
    [stream] = engine.streams
    stream.result.baseline_rtt[(SIZE, False)] = 1.0
    refs = []

    def watched_request(serial, size, response_size):
        buf = _Buffer(build_request(serial, size, response_size))
        refs.append(weakref.ref(buf))
        return buf

    monkeypatch.setattr(engine_module, "build_request", watched_request)
    proc = bed.loop.process(engine._one_rpc(stream, 0, 1, SIZE, 1))
    _until_first_packet(bed, harness.hosts[0].nic)
    assert not proc.triggered, "the response is already back"
    [ref] = refs
    assert ref() is None
    bed.loop.run(until=bed.loop.now + 1.0)
    assert proc.triggered and proc.ok, getattr(proc, "value", "deadlock")
    assert (stream.result.completed, stream.result.integrity_errors) == (1, 0)
    assert harness.server_integrity_errors == 0


def test_tenant_call_releases_the_request():
    bed, fabric, thread = _tenant_fabric()
    ref, proc = _send_and_watch(
        bed, lambda box: fabric.call("only", 0, 1, thread, box.pop()),
        nic=fabric.hosts[0].nic, request=build_request(1, SIZE, RESPONSE),
    )
    assert ref() is None
    _finish(bed, proc)
    assert fabric.server_integrity_errors["only"] == 0


# -- server loops -----------------------------------------------------------------


def _suspended(match):
    """Live, suspended generators for which ``match(gen)`` holds."""
    return [
        obj for obj in gc.get_objects()
        if type(obj).__name__ == "generator" and obj.gi_frame is not None
        and match(obj)
    ]


def _bound_requests(gen, size: int) -> list[str]:
    """Names in ``gen``'s frame bound to a request of ``size`` bytes."""
    return [
        name for name, value in gen.gi_frame.f_locals.items()
        if isinstance(value, InboundRpc)
        or (isinstance(value, (bytes, bytearray, memoryview)) and len(value) == size)
    ]


@pytest.mark.parametrize("system", ["smt-sw", "ktls-sw"])
def test_bench_server_holds_no_request_while_waiting(system):
    harness = build_rpc_harness(system)
    bed = harness.bed
    call = harness.call_factory(0)
    proc = bed.loop.process(call(bytes(SIZE), RESPONSE))
    bed.loop.run(until=bed.loop.now + 1.0)
    assert proc.triggered and proc.ok
    servers = _suspended(
        lambda g: g.gi_code.co_name == "server_thread"
        and g.gi_frame.f_locals.get("thread") is not None
        and g.gi_frame.f_locals["thread"].loop is bed.loop
    )
    assert len(servers) == 12
    assert [_bound_requests(g, SIZE) for g in servers] == [[]] * 12


@pytest.mark.parametrize(
    "system, loop_body", [("smt", serve_messages), ("ktls", serve_stream)]
)
def test_cluster_server_holds_no_request_while_waiting(system, loop_body):
    bed = _pair()
    harness = ClusterHarness(bed, system, config=LOAD_HOMA_CONFIG)
    proc = bed.loop.process(
        harness.call(0, 1, harness.thread_for(0, 1), build_request(1, SIZE, RESPONSE))
    )
    bed.loop.run(until=bed.loop.now + 1.0)
    assert proc.triggered and proc.ok
    assert harness.requests_served[1] == 1
    servers = _suspended(
        lambda g: g.gi_code is loop_body.__code__
        and g.gi_frame.f_locals["harness"] is harness
    )
    assert servers
    assert all(_bound_requests(g, SIZE) == [] for g in servers)


def test_tenant_server_holds_no_request_while_waiting():
    bed, fabric, thread = _tenant_fabric()
    proc = bed.loop.process(
        fabric.call("only", 0, 1, thread, build_request(1, SIZE, RESPONSE))
    )
    bed.loop.run(until=bed.loop.now + 1.0)
    assert proc.triggered and proc.ok
    assert fabric.requests_served["only"] == 1
    servers = _suspended(
        lambda g: g.gi_code is TenantFabric._serve.__code__
        and g.gi_frame.f_locals["self"] is fabric
    )
    assert servers
    assert all(_bound_requests(g, SIZE) == [] for g in servers)
