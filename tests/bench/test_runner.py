"""Runner sanity: every system's RPC stack works and measures sensibly."""

import pytest

from repro.bench import fig8, fig9
from repro.bench.runner import (
    SYSTEMS,
    build_rpc_harness,
    message_pair,
    stream_pairs,
    throughput,
    unloaded_rtt,
)
from repro.crypto.aead import FastAead
from repro.ktls import KtlsConnection
from repro.nic.tso import TsoMode
from repro.tcp.transport import TcpTransport
from repro.testbed import Testbed


class TestHarness:
    @pytest.mark.parametrize("system", SYSTEMS)
    def test_echo_roundtrip(self, system):
        harness = build_rpc_harness(system)
        bed = harness.bed
        call = harness.call_factory(0)
        out = {}

        def body():
            out["r"] = yield from call(bytes(256), 256)

        done = bed.loop.process(body())
        bed.loop.run(until=5.0)
        assert done.triggered and done.ok, getattr(done, "value", "deadlock")
        assert len(out["r"]) == 256

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError):
            build_rpc_harness("quic")

    @pytest.mark.parametrize("system", ["smt-sw", "ktls-sw"])
    def test_asymmetric_response_size(self, system):
        harness = build_rpc_harness(system)
        call = harness.call_factory(0)
        out = {}

        def body():
            out["r"] = yield from call(bytes(64), 4096)

        done = harness.bed.loop.process(body())
        harness.bed.loop.run(until=5.0)
        assert done.ok and len(out["r"]) == 4096


class TestMeasurements:
    def test_unloaded_rtt_returns_sane_values(self):
        result = unloaded_rtt("homa", 64, repetitions=5)
        assert 5 < result.mean_us < 100
        assert result.samples == 5
        assert result.p99 >= result.mean

    def test_rtt_grows_with_size(self):
        small = unloaded_rtt("smt-sw", 64, repetitions=5).mean
        large = unloaded_rtt("smt-sw", 30_000, repetitions=5).mean
        assert large > small

    def test_throughput_measures_rate(self):
        result = throughput("homa", 64, 20, duration=1e-3, warmup=0.3e-3)
        assert result.rate > 50e3
        assert 0 < result.server_cpu < 1
        assert 0 < result.client_cpu < 1

    def test_more_concurrency_not_slower_when_unsaturated(self):
        low = throughput("homa", 64, 4, duration=1e-3).rate
        high = throughput("homa", 64, 32, duration=1e-3).rate
        assert high > low

    def test_rate_limit_caps_offered_load(self):
        limited = throughput("homa", 64, 50, duration=2e-3, rate_limit=100e3)
        assert limited.rate < 130e3

    def test_deterministic_given_seed(self):
        a = throughput("smt-sw", 64, 20, duration=1e-3)
        b = throughput("smt-sw", 64, 20, duration=1e-3)
        assert a.rate == b.rate
        assert a.mean_latency == b.mean_latency


class TestStackBuilders:
    """message_pair / stream_pairs: the one place a two-host stack is wired."""

    @pytest.mark.parametrize("system", ["homa", "smt-sw", "smt-hw"])
    @pytest.mark.parametrize("mode,budget", [
        (TsoMode.FULL, 0), (TsoMode.PAIRS, 2), (TsoMode.OFF, 1),
    ])
    def test_message_pair_honours_tso_mode(self, system, mode, budget):
        bed = Testbed.back_to_back(tso_mode=mode)
        csock, ssock = message_pair(bed, system, 7000)
        ccodec = csock.codec_for(bed.server.addr, 7000)
        scodec = ssock.codec_for(bed.client.addr, csock.port)
        assert ccodec.packets_per_segment == scodec.packets_per_segment == budget
        assert ssock.port == 7000 and csock.port != 7000
        if system == "smt-hw":
            assert ccodec.session.nic is bed.client.nic
            assert scodec.session.nic is bed.server.nic

    def test_message_pair_codec_options_reach_the_client_only(self):
        bed = Testbed.back_to_back()
        csock, ssock = message_pair(bed, "smt-hw", 7000, context_per_message=True)
        assert csock.codec_for(bed.server.addr, 7000).context_per_message
        assert not ssock.codec_for(bed.client.addr, csock.port).context_per_message

    def test_message_pair_binds_obs_names(self):
        bed = Testbed.back_to_back()
        bed.enable_obs()
        csock, ssock = message_pair(bed, "smt-sw", 7000)
        assert csock.codec_for(bed.server.addr, 7000).obs_name == "client.smt"
        assert ssock.codec_for(bed.client.addr, csock.port).obs_name == "server.smt"

    def test_stream_pairs_is_lazy_and_takes_a_channel_class(self):
        class Channel(KtlsConnection):
            pass

        bed = Testbed.back_to_back()
        pairs = stream_pairs(bed, "ktls-sw", 7001, 2, channel=Channel)
        c0, s0 = next(pairs)
        # Pair 1 does not exist until the caller asks for it: every caller
        # spawns pair i's server process before pair i+1 connects.
        server_tcp = TcpTransport.for_host(bed.server)
        assert [key[0] for key in server_tcp._connections] == [7001]
        c1, s1 = next(pairs)
        assert all(type(ch) is Channel and ch.mode == "sw" for ch in (c0, s0, c1, s1))
        assert s1.conn.local_port == 7002
        with pytest.raises(StopIteration):
            next(pairs)

    def test_stream_pairs_tcpls_uses_the_bench_aead(self):
        bed = Testbed.back_to_back()
        ((c, s),) = stream_pairs(bed, "tcpls", 7001, 1)
        assert isinstance(c._write._aead, FastAead)
        assert isinstance(s._read._aead, FastAead)


# One cheap cell per system of the two application benches, captured at the
# commit before their private stack wiring moved into the runner's builders.
FIG8_GOLDEN = {
    "tcp": 177000.0, "tls-usr": 142000.0, "ktls-sw": 150000.0,
    "ktls-hw": 157000.0, "homa": 223000.0, "smt-sw": 176000.0,
    "smt-hw": 186000.0,
}
FIG9_GOLDEN = {
    "tcp": (110.99926489142648, 264.9952781634163, 45000.0),
    "ktls-sw": (115.46728267355932, 264.1647587307156, 44500.0),
    "ktls-hw": (112.90455104551872, 267.6589028277775, 44500.0),
    "homa": (122.80508743852575, 307.48118014579046, 46500.0),
    "smt-sw": (127.48990047142404, 308.69162617840345, 46000.0),
    "smt-hw": (125.41651274464203, 307.5561143590411, 46500.0),
}


class TestGoldenCells:
    @pytest.mark.parametrize("system", fig8.SYSTEMS)
    def test_fig8_cell(self, system):
        assert fig8.run_kv(system, "B", 1024, duration=1e-3) == FIG8_GOLDEN[system]

    @pytest.mark.parametrize("system", fig9.SYSTEMS)
    def test_fig9_cell(self, system):
        point = fig9.run_point(system, 8, duration=2e-3)
        assert (point.p50_us, point.p99_us, point.iops) == FIG9_GOLDEN[system]
