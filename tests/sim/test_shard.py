"""Differential tests for the sharded conservative-PDES kernel.

The central claim of :mod:`repro.sim.shard` is that the partitioning is
unobservable: a loaded cluster run under 1, 2 and 4 time domains (and on
either carrier) produces bit-identical delivery order, books, slowdown
statistics and event totals.  These tests run the claim directly over
seeded workloads; on a mismatch they print a ``REPRODUCING SEED`` line
naming the exact seed so the failure replays from one number.
"""

import dataclasses
import pickle

import pytest

from repro.errors import SimulationError
from repro.load.distributions import HOMA_W4
from repro.load.shard import (
    measure_baselines,
    merge_load_results,
    merged_requests_served,
)
from repro.net.headers import (
    HEADERS_SIZE,
    PROTO_SMT,
    PROTO_TCP,
    IPv4Header,
    PacketType,
    TransportHeader,
)
from repro.net.packet import Packet
from repro.sim.event_loop import EventLoop
from repro.sim.shard import ShardPlan, ShardRunner
from repro.sim.shard.boundary import (
    OutboundQueue,
    decode_batch,
    encode_message,
    merge_batches,
)

WORKLOAD = "repro.load.shard:build_domain_workload"


def _loaded_signature(plan, domains, system, seed, baselines, duration=4e-5,
                      use_processes=False):
    """Everything observable about one sharded loaded run, as one tuple."""
    args = {
        "system": system,
        "distribution": HOMA_W4,
        "load": 0.5,
        "duration": duration,
        "seed": seed,
        "baselines": baselines,
    }
    run = ShardRunner(
        plan.with_domains(domains),
        workload_factory=WORKLOAD,
        workload_args=args,
        use_processes=use_processes,
    ).run()
    merged = merge_load_results(
        system, 0.5, duration, run.workloads(), baselines, run.spine_spread()
    )
    completions = sorted(
        (record for payload in run.workloads()
         for record in payload["completions"]),
        key=lambda r: (r[0], r[1], r[2]),
    )
    return {
        "events": run.events,
        "windows": run.windows,
        "final_barrier": run.final_barrier,
        "issued": merged.issued,
        "completed": merged.completed,
        "failed": merged.failed,
        "integrity_errors": merged.integrity_errors,
        "achieved_bytes": merged.achieved_bytes,
        "p50": merged.p50,
        "p99": merged.p99,
        "mean": merged.mean,
        "spine_spread": tuple(run.spine_spread()),
        "fabric_stats": str(run.fabric_stats()),
        "served": tuple(sorted(merged_requests_served(run.workloads()).items())),
        # The merged completion stream IS the delivery order: completion
        # virtual times, sources, serials, sizes and slowdowns, in
        # canonical order.
        "completions": tuple(completions),
    }


class TestDifferentialDomains:
    """1 vs 2 vs 4 domains must be bit-identical, several seeds deep."""

    @pytest.mark.parametrize("system", ["smt", "tcp"])
    def test_domain_count_is_unobservable(self, system):
        plan = ShardPlan(num_racks=4, hosts_per_rack=2, num_spines=2)
        baselines = measure_baselines(plan, system, HOMA_W4)
        for seed in (3, 11):
            reference = _loaded_signature(plan, 1, system, seed, baselines)
            for domains in (2, 4):
                candidate = _loaded_signature(
                    plan, domains, system, seed, baselines
                )
                for key, expected in reference.items():
                    if candidate[key] != expected:
                        print(
                            f"REPRODUCING SEED: seed={seed} system={system} "
                            f"domains={domains} field={key}"
                        )
                    assert candidate[key] == expected, (
                        f"{key} diverged at {domains} domains (seed {seed})"
                    )

    def test_rerun_is_bit_identical(self):
        plan = ShardPlan(num_racks=2, hosts_per_rack=2, num_spines=2)
        baselines = measure_baselines(plan, "smt", HOMA_W4)
        first = _loaded_signature(plan, 2, "smt", 7, baselines)
        second = _loaded_signature(plan, 2, "smt", 7, baselines)
        if first != second:
            print("REPRODUCING SEED: seed=7 system=smt domains=2 (rerun)")
        assert first == second

    def test_multiprocessing_carrier_matches_in_process(self):
        plan = ShardPlan(num_racks=2, hosts_per_rack=2, num_spines=2)
        baselines = measure_baselines(plan, "smt", HOMA_W4)
        inproc = _loaded_signature(plan, 2, "smt", 5, baselines)
        piped = _loaded_signature(
            plan, 2, "smt", 5, baselines, use_processes=True
        )
        if inproc != piped:
            print("REPRODUCING SEED: seed=5 system=smt domains=2 (mp carrier)")
        assert inproc == piped

    def test_traffic_actually_crosses_domains(self):
        """The parity above must not be vacuous: cross-rack RPCs exist."""
        plan = ShardPlan(num_racks=2, hosts_per_rack=2, num_spines=2)
        baselines = measure_baselines(plan, "smt", HOMA_W4)
        sig = _loaded_signature(plan, 2, "smt", 11, baselines)
        assert sum(sig["spine_spread"]) > 0
        assert any(record[4] for record in sig["completions"])  # cross flag


class TestShardPlan:
    def test_contiguous_rack_blocks(self):
        plan = ShardPlan(num_racks=4, hosts_per_rack=2, domains=2)
        assert plan.racks_of_domain(0) == [0, 1]
        assert plan.racks_of_domain(1) == [2, 3]
        assert [plan.domain_of_rack(r) for r in range(4)] == [0, 0, 1, 1]

    def test_every_domain_owns_a_rack(self):
        plan = ShardPlan(num_racks=3, hosts_per_rack=1, domains=3)
        assert [plan.racks_of_domain(d) for d in range(3)] == [[0], [1], [2]]

    def test_domains_bounded_by_racks(self):
        with pytest.raises(SimulationError):
            ShardPlan(num_racks=2, domains=3)
        with pytest.raises(SimulationError):
            ShardPlan(num_racks=2, domains=0)

    def test_with_domains_repartitions(self):
        plan = ShardPlan(num_racks=4, domains=1)
        again = plan.with_domains(4)
        assert again.domains == 4
        assert [again.domain_of_rack(r) for r in range(4)] == [0, 1, 2, 3]
        assert plan.domains == 1  # original untouched

    def test_domain_map_is_derived_never_passed(self):
        plan = ShardPlan(num_racks=4, domains=4)
        wider = dataclasses.replace(plan, num_racks=8)
        assert [wider.domain_of_rack(r) for r in range(8)] == [0, 0, 1, 1, 2, 2, 3, 3]
        with pytest.raises(TypeError):
            ShardPlan(num_racks=4, domains=2, _domain_of_rack=(0, 0, 0, 0))
        with pytest.raises(ValueError):
            dataclasses.replace(plan, _domain_of_rack=(0, 0, 0, 0))

    def test_plan_pickles_whole(self):
        # The multiprocessing carrier ships the plan to every worker.
        plan = ShardPlan(num_racks=6, hosts_per_rack=3, domains=3, mtu=9000)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        assert clone.racks_of_domain(1) == plan.racks_of_domain(1) == [2, 3]

    def test_global_index_round_trip(self):
        plan = ShardPlan(num_racks=3, hosts_per_rack=4, domains=3)
        for rack in range(3):
            for slot in range(4):
                g = plan.global_index(rack, slot)
                assert plan.rack_of_index(g) == rack


class TestBoundaryCodec:
    def _packet(self, **meta):
        payload = b"hello boundary"
        pkt = Packet(
            IPv4Header(0x0A010001, 0x0A020001, 17, 0),
            TransportHeader(7, 9, 42),
            payload,
        )
        pkt.meta.update(meta)
        return pkt

    def test_round_trip_preserves_wire_and_times(self):
        blob = encode_message(1, self._packet(), 2.5e-6, 3.0e-6)
        [(arrival, departure, seq, spine, pkt)] = decode_batch(blob)
        assert (arrival, departure, seq, spine) == (3.0e-6, 2.5e-6, 0, 1)
        assert pkt.payload == b"hello boundary"
        assert pkt.ip.src_addr == 0x0A010001
        assert pkt.ip.dst_addr == 0x0A020001

    def test_round_trip_preserves_receiver_visible_meta(self):
        cases = [
            ({}, {}),
            ({"trimmed": True}, {"trimmed": True}),
            ({"segment_end": False}, {"segment_end": False}),
            ({"segment_end": True}, {"segment_end": True}),
        ]
        for meta_in, meta_out in cases:
            blob = encode_message(0, self._packet(**meta_in), 1.0, 2.0)
            [(_, _, _, _, pkt)] = decode_batch(blob)
            for key, value in meta_out.items():
                assert pkt.meta.get(key) == value
            if "segment_end" not in meta_in:
                assert "segment_end" not in pkt.meta

    def test_merge_batches_orders_by_arrival_then_source(self):
        q0, q1 = OutboundQueue(), OutboundQueue()
        q0.emit(0, 0, self._packet(), 0.5, 2.0)
        q0.emit(0, 1, self._packet(), 0.1, 1.0)
        q1.emit(0, 0, self._packet(), 0.2, 1.0)
        (records0, min0) = q0.take()[0]
        (records1, min1) = q1.take()[0]
        assert (min0, min1) == (1.0, 1.0)
        merged = merge_batches([(1, records1), (0, records0)])
        arrivals = [arrival for arrival, _, _ in merged]
        assert arrivals == [1.0, 1.0, 2.0]
        # Tie at arrival 1.0 breaks by departure time: q0's message left
        # at 0.1, q1's at 0.2, matching shared-loop scheduling order.
        assert merged[0][1] == 1  # spine of q0's arrival-1.0 message
        assert merged[1][1] == 0  # then q1's


_SRC, _DST = 0x0A010001, 0x0A020001
#: One sealed message, as the transmit path holds it: packets are views.
_WIRE = memoryview(bytes(range(256)) * 12).toreadonly()


def _crossing(proto, transport, payload=b"", meta=None, total_len=None):
    size = HEADERS_SIZE + len(payload)
    ip = IPv4Header(_SRC, _DST, proto, size if total_len is None else total_len,
                    ipid=5)
    return Packet(ip, transport, payload, meta)


def _homa(pkt_type, **fields):
    return TransportHeader(40000, 5000, 77, pkt_type, **fields)


def _tcp(pkt_type, seq):
    return TransportHeader(40001, 443, seq, pkt_type, msg_len=1400)


#: Every kind of packet that crosses a cut, as its sender hands it over.
CROSSING = {
    "homa_data_first": lambda: _crossing(
        PROTO_SMT, _homa(PacketType.DATA, msg_len=3072, priority=3),
        _WIRE[:1400], {"segment_end": False}),
    "homa_data_later": lambda: _crossing(
        PROTO_SMT, _homa(PacketType.DATA, msg_len=3072, tso_offset=2800),
        _WIRE[2800:], {"segment_end": True}),
    "homa_data_retransmit": lambda: _crossing(
        PROTO_SMT, _homa(PacketType.DATA, msg_len=3072, tso_offset=1400,
                         retransmit_offset=1400, resend_packet_offset=1),
        _WIRE[1400:2800], {"segment_end": True}),
    "grant": lambda: _crossing(
        PROTO_SMT, _homa(PacketType.GRANT, grant_offset=2800, priority=7),
        meta={"segment_end": True}),
    "resend": lambda: _crossing(
        PROTO_SMT, _homa(PacketType.RESEND, tso_offset=1400, msg_len=1400,
                         priority=7), meta={"segment_end": True}),
    "ack": lambda: _crossing(
        PROTO_SMT, _homa(PacketType.ACK, msg_len=2, priority=7),
        (77).to_bytes(8, "big") + (78).to_bytes(8, "big"),
        {"segment_end": True}),
    "tcp_data_segment_end": lambda: _crossing(
        PROTO_TCP, _tcp(PacketType.DATA, 1_000_000), _WIRE[:1400],
        {"segment_end": True}),
    "tcp_data_mid_segment": lambda: _crossing(
        PROTO_TCP, _tcp(PacketType.DATA, 1_001_400), _WIRE[1400:2800],
        {"segment_end": False}),
    "tcp_ack": lambda: _crossing(
        PROTO_TCP, _tcp(PacketType.ACK, 1_002_800), meta={"segment_end": True}),
    # A switch trims the payload but keeps the old IPv4 header.
    "trimmed": lambda: _crossing(
        PROTO_SMT, _homa(PacketType.DATA, msg_len=3072, priority=7), b"",
        {"segment_end": False, "trimmed": True},
        total_len=HEADERS_SIZE + 1400),
    "scratch_meta": lambda: _crossing(
        PROTO_SMT, _homa(PacketType.DATA, msg_len=3072), _WIRE[:1400],
        {"segment_end": True, "obs_span": object(), "tenant": "victim"}),
}


def _same_packet(handed, wired):
    assert handed.ip == wired.ip
    assert handed.transport == wired.transport
    assert type(handed.transport.pkt_type) is type(wired.transport.pkt_type)
    assert bytes(handed.payload) == bytes(wired.payload)
    assert handed.meta == wired.meta
    assert (handed.size, handed.wire_size) == (wired.size, wired.wire_size)


class TestCarrierEquivalence:
    """The in-process handoff delivers what the wire codec would."""

    @pytest.mark.parametrize("kind", sorted(CROSSING))
    def test_handoff_equals_wire_round_trip(self, kind):
        packet = CROSSING[kind]()
        queue = OutboundQueue()
        queue.emit(2, 1, packet, 2.5e-6, 3.0e-6)
        [handed] = queue.take()[2][0]
        [wired] = decode_batch(encode_message(1, packet, 2.5e-6, 3.0e-6))
        assert handed[:4] == wired[:4] == (3.0e-6, 2.5e-6, 0, 1)
        _same_packet(handed[4], wired[4])
        # The pipe carrier's path: the same records, drained to one blob.
        queue.emit(2, 1, packet, 2.5e-6, 3.0e-6)
        [(blob, min_arrival)] = queue.drain().values()
        [piped] = decode_batch(blob)
        assert min_arrival == 3.0e-6 and piped[:4] == wired[:4]
        _same_packet(piped[4], wired[4])

    def test_sender_meta_changes_after_emit_are_invisible(self):
        packet = CROSSING["scratch_meta"]()
        queue = OutboundQueue()
        queue.emit(0, 0, packet, 1.0, 2.0)
        packet.meta["segment_end"] = False
        packet.meta["trimmed"] = True
        del packet.meta["obs_span"]
        [(_, _, _, _, handed)] = queue.take()[0][0]
        assert handed.meta == {"segment_end": True}
        handed.meta["obs_span"] = "receiver scratch"
        assert "obs_span" not in packet.meta

    def test_loaded_run_handoffs_equal_the_codec(self, monkeypatch):
        """Every packet a real 2-domain run sends across, both transports."""
        emit = OutboundQueue.emit
        checked = []

        def checking_emit(queue, dest, spine, packet, departure, arrival):
            emit(queue, dest, spine, packet, departure, arrival)
            handed = queue._records[dest][-1]
            [wired] = decode_batch(
                encode_message(spine, packet, departure, arrival)
            )
            assert handed[0:2] == wired[0:2] and handed[3] == wired[3]
            _same_packet(handed[4], wired[4])
            checked.append(packet.transport.pkt_type)

        monkeypatch.setattr(OutboundQueue, "emit", checking_emit)
        plan = ShardPlan(num_racks=2, hosts_per_rack=2, num_spines=2)
        for system in ("smt", "tcp"):
            baselines = measure_baselines(plan, system, HOMA_W4)
            _loaded_signature(plan, 2, system, 5, baselines)
        assert {PacketType.DATA, PacketType.GRANT, PacketType.ACK} <= set(checked)


class TestNextEventTime:
    def test_empty_loop_has_none(self):
        assert EventLoop().next_event_time() is None

    def test_reports_earliest_pending(self):
        loop = EventLoop()
        loop.call_later(2.0, lambda: None)
        loop.call_later(0.5, lambda: None)
        assert loop.next_event_time() == 0.5

    def test_skips_cancelled_head(self):
        loop = EventLoop()
        handle = loop.timer_later(0.5, lambda: None)
        loop.call_later(2.0, lambda: None)
        handle.cancel()
        assert loop.next_event_time() == 2.0

    def test_peek_does_not_advance(self):
        loop = EventLoop()
        seen = []
        loop.call_later(1.0, lambda: seen.append(True))
        assert loop.next_event_time() == 1.0
        assert seen == [] and loop.now == 0.0
        loop.run()
        assert seen == [True]


class TestRunnerProtocol:
    def test_workloadless_run_terminates(self):
        # No workload: only construction-time events (host/NIC setup)
        # exist, so the barrier loop drains them and stops on its own.
        plan = ShardPlan(num_racks=2, hosts_per_rack=1, domains=2)
        result = ShardRunner(plan).run()
        assert result.hosts == 2
        assert result.final_barrier < 1e-3
        assert sum(result.spine_spread()) == 0

    @pytest.mark.parametrize("use_processes", [False, True])
    @pytest.mark.parametrize(
        "path", ["repro.load.shard:nope", "repro.load.shard", "no.such.module:fn"]
    )
    def test_bad_factory_path_is_one_typed_error(self, path, use_processes):
        # Used to be a bare AttributeError in-process and, with workers, an
        # EOFError from the pipe of a worker that had already died.
        runner = ShardRunner(
            ShardPlan(num_racks=2, hosts_per_rack=1, domains=2),
            workload_factory=path, use_processes=use_processes,
        )
        with pytest.raises(SimulationError, match="pkg.mod:fn") as caught:
            runner.run()
        assert repr(path) in str(caught.value)

    def test_domain_results_cover_all_racks(self):
        plan = ShardPlan(num_racks=4, hosts_per_rack=1, domains=4)
        result = ShardRunner(plan).run()
        assert sorted(r for d in result.domains for r in d.racks) == [0, 1, 2, 3]
