"""Ablations of SMT design choices called out in DESIGN.md.

1. Flow-context policy (§4.4.2): one context per queue with resyncs (the
   paper's design) versus one context per message.  Per-message contexts
   avoid resyncs but burn in-NIC memory: with a realistic context budget
   they thrash the context table.
2. ACK batching: Homa's lazy batched ACKs versus per-message ACKs --
   the softirq cost that shapes the ~700 K ceiling.
3. Composite bit split (§4.4.1): a too-small record-index allocation
   functionally rejects large messages, demonstrating the Fig. 5 trade-off
   end to end.
"""

from __future__ import annotations

from repro.bench.report import ExperimentReport
from repro.bench.runner import (
    CLIENT_KEYS,
    SERVER_KEYS,
    SERVER_PORT,
    build_rpc_harness,
    message_pair,
)
from repro.core.codec import SmtCodec
from repro.crypto.aead import SIM_AEAD
from repro.core.seqspace import BitAllocation
from repro.core.session import SmtSession
from repro.errors import ProtocolError
from repro.net.headers import PROTO_SMT
from repro.sim.trace import Histogram, RateMeter
from repro.testbed import Testbed


#: The flow-context ablation's run: messages sent, and the NIC's context
#: budget, small enough that per-message contexts thrash it.
MESSAGES = 200
CONTEXT_CAPACITY = 64


def run_flow_context_ablation() -> ExperimentReport:
    report = ExperimentReport(
        "Ablation: flow-context policy (per-queue+resync vs per-message)"
    )
    rows = []
    stats = {}
    for policy in ("per-queue", "per-message"):
        bed = Testbed.back_to_back()
        bed.client.nic.flow_contexts.capacity = CONTEXT_CAPACITY
        csock, ssock = message_pair(
            bed, "smt-hw", SERVER_PORT, context_per_message=policy == "per-message"
        )
        session = csock.codec_for(bed.server.addr, SERVER_PORT).session

        def server():
            thread = bed.server.app_thread(0)
            while True:
                rpc = yield from ssock.recv_request(thread)
                yield from ssock.reply(thread, rpc, b"ok")

        bed.loop.process(server())

        def client():
            thread = bed.client.app_thread(0)
            for i in range(MESSAGES):
                response = yield from csock.call(
                    thread, bed.server.addr, SERVER_PORT, bytes(256)
                )
                assert response == b"ok"

        done = bed.loop.process(client())
        bed.loop.run(until=5.0)
        if not done.ok:
            raise done.value
        table = bed.client.nic.flow_contexts
        stats[policy] = (table.allocations, table.evictions, session.resyncs_issued)
        rows.append((policy, table.allocations, table.evictions, session.resyncs_issued))
    report.add_table(["policy", "allocations", "evictions", "resyncs"], rows)
    # Per-queue: allocations bounded by the queue count, reuse via resync.
    report.check("per-queue allocations <= queues", stats["per-queue"][0], 0, 4)
    report.check("per-queue causes no evictions", stats["per-queue"][1], 0, 0)
    report.check("per-queue relies on resyncs", stats["per-queue"][2], MESSAGES // 2,
                 MESSAGES * 2)
    # Per-message: one allocation per message, thrashing the context table.
    report.check("per-message allocates per message", stats["per-message"][0],
                 MESSAGES, MESSAGES + 8)
    report.check("per-message thrashes NIC memory (evictions)",
                 stats["per-message"][1], MESSAGES - CONTEXT_CAPACITY - 8,
                 MESSAGES)
    report.check("per-message needs no resyncs", stats["per-message"][2], 0, 0)
    return report


def run_ack_batching_ablation(duration: float = 3e-3) -> ExperimentReport:
    report = ExperimentReport("Ablation: lazy batched ACKs vs per-message ACKs")
    rates = {}
    for batch in (1, 8):
        harness = build_rpc_harness("smt-sw")
        for host in (harness.bed.client, harness.bed.server):
            host.transport(PROTO_SMT).ack_batch_size = batch
        meter = RateMeter()
        lat = Histogram()
        end = 1e-3 + duration
        for slot in range(100):
            harness.bed.loop.process(
                harness.client_slot(slot, 64, 64, meter, lat, end)
            )
        harness.bed.loop.run(until=1e-3)
        meter.start(harness.bed.loop.now)
        harness.bed.loop.run(until=end)
        meter.stop(harness.bed.loop.now)
        rates[batch] = meter.rate()
    report.add_table(
        ["ack batch", "kRPC/s"],
        [(b, round(r / 1e3, 1)) for b, r in sorted(rates.items())],
    )
    report.check("batched ACKs raise the softirq ceiling (ratio)",
                 rates[8] / rates[1], 1.005, 1.5)
    return report


def run_bit_split_ablation() -> ExperimentReport:
    report = ExperimentReport("Ablation: composite seqno bit split (functional)")
    # A 60/4 split leaves 16 records/message: a 1 MB message cannot frame.
    tiny_index = BitAllocation(60)
    bed = Testbed.back_to_back()
    session = SmtSession(CLIENT_KEYS, SERVER_KEYS, allocation=tiny_index,
                         aead_kind=SIM_AEAD)
    codec = SmtCodec(session, bed.client.costs)
    big_failed = 0.0
    try:
        codec.encode(2, bytes(1 << 20), 1440)
    except ProtocolError:
        big_failed = 1.0
    small_ok = 0.0
    decoded = None
    try:
        encoded = codec.encode(2, bytes(16 * 1024), 1440)
        receiver = SmtCodec(
            SmtSession(SERVER_KEYS, CLIENT_KEYS, allocation=tiny_index,
                       aead_kind=SIM_AEAD),
            bed.client.costs,
        )
        decoded = receiver.decode(2, b"".join(p.payload for p in encoded.plans))
        small_ok = float(decoded.payload == bytes(16 * 1024))
    except ProtocolError:
        pass
    report.add_table(
        ["allocation", "1MB message", "16KB message"],
        [("60-bit IDs / 4-bit index", "rejected" if big_failed else "accepted",
          "ok" if small_ok else "failed")],
    )
    report.check("1MB message rejected under 4-bit record index", big_failed, 1, 1)
    report.check("16KB message still works", small_ok, 1, 1)
    return report
