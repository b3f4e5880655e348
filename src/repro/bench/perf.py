"""Kernel and codec micro-benchmarks, judged by counts only.

Three slices of the simulator's own machinery, each with deterministic
*event and operation counts* the CI perf-smoke job pins exactly:

- ``timer-churn``   -- the Homa resend/RTO pattern: many timers armed, most
  cancelled (acked) before they fire, through the cancellable ``Timer``
  handle (tombstone path).
- ``codec``         -- SMT encode/decode round trips (framing, composite
  seqnos, record seal/open) over the ``fast`` AEAD.
- ``rpc-slice``     -- a small fig7-style closed-loop throughput run, end
  to end through hosts, NIC, link and transport.

Host time is not measured here: wall-clock per workload and per layer is
the ledger's job (``python3 ledger/run.py``, ``ledger/compare.py``).
"""

from __future__ import annotations

from repro.bench.report import ExperimentReport
from repro.core.codec import SmtCodec
from repro.core.session import SmtSession
from repro.host.costs import CostModel
from repro.sim.event_loop import EventLoop, Timer, events_dispatched
from repro.tls.keyschedule import TrafficKeys

_KEY_A = TrafficKeys(key=b"\xa1" * 16, iv=b"\xa2" * 12)
_KEY_B = TrafficKeys(key=b"\xb1" * 16, iv=b"\xb2" * 12)


# -- timer churn ---------------------------------------------------------------


def run_timer_churn(n: int = 200_000) -> dict:
    """Arm ``n`` resend-style timers; 95 % are "acked" 1 ms before firing.

    The ack cancels the timer (tombstone path), as the Homa/TCP machinery
    does on every delivered message.
    """
    loop = EventLoop()
    fired = [0]

    def fire_live() -> None:
        fired[0] += 1

    def arm(i: int) -> None:
        timer = loop.timer_later(10e-3, fire_live)
        if i % 20:  # 95 %: acked long before the deadline
            loop.call_later(1e-3, Timer.cancel, timer)

    idx = [0]

    def driver() -> None:
        i = idx[0]
        end = min(i + 100, n)
        while i < end:
            arm(i)
            i += 1
        idx[0] = i
        if i < n:
            loop.call_later(1e-6, driver)

    events0 = events_dispatched()
    loop.call_soon(driver)
    loop.run()
    return {
        "n": n,
        "fired_live": fired[0],
        "events": events_dispatched() - events0,
    }


# -- codec encode/decode -------------------------------------------------------


CODEC_MSG_SIZE = 256 * 1024
CODEC_RECORD_PAYLOAD = 4096


def run_codec(iters: int = 24) -> dict:
    """SMT software encode + decode round trips (framing + seal/open)."""
    costs = CostModel()
    sender = SmtCodec(
        SmtSession(_KEY_A, _KEY_B, aead_kind="fast"),
        costs,
        max_record_payload=CODEC_RECORD_PAYLOAD,
    )
    receiver = SmtCodec(
        SmtSession(_KEY_B, _KEY_A, aead_kind="fast"),
        costs,
        max_record_payload=CODEC_RECORD_PAYLOAD,
    )
    payload = bytes(range(256)) * (CODEC_MSG_SIZE // 256)
    decoded_ok = 0
    for i in range(iters):
        msg_id = 2 * (i + 1)
        encoded = sender.encode(msg_id, payload, mss=1460)
        wire = b"".join(bytes(plan.payload) for plan in encoded.plans)
        decoded = receiver.decode(msg_id, wire)
        if len(decoded.payload) == CODEC_MSG_SIZE:
            decoded_ok += 1
    return {
        "msg_size": CODEC_MSG_SIZE,
        "record_payload": CODEC_RECORD_PAYLOAD,
        "iters": iters,
        "decoded_ok": decoded_ok,
        "records_sealed": sender.records_sealed,
        "records_opened": receiver.records_opened,
    }


# -- end-to-end RPC slice ------------------------------------------------------


def run_rpc_slice(duration: float = 1.5e-3) -> dict:
    """A fig7-shaped closed-loop throughput slice, end to end."""
    from repro.bench.runner import throughput

    events0 = events_dispatched()
    result = throughput("smt-sw", 1024, 50, duration=duration)
    return {
        "system": result.system,
        "virtual_duration_s": duration,
        "krps": result.rate / 1e3,
        "events": events_dispatched() - events0,
    }


# -- the experiment ------------------------------------------------------------


def run(quick: bool = False) -> ExperimentReport:
    report = ExperimentReport("Kernel micro-benchmarks (event and record counts)")
    churn_n = 20_000 if quick else 200_000
    codec_iters = 6 if quick else 24

    churn = run_timer_churn(churn_n)
    codec = run_codec(iters=codec_iters)
    rpc = run_rpc_slice(duration=0.5e-3 if quick else 1.5e-3)

    report.add_table(
        ["bench", "metric", "value"],
        [
            ("timer-churn", "timers", churn["n"]),
            ("timer-churn", "events", churn["events"]),
            ("codec", "roundtrips", codec["iters"]),
            ("codec", "records sealed", codec["records_sealed"]),
            ("rpc-slice", "kRPC/s", round(rpc["krps"], 1)),
            ("rpc-slice", "events", rpc["events"]),
        ],
    )
    report.check("timer-churn live fires", churn["fired_live"], churn_n // 20, churn_n // 20)
    report.check("codec roundtrips decoded", codec["decoded_ok"], codec_iters, codec_iters)
    records_per_msg = -(-codec["msg_size"] // codec["record_payload"])
    report.check(
        "codec records sealed",
        codec["records_sealed"],
        codec_iters * records_per_msg,
        codec_iters * (records_per_msg + 2),
    )
    report.check("rpc-slice makes progress (kRPC/s)", rpc["krps"], 1.0, 1e9)
    report.obs["perf"] = {"timer_churn": churn, "codec": codec, "rpc_slice": rpc}
    return report


def main() -> int:
    report = run()
    print(report.render())
    return 1 if report.misses else 0


if __name__ == "__main__":
    raise SystemExit(main())
