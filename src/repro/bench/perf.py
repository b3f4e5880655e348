"""Kernel and codec micro-benchmarks: the perf trajectory of the repo.

Unlike the figure/table experiments, these measure *host wall-clock*, not
virtual time: the simulation kernel's own speed is what bounds how many
seeds, sizes and concurrency levels the paper sweeps can afford (ROADMAP
"as fast as the hardware allows").  Four slices:

- ``timer-churn``   -- the Homa resend/RTO pattern: many timers armed, most
  cancelled (acked) before they fire, through the cancellable ``Timer``
  handle (tombstone path).
- ``codec``         -- SMT encode/decode round trips (framing, composite
  seqnos, record seal/open) over the ``fast`` AEAD.
- ``aead``          -- raw seal throughput of AES-128-GCM vs FastAead on
  16 KB records (the two ciphers benchmarks may select).
- ``rpc-slice``     -- a small fig7-style closed-loop throughput run, end
  to end through hosts, NIC, link and transport.

Wall-clock numbers are environment-dependent, so the band checks assert
only deterministic *event and operation counts* -- the CI perf-smoke job
stays flake-free while still catching behavioural regressions.
"""

from __future__ import annotations

import time

from repro.bench.report import ExperimentReport
from repro.core.codec import SmtCodec
from repro.core.session import SmtSession
from repro.crypto.aead import FastAead
from repro.crypto.gcm import AesGcm
from repro.host.costs import CostModel
from repro.sim.event_loop import EventLoop, Timer, events_dispatched
from repro.tls.keyschedule import TrafficKeys

_KEY_A = TrafficKeys(key=b"\xa1" * 16, iv=b"\xa2" * 12)
_KEY_B = TrafficKeys(key=b"\xb1" * 16, iv=b"\xb2" * 12)


class _Timed:
    """Wall-clock + kernel-event window around one micro-benchmark."""

    def __enter__(self) -> "_Timed":
        self.events0 = events_dispatched()
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall = time.perf_counter() - self.t0
        self.events = events_dispatched() - self.events0

    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall if self.wall > 0 else 0.0


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

    with _Timed() as t:
        loop.call_soon(driver)
        loop.run()
    return {
        "n": n,
        # "mode" and "fired_dead" are constants kept so BENCH_perf.json's
        # table and checks keep their shape across PRs.
        "mode": "cancel",
        "fired_live": fired[0],
        "fired_dead": 0,
        "wall_s": t.wall,
        "events": t.events,
        "timers_per_sec": n / t.wall if t.wall > 0 else 0.0,
    }


# -- codec encode/decode -------------------------------------------------------


def run_codec(
    msg_size: int = 256 * 1024, record_payload: int = 4096, iters: int = 24
) -> dict:
    """SMT software encode + decode round trips (framing + seal/open)."""
    costs = CostModel()
    sender = SmtCodec(
        SmtSession(_KEY_A, _KEY_B, aead_kind="fast"),
        costs,
        max_record_payload=record_payload,
    )
    receiver = SmtCodec(
        SmtSession(_KEY_B, _KEY_A, aead_kind="fast"),
        costs,
        max_record_payload=record_payload,
    )
    payload = bytes(range(256)) * (msg_size // 256)
    decoded_ok = 0
    with _Timed() as t:
        for i in range(iters):
            msg_id = 2 * (i + 1)
            encoded = sender.encode(msg_id, payload, mss=1460)
            wire = b"".join(bytes(plan.payload) for plan in encoded.plans)
            decoded = receiver.decode(msg_id, wire)
            if len(decoded.payload) == msg_size:
                decoded_ok += 1
    mb = iters * msg_size / 1e6
    return {
        "msg_size": msg_size,
        "record_payload": record_payload,
        "iters": iters,
        "decoded_ok": decoded_ok,
        "records_sealed": sender.records_sealed,
        "records_opened": receiver.records_opened,
        "wall_s": t.wall,
        "mb_per_sec": 2 * mb / t.wall if t.wall > 0 else 0.0,  # encode + decode
    }


# -- raw AEAD seal -------------------------------------------------------------


def run_aead(record: int = 16 * 1024, iters: int = 64) -> dict:
    """Raw seal throughput: the real AES-128-GCM vs the simulation AEAD."""
    plaintext = bytes(record)
    out = {"record": record, "iters": iters}
    for name, aead in (("aes-128-gcm", AesGcm(b"\x01" * 16)),
                       ("fast", FastAead(b"\x01" * 16))):
        t0 = time.perf_counter()
        for i in range(iters):
            aead.seal(i.to_bytes(12, "big"), plaintext)
        wall = time.perf_counter() - t0
        out[f"{name}_wall_s"] = wall
        out[f"{name}_mb_per_sec"] = iters * record / 1e6 / wall if wall > 0 else 0.0
    return out


# -- end-to-end RPC slice ------------------------------------------------------


def run_rpc_slice(duration: float = 1.5e-3) -> dict:
    """A fig7-shaped closed-loop throughput slice, end to end."""
    from repro.bench.runner import throughput

    with _Timed() as t:
        result = throughput("smt-sw", 1024, 50, duration=duration)
    return {
        "system": result.system,
        "virtual_duration_s": duration,
        "krps": result.rate / 1e3,
        "wall_s": t.wall,
        "events": t.events,
        "events_per_sec": t.events_per_sec,
    }


# -- the experiment ------------------------------------------------------------


def run(quick: bool = False) -> ExperimentReport:
    report = ExperimentReport("Kernel micro-benchmarks (host wall-clock)")
    churn_n = 20_000 if quick else 200_000
    codec_iters = 6 if quick else 24
    aead_iters = 16 if quick else 64

    churn = run_timer_churn(churn_n)
    codec = run_codec(iters=codec_iters)
    aead = run_aead(iters=aead_iters)
    rpc = run_rpc_slice(duration=0.5e-3 if quick else 1.5e-3)

    report.add_table(
        ["bench", "metric", "value"],
        [
            ("timer-churn", "mode", churn["mode"]),
            ("timer-churn", "timers", churn["n"]),
            ("timer-churn", "wall_s", round(churn["wall_s"], 4)),
            ("timer-churn", "timers/s", round(churn["timers_per_sec"])),
            ("codec", "roundtrips", codec["iters"]),
            ("codec", "wall_s", round(codec["wall_s"], 4)),
            ("codec", "MB/s", round(codec["mb_per_sec"], 1)),
            ("aead", "aes-gcm MB/s", round(aead["aes-128-gcm_mb_per_sec"], 2)),
            ("aead", "fast MB/s", round(aead["fast_mb_per_sec"], 1)),
            ("rpc-slice", "kRPC/s", round(rpc["krps"], 1)),
            ("rpc-slice", "wall_s", round(rpc["wall_s"], 3)),
            ("rpc-slice", "events/s", round(rpc["events_per_sec"])),
        ],
    )
    # Deterministic count checks only -- wall time is never asserted, so
    # the CI perf-smoke job cannot flake on a slow runner.
    report.check("timer-churn live fires", churn["fired_live"], churn_n // 20, churn_n // 20)
    report.check(
        "timer-churn total fires",
        churn["fired_live"] + churn["fired_dead"],
        churn_n // 20,
        churn_n,
    )
    report.check("codec roundtrips decoded", codec["decoded_ok"], codec_iters, codec_iters)
    records_per_msg = -(-codec["msg_size"] // codec["record_payload"])
    report.check(
        "codec records sealed",
        codec["records_sealed"],
        codec_iters * records_per_msg,
        codec_iters * (records_per_msg + 2),
    )
    report.check("rpc-slice makes progress (kRPC/s)", rpc["krps"], 1.0, 1e9)
    report.obs["perf"] = {
        "timer_churn": churn,
        "codec": codec,
        "aead": aead,
        "rpc_slice": rpc,
    }
    return report


def main() -> int:
    report = run()
    print(report.render())
    return 1 if report.misses else 0


if __name__ == "__main__":
    raise SystemExit(main())
