"""Figure 9: NVMe-oF P50/P99 latency over iodepth (paper §5.4).

4 KB random reads from a remote NVMe device at iodepths 1-32.  At low
iodepth the flash latency dominates and no transport wins; at high iodepth
the target's CPU queueing separates the systems (up to 7 %/15 % P50 and
16 %/21 % P99 reduction for SMT-HW/SW vs kTLS).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.apps.fio import MessageFioDriver, StreamFioDriver
from repro.apps.nvmeof import MessageNvmeTarget, NvmeDevice, StreamNvmeTarget
from repro.apps.nvmeof.device import NUM_BLOCKS
from repro.bench.report import ExperimentReport, improvement
from repro.bench.runner import MESSAGE_SYSTEMS, message_pair, stream_pairs
from repro.testbed import Testbed

NVME_PORT = 4420
SYSTEMS = ("tcp", "ktls-sw", "ktls-hw", "homa", "smt-sw", "smt-hw")
IODEPTHS = (1, 2, 4, 8, 16, 32)


@dataclass
class NvmePoint:
    system: str
    iodepth: int
    p50_us: float
    p99_us: float
    iops: float


def run_point(system: str, iodepth: int, duration: float = 6e-3, seed: int = 0) -> NvmePoint:
    bed = Testbed.back_to_back(seed=seed)
    device = NvmeDevice(bed.loop, random.Random(seed + 17))
    if system in MESSAGE_SYSTEMS:
        csock, ssock = message_pair(bed, system, NVME_PORT)
        target = MessageNvmeTarget(ssock, device)
        bed.loop.process(target.run(bed.server.app_thread(0)))
        driver = MessageFioDriver(
            csock, bed.server.addr, NVME_PORT, NUM_BLOCKS, random.Random(seed + 3)
        )
        # In-kernel client, single I/O queue: iodepth worker slots.
        for i in range(iodepth):
            bed.loop.process(
                driver.worker(bed.client.app_thread(i % 12), duration=duration,
                              warmup=duration / 4)
            )
        bed.loop.run(until=duration * 3)
        result = driver.result
    else:
        ((c, s),) = stream_pairs(bed, system, NVME_PORT, 1)
        target = StreamNvmeTarget(s, device)
        bed.loop.process(target.run(bed.server.app_thread(0)))
        driver = StreamFioDriver(c, NUM_BLOCKS, random.Random(seed + 3))
        bed.loop.process(
            driver.run(bed.client.app_thread(0), iodepth=iodepth, duration=duration,
                       warmup=duration / 4)
        )
        bed.loop.run(until=duration * 3)
        result = driver.result
    if result.completed < 5:
        raise AssertionError(f"{system}@{iodepth}: too few completions")
    return NvmePoint(system, iodepth, result.p50_us(), result.p99_us(),
                     result.completed / duration)


def run(iodepths=IODEPTHS, systems=SYSTEMS, duration: float = 6e-3) -> ExperimentReport:
    report = ExperimentReport("Figure 9: NVMe-oF latency over iodepth (us)")
    points: dict[tuple[str, int], NvmePoint] = {}
    for system in systems:
        for iodepth in iodepths:
            points[(system, iodepth)] = run_point(system, iodepth, duration=duration)
    report.add_table(
        ["system"] + [f"P50@{d}" for d in iodepths],
        [[s] + [round(points[(s, d)].p50_us, 1) for d in iodepths] for s in systems],
    )
    report.add_table(
        ["system"] + [f"P99@{d}" for d in iodepths],
        [[s] + [round(points[(s, d)].p99_us, 1) for d in iodepths] for s in systems],
    )

    # Low iodepth: no meaningful advantage (device dominates).
    low_gap = improvement(
        points[("ktls-sw", 1)].p50_us, points[("smt-sw", 1)].p50_us
    )
    report.check("P50 advantage @iodepth1 is small (%)", abs(low_gap), 0, 5, slack=0.5)
    # High iodepth: SMT reduces P50 by up to 7 % (HW) / 15 % (SW) and P99
    # by up to 16 % / 21 %.
    deep = max(iodepths)
    p50_sw = max(
        improvement(points[("ktls-sw", d)].p50_us, points[("smt-sw", d)].p50_us)
        for d in iodepths if d >= 8
    )
    p99_sw = max(
        improvement(points[("ktls-sw", d)].p99_us, points[("smt-sw", d)].p99_us)
        for d in iodepths if d >= 8
    )
    p50_hw = max(
        improvement(points[("ktls-hw", d)].p50_us, points[("smt-hw", d)].p50_us)
        for d in iodepths if d >= 8
    )
    p99_hw = max(
        improvement(points[("ktls-hw", d)].p99_us, points[("smt-hw", d)].p99_us)
        for d in iodepths if d >= 8
    )
    report.check("max P50 reduction SW (%)", p50_sw, 5, 15, slack=0.6)
    report.check("max P99 reduction SW (%)", p99_sw, 8, 21, slack=0.6)
    report.check("max P50 reduction HW (%)", p50_hw, 2, 7, slack=1.0)
    report.check("max P99 reduction HW (%)", p99_hw, 5, 16, slack=0.8)
    # Deep-queue latency exceeds shallow (queueing visible at all).
    report.check(
        "P99 grows with iodepth (kTLS-SW)",
        float(points[("ktls-sw", deep)].p99_us > points[("ktls-sw", 1)].p99_us), 1, 1,
    )
    return report
