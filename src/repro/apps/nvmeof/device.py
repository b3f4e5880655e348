"""The NVMe SSD model.

A flash device with internal channel parallelism: reads queue onto one of
``CHANNELS`` independent units; service time is a base flash-read latency
plus an exponential tail (read disturb, retries, FTL work).  The constants
approximate a datacenter NVMe drive: ~80 us median 4 KB random read.
"""

from __future__ import annotations

import random
from typing import Any, Generator

from repro.errors import ReproError
from repro.sim.event_loop import EventLoop
from repro.sim.resources import Resource
from repro.units import KB, USEC

BLOCK_SIZE = 4 * KB
NUM_BLOCKS = 1 << 20
CHANNELS = 8
BASE_READ_LATENCY = 72 * USEC
TAIL_SCALE = 9 * USEC


class NvmeDevice:
    """A block device with parallel channels and realistic read latency."""

    def __init__(self, loop: EventLoop, rng: random.Random):
        self.loop = loop
        self.rng = rng
        self._channels = [
            Resource(loop, 1, f"nvme.ch{i}") for i in range(CHANNELS)
        ]
        self.reads = 0

    def _service_time(self) -> float:
        return BASE_READ_LATENCY + self.rng.expovariate(1.0 / TAIL_SCALE)

    def read_block(self, lba: int) -> Generator[Any, Any, bytes]:
        """Read one 4 KB block; yields until the flash returns the data."""
        if not 0 <= lba < NUM_BLOCKS:
            raise ReproError(f"LBA {lba} out of range")
        channel = self._channels[lba % len(self._channels)]
        yield from channel.service(self._service_time())
        self.reads += 1
        # Deterministic content so tests can verify end-to-end integrity.
        return (lba & 0xFF).to_bytes(1, "big") * BLOCK_SIZE
