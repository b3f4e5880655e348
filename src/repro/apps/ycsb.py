"""YCSB workload generation (Cooper et al., SoCC '10) for the KV store.

Implements the four core workloads Figure 8 uses:

======  ==========================  ======================
name    mix                         request distribution
======  ==========================  ======================
A       50 % read / 50 % update     zipfian
B       95 % read / 5 % update      zipfian
C       100 % read                  zipfian
D       95 % read / 5 % insert      latest
======  ==========================  ======================

The zipfian generator follows the YCSB reference implementation
(Gray et al.'s rejection-free method with precomputed zeta).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import ReproError

ZIPF_CONSTANT = 0.99


class ZipfianGenerator:
    """Zipf-distributed integers in [0, n) (YCSB's ZipfianGenerator)."""

    def __init__(self, n: int, rng: random.Random):
        if n < 1:
            raise ReproError("zipfian needs at least one item")
        theta = ZIPF_CONSTANT
        self.n = n
        self.rng = rng
        self.zeta = sum(1.0 / (i ** theta) for i in range(1, n + 1))
        self.zeta2 = 1.0 + 0.5 ** theta
        self.alpha = 1.0 / (1.0 - theta)
        self.eta = (1 - (2.0 / n) ** (1 - theta)) / (1 - self.zeta2 / self.zeta)

    def next(self) -> int:
        u = self.rng.random()
        uz = u * self.zeta
        if uz < 1.0:
            return 0
        if uz < self.zeta2:
            return 1
        return int(self.n * (self.eta * u - self.eta + 1) ** self.alpha)


class LatestGenerator:
    """YCSB's "latest" distribution: skewed towards recent inserts."""

    def __init__(self, n: int, rng: random.Random):
        self.count = n
        self._zipf = ZipfianGenerator(n, rng)

    def insert(self) -> int:
        self.count += 1
        self._zipf.n = self.count
        return self.count - 1

    def next(self) -> int:
        return max(0, self.count - 1 - self._zipf.next())


@dataclass(frozen=True)
class WorkloadSpec:
    """Operation mix for one YCSB workload."""

    name: str
    read_fraction: float
    update_fraction: float
    insert_fraction: float
    distribution: str  # "zipfian" or "latest"


WORKLOADS: dict[str, WorkloadSpec] = {
    "A": WorkloadSpec("A", 0.5, 0.5, 0.0, "zipfian"),
    "B": WorkloadSpec("B", 0.95, 0.05, 0.0, "zipfian"),
    "C": WorkloadSpec("C", 1.0, 0.0, 0.0, "zipfian"),
    "D": WorkloadSpec("D", 0.95, 0.0, 0.05, "latest"),
}


def key_bytes(index: int) -> bytes:
    """YCSB-style key: fixed-prefix, zero-padded."""
    return b"user%012d" % index


class YcsbWorkload:
    """Generates (op, key, value) tuples for one workload run."""

    def __init__(
        self,
        spec: WorkloadSpec,
        record_count: int,
        value_size: int,
        rng: random.Random,
    ):
        self.spec = spec
        self.record_count = record_count
        self.value_size = value_size
        self.rng = rng
        if spec.distribution == "latest":
            self._gen = LatestGenerator(record_count, rng)
        else:
            self._gen = ZipfianGenerator(record_count, rng)
        self.reads = 0
        self.updates = 0
        self.inserts = 0

    def initial_data(self) -> dict[bytes, bytes]:
        """Records to preload before the measured phase."""
        return {
            key_bytes(i): bytes(self.value_size) for i in range(self.record_count)
        }

    def _value(self) -> bytes:
        return self.rng.getrandbits(8).to_bytes(1, "big") * self.value_size

    def next_op(self) -> tuple[str, bytes, bytes]:
        """(op, key, value): op in {"read", "update", "insert"}."""
        r = self.rng.random()
        spec = self.spec
        if r < spec.insert_fraction:
            self.inserts += 1
            index = self._gen.insert()  # latest distribution only
            return "insert", key_bytes(index), self._value()
        if r < spec.insert_fraction + spec.update_fraction:
            self.updates += 1
            return "update", key_bytes(self._gen.next()), self._value()
        self.reads += 1
        return "read", key_bytes(self._gen.next()), b""
