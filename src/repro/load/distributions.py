"""Message-size distributions for open-loop workloads.

Transport papers judge tail behaviour against *workloads*, not single
sizes: Homa's evaluation (Montazeri et al., SIGCOMM 2018) replays
message-size CDFs measured in production datacenters, labelled W1-W5.
This module provides the fixture distributions the loaded-slowdown
experiments sample from:

- :class:`FixedSize` — every message the same size (microbenchmarks);
- :class:`CdfSizes` — a step CDF over a finite set of sizes.  ``W3``
  (aggregated Google RPC mix), ``W4`` (Facebook Hadoop) and ``W5``
  (DCTCP web search) are *compressed, bounded-tail renditions* of the
  published CDFs: ~6-8 steps that preserve each workload's shape (W3
  dominated by tiny RPCs, W5 by large transfers) while capping the tail
  so simulated runs stay tractable.  The finite support is deliberate —
  the slowdown metric needs an unloaded baseline RTT *per size*, and a
  finite support lets the engine calibrate each size exactly once.

Sampling uses only ``random.Random`` passed in by the caller, so a
seeded generator replays the identical arrival size sequence.
"""

from __future__ import annotations

import random
from typing import Sequence


class SizeDistribution:
    """Interface: a named distribution over message sizes in bytes."""

    name: str = "dist"

    def sample(self, rng: random.Random) -> int:
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError

    def support(self) -> tuple[int, ...]:
        """Every size this distribution can produce, ascending."""
        raise NotImplementedError

    def probabilities(self) -> list[tuple[int, float]]:
        """Per-size point masses ``(size, probability)`` over the support."""
        raise NotImplementedError


class FixedSize(SizeDistribution):
    """Degenerate distribution: always ``size`` bytes."""

    def __init__(self, size: int, name: str = ""):
        if size < 1:
            raise ValueError(f"bad fixed size {size}")
        self.size = size
        self.name = name or f"fixed{size}"

    def sample(self, rng: random.Random) -> int:
        return self.size

    def mean(self) -> float:
        return float(self.size)

    def support(self) -> tuple[int, ...]:
        return (self.size,)

    def probabilities(self) -> list[tuple[int, float]]:
        return [(self.size, 1.0)]


class CdfSizes(SizeDistribution):
    """A step CDF: ``points`` is ``[(size, cumulative fraction), ...]``.

    Sizes must ascend and cumulative fractions must ascend to exactly
    1.0.  ``sample`` inverts the CDF on one uniform draw.
    """

    def __init__(self, name: str, points: Sequence[tuple[int, float]]):
        if not points:
            raise ValueError("empty CDF")
        sizes = [s for s, _ in points]
        cums = [c for _, c in points]
        if sizes != sorted(sizes) or len(set(sizes)) != len(sizes):
            raise ValueError(f"{name}: sizes must strictly ascend")
        if cums != sorted(cums) or any(c <= 0 for c in cums):
            raise ValueError(f"{name}: cumulative fractions must ascend")
        if abs(cums[-1] - 1.0) > 1e-9:
            raise ValueError(f"{name}: CDF must end at 1.0, got {cums[-1]}")
        self.name = name
        self.points = [(int(s), float(c)) for s, c in points]

    def sample(self, rng: random.Random) -> int:
        u = rng.random()
        for size, cum in self.points:
            if u <= cum:
                return size
        return self.points[-1][0]

    def probabilities(self) -> list[tuple[int, float]]:
        """Per-size point masses ``(size, probability)``."""
        out = []
        prev = 0.0
        for size, cum in self.points:
            out.append((size, cum - prev))
            prev = cum
        return out

    def mean(self) -> float:
        return sum(size * p for size, p in self.probabilities())

    def support(self) -> tuple[int, ...]:
        return tuple(size for size, _ in self.points)


# Compressed renditions of Homa's published workload CDFs (see module
# docstring).  Tails are capped (64 KB / 128 KB / 256 KB) so a loaded
# run finishes in CI time; the qualitative shape — W3 tiny-dominated,
# W4 mixed, W5 large-transfer-dominated — is what the slowdown
# experiments depend on.
HOMA_W3 = CdfSizes("w3", [
    (64, 0.30),
    (128, 0.50),
    (256, 0.65),
    (512, 0.75),
    (1024, 0.82),
    (4096, 0.89),
    (16384, 0.95),
    (65536, 1.00),
])

HOMA_W4 = CdfSizes("w4", [
    (256, 0.55),
    (512, 0.70),
    (2048, 0.80),
    (10240, 0.90),
    (65536, 0.97),
    (131072, 1.00),
])

HOMA_W5 = CdfSizes("w5", [
    (2048, 0.15),
    (8192, 0.40),
    (32768, 0.70),
    (131072, 0.90),
    (262144, 1.00),
])

WORKLOADS: dict[str, SizeDistribution] = {
    "w3": HOMA_W3,
    "w4": HOMA_W4,
    "w5": HOMA_W5,
}
