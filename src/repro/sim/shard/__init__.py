"""Cluster execution over time domains.

Partitions a leaf-spine cluster into per-rack time domains that advance
in parallel between synchronization barriers, with the trunk propagation
delay as the lookahead.  See :mod:`repro.sim.shard.runner` for the
protocol and DESIGN.md §16 for the architecture.

Not part of the simulation kernel, despite the path: this package builds
hosts, NICs and fabric slices, so it is a layer of its own above
``repro.nic`` / ``repro.host`` (DESIGN.md §3), and ``repro.sim`` never
imports it -- ``tests/test_layering.py`` holds both.
"""

from repro.sim.shard.domain import DomainResult, ShardDomain
from repro.sim.shard.plan import ShardPlan
from repro.sim.shard.runner import ShardRunner, ShardRunResult

__all__ = [
    "DomainResult",
    "ShardDomain",
    "ShardPlan",
    "ShardRunner",
    "ShardRunResult",
]
