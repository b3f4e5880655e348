"""Open-loop loaded-slowdown workloads over the leaf-spine fabric.

One method, after Homa's evaluation: Poisson open-loop arrivals at a
target uplink load, sizes from a workload CDF, each RPC's RTT divided by
the unloaded RTT of the same size and path class.  One engine implements
it; everything else says what is being driven or what differs.

What is sent, and over what:

- :mod:`repro.load.distributions` — message-size distributions,
  including compressed renditions of Homa's W3/W4/W5 workload CDFs;
- :mod:`repro.load.cluster` — the integrity-verified echo protocol, the
  per-system any-to-any RPC mesh over a :class:`repro.testbed.ClosTestbed`
  (:class:`ClusterHarness`), and the mesh-building functions every
  harness shares: the one-socket-per-host message mesh and the verifying
  echo-server loops.

The engine:

- :mod:`repro.load.engine` — :class:`OpenLoopEngine`: the offered-rate
  computation, the arrival loop, the RPC-measure body, baseline
  calibration and the drain, over a list of arrival *streams*.  Its
  module docstring lists the seams the flavours below override.

The flavours, each a subclass that overrides only its seams:

- :mod:`repro.load.tenant` — one stream per tenant over a shared
  :class:`repro.tenancy.TenantFabric`, a :class:`LoadResult` per tenant;
- :mod:`repro.load.incident` — the run driven through a scripted
  failure-domain incident: the call optionally wrapped in the resilience
  kit, the books also kept per phase;
- :mod:`repro.load.frontend` — a client subset sends, a ``repro.lb``
  balancer picks each destination from a replica subset, the books also
  kept per replica;
- :mod:`repro.load.shard` — one time domain's slice for
  :mod:`repro.sim.shard`: its own harness (same message mesh, a
  port-deterministic stream mesh), per-sender serials, pre-measured
  baselines (the engine's calibration on a 2x2 mini-cluster) and
  completion records merged in canonical order.
"""

from repro.load.cluster import SERVER_PORT, SYSTEMS, ClusterHarness
from repro.load.distributions import (
    HOMA_W3,
    HOMA_W4,
    HOMA_W5,
    WORKLOADS,
    CdfSizes,
    FixedSize,
    SizeDistribution,
)
from repro.load.engine import LoadResult, OpenLoopEngine, wire_bytes
from repro.load.frontend import FrontendEngine, SkewedKeys
from repro.load.incident import IncidentEngine, IncidentMetrics
from repro.load.shard import (
    ShardedClusterHarness,
    ShardedOpenLoopEngine,
    build_domain_workload,
    measure_baselines,
    merge_load_results,
)
from repro.load.tenant import TenantLoadEngine, TenantWorkload

__all__ = [
    "FrontendEngine",
    "TenantLoadEngine",
    "TenantWorkload",
    "IncidentEngine",
    "IncidentMetrics",
    "SkewedKeys",
    "SERVER_PORT",
    "SYSTEMS",
    "ClusterHarness",
    "HOMA_W3",
    "HOMA_W4",
    "HOMA_W5",
    "WORKLOADS",
    "CdfSizes",
    "FixedSize",
    "SizeDistribution",
    "LoadResult",
    "OpenLoopEngine",
    "ShardedClusterHarness",
    "ShardedOpenLoopEngine",
    "build_domain_workload",
    "measure_baselines",
    "merge_load_results",
    "wire_bytes",
]
