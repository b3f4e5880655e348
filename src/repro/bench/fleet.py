"""The benchmark fleet: experiment registry + parallel execution.

``EXPERIMENTS`` is the canonical name -> callable registry (it lives here,
in an importable module, so worker processes can resolve names by import
rather than by pickling closures).  :func:`run_experiment` runs one
experiment and wraps its report with wall-clock perf bookkeeping;
:func:`run_fleet` runs many, optionally across a process pool.

Determinism: experiments are mutually independent (each builds its own
testbeds and event loops from fixed seeds), so running them in worker
processes cannot change any measured virtual-time result.  Results are
merged back in *request order* regardless of completion order, and the
only fields that may differ between ``--jobs 1`` and ``--jobs N`` runs
live under the report's ``perf`` key (host wall time), which equivalence
tests exclude.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from repro.bench import (
    ablations,
    churn,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    frontend,
    incident,
    loaded,
    perf,
    scale,
    table1,
    table2,
    tenant,
)
from repro.crypto.aead import in_flight_reset, in_flight_stats
from repro.sim.event_loop import events_dispatched

EXPERIMENTS = {
    "table1": table1.run,
    "table2": table2.run,
    "fig5": fig5.run,
    "fig6": fig6.run,
    "fig7": fig7.run,
    "fig7-mtu": fig7.run_mtu_comparison,
    "fig7-cpu": fig7.run_cpu_usage,
    "fig8": fig8.run,
    "fig9": fig9.run,
    "fig10": fig10.run,
    "fig11": fig11.run,
    "fig12": fig12.run,
    "ablation-contexts": ablations.run_flow_context_ablation,
    "ablation-acks": ablations.run_ack_batching_ablation,
    "ablation-bits": ablations.run_bit_split_ablation,
    "perf": perf.run,
    "churn": churn.run,
    "loaded": loaded.run,
    "incident": incident.run,
    "frontend": frontend.run,
    "tenant": tenant.run,
    "scale": scale.run,
}

# Experiments whose run() accepts quick=True for a scaled-down CI pass.
_QUICK_AWARE = {"perf", "churn", "loaded", "incident", "frontend", "tenant",
                "scale"}

# Experiments whose run() accepts domains=N (sharded-kernel partitioning).
_DOMAIN_AWARE = {"scale"}


@dataclass
class ExperimentResult:
    """One experiment's rendered output plus its JSON report."""

    name: str
    rendered: str
    report_json: dict
    misses: int
    wall_s: float
    events: int


def run_experiment(
    name: str, quick: bool = False, domains: int | None = None
) -> ExperimentResult:
    """Run one registered experiment, timing it and counting loop events.

    The returned JSON report carries a ``perf`` key with host wall time,
    events/sec and FastAead's in-flight table as this experiment left it,
    emptied at its start so that no earlier experiment in the process
    shows in it; everything else is virtual-time output, identical
    wherever it runs.
    ``domains`` overrides the sharded-kernel partitioning for experiments
    that support it and is ignored by the rest.
    """
    fn = EXPERIMENTS[name]
    kwargs: dict = {}
    if name in _QUICK_AWARE and quick:
        kwargs["quick"] = True
    if name in _DOMAIN_AWARE and domains is not None:
        kwargs["domains"] = domains
    events0 = events_dispatched()
    in_flight_reset()
    start = time.perf_counter()
    report = fn(**kwargs)
    wall_s = time.perf_counter() - start
    events = events_dispatched() - events0
    report_json = report.to_json()
    report_json["perf"] = {
        "wall_s": round(wall_s, 4),
        "events": events,
        "events_per_sec": round(events / wall_s) if wall_s > 0 else 0,
        "aead": in_flight_stats(),
    }
    return ExperimentResult(
        name=name,
        rendered=report.render(),
        report_json=report_json,
        misses=len(report.misses),
        wall_s=wall_s,
        events=events,
    )


def _worker(args: tuple[str, bool, int | None]) -> ExperimentResult:
    name, quick, domains = args
    return run_experiment(name, quick, domains)


def run_fleet(
    names: list[str],
    jobs: int = 1,
    quick: bool = False,
    domains: int | None = None,
) -> list[ExperimentResult]:
    """Run experiments, ``jobs`` at a time, merging results in input order.

    ``jobs=1`` runs everything inline in this process (no pool, no pickle
    round-trip) -- the reference execution.  ``jobs>1`` fans out over a
    :class:`ProcessPoolExecutor`; the ordered merge makes the combined
    output independent of worker scheduling.
    """
    if jobs <= 1 or len(names) <= 1:
        return [run_experiment(name, quick, domains) for name in names]
    with ProcessPoolExecutor(max_workers=min(jobs, len(names))) as pool:
        # map() preserves input order; workers complete in any order.
        return list(pool.map(_worker, [(name, quick, domains) for name in names]))
