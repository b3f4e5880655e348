"""Failure-domain incidents on the loaded fabric, and the §4.5
re-handshake storm a crashed replica's cold pools cause.

Two scripted incidents run against the open-loop engine at moderate load
on the two-rack leaf-spine fabric:

- *spine-down*: one of two spines dies mid-run and revives 140 us later.
  BFD-style spine watchers detect the death within their bound and
  trigger an ECMP re-salt onto the surviving spine; in-flight flows
  migrate, and the blackhole window is exactly detection + reroute.
- *replica-crash*: a host process dies (uplink+downlink blackhole, its
  control plane's session table and key pools are lost) and cold-restarts.
  Surviving hosts run a full TLS 1.3 handshake against the revived
  replica at once, over the fabric and beside the load, and the storm
  pays inline keygen because the restarted pools are empty (§4.5: the
  standby pools exist to keep keygen off this path).

Reported per run: detection time, recovery time (backlog drain past the
revival), per-phase p99 slowdown (before/during/after the outage),
blackholed packets, and the control-plane load of the re-handshake
storm: re-handshakes, admission refusals, inline keygens (pool misses)
and the slowest handshake.  The bands are exact: detection inside the
watcher bound, every issued RPC completed, zero integrity errors, and
the expected storm counts.

Everything is virtual-time deterministic: same seeds, same numbers, on
any machine -- quick mode runs the identical workload (the incident
fabric is already CI-sized).
"""

from __future__ import annotations

from repro.bench.loaded import LOAD_HOMA_CONFIG
from repro.bench.report import ExperimentReport
from repro.load import HOMA_W4, ClusterHarness
from repro.load.incident import IncidentEngine
from repro.net.domain_faults import IncidentEvent
from repro.testbed import ClosTestbed
from repro.units import USEC

SCENARIOS = ("spine-down", "replica-crash")
LOAD = 0.25
DURATION = 0.35e-3
ENGINE_SEED = 11
FAULT_AT = 80 * USEC
REVIVE_AT = 220 * USEC
CRASHED_HOST = 3

#: Spine watcher cadence: detection bound = interval * miss_threshold.
SPINE_HB_INTERVAL = 20 * USEC
SPINE_HB_MISSES = 2


def _run_scenario(scenario: str):
    """One scenario: returns (LoadResult, IncidentMetrics)."""
    bed = ClosTestbed.leaf_spine(
        num_racks=2, hosts_per_rack=2, num_spines=2, seed=1
    )
    replica = scenario == "replica-crash"
    if replica:
        bed.enable_ctrl()
    harness = ClusterHarness(bed, "smt", config=LOAD_HOMA_CONFIG)
    controller = bed.domain_controller()
    if replica:
        timeline = [
            IncidentEvent(FAULT_AT, "replica_crash", CRASHED_HOST),
            IncidentEvent(REVIVE_AT, "replica_revive", CRASHED_HOST),
        ]
    else:
        timeline = [
            IncidentEvent(FAULT_AT, "spine_down", 0),
            IncidentEvent(REVIVE_AT, "spine_up", 0),
        ]
        controller.watch_spines(
            interval=SPINE_HB_INTERVAL,
            miss_threshold=SPINE_HB_MISSES,
            resalt=True,
        )
    engine = IncidentEngine(
        harness,
        HOMA_W4,
        load=LOAD,
        duration=DURATION,
        controller=controller,
        timeline=timeline,
        reestablish_sessions=replica,
        seed=ENGINE_SEED,
    )
    result = engine.run()
    return result, engine.metrics


def run(quick: bool = False) -> ExperimentReport:
    report = ExperimentReport(
        "Failure-domain incidents: detection, recovery, the during-outage "
        "tail, and the §4.5 re-handshake storm on cold key pools"
        + (" (quick)" if quick else "")
    )
    cells = {scenario: _run_scenario(scenario) for scenario in SCENARIOS}

    rows = []
    for scenario, (result, m) in cells.items():
        det = m.detection_time
        rows.append((
            scenario,
            round(det * 1e6, 1) if det is not None else "-",
            round(m.recovery_time * 1e6, 1),
            round(m.phase_p99("before"), 2),
            round(m.phase_p99("during"), 2),
            round(m.phase_p99("after"), 2),
            result.completed,
            result.issued,
            result.failed,
            result.integrity_errors,
            m.blackholed,
        ))
    report.add_table(
        ["scenario", "detect (us)", "recover (us)", "p99 before",
         "p99 during", "p99 after", "done", "issued", "failed",
         "integ errs", "blackholed"],
        rows,
    )

    _, m_rep = cells["replica-crash"]
    rh = m_rep.rehandshake
    report.add_table(
        ["scenario", "re-handshakes", "admission refused",
         "client keygens", "server keygens", "max duration (us)"],
        [(
            "replica-crash", rh["completed"], rh["admission_refused"],
            rh["client_inline_keygens"], rh["server_inline_keygens"],
            round(rh["max_duration"] * 1e6, 1),
        )],
    )

    # -- bands: all exact counts or virtual-time determinism ----------------------

    # Detection inside the heartbeat bound.
    _, m_spine = cells["spine-down"]
    report.check(
        "spine-down detection <= watcher bound",
        m_spine.detection_time * 1e6 if m_spine.detection_time is not None else 1e9,
        0.0, SPINE_HB_INTERVAL * SPINE_HB_MISSES * 1e6, unit="us",
    )

    # The outage actually bit: packets died in the dead domain.
    report.check(
        "min blackholed packets across runs (fault was real)",
        min(m.blackholed for _, m in cells.values()), 1, 10**9,
    )

    # Open loop stayed lossless end to end: every issued RPC completed
    # through Homa's resends and none was corrupted.
    issued = sum(r.issued for r, _ in cells.values())
    report.check(
        "RPCs completed == issued (both runs)",
        sum(r.completed for r, _ in cells.values()), issued, issued,
    )
    report.check("failed RPCs", sum(r.failed for r, _ in cells.values()), 0, 0)
    report.check(
        "fill integrity errors",
        sum(r.integrity_errors for r, _ in cells.values()), 0, 0,
    )

    # Re-handshake storm: every surviving host re-established exactly one
    # session.  The cold-restarted replica's pool is empty, so its first
    # hello pays server keygen inline; its one responder serves the hellos
    # in turn, and the refill timer restocks the pool before the next.
    report.check("re-handshakes == surviving hosts", rh["completed"], 3, 3)
    report.check("inline server keygens", rh["server_inline_keygens"], 1, 1)

    # The fabric re-converged at least once in the spine scenario (the
    # watcher's programmed re-salt actually ran).
    report.check("spine-down reconvergences", m_spine.reconvergences, 1, 10)
    return report
