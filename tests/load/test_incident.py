"""IncidentEngine: timeline validation, phase tagging, metric finalisation."""

import pytest

from repro.errors import ReproError
from repro.homa import HomaConfig
from repro.load import ClusterHarness, FixedSize
from repro.load.incident import PHASES, IncidentEngine
from repro.net.domain_faults import IncidentEvent
from repro.testbed import ClosTestbed
from repro.units import KB, USEC

FAULT_AT = 50 * USEC
REVIVE_AT = 120 * USEC
DURATION = 0.25e-3

#: Tight resends so the outage window clears within the tiny run.
CONFIG = HomaConfig(
    unscheduled_bytes=16 * KB, grant_window=16 * KB,
    resend_interval=100 * USEC, max_resends=100,
)


def _bed(ctrl=False):
    bed = ClosTestbed.leaf_spine(num_racks=2, hosts_per_rack=2, num_spines=2, seed=1)
    if ctrl:
        bed.enable_ctrl()
    return bed


def _spine_timeline():
    return [
        IncidentEvent(FAULT_AT, "spine_down", 0),
        IncidentEvent(REVIVE_AT, "spine_up", 0),
    ]


def _engine(bed, timeline, *, watch=True, reestablish=False, **kw):
    harness = ClusterHarness(bed, "smt", config=CONFIG)
    controller = bed.domain_controller()
    if watch:
        controller.watch_spines(interval=15 * USEC, miss_threshold=2, resalt=True)
    return IncidentEngine(
        harness, FixedSize(2048), load=0.15, duration=DURATION,
        controller=controller, timeline=timeline,
        reestablish_sessions=reestablish, seed=7, **kw,
    )


class TestValidation:
    def test_controller_and_harness_must_share_a_bed(self):
        bed, other = _bed(), _bed()
        harness = ClusterHarness(bed, "smt", config=CONFIG)
        controller = other.domain_controller()
        with pytest.raises(ReproError, match="share one testbed"):
            IncidentEngine(
                harness, FixedSize(2048), load=0.15, duration=DURATION,
                controller=controller, timeline=_spine_timeline(),
            )

    def test_timeline_needs_a_kill_and_a_revival(self):
        for timeline in (
            [],
            [IncidentEvent(FAULT_AT, "spine_down", 0)],
            [IncidentEvent(REVIVE_AT, "spine_up", 0)],
        ):
            with pytest.raises(ReproError, match="kill and a revival"):
                _engine(_bed(), timeline, watch=False)

    def test_revival_must_land_inside_the_window(self):
        bed = _bed()
        timeline = [
            IncidentEvent(FAULT_AT, "spine_down", 0),
            IncidentEvent(DURATION + 10 * USEC, "spine_up", 0),
        ]
        with pytest.raises(ReproError, match="inside the loaded window"):
            _engine(bed, timeline, watch=False)

    def test_reestablish_requires_the_control_plane(self):
        bed = _bed(ctrl=False)
        timeline = [
            IncidentEvent(FAULT_AT, "replica_crash", 3),
            IncidentEvent(REVIVE_AT, "replica_revive", 3),
        ]
        with pytest.raises(ReproError, match="enable_ctrl"):
            _engine(bed, timeline, watch=False, reestablish=True)


class TestPhaseTagging:
    def test_every_rpc_lands_in_exactly_one_phase(self):
        engine = _engine(_bed(), _spine_timeline())
        result = engine.run()
        m = engine.metrics
        assert sum(m.phase_failed.values()) == result.failed
        assert sum(len(m.phase_slowdowns[p]) for p in PHASES) == result.completed
        assert result.completed + result.failed == result.issued
        # The load ran long enough that every phase saw traffic.
        assert all(len(m.phase_slowdowns[p]) > 0 for p in PHASES)

    def test_phase_is_keyed_on_issue_time(self):
        # An RPC issued before the fault counts as "before" even if its
        # completion straddles the outage; the boundary is the issue
        # stamp, not the completion stamp.
        engine = _engine(_bed(), _spine_timeline())
        engine.calibrate()
        start = engine.bed.loop.now
        engine._load_start = start
        assert engine._phase(start) == "before"
        assert engine._phase(start + FAULT_AT - 1e-9) == "before"
        assert engine._phase(start + FAULT_AT + 1e-12) == "during"
        assert engine._phase(start + REVIVE_AT - 1e-9) == "during"
        assert engine._phase(start + REVIVE_AT + 1e-12) == "after"


class TestMetricFinalisation:
    def test_spine_incident_metrics(self):
        engine = _engine(_bed(), _spine_timeline())
        result = engine.run()
        m = engine.metrics
        assert result.completed == result.issued
        assert m.fault_at == FAULT_AT and m.revive_at == REVIVE_AT
        # The watcher detected the kill within its bound.
        assert m.detection_time is not None
        assert 0 < m.detection_time <= 15 * USEC * 2 + 1e-12
        # Something was issued during the outage, so the backlog-drain
        # clock ran (it can legitimately be zero if the last during-RPC
        # finished before the revival, but never negative).
        assert m.recovery_time >= 0.0
        assert m.reconvergences >= 1
        assert m.blackholed >= 1
        assert m.rehandshake is None

    def test_replica_crash_reports_the_rehandshake_storm(self):
        bed = _bed(ctrl=True)
        timeline = [
            IncidentEvent(FAULT_AT, "replica_crash", 3),
            IncidentEvent(REVIVE_AT, "replica_revive", 3),
        ]
        engine = _engine(bed, timeline, watch=False, reestablish=True)
        result = engine.run()
        m = engine.metrics
        assert result.completed == result.issued
        rh = m.rehandshake
        assert rh is not None
        # Every surviving host re-established exactly one session, and
        # the cold-restarted pools forced inline keygen server-side.
        assert rh["completed"] == len(engine.harness.hosts) - 1
        assert rh["server_inline_keygens"] == rh["completed"]
        assert rh["max_duration"] > 0.0

    def test_fixed_seed_is_deterministic(self):
        def once():
            engine = _engine(_bed(), _spine_timeline())
            result = engine.run()
            m = engine.metrics
            return (
                result.issued, result.completed, result.failed,
                m.detection_time, m.recovery_time, m.blackholed,
                {p: m.phase_p99(p) for p in PHASES},
            )

        assert once() == once()
