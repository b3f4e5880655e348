"""Parallel bench fleet: registry, perf bookkeeping, serial/parallel parity."""

import json

from repro.bench.fleet import EXPERIMENTS, run_experiment, run_fleet

# Fast experiments for parity runs (sub-second each); "perf" is exercised
# separately, in quick mode.
FAST = ["fig5", "fig12"]


class TestRegistry:
    def test_all_experiments_registered(self):
        expected = {
            "table1", "table2", "fig5", "fig6", "fig7", "fig7-mtu", "fig7-cpu",
            "fig8", "fig9", "fig10", "fig11", "fig12", "ablation-contexts",
            "ablation-acks", "ablation-bits", "perf", "churn", "loaded",
            "incident", "frontend", "tenant", "scale",
        }
        assert set(EXPERIMENTS) == expected

    def test_run_experiment_adds_perf_key(self):
        result = run_experiment("fig5")
        perf = result.report_json["perf"]
        assert perf["wall_s"] >= 0
        assert perf["events"] >= 0
        assert set(perf["aead"]) == {
            "entries", "bytes", "high_water_bytes", "hits", "misses", "evicted_unopened",
        }
        assert result.report_json == json.loads(json.dumps(result.report_json))

    def test_aead_block_is_the_experiments_own(self):
        # fig12 seals no FastAead record; tenant seals thousands and perf
        # leaves records unopened.  Run after both in the same process,
        # fig12 must still report what it reports alone: nothing.
        alone = run_experiment("fig12").report_json["perf"]["aead"]
        tenant = run_experiment("tenant", quick=True).report_json["perf"]["aead"]
        assert tenant["hits"] > 0 and tenant["high_water_bytes"] > 0
        assert run_experiment("perf", quick=True).report_json["perf"]["aead"]["entries"]
        after = run_experiment("fig12").report_json["perf"]["aead"]
        assert after == alone
        assert set(after.values()) == {0}


class TestSerialParallelParity:
    def test_results_identical_minus_perf(self):
        serial = run_fleet(FAST, jobs=1)
        parallel = run_fleet(FAST, jobs=2)
        assert [r.name for r in serial] == FAST  # ordered merge
        assert [r.name for r in parallel] == FAST
        for s, p in zip(serial, parallel):
            sj = dict(s.report_json)
            pj = dict(p.report_json)
            sj.pop("perf")
            pj.pop("perf")
            assert sj == pj
            assert s.rendered == p.rendered

    def test_perf_quick_deterministic_checks(self):
        # The perf micro-benchmark reports pure event/record counts, which
        # must agree between an in-process run and a worker-process run.
        serial = run_fleet(["perf"], jobs=1, quick=True)[0]
        parallel = run_fleet(["perf", "fig5"], jobs=2, quick=True)[0]
        assert serial.report_json["checks"] == parallel.report_json["checks"]
        assert serial.report_json["tables"] == parallel.report_json["tables"]
        assert all(c["ok"] for c in serial.report_json["checks"])
