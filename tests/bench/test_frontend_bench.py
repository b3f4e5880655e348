"""The frontend bench's quick mode: every band green, JSON-clean report.

The replicated-service front end is a *test*-archetype deliverable: its
deterministic bands (cross-replica 0-RTT acceptance 100% shared vs 0%
per-replica, zero key mismatches, complete drains, graceful TTL
staleness) are the acceptance criteria, so the quick run is asserted here as well as in the
CI perf-smoke job.
"""

import json

from repro.bench.fleet import run_experiment


class TestFrontendBenchQuick:
    def test_all_bands_pass(self):
        result = run_experiment("frontend", quick=True)
        assert result.misses == 0, result.rendered
        checks = result.report_json["checks"]
        assert all(c["ok"] for c in checks), result.rendered
        by_name = {c["name"]: c for c in checks}
        # The reproduction headline: portability is all-or-nothing.
        assert by_name[
            "shared share: cross-replica 0-RTT acceptance (%)"
        ]["measured"] == 100.0
        assert by_name[
            "per-replica shares: cross-replica 0-RTT acceptance (%)"
        ]["measured"] == 0.0
        assert by_name[
            "client/server traffic-key mismatches"
        ]["measured"] == 0
        # The report survives a JSON round-trip (the --json-dir path).
        assert result.report_json == json.loads(json.dumps(result.report_json))
