"""The tenant bench's quick mode: every band green, deterministic report.

The noisy-neighbor experiment is the tenancy subsystem's acceptance
gate: victim p99 strictly better with isolation on, every issued RPC
completed in all four (tenant, mode) cells, zero integrity errors, and
no spill into the victim's session compartment.  The quick run is asserted here as
well as in the CI perf-smoke job.
"""

import json

from repro.bench.fleet import run_experiment


class TestTenantBenchQuick:
    def test_all_bands_pass(self):
        result = run_experiment("tenant", quick=True)
        assert result.misses == 0, result.rendered
        checks = result.report_json["checks"]
        assert all(c["ok"] for c in checks), result.rendered
        by_name = {c["name"]: c for c in checks}
        assert by_name[
            "victim p99 slowdown: isolated strictly below shared"
        ]["measured"] == 1.0
        assert by_name[
            "integrity-fill errors across tenants and modes"
        ]["measured"] == 0
        assert by_name[
            "victim session compartment evictions (both modes)"
        ]["measured"] == 0
        # The report survives a JSON round-trip (the --json-dir path).
        assert result.report_json == json.loads(json.dumps(result.report_json))

    def test_report_bit_identical_across_reruns(self):
        reports = []
        for _ in range(2):
            report_json = run_experiment("tenant", quick=True).report_json
            report_json.pop("perf", None)  # wall-clock varies; events don't
            reports.append(json.dumps(report_json, sort_keys=True))
        assert reports[0] == reports[1]
