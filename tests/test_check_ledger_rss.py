"""``scripts/check_ledger_rss.py`` over a ledger results file."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_ledger_rss.py"


def _check(tmp_path, **rss):
    results = {
        "workloads": [
            {"workload": name, "end_to_end": {"peak_rss_mb": mb}}
            for name, mb in rss.items()
        ]
    }
    path = tmp_path / "results.json"
    path.write_text(json.dumps(results))
    out = subprocess.run(
        [sys.executable, str(SCRIPT), str(path)],
        capture_output=True, text=True, env={"PATH": "/usr/bin:/bin"},
    )
    return out.returncode, out.stdout


def test_passing_ratios(tmp_path):
    code, out = _check(tmp_path, rpc_small=45.0, rpc_bulk=112.0, fabric_loaded=93.0)
    assert code == 0
    assert "`rpc_bulk` / `rpc_small` = 2.49 (limit 2.6): OK" in out
    assert "`fabric_loaded` / `rpc_small` = 2.07 (limit 2.6): OK" in out
    assert "| `rpc_bulk` | 112.0 |" in out


def test_rpc_bulk_over_its_limit_fails(tmp_path):
    # The ratio before per-message timers stopped forming reference cycles.
    code, out = _check(tmp_path, rpc_small=46.7, rpc_bulk=127.5, fabric_loaded=93.0)
    assert code == 1
    assert "`rpc_bulk` / `rpc_small` = 2.73 (limit 2.6): FAIL" in out
    assert "`fabric_loaded` / `rpc_small` = 1.99 (limit 2.6): OK" in out


def test_fabric_loaded_over_its_limit_fails(tmp_path):
    code, out = _check(tmp_path, rpc_small=46.8, rpc_bulk=112.0, fabric_loaded=145.9)
    assert code == 1
    assert "`fabric_loaded` / `rpc_small` = 3.12 (limit 2.6): FAIL" in out
