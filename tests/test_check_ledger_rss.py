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


#: Peaks (MB, medians of ten runs) once the package imported nothing
#: outside the standard library.
NOW = dict(
    rpc_small=27.54, rpc_bulk=50.21, fabric_loaded=62.62, tenant_hot=74.55,
    fabric_sharded=60.56, session_churn=26.27,
)

# Each defect below adds the MB it measured (medians of ten runs, over the
# peaks of its day) to today's peaks: a ceiling bounds MB above the
# baseline, and that baseline is today's.


def test_passing_ratios(tmp_path):
    code, out = _check(tmp_path, **NOW)
    assert code == 0
    assert "`rpc_bulk` / `rpc_small` = 1.82 (limit 1.91): OK" in out
    assert "`fabric_loaded` / `rpc_small` = 2.27 (limit 2.39): OK" in out
    assert "`tenant_hot` / `rpc_small` = 2.71 (limit 2.84): OK" in out
    assert "`fabric_sharded` / `rpc_small` = 2.20 (limit 2.31): OK" in out
    assert "`rpc_small` / `session_churn` = 1.05 (limit 1.1): OK" in out
    assert "| `rpc_bulk` | 50.2 |" in out


def test_rpc_small_growing_itself_fails(tmp_path):
    # Delivered and replayed message IDs kept as Python objects:
    # rpc_small held 4.45 MB more, session_churn 0.97 MB.  Every ratio to
    # rpc_small falls, so only its own ceiling sees it.
    code, out = _check(tmp_path, **{**NOW, "rpc_small": 31.99, "session_churn": 27.24})
    assert code == 1
    assert "`rpc_small` / `session_churn` = 1.17 (limit 1.1): FAIL" in out
    assert "`fabric_loaded` / `rpc_small` = 1.96 (limit 2.39): OK" in out
    assert "`rpc_bulk` / `rpc_small` = 1.57 (limit 1.91): OK" in out


def test_a_codec_between_in_process_domains_fails(tmp_path):
    # The in-process shard carrier encoded every cross-domain packet to
    # wire bytes and decoded a fresh copy of each payload.
    code, out = _check(
        tmp_path, rpc_small=NOW["rpc_small"], session_churn=NOW["session_churn"],
        rpc_bulk=51.19, fabric_loaded=64.02,
        tenant_hot=75.48, fabric_sharded=66.60,
    )
    assert code == 1
    assert "`fabric_sharded` / `rpc_small` = 2.42 (limit 2.31): FAIL" in out
    assert "`rpc_bulk` / `rpc_small` = 1.86 (limit 1.91): OK" in out
    assert "`fabric_loaded` / `rpc_small` = 2.32 (limit 2.39): OK" in out
    assert "`tenant_hot` / `rpc_small` = 2.74 (limit 2.84): OK" in out


def test_a_receive_buffer_per_message_fails(tmp_path):
    # Each inbound message preallocated a buffer of its wire length and
    # every packet was copied into it.
    code, out = _check(
        tmp_path, rpc_small=NOW["rpc_small"], session_churn=NOW["session_churn"],
        rpc_bulk=67.34, fabric_loaded=64.50,
        tenant_hot=82.41, fabric_sharded=66.73,
    )
    assert code == 1
    assert "`rpc_bulk` / `rpc_small` = 2.45 (limit 1.91): FAIL" in out
    assert "`tenant_hot` / `rpc_small` = 2.99 (limit 2.84): FAIL" in out
    assert "`fabric_loaded` / `rpc_small` = 2.34 (limit 2.39): OK" in out
    assert "`fabric_sharded` / `rpc_small` = 2.42 (limit 2.31): FAIL" in out


def test_rpc_bulk_over_its_limit_fails(tmp_path):
    # The peak before per-message timers stopped forming reference cycles.
    code, out = _check(tmp_path, **{**NOW, "rpc_bulk": 115.31})
    assert code == 1
    assert "`rpc_bulk` / `rpc_small` = 4.19 (limit 1.91): FAIL" in out
    assert "`fabric_loaded` / `rpc_small` = 2.27 (limit 2.39): OK" in out


def test_fabric_loaded_over_its_limit_fails(tmp_path):
    code, out = _check(tmp_path, **{**NOW, "fabric_loaded": 133.05})
    assert code == 1
    assert "`fabric_loaded` / `rpc_small` = 4.83 (limit 2.39): FAIL" in out


def test_an_in_flight_table_that_copies_fails(tmp_path):
    # FastAead's table kept its own copy of every unopened record and of
    # its plaintext: all four fail.
    code, out = _check(
        tmp_path, rpc_small=NOW["rpc_small"], session_churn=NOW["session_churn"],
        rpc_bulk=98.11, fabric_loaded=77.55,
        tenant_hot=92.93, fabric_sharded=89.07,
    )
    assert code == 1
    assert "`fabric_loaded` / `rpc_small` = 2.82 (limit 2.39): FAIL" in out
    assert "`tenant_hot` / `rpc_small` = 3.37 (limit 2.84): FAIL" in out
    assert "`fabric_sharded` / `rpc_small` = 3.23 (limit 2.31): FAIL" in out
    assert "`rpc_bulk` / `rpc_small` = 3.56 (limit 1.91): FAIL" in out


def test_frames_that_hold_each_request_fail(tmp_path):
    # Every frame between the application and the socket held its request
    # until the response, and server loops held the last request while
    # waiting for the next.
    code, out = _check(
        tmp_path, rpc_small=NOW["rpc_small"], session_churn=NOW["session_churn"],
        rpc_bulk=91.65, fabric_loaded=69.43,
        tenant_hot=83.83, fabric_sharded=81.52,
    )
    assert code == 1
    assert "`rpc_bulk` / `rpc_small` = 3.33 (limit 1.91): FAIL" in out
    assert "`fabric_loaded` / `rpc_small` = 2.52 (limit 2.39): FAIL" in out
    assert "`fabric_sharded` / `rpc_small` = 2.96 (limit 2.31): FAIL" in out
    assert "`tenant_hot` / `rpc_small` = 3.04 (limit 2.84): FAIL" in out
