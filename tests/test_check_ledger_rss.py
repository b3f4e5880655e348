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


#: Peaks (MB, medians of ten runs) once delivered and replayed message IDs
#: were kept as bits, in-process time domains handed packets over as
#: records, the receiver kept each message as views of its packets, every
#: send path let go of the application's plaintext when it was sealed and
#: every server loop let go of a request when it had replied;
#: ``session_churn``'s when it became ``rpc_small``'s baseline.
NOW = dict(
    rpc_small=39.91, rpc_bulk=62.40, fabric_loaded=75.47, tenant_hot=87.42,
    fabric_sharded=73.09, session_churn=39.08,
)

# Each defect below gives the gated peaks it measured (medians of ten
# runs) over today's ``rpc_small``: a ceiling bounds MB above the
# baseline, and that baseline is today's.


def test_passing_ratios(tmp_path):
    code, out = _check(tmp_path, **NOW)
    assert code == 0
    assert "`rpc_bulk` / `rpc_small` = 1.56 (limit 1.64): OK" in out
    assert "`fabric_loaded` / `rpc_small` = 1.89 (limit 1.99): OK" in out
    assert "`tenant_hot` / `rpc_small` = 2.19 (limit 2.3): OK" in out
    assert "`fabric_sharded` / `rpc_small` = 1.83 (limit 1.92): OK" in out
    assert "`rpc_small` / `session_churn` = 1.02 (limit 1.07): OK" in out
    assert "| `rpc_bulk` | 62.4 |" in out


def test_rpc_small_growing_itself_fails(tmp_path):
    # The medians before delivered and replayed message IDs were kept as
    # bits: rpc_small held 4.4 MB more, session_churn 1 MB.  Every ratio
    # to rpc_small falls, so only its own ceiling sees it.
    code, out = _check(tmp_path, **{**NOW, "rpc_small": 44.36, "session_churn": 40.05})
    assert code == 1
    assert "`rpc_small` / `session_churn` = 1.11 (limit 1.07): FAIL" in out
    assert "`fabric_loaded` / `rpc_small` = 1.70 (limit 1.99): OK" in out
    assert "`rpc_bulk` / `rpc_small` = 1.41 (limit 1.64): OK" in out


def test_a_codec_between_in_process_domains_fails(tmp_path):
    # The in-process shard carrier encoded every cross-domain packet to
    # wire bytes and decoded a fresh copy of each payload.
    code, out = _check(
        tmp_path, rpc_small=NOW["rpc_small"], session_churn=NOW["session_churn"],
        rpc_bulk=63.38, fabric_loaded=76.87,
        tenant_hot=88.35, fabric_sharded=79.13,
    )
    assert code == 1
    assert "`fabric_sharded` / `rpc_small` = 1.98 (limit 1.92): FAIL" in out
    assert "`rpc_bulk` / `rpc_small` = 1.59 (limit 1.64): OK" in out
    assert "`fabric_loaded` / `rpc_small` = 1.93 (limit 1.99): OK" in out
    assert "`tenant_hot` / `rpc_small` = 2.21 (limit 2.3): OK" in out


def test_a_receive_buffer_per_message_fails(tmp_path):
    # Each inbound message preallocated a buffer of its wire length and
    # every packet was copied into it.
    code, out = _check(
        tmp_path, rpc_small=NOW["rpc_small"], session_churn=NOW["session_churn"],
        rpc_bulk=79.53, fabric_loaded=77.35,
        tenant_hot=95.28, fabric_sharded=79.26,
    )
    assert code == 1
    assert "`rpc_bulk` / `rpc_small` = 1.99 (limit 1.64): FAIL" in out
    assert "`tenant_hot` / `rpc_small` = 2.39 (limit 2.3): FAIL" in out
    assert "`fabric_loaded` / `rpc_small` = 1.94 (limit 1.99): OK" in out
    assert "`fabric_sharded` / `rpc_small` = 1.99 (limit 1.92): FAIL" in out


def test_rpc_bulk_over_its_limit_fails(tmp_path):
    # The peak before per-message timers stopped forming reference cycles.
    code, out = _check(tmp_path, **{**NOW, "rpc_bulk": 127.5})
    assert code == 1
    assert "`rpc_bulk` / `rpc_small` = 3.19 (limit 1.64): FAIL" in out
    assert "`fabric_loaded` / `rpc_small` = 1.89 (limit 1.99): OK" in out


def test_fabric_loaded_over_its_limit_fails(tmp_path):
    code, out = _check(tmp_path, **{**NOW, "fabric_loaded": 145.9})
    assert code == 1
    assert "`fabric_loaded` / `rpc_small` = 3.66 (limit 1.99): FAIL" in out


def test_an_in_flight_table_that_copies_fails(tmp_path):
    # FastAead's table kept its own copy of every unopened record and of
    # its plaintext: all four fail.
    code, out = _check(
        tmp_path, rpc_small=NOW["rpc_small"], session_churn=NOW["session_churn"],
        rpc_bulk=110.3, fabric_loaded=90.4,
        tenant_hot=105.8, fabric_sharded=101.6,
    )
    assert code == 1
    assert "`fabric_loaded` / `rpc_small` = 2.27 (limit 1.99): FAIL" in out
    assert "`tenant_hot` / `rpc_small` = 2.65 (limit 2.3): FAIL" in out
    assert "`fabric_sharded` / `rpc_small` = 2.55 (limit 1.92): FAIL" in out
    assert "`rpc_bulk` / `rpc_small` = 2.76 (limit 1.64): FAIL" in out


def test_frames_that_hold_each_request_fail(tmp_path):
    # Every frame between the application and the socket held its request
    # until the response, and server loops held the last request while
    # waiting for the next.
    code, out = _check(
        tmp_path, rpc_small=NOW["rpc_small"], session_churn=NOW["session_churn"],
        rpc_bulk=103.84, fabric_loaded=82.28,
        tenant_hot=96.70, fabric_sharded=94.05,
    )
    assert code == 1
    assert "`rpc_bulk` / `rpc_small` = 2.60 (limit 1.64): FAIL" in out
    assert "`fabric_loaded` / `rpc_small` = 2.06 (limit 1.99): FAIL" in out
    assert "`fabric_sharded` / `rpc_small` = 2.36 (limit 1.92): FAIL" in out
    assert "`tenant_hot` / `rpc_small` = 2.42 (limit 2.3): FAIL" in out
