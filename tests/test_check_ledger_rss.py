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


#: Peaks (MB, medians of ten runs) once in-process time domains handed
#: packets over as records, the receiver kept each message as views of
#: its packets, every send path let go of the application's plaintext
#: when it was sealed and every server loop let go of a request when it
#: had replied.
NOW = dict(
    rpc_small=44.31, rpc_bulk=63.16, fabric_loaded=77.00, tenant_hot=88.31,
    fabric_sharded=73.81,
)


def test_passing_ratios(tmp_path):
    code, out = _check(tmp_path, **NOW)
    assert code == 0
    assert "`rpc_bulk` / `rpc_small` = 1.43 (limit 1.49): OK" in out
    assert "`fabric_loaded` / `rpc_small` = 1.74 (limit 1.82): OK" in out
    assert "`tenant_hot` / `rpc_small` = 1.99 (limit 2.09): OK" in out
    assert "`fabric_sharded` / `rpc_small` = 1.67 (limit 1.75): OK" in out
    assert "| `rpc_bulk` | 63.2 |" in out


def test_a_codec_between_in_process_domains_fails(tmp_path):
    # Peaks (medians of ten runs) while the in-process shard carrier
    # encoded every cross-domain packet to wire bytes and decoded a fresh
    # copy of each payload.
    code, out = _check(
        tmp_path, rpc_small=44.41, rpc_bulk=63.38, fabric_loaded=76.87,
        tenant_hot=88.35, fabric_sharded=79.13,
    )
    assert code == 1
    assert "`fabric_sharded` / `rpc_small` = 1.78 (limit 1.75): FAIL" in out
    assert "`rpc_bulk` / `rpc_small` = 1.43 (limit 1.49): OK" in out
    assert "`fabric_loaded` / `rpc_small` = 1.73 (limit 1.82): OK" in out
    assert "`tenant_hot` / `rpc_small` = 1.99 (limit 2.09): OK" in out


def test_a_receive_buffer_per_message_fails(tmp_path):
    # Peaks (medians of ten runs) while each inbound message preallocated
    # a buffer of its wire length and every packet was copied into it.
    code, out = _check(
        tmp_path, rpc_small=44.65, rpc_bulk=79.53, fabric_loaded=77.35,
        tenant_hot=95.28, fabric_sharded=79.26,
    )
    assert code == 1
    assert "`rpc_bulk` / `rpc_small` = 1.78 (limit 1.49): FAIL" in out
    assert "`tenant_hot` / `rpc_small` = 2.13 (limit 2.09): FAIL" in out
    assert "`fabric_loaded` / `rpc_small` = 1.73 (limit 1.82): OK" in out
    assert "`fabric_sharded` / `rpc_small` = 1.78 (limit 1.75): FAIL" in out


def test_rpc_bulk_over_its_limit_fails(tmp_path):
    # The ratio before per-message timers stopped forming reference cycles.
    code, out = _check(tmp_path, **{**NOW, "rpc_small": 46.7, "rpc_bulk": 127.5})
    assert code == 1
    assert "`rpc_bulk` / `rpc_small` = 2.73 (limit 1.49): FAIL" in out
    assert "`fabric_loaded` / `rpc_small` = 1.65 (limit 1.82): OK" in out


def test_fabric_loaded_over_its_limit_fails(tmp_path):
    code, out = _check(tmp_path, **{**NOW, "rpc_small": 46.8, "fabric_loaded": 145.9})
    assert code == 1
    assert "`fabric_loaded` / `rpc_small` = 3.12 (limit 1.82): FAIL" in out


def test_an_in_flight_table_that_copies_fails(tmp_path):
    # Peaks (medians of ten runs) while FastAead's table kept its own copy
    # of every unopened record and of its plaintext: all four fail.
    code, out = _check(
        tmp_path, rpc_small=44.9, rpc_bulk=110.3, fabric_loaded=90.4,
        tenant_hot=105.8, fabric_sharded=101.6,
    )
    assert code == 1
    assert "`fabric_loaded` / `rpc_small` = 2.01 (limit 1.82): FAIL" in out
    assert "`tenant_hot` / `rpc_small` = 2.36 (limit 2.09): FAIL" in out
    assert "`fabric_sharded` / `rpc_small` = 2.26 (limit 1.75): FAIL" in out
    assert "`rpc_bulk` / `rpc_small` = 2.46 (limit 1.49): FAIL" in out


def test_frames_that_hold_each_request_fail(tmp_path):
    # Peaks (medians of ten runs) while every frame between the
    # application and the socket held its request until the response, and
    # server loops held the last request while waiting for the next.
    code, out = _check(
        tmp_path, rpc_small=44.68, rpc_bulk=103.84, fabric_loaded=82.28,
        tenant_hot=96.70, fabric_sharded=94.05,
    )
    assert code == 1
    assert "`rpc_bulk` / `rpc_small` = 2.32 (limit 1.49): FAIL" in out
    assert "`fabric_loaded` / `rpc_small` = 1.84 (limit 1.82): FAIL" in out
    assert "`fabric_sharded` / `rpc_small` = 2.10 (limit 1.75): FAIL" in out
    assert "`tenant_hot` / `rpc_small` = 2.16 (limit 2.09): FAIL" in out
