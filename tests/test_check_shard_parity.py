"""``scripts/check_shard_parity.py --identical`` over two report directories."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_shard_parity.py"


def _write(directory: Path, name: str, report: dict) -> None:
    directory.mkdir(exist_ok=True)
    (directory / f"BENCH_{name}.json").write_text(json.dumps(report))


def _identical(a, b):
    out = subprocess.run(
        [sys.executable, str(SCRIPT), "--identical", str(a), str(b)],
        capture_output=True, text=True,
    )
    return out.returncode, out.stdout


def test_directories_equal_minus_perf(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for name in ("perf", "fig6"):
        _write(a, name, {"rows": [1, 2], "perf": {"wall_s": 1.0}})
        _write(b, name, {"rows": [1, 2], "perf": {"wall_s": 2.5}})
    code, out = _identical(a, b)
    assert code == 0
    assert out.count("[OK  ]") == 2 and "[FAIL]" not in out


def test_one_line_per_file_and_every_failure_named(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    _write(a, "same", {"x": 1})
    _write(b, "same", {"x": 1})
    _write(a, "moved", {"x": 1, "y": 2})
    _write(b, "moved", {"x": 1, "y": 3})
    _write(a, "only_a", {"x": 1})
    code, out = _identical(a, b)
    assert code == 1
    lines = [line for line in out.splitlines() if line.startswith("[")]
    assert lines == [
        "[FAIL] BENCH_moved.json: sections 'y' differ",
        f"[FAIL] BENCH_only_a.json: missing from {b}",
        "[OK  ] BENCH_same.json (minus perf)",
    ]


def test_file_mode_unchanged(tmp_path):
    _write(tmp_path, "a", {"x": 1, "perf": {"events": 1}})
    _write(tmp_path, "b", {"x": 1, "perf": {"events": 2}})
    code, _ = _identical(tmp_path / "BENCH_a.json", tmp_path / "BENCH_b.json")
    assert code == 0
