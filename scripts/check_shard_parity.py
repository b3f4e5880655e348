#!/usr/bin/env python
"""Shard-parity gate for the CI shard-smoke job.

The sharded-kernel bench (``python -m repro.bench scale``) claims that
partitioning the cluster into N parallel time domains changes *nothing*
observable: not the dispatched event total, not a single slowdown
percentile, not the ECMP spine spread.  This script turns that claim
into two count-based CI gates over ``BENCH_scale.json`` reports:

- ``--identical A B``: the two reports (same command rerun) must be
  bit-identical except for the top-level ``perf`` key, whose wall-clock
  fields legitimately vary between runs.  Given two directories, every
  ``BENCH_*.json`` in either is compared that way, one OK/FAIL line per
  file; a report present in only one directory fails.  That is the
  behaviour-held check for a refactor: the same benches run at two
  commits must agree on everything but wall-clock.
- ``--parity A B``: the two reports came from different ``--domains``
  settings.  Their band-check lists must be identical (every parity and
  band check equal and passing) and their ``perf.events`` totals must
  match exactly -- the partitioning may change wall-clock, never work.

Both modes are pure JSON comparisons: no wall-clock quantity is ever
gated on.

Usage:
  python scripts/check_shard_parity.py --identical A.json B.json
  python scripts/check_shard_parity.py --identical DIR_A DIR_B
  python scripts/check_shard_parity.py --parity A.json B.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def _load(path: str) -> tuple[dict, dict]:
    report = json.loads(Path(path).read_text())
    perf = report.pop("perf", {})
    return report, perf


def _diff_keys(a: dict, b: dict) -> list[str]:
    return [k for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k)]


def check_identical(path_a: str, path_b: str) -> int:
    a, _ = _load(path_a)
    b, _ = _load(path_b)
    if a == b:
        print(f"[OK  ] {path_a} == {path_b} (minus perf)")
        return 0
    for key in _diff_keys(a, b):
        print(f"[FAIL] section {key!r} differs between reruns")
    print(
        "reruns of the same bench command must be bit-identical minus "
        "'perf'; a diff here means nondeterminism leaked into the report"
    )
    return 1


def check_identical_dirs(dir_a: Path, dir_b: Path) -> int:
    names = sorted(
        {p.name for p in dir_a.glob("BENCH_*.json")}
        | {p.name for p in dir_b.glob("BENCH_*.json")}
    )
    if not names:
        print(f"[FAIL] no BENCH_*.json in {dir_a} or {dir_b}")
        return 1
    failed = 0
    for name in names:
        path_a, path_b = dir_a / name, dir_b / name
        missing = [str(p.parent) for p in (path_a, path_b) if not p.exists()]
        if missing:
            print(f"[FAIL] {name}: missing from {', '.join(missing)}")
            failed += 1
            continue
        a, _ = _load(str(path_a))
        b, _ = _load(str(path_b))
        if a == b:
            print(f"[OK  ] {name} (minus perf)")
        else:
            sections = ", ".join(repr(k) for k in _diff_keys(a, b))
            print(f"[FAIL] {name}: sections {sections} differ")
            failed += 1
    print(f"{len(names) - failed} of {len(names)} reports identical minus 'perf'")
    return 1 if failed else 0


def check_parity(path_a: str, path_b: str) -> int:
    a, perf_a = _load(path_a)
    b, perf_b = _load(path_b)
    failures = []
    if a.get("checks") != b.get("checks"):
        names_a = {c["name"]: c for c in a.get("checks", [])}
        names_b = {c["name"]: c for c in b.get("checks", [])}
        for name in sorted(set(names_a) | set(names_b)):
            if names_a.get(name) != names_b.get(name):
                failures.append(f"band check {name!r} differs across --domains")
    for side, report in (("A", a), ("B", b)):
        bad = [c["name"] for c in report.get("checks", []) if not c["ok"]]
        for name in bad:
            failures.append(f"report {side}: check {name!r} out of band")
    if perf_a.get("events") != perf_b.get("events"):
        failures.append(
            f"perf.events differs: {perf_a.get('events')} vs "
            f"{perf_b.get('events')} -- the partitioning changed the "
            "amount of simulated work"
        )
    if failures:
        for failure in failures:
            print(f"[FAIL] {failure}")
        return 1
    print(
        f"[OK  ] {path_a} and {path_b}: identical bands, all passing, "
        f"{perf_a.get('events')} events both"
    )
    return 0


def main(argv: list[str]) -> int:
    if len(argv) != 4 or argv[1] not in ("--identical", "--parity"):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    if argv[1] == "--identical":
        dirs = [Path(p).is_dir() for p in argv[2:]]
        if all(dirs):
            return check_identical_dirs(Path(argv[2]), Path(argv[3]))
        if any(dirs):
            print("--identical takes two report files or two directories",
                  file=sys.stderr)
            return 2
        return check_identical(argv[2], argv[3])
    return check_parity(argv[2], argv[3])


if __name__ == "__main__":
    sys.exit(main(sys.argv))
