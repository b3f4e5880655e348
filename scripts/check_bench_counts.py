#!/usr/bin/env python
"""Count-based perf regression gate for the CI perf-smoke job.

Every benchmark runs in virtual time with fixed seeds, so the number of
event-loop events a ``--quick`` run dispatches is *exactly* reproducible:
same code, same count, on any machine.  Wall-clock time is not -- CI
runners vary severalfold -- so this gate checks event counts and never
durations.  ``events_per_sec`` is still recorded in every report's
``perf`` key for humans reading the artifacts; here we only require that
it was measured, not that it is fast.

A mismatch means the run did different *work*, which is either a real
behaviour change (update EXPECTED_EVENTS in the same PR and say why in
the PR description) or an accidental perf regression such as a timer
leak or a retransmit storm -- the failure modes this gate exists to
catch before they hide behind noisy wall-clock numbers.

On any mismatch the gate prints the full expected-vs-actual table for
every pinned bench before exiting non-zero, so one PR-induced shift
across several benches reads as one table, not as N consecutive red CI
runs discovered one bench at a time.

Usage: python scripts/check_bench_counts.py BENCH_DIR
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

# Exact event counts for `python -m repro.bench <name> --quick` (the paper
# figures at the bottom have no quick mode; they are the cheap ones whose
# band checks all pass, and they gate the two-host stack builders in
# repro.bench.runner the way the seven above gate the load engines).
# The "scale" count is invariant to the --domains setting: sharding
# replaces each boundary hop's local receive event with exactly one
# injected arrival event in the destination domain.
# "churn" gates the session-lifecycle stack; it was measured twice at
# the commit before the load engines were folded into one (4497),
# identical both times.
# "frontend", "tenant" and "incident" were re-pinned on purpose when
# their scenarios that read no SMT quantity left: frontend 52839 -> 1512
# (the skewed-load balancer comparison and the health-flap damping runs;
# portability and staleness remain), tenant 269289 -> 213136 (the dcache
# write-behind epilogue; the isolation off/on runs remain), incident
# 582358 -> 288307 (the resilience-kit-on run of each scenario; the
# kit-off runs, unchanged event for event, remain).
# "incident" and "frontend" were re-pinned again when their handshakes
# became real SmtEndpoint sessions over the fabric instead of Table 2
# constants: incident 288307 -> 289395 (the replica-crash storm runs
# three full TLS 1.3 handshakes, and the drain waits for them), frontend
# 1512 -> 25323 (every open is a 0-RTT or 1-RTT handshake, and both
# scenarios' timelines, ticket lifetimes and run horizons are scaled by
# TIMELINE_SCALE = 20 so that ~0.7-1.6 ms opens fit them).
# "fig12" is the key exchange (five handshake variants): every handshake
# byte and charged crypto op feeds its count.
EXPECTED_EVENTS = {
    "perf": 51321,
    "churn": 4497,
    "loaded": 169902,
    "incident": 289395,
    "frontend": 25323,
    "tenant": 213136,
    "scale": 585544,
    "fig6": 149678,
    "fig10": 65937,
    "fig11": 372591,
    "fig7-cpu": 453018,
    "ablation-acks": 186810,
    "ablation-contexts": 17736,
    "fig12": 756,
}


def collect(bench_dir: Path) -> list[tuple[str, int, object, str, object]]:
    """(name, expected, actual, problem, aead.in_flight_high_water_bytes) per
    pinned bench; "" means OK.  The last is reported, never pinned: the most
    bytes FastAead's in-flight table had held by the end of that bench, in
    its process (benches run in one process share the mark, so it only
    rises); at the 8 MiB budget, unopened records were being evicted."""
    rows = []
    for name, expected in EXPECTED_EVENTS.items():
        path = bench_dir / f"BENCH_{name}.json"
        if not path.exists():
            rows.append((name, expected, None, "report file missing", None))
            continue
        perf = json.loads(path.read_text()).get("perf")
        if not perf:
            rows.append((name, expected, None, "report has no 'perf' section", None))
            continue
        events = perf.get("events")
        eps = perf.get("events_per_sec")
        high_water = perf.get("aead", {}).get("high_water_bytes")
        if not isinstance(eps, int) or eps <= 0:
            problem = "events_per_sec not recorded"
        elif events != expected:
            problem = f"drift {events - expected:+d}"
        else:
            problem = ""
        rows.append((name, expected, events, problem, high_water))
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    rows = collect(Path(argv[1]))
    failures = [r for r in rows if r[3]]
    header = (f"{'bench':<18} {'expected':>10} {'actual':>10} "
              f"{'aead.in_flight_high_water_bytes':>32}  status")
    print(header)
    print("-" * len(header))
    for name, expected, actual, problem, high_water in rows:
        shown = "-" if actual is None else actual
        memo = "-" if high_water is None else high_water
        status = problem if problem else "OK"
        print(f"{name:<18} {expected:>10} {shown:>10} {memo:>32}  {status}")
    if failures:
        print(
            f"\n{len(failures)} bench(es) drifted; if intentional, update "
            f"EXPECTED_EVENTS in {Path(__file__).name} in the same PR and "
            "explain why in the PR description."
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
