"""Run reproduction benchmarks from the command line.

Usage::

    python -m repro.bench              # every table and figure
    python -m repro.bench fig6 fig7    # a subset
    python -m repro.bench --jobs 4     # fan out over worker processes
    python -m repro.bench perf --quick # kernel micro-bench, CI-sized
    python -m repro.bench --list

Each benchmark prints the regenerated table plus its paper-band checks;
the exit code is non-zero if any check lands outside its band.  With
``--jobs N`` the experiments run in worker processes; results (tables,
band checks and the JSON reports) are merged in deterministic order and
are identical to a serial run except for the ``perf`` wall-clock key.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.bench.fleet import EXPERIMENTS, run_fleet


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("experiments", nargs="*",
                        help="experiment names (default: all)")
    parser.add_argument("--list", action="store_true", help="list experiments")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="run experiments in N worker processes "
                             "(default: 1, serial in-process)")
    parser.add_argument("--quick", action="store_true",
                        help="reduced iteration counts for the seven "
                             "quick-aware experiments: 'perf', 'churn', "
                             "'loaded', 'incident', 'frontend', 'tenant' and "
                             "'scale' (CI smoke size)")
    parser.add_argument("--domains", type=int, default=None, metavar="N",
                        help="partition sharded-kernel experiments ('scale') "
                             "into N parallel time domains (default: the "
                             "experiment's own choice; results are "
                             "bit-identical for any N)")
    parser.add_argument("--no-json", action="store_true",
                        help="skip writing BENCH_<name>.json report files")
    parser.add_argument("--json-dir", default=".", metavar="DIR",
                        help="directory for BENCH_<name>.json (default: cwd)")
    args = parser.parse_args(argv)
    if args.list:
        for name in EXPERIMENTS:
            print(name)
        return 0
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    names = args.experiments or list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {', '.join(unknown)}")
    if args.domains is not None and args.domains < 1:
        parser.error("--domains must be >= 1")
    results = run_fleet(names, jobs=args.jobs, quick=args.quick,
                        domains=args.domains)
    misses = 0
    for result in results:
        print(result.rendered)
        print(f"({result.name}: {result.wall_s:.1f}s wall, "
              f"{result.events} events)\n")
        if not args.no_json:
            json_dir = pathlib.Path(args.json_dir)
            json_dir.mkdir(parents=True, exist_ok=True)
            out = json_dir / f"BENCH_{result.name}.json"
            out.write_text(json.dumps(result.report_json, indent=1) + "\n")
        misses += result.misses
    if misses:
        print(f"{misses} band check(s) out of range", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
