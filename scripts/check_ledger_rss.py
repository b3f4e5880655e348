#!/usr/bin/env python
"""Memory gate for the CI perf-smoke job, read from a ledger run.

Prints each workload's ``peak_rss_mb`` from ``ledger/out/results.json`` as a
Markdown table (appended to ``$GITHUB_STEP_SUMMARY`` when that is set) and
fails if ``fabric_loaded`` peaks above 2.6 x ``rpc_small``.  A ratio inside
one job is independent of the allocator and the Python build, where an
absolute ceiling is not: both workloads import the same code, so what is
left is what the loaded fabric *holds* -- 3.1 x when FastAead kept every
record it had ever sealed, 2.1 x now that it keeps the ones in flight.

Usage: python scripts/check_ledger_rss.py [RESULTS_JSON]
"""

from __future__ import annotations

import json
import os
import sys

MAX_LOADED_OVER_SMALL = 2.6


def main(argv: list[str]) -> int:
    path = argv[1] if len(argv) > 1 else "ledger/out/results.json"
    with open(path) as fh:
        results = json.load(fh)
    rss = {w["workload"]: w["end_to_end"]["peak_rss_mb"] for w in results["workloads"]}
    ratio = rss["fabric_loaded"] / rss["rpc_small"]
    ok = ratio <= MAX_LOADED_OVER_SMALL
    lines = ["| workload | peak_rss_mb |", "|---|---:|"]
    lines += [f"| `{name}` | {mb:.1f} |" for name, mb in rss.items()]
    lines.append(
        f"\n`fabric_loaded` / `rpc_small` = {ratio:.2f} "
        f"(limit {MAX_LOADED_OVER_SMALL}): {'OK' if ok else 'FAIL'}"
    )
    text = "\n".join(lines)
    print(text)
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a") as fh:
            fh.write("### Ledger peak RSS\n\n" + text + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
