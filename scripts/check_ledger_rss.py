#!/usr/bin/env python
"""Memory gate for the CI perf-smoke job, read from a ledger run.

Prints each workload's ``peak_rss_mb`` from ``ledger/out/results.json`` as a
Markdown table (appended to ``$GITHUB_STEP_SUMMARY`` when that is set) and
fails if ``fabric_loaded`` or ``rpc_bulk`` peaks above 2.6 x ``rpc_small``.
A ratio inside one job is independent of the allocator and the Python
build, where an absolute ceiling is not: every workload imports the same
code, so what is left is what the workload *holds*.

- ``fabric_loaded`` was 3.1 x while FastAead kept every record it had ever
  sealed and is 2.1 x now that it keeps the ones in flight.
- ``rpc_bulk`` was 2.7 x while three per-message timer closures made every
  message a reference cycle, so sealed segments and reassembly buffers
  waited for the cyclic GC; it is 2.5 x now that they are freed when their
  message completes.  A new cycle on the per-message path fails here.

Usage: python scripts/check_ledger_rss.py [RESULTS_JSON]
"""

from __future__ import annotations

import json
import os
import sys

BASELINE = "rpc_small"
#: workload -> the most it may peak at, as a multiple of ``BASELINE``.
MAX_OVER_SMALL = {"fabric_loaded": 2.6, "rpc_bulk": 2.6}


def main(argv: list[str]) -> int:
    path = argv[1] if len(argv) > 1 else "ledger/out/results.json"
    with open(path) as fh:
        results = json.load(fh)
    rss = {w["workload"]: w["end_to_end"]["peak_rss_mb"] for w in results["workloads"]}
    lines = ["| workload | peak_rss_mb |", "|---|---:|"]
    lines += [f"| `{name}` | {mb:.1f} |" for name, mb in rss.items()]
    lines.append("")
    ok = True
    for name, limit in MAX_OVER_SMALL.items():
        ratio = rss[name] / rss[BASELINE]
        ok &= ratio <= limit
        lines.append(
            f"`{name}` / `{BASELINE}` = {ratio:.2f} "
            f"(limit {limit}): {'OK' if ratio <= limit else 'FAIL'}"
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
