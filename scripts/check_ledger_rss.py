#!/usr/bin/env python
"""Memory gate for the CI perf-smoke job, read from a ledger run.

Prints each workload's ``peak_rss_mb`` from ``ledger/out/results.json`` as a
Markdown table (appended to ``$GITHUB_STEP_SUMMARY`` when that is set) and
fails if ``fabric_loaded``, ``tenant_hot``, ``fabric_sharded`` or
``rpc_bulk`` peaks above its ceiling, a multiple of ``rpc_small``'s peak.
A ratio inside one job is independent of the allocator and the Python
build, where an absolute ceiling is not: every workload imports the same
code, so what is left is what the workload *holds*.  Each ceiling sits
about 5 % above the ratio measured once every record path sealed into the
buffer it sends and FastAead's in-flight table filed views of it, not
copies (median of ten runs each):

- ``fabric_loaded`` 1.83 x (ceiling 1.93); 2.01 x while the table copied
  each unopened record and its plaintext, 3.1 x while FastAead kept every
  record it had ever sealed.
- ``tenant_hot`` 2.16 x (ceiling 2.27); 2.35 x with the copying table.
- ``fabric_sharded`` 2.10 x (ceiling 2.21); 2.26 x with the copying table.
- ``rpc_bulk`` 2.31 x (ceiling 2.43); 2.45 x with the copying table, and
  2.7 x while three per-message timer closures made every message a
  reference cycle, so sealed segments and reassembly buffers waited for
  the cyclic GC.  A new cycle on the per-message path fails here.

A memo that starts copying records again, or a buffer that outlives its
message, fails one of them.

Usage: python scripts/check_ledger_rss.py [RESULTS_JSON]
"""

from __future__ import annotations

import json
import os
import sys

BASELINE = "rpc_small"
#: workload -> the most it may peak at, as a multiple of ``BASELINE``.
MAX_OVER_SMALL = {
    "fabric_loaded": 1.93,
    "tenant_hot": 2.27,
    "fabric_sharded": 2.21,
    "rpc_bulk": 2.43,
}


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
