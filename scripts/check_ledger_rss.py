#!/usr/bin/env python
"""Memory gate for the CI perf-smoke job, read from a ledger run.

Prints each workload's ``peak_rss_mb`` from ``ledger/out/results.json`` as a
Markdown table (appended to ``$GITHUB_STEP_SUMMARY`` when that is set) and
fails if ``fabric_loaded``, ``tenant_hot``, ``fabric_sharded`` or
``rpc_bulk`` peaks above its ceiling, a multiple of ``rpc_small``'s peak, or
if ``rpc_small`` peaks above its own, a multiple of ``session_churn``'s.
A ratio inside one job is independent of the allocator and the Python
build, where an absolute ceiling is not: every workload imports the same
code, so what is left is what the workload *holds*.  Each ceiling sits
about 5 % above the ratio measured once every send path let go of the
application's plaintext when it was sealed and every server loop let go
of a request when it had replied (median of ten runs each); the
``tenant_hot`` and ``rpc_bulk`` ceilings were re-derived once the
receiver kept each message as views of its packets instead of copying
them into a buffer of the message's wire length, and the
``fabric_sharded`` one once in-process time domains handed packets over
as records instead of encoding each to wire bytes and decoding a fresh
copy of its payload.

All four were re-derived once delivered and replayed message IDs were
kept as bits: that shrank ``rpc_small`` itself, 44.34 -> 39.91 MB, so
every ratio rose although no gated peak did.  Each ceiling is now 5 %
over its median ratio (ten runs each), capped so that the ceiling times
``rpc_small``'s median is no more MB than the old ceiling allowed
against the old median.  The ratios below are against the 39.91 MB
baseline, and a defect's ratio is the peak it measured then over that
baseline:

- ``fabric_loaded`` 1.89 x (ceiling 1.99, 79.4 MB; 80.7 MB before);
  2.06 x while the frames between the application and the socket held
  each request until its response, 2.27 x while FastAead's in-flight
  table copied each unopened record and its plaintext, 3.7 x while it
  kept every record it had ever sealed.
- ``tenant_hot`` 2.19 x (ceiling 2.30, 91.8 MB; 92.7 MB before); 2.39 x
  with the per-message receive buffer, 2.42 x holding requests, 2.65 x
  with the copying table.
- ``fabric_sharded`` 1.83 x (ceiling 1.92, 76.6 MB; 77.6 MB before);
  1.98 x with the codec between in-process domains, 2.36 x holding
  requests, 2.55 x with the copying table.
- ``rpc_bulk`` 1.56 x (ceiling 1.64, 65.5 MB; 66.1 MB before); 1.99 x
  with the per-message receive buffer, 2.60 x holding requests, 2.76 x
  with the copying table, and 3.2 x while three per-message timer
  closures made every message a reference cycle, so sealed segments and
  reassembly buffers waited for the cyclic GC.  A new cycle on the
  per-message path fails here.

A ratio cannot see its baseline grow: a regression in ``rpc_small`` lowers
the four ratios above.  So ``rpc_small`` is gated in turn against
``session_churn``, the workload that holds least (one session and a few
RPCs at a time, so its peak is mostly the imported code): 1.02 x
now (ceiling 1.07, 5 % over the median of ten runs each), 1.11 x while
delivered and replayed message IDs were kept as Python objects (44.36 /
40.05 MB).

A memo that starts copying records again, a frame that holds a request
until its response, a receive path that copies a message into a buffer
of its length, a buffer that outlives its message, or a payload copy
per packet crossing in-process domains, fails one of them.

Usage: python scripts/check_ledger_rss.py [RESULTS_JSON]
"""

from __future__ import annotations

import json
import os
import sys

#: workload -> (its baseline, the most it may peak at as a multiple of it).
CEILINGS = {
    "fabric_loaded": ("rpc_small", 1.99),
    "tenant_hot": ("rpc_small", 2.30),
    "fabric_sharded": ("rpc_small", 1.92),
    "rpc_bulk": ("rpc_small", 1.64),
    "rpc_small": ("session_churn", 1.07),
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
    for name, (baseline, limit) in CEILINGS.items():
        ratio = rss[name] / rss[baseline]
        ok &= ratio <= limit
        lines.append(
            f"`{name}` / `{baseline}` = {ratio:.2f} "
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
