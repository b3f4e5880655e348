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
every ratio rose although no gated peak did.  Each ceiling was then set
5 % over its median ratio (ten runs each), capped so that the ceiling
times ``rpc_small``'s median is no more MB than the old ceiling allowed
against the old median.

All five were re-derived by the same rule once numpy left the package:
its import was ~12.4 MB of every workload's peak, ``rpc_small`` fell
39.94 -> 27.54 MB and every ratio rose again.  The ratios below are
against that 27.54 MB baseline, and a defect's ratio is the MB it added
over the peak of its day, added to today's peak, over that baseline:

- ``fabric_loaded`` 2.27 x (ceiling 2.39, 65.8 MB; 79.4 MB before);
  2.52 x while the frames between the application and the socket held
  each request until its response, 2.82 x while FastAead's in-flight
  table copied each unopened record and its plaintext, 4.8 x while it
  kept every record it had ever sealed.
- ``tenant_hot`` 2.71 x (ceiling 2.84, 78.2 MB; 91.8 MB before); 2.99 x
  with a receive buffer per message, 3.04 x holding requests, 3.37 x
  with the copying table.
- ``fabric_sharded`` 2.20 x (ceiling 2.31, 63.6 MB; 76.6 MB before);
  2.42 x with the codec between in-process domains, 2.96 x holding
  requests, 3.23 x with the copying table.
- ``rpc_bulk`` 1.82 x (ceiling 1.91, 52.6 MB; 65.5 MB before); 2.45 x
  with the per-message receive buffer, 3.33 x holding requests, 3.56 x
  with the copying table, and 4.2 x while three per-message timer
  closures made every message a reference cycle, so sealed segments and
  reassembly buffers waited for the cyclic GC.  A new cycle on the
  per-message path fails here.

A ratio cannot see its baseline grow: a regression in ``rpc_small`` lowers
the four ratios above.  So ``rpc_small`` is gated in turn against
``session_churn``, the workload that holds least (one session and a few
RPCs at a time, so its peak is mostly the imported code): 1.05 x
now (ceiling 1.10, 28.9 MB; 41.8 MB before), 1.17 x while delivered and
replayed message IDs were kept as Python objects.  An import that comes
back lowers every ratio, so none of these gates sees one:
``tests/test_layering.py`` fails on any import from outside the standard
library instead.

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
    "fabric_loaded": ("rpc_small", 2.39),
    "tenant_hot": ("rpc_small", 2.84),
    "fabric_sharded": ("rpc_small", 2.31),
    "rpc_bulk": ("rpc_small", 1.91),
    "rpc_small": ("session_churn", 1.10),
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
