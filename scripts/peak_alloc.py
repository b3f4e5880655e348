#!/usr/bin/env python
"""Which allocation sites are live at a ledger workload's memory peak.

Standard library only.  Runs one repetition of one ledger workload in a
fresh interpreter under ``tracemalloc``, the same sequence as
``ledger/rep.py`` (imports, set-up, warm-up, timed section, report), and
prints the allocation sites live at the traced peak, largest first, then
the same bytes summed per layer (``repro.<layer>``, ``ledger``, and
``python`` for everything outside the repo)::

    python scripts/peak_alloc.py --workload rpc_bulk
    python scripts/peak_alloc.py --workload fabric_sharded --root ../parent

The peak is found by sampling: a ``gc.callbacks`` hook reads the traced
size after every collection and snapshots the heap whenever it is a new
high, so the snapshot shown is the largest one sampled (its size is
printed beside ``tracemalloc``'s own peak, which may fall between
samples).  ``EventLoop.run`` pauses automatic collection, which would
leave almost nothing to sample, so this repetition makes ``gc.disable``
a no-op and the collector runs inside every run as it did before the
pause.  That moves nothing on the heap: a run makes no cyclic garbage
(``tests/sim/test_no_cyclic_garbage.py``), and the table prints how many
objects the sampled passes reclaimed.  Sampling only reads the heap; to
show that it changed nothing, the script also runs the same repetition
through ``ledger/rep.py`` untraced and exits 1 unless both virtual
reports -- every ``virt_*`` value, the event count, attempted and failed
ops -- are identical.

``--root`` names the checkout whose ``src/`` is measured (default: this
one), as for ``ledger/run.py``; this repo's ``ledger/`` drives it and is
only read.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
import tracemalloc

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LEDGER = os.path.join(REPO, "ledger")
sys.path.insert(0, LEDGER)
import run as ledger  # noqa: E402

#: Sites listed one by one; the rest are summed into one row.
TOP = 12


def _site(filename: str, lineno: int) -> tuple[str, str]:
    """(``file:line`` relative to its package root, layer) of one frame."""
    path = filename.replace(os.sep, "/")
    for marker, layer_of in (("/src/repro/", None), ("/ledger/", "ledger")):
        if marker in path:
            rel = path.split(marker, 1)[1]
            layer = layer_of or (rel.split("/", 1)[0] if "/" in rel else "repro")
            prefix = "repro/" if layer_of is None else "ledger/"
            return f"{prefix}{rel}:{lineno}", layer
    return f"{os.path.basename(path)}:{lineno}", "python"


class PeakSampler:
    """Snapshots the traced heap at the largest size seen after a GC pass."""

    def __init__(self) -> None:
        self.snapshot = None
        self.size = 0  # traced bytes, less the held snapshot, at ``snapshot``
        self.held = 0  # traced bytes the held snapshot itself occupies
        self.samples = 0
        self.collected = 0  # unreachable objects the sampled passes found

    def __call__(self, phase: str, info: dict) -> None:
        if phase != "stop":
            return
        self.samples += 1
        self.collected += info["collected"]
        live = tracemalloc.get_traced_memory()[0] - self.held
        if live <= self.size:
            return
        self.snapshot = None  # drop the old one before measuring the new
        before = tracemalloc.get_traced_memory()[0]
        snapshot = tracemalloc.take_snapshot()
        self.held = tracemalloc.get_traced_memory()[0] - before
        self.snapshot, self.size = snapshot, live


def child(args) -> int:
    """The sampled repetition; one JSON object to stdout."""
    tracemalloc.start()
    sys.path.insert(0, os.path.join(os.path.abspath(args.root), "src"))
    import workloads

    sampler = PeakSampler()
    gc.disable = lambda: None  # keep the collector, and so the sampler, on
    gc.callbacks.append(sampler)
    try:
        workload = workloads.WORKLOADS[args.workload]()
        workload.setup(ledger.DEFAULT_SEED, 1.0, observe=False)
        workload.warmup()
        workload.timed()
        report = workload.report()
    finally:
        gc.callbacks.remove(sampler)
    peak = tracemalloc.get_traced_memory()[1]
    ours = (tracemalloc.__file__, os.path.abspath(__file__))
    snapshot = sampler.snapshot.filter_traces(
        [tracemalloc.Filter(False, path) for path in ours]
    )
    sites = [
        [*_site(stat.traceback[0].filename, stat.traceback[0].lineno),
         stat.size, stat.count]
        for stat in snapshot.statistics("lineno")
    ]
    print(json.dumps({
        "report": report, "events": workload.events,
        "attempted": workload.book.attempted, "failed": workload.book.failed,
        "traced_peak": peak, "snapshot": sampler.size,
        "samples": sampler.samples, "collected": sampler.collected,
        "sites": sites,
    }))
    return 0


def table(result: dict) -> str:
    mb = 1 << 20
    lines = [
        f"traced peak {result['traced_peak'] / mb:.1f} MB; largest sample "
        f"{result['snapshot'] / mb:.1f} MB ({result['samples']} GC passes "
        f"sampled, {result['collected']} objects reclaimed)",
        "",
        "| site | layer | MB | blocks |",
        "|---|---|---:|---:|",
    ]
    sites = result["sites"]
    for site, layer, size, count in sites[:TOP]:
        lines.append(f"| `{site}` | {layer} | {size / mb:.1f} | {count} |")
    rest = sites[TOP:]
    lines.append(
        f"| {len(rest)} other sites | | {sum(s[2] for s in rest) / mb:.1f} | "
        f"{sum(s[3] for s in rest)} |"
    )
    layers: dict[str, int] = {}
    for _site_name, layer, size, _count in sites:
        layers[layer] = layers.get(layer, 0) + size
    lines += ["", "| layer | MB |", "|---|---:|"]
    small = []
    for layer, size in sorted(layers.items(), key=lambda kv: -kv[1]):
        if size < mb // 10:
            small.append(size)
        else:
            lines.append(f"| {layer} | {size / mb:.1f} |")
    lines.append(f"| {len(small)} layers under 0.1 MB | {sum(small) / mb:.1f} |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="rpc_bulk")
    parser.add_argument("--root", default=REPO, help="repo whose src/ is measured")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child(args)

    names = [w["name"] for w in ledger.load_benchmark()["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; pick from {names}")
    root = os.path.abspath(args.root)
    cmd = [sys.executable, os.path.abspath(__file__), "--child",
           "--workload", args.workload, "--root", root]
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(cmd, capture_output=True, text=True, env=env)
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
        return done.returncode
    sampled = json.loads(done.stdout.strip().splitlines()[-1])
    plain = ledger.run_rep(root, args.workload, ledger.DEFAULT_SEED, 1.0, "plain")

    print(f"## `{args.workload}` seed {ledger.DEFAULT_SEED}, root {root}\n")
    print(table(sampled))
    if ledger.virtual_view(sampled) != ledger.virtual_view(plain):
        print("\nFAIL: the sampled run's virtual report differs from "
              "ledger/rep.py's untraced one")
        return 1
    print("\nvirtual report identical to ledger/rep.py's untraced run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
