#!/usr/bin/env python3
"""The ledger: host-time, virtual-time and per-layer numbers, one command.

    python ledger/run.py                      # six workloads x 3 reps
    python ledger/run.py --trace              # ... plus one traced pass each
    python ledger/run.py --workloads rpc_small,rpc_bulk --reps 5
    python ledger/run.py --quick              # a smoke pass, ~2 s a workload
    python ledger/run.py --check              # verify ledger/expected.json
    python ledger/run.py --workload rpc_small --seed 3 --seconds 5 --trace 0

The last form is the benchmark driver's: one workload, and the last line
of stdout is one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` holding every end-to-end metric (``--trace 0``) or every
per-layer metric (``--trace 1``) that ``BENCHMARK.json`` declares.

Every repetition runs in a fresh subprocess (``rep.py``), one at a time:
a single process generates the load.  See ``README.md`` for the metric
glossary, the sizing evidence and how to read the ``noisy`` flags.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics as M  # noqa: E402

DEFAULT_SEED = 1
QUICK_SECONDS = 1.0
#: Host seconds the workload size tables are written for (scale 1.0).
NOMINAL_SECONDS = 5.0
#: Extra reps the traced pass adds, by workload.
EXTRA_MODES = {"fabric_loaded": ("obs",), "fabric_sharded": ("shard1", "shardmp")}
#: Largest share of the traced wall the per-layer self times may miss.
UNATTRIBUTED_LIMIT = 0.02
#: Report keys that are host measurements riding in the virtual report.
HOST_REPORT_KEYS = ("handshake_host_ms",)


def load_benchmark() -> dict:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


def loadavg() -> str:
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def git_sha(root: str):
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_rep(root: str, workload: str, seed: int, scale: float, mode: str,
            trace_out=None) -> dict:
    """One repetition in a fresh interpreter; returns its JSON report."""
    cmd = [sys.executable, os.path.join(HERE, "rep.py"), "--root", root,
           "--workload", workload, "--seed", str(seed), "--scale", repr(scale),
           "--mode", mode]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload} [{mode}] exited {done.returncode}:\n{done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def virtual_view(rep: dict) -> dict:
    """What must repeat exactly between two reps of one seed."""
    report = {k: v for k, v in rep["report"].items() if k not in HOST_REPORT_KEYS}
    return {"report": report, "events": rep["events"],
            "attempted": rep["attempted"], "failed": rep["failed"]}


def steady_wall(reps: list) -> float:
    """Sum over the timed section's cells of each cell's fastest rep.

    Interference on a shared box only ever adds time, in episodes of a
    few seconds; taking the minimum cell by cell keeps an episode in one
    rep from reaching the result unless it hits the same cell every time.
    """
    cells = [rep["cells_s"] for rep in reps]
    return sum(
        min(rep_cells[i][1] for rep_cells in cells) for i in range(len(cells[0]))
    )


def measure(name: str, args, root: str, out_dir: str) -> dict:
    """All reps of one workload, folded into metrics and checks."""
    scale = args.seconds / NOMINAL_SECONDS
    problems: list[str] = []
    reps = [
        run_rep(root, name, args.seed, scale, "plain")
        for _ in range(args.reps)
    ]
    first = reps[0]
    view = virtual_view(first)
    for i, rep in enumerate(reps[1:], start=2):
        if virtual_view(rep) != view:
            problems.append(f"rep {i} differs from rep 1 on the virtual clock")
    report = first["report"]
    if first["failed"]:
        problems.append(f"{first['failed']} of {first['attempted']} ops failed: "
                        + "; ".join(first["notes"][:3]))
    if first["attempted"] < 1:
        problems.append("no op attempted")
    if scale >= 1.0 and report["samples"] < 1000:
        problems.append(f"p99 on {report['samples']} SMT samples (< 1000)")

    noisy = [
        i for i, rep in enumerate(reps, start=1)
        if abs(rep["calib_after_s"] - rep["calib_before_s"])
        > 0.10 * min(rep["calib_after_s"], rep["calib_before_s"])
    ]
    e2e = {name_: report[name_] for name_ in M.END_TO_END if name_ in report}
    spread = {
        key: M.median_min_max([r[key] for r in reps])
        for key in ("setup_s", "wall_s", "peak_rss_mb")
    }
    e2e["wall_s"] = steady_wall(reps)
    e2e["setup_s"] = spread["setup_s"][0]
    e2e["peak_rss_mb"] = spread["peak_rss_mb"][0]
    result = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "end_to_end": e2e,
        "failed_frac": first["failed"] / max(1, first["attempted"]),
        "attempted": first["attempted"],
        "failed": first["failed"],
        "samples": report["samples"],
        "events": first["events"],
        "load": report.get("load"),
        "paper_band": M.PAPER_BANDS.get(name),
        "reps": [
            {k: rep[k] for k in ("setup_s", "wall_s", "cells_s", "peak_rss_mb",
                                 "calib_before_s", "calib_after_s",
                                 "loadavg_before", "loadavg_after")}
            for rep in reps
        ],
        "noisy_reps": noisy,
        "cells": report["cells"],
        "per_layer": {},
        "problems": problems,
    }
    for key, triple in spread.items():
        result[f"{key}.median_min_max"] = triple

    if args.trace:
        trace_out = os.path.join(out_dir, f"{name}.trace.jsonl")
        traced = run_rep(root, name, args.seed, scale, "traced", trace_out)
        if virtual_view(traced) != view:
            problems.append("traced pass differs from the untraced run "
                            "on the virtual clock (observation not passive)")
        extras = {
            mode: run_rep(root, name, args.seed, scale, mode)
            for mode in EXTRA_MODES.get(name, ())
        }
        for mode, rep in extras.items():
            if virtual_view(rep)["report"] != view["report"]:
                problems.append(f"{mode} rep differs on the virtual clock")
        # Rates are against the steady untraced wall, like wall_s itself.
        plain = dict(first, wall_s=e2e["wall_s"])
        layer = M.per_layer(name, plain, traced, extras)
        layer["env.calib_s"] = M.median_min_max(
            [r["calib_before_s"] for r in reps])[0]
        layer["env.nproc"] = os.cpu_count() or 0
        layer["env.python"] = sys.version_info[0] * 100 + sys.version_info[1]
        result["per_layer"] = layer
        result["trace_file"] = os.path.relpath(trace_out, os.path.dirname(HERE))
        result["traced_wall_s"] = traced["trace"]["wall_s"]
        unattributed = traced["trace"]["unattributed_share"]
        if abs(unattributed) > UNATTRIBUTED_LIMIT:
            problems.append(
                f"layer self times miss the traced wall by {unattributed:.1%} "
                f"(limit {UNATTRIBUTED_LIMIT:.0%})"
            )
    return result


# -- expected.json ------------------------------------------------------------------------

#: Per-layer counts pinned when a traced pass ran.
PINNED_COUNTS = (
    "homa.packets_retx", "homa.resends_rx", "homa.sender_timeouts",
    "tcp.retransmits", "tcp.rto_fires", "net.trimmed", "net.dropped",
    "net.packets", "core.records_sealed", "core.auth_failures",
)


def pins_of(result: dict) -> dict:
    """Every deterministic number of one workload's result."""
    pins = {k: v for k, v in result["end_to_end"].items() if k.startswith("virt_")}
    pins["sim.events"] = result["events"]
    pins["samples"] = result["samples"]
    pins["attempted"] = result["attempted"]
    pins["failed_frac"] = result["failed_frac"]
    if result["load"]:
        pins["load.issued"] = result["load"]["issued"]
        pins["load.completed"] = result["load"]["completed"]
    for name in PINNED_COUNTS:
        if name in result["per_layer"]:
            pins[name] = result["per_layer"][name]
    return pins


def check_expected(results: list, expected: dict) -> list[str]:
    """Rows of ``workload metric expected actual`` for every drifted pin.

    A pin the result no longer carries, a result value with no pin and a
    workload with no pins at all are drift too.  The per-layer counts
    exist only after a traced pass; an untraced run skips exactly those.
    """
    drift = []
    for result in results:
        name = result["workload"]
        want = expected["workloads"].get(name)
        if not want:
            drift.append(f"{name:15s} has no pins in expected.json")
            continue
        have = pins_of(result)
        if not result["per_layer"]:
            want = {k: v for k, v in want.items() if k not in PINNED_COUNTS}
        for key in sorted(set(want) | set(have)):
            expect, actual = want.get(key, "missing"), have.get(key, "missing")
            if expect != actual:
                drift.append(
                    f"{name:15s} {key:24s} "
                    f"expected {expect!r:>24} actual {actual!r:>24}"
                )
    return drift


# -- output -------------------------------------------------------------------------------


def fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_table(results: list, bench: dict) -> None:
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    names = [r["workload"] for r in results]
    width = max(12, *(len(n) + 1 for n in names))
    rows = [m["name"] for m in bench["end_to_end"]]
    rows += ["failed_frac", "attempted", "failed", "samples"]
    if any(r["per_layer"] for r in results):
        rows += [m["name"] for m in bench["per_layer"]]
    print(f"{'metric':40s} {'unit':8s}" + "".join(f"{n:>{width}s}" for n in names))
    for row in rows:
        cells = []
        for r in results:
            value = r["end_to_end"].get(row, r["per_layer"].get(row, r.get(row)))
            cells.append("-" if value is None else fmt(value))
        print(f"{row:40s} {units.get(row, ''):8s}"
              + "".join(f"{c:>{width}s}" for c in cells))
    for r in results:
        med, lo, hi = r["wall_s.median_min_max"]
        flags = f"  noisy reps {r['noisy_reps']}" if r["noisy_reps"] else ""
        band = f"  [{r['paper_band']}]" if r["paper_band"] else ""
        print(f"# {r['workload']}: section wall median {med:.3f} s "
              f"(min {lo:.3f}, max {hi:.3f}) over {len(r['reps'])} reps, "
              f"{r['samples']} SMT samples{flags}{band}")
        for problem in r["problems"]:
            print(f"# {r['workload']}: FAILED CHECK: {problem}")


#: What the driver's result line carries for a per-layer metric that does
#: not apply to the workload.  No count, time or ratio here is negative.
NOT_APPLICABLE = -1


def driver_line(result: dict, bench: dict, trace: bool) -> str:
    """The benchmark contract's result object for one workload.

    The contract wants a number for every declared metric on every
    workload, so a per-layer metric this workload does not have reads
    ``NOT_APPLICABLE`` on this line (and only here: the table and
    results.json leave it out), which no measured value can equal.
    """
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    source = result["per_layer"] if trace else result["end_to_end"]
    if not trace:  # every end-to-end metric is defined on every workload
        source = {m["name"]: source[m["name"]] for m in declared}
    out = {
        m["name"]: {"value": source.get(m["name"], NOT_APPLICABLE),
                    "unit": m["unit"]}
        for m in declared
    }
    return json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": out,
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=M.WORKLOADS,
                        help="driver form: one workload, result object last")
    parser.add_argument("--workloads", default=",".join(M.WORKLOADS),
                        help="comma-separated subset (default: all six)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="host seconds one timed section is sized for")
    parser.add_argument("--reps", type=int)
    parser.add_argument("--trace", nargs="?", const=1, default=0, type=int,
                        choices=(0, 1), help="add the traced per-layer pass")
    parser.add_argument("--quick", action="store_true",
                        help="one short rep per workload (smoke)")
    parser.add_argument("--check", action="store_true",
                        help="fail if a pinned number drifts from expected.json")
    parser.add_argument("--update-expected", action="store_true")
    parser.add_argument("--root", default=os.path.dirname(HERE),
                        help="repo whose src/ is measured (default: this one)")
    parser.add_argument("--out", default=os.path.join(HERE, "out"))
    args = parser.parse_args(argv)

    root = os.path.abspath(args.root)
    if not os.path.isdir(os.path.join(root, "src", "repro")):
        print(f"ledger: no src/repro under {root}; nothing to measure",
              file=sys.stderr)
        return 2
    bench = load_benchmark()
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else float(bench["run_seconds"])
    if args.reps is None:
        # The driver's traced form wants the per-layer numbers only.
        args.reps = 1 if args.quick or (args.workload and args.trace) else 3
    names = [args.workload] if args.workload else args.workloads.split(",")
    unknown = [n for n in names if n not in M.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {M.WORKLOADS}")
    os.makedirs(args.out, exist_ok=True)

    started = time.time()
    load_before = loadavg()
    results = [measure(name, args, root, args.out) for name in names]

    pinned = (args.seed == DEFAULT_SEED
              and args.seconds == float(bench["run_seconds"]))
    expected_path = os.path.join(HERE, "expected.json")
    drift: list[str] = []
    if args.update_expected:
        if not pinned:
            parser.error("--update-expected needs the default seed and size")
        expected = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
        if os.path.exists(expected_path):
            with open(expected_path) as fh:
                expected["workloads"] = json.load(fh)["workloads"]
        for result in results:
            pins = pins_of(result)
            if not result["per_layer"]:  # untraced: keep the traced-pass pins
                old = expected["workloads"].get(result["workload"], {})
                pins.update({k: v for k, v in old.items() if k in PINNED_COUNTS})
            expected["workloads"][result["workload"]] = pins
        with open(expected_path, "w") as fh:
            json.dump(expected, fh, indent=1, sort_keys=True)
            fh.write("\n")
    elif args.check and pinned:
        with open(expected_path) as fh:
            drift = check_expected(results, json.load(fh))

    print_table(results, bench)
    if args.check and not pinned:
        print("# --check: pins apply to the default seed and size only; "
              "correctness checks still ran")
    for row in drift:
        print(f"# DRIFT {row}")

    ok = not drift and not any(r["problems"] for r in results)
    summary = {
        "ok": ok,
        "seed": args.seed,
        "seconds": args.seconds,
        "reps": args.reps,
        "git_sha": git_sha(root),
        "root": root,
        "env": {"nproc": os.cpu_count(), "python": platform.python_version(),
                "platform": platform.platform()},
        "loadavg_before": load_before,
        "loadavg_after": loadavg(),
        "elapsed_s": time.time() - started,
        "moves": [dict(zip(("layer_metric", "moves", "on", "no_change_on"), row))
                  for row in M.MOVES],
        "workloads": results,
        "drift": drift,
        "claim": None,
    }
    with open(os.path.join(args.out, "results.json"), "w") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")

    if args.workload:
        print(driver_line(results[0], bench, bool(args.trace)))
    else:
        print(json.dumps({
            "ok": ok,
            "workloads": {r["workload"]: r["end_to_end"] for r in results},
            "failed": {r["workload"]: r["failed"] for r in results},
            "claim": None,
        }))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
