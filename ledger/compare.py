#!/usr/bin/env python3
"""Interleaved before/after comparison of two git refs (ROADMAP item 1b).

    python ledger/compare.py <refA> <refB> [--pairs 10] [--workloads ...]

Both refs are unpacked with ``git archive`` into temporary trees, and
*this* ledger's code measures each (``run.py --root <tree>``), so the
instrument is identical on both sides.  The run makes ``--pairs`` pairs
per workload, alternating which side goes first, and prints per side the
median and quartiles of every end-to-end metric, the pair win fraction,
and a verdict by the choosing-metrics rule:

- ``gain`` / ``loss``: one side wins at least nine tenths of the pairs
  (ties count for neither) *and* the medians differ by more than the
  distance between refA's own quartiles;
- ``regression``: B's median is worse than A's by more than the metric's
  bound in ``BENCHMARK.json`` (for a virtual metric, which repeats
  exactly, worse by more than 1 %);
- ``unresolved``: A's own spread exceeds the bound, so "no change" cannot
  be told from a change of that size -- unless every B run beats every A
  run;
- ``unchanged`` otherwise.

A ``gain`` on a side that failed more ops than the other is printed as
``void``: fewer completed ops are less work, not faster work.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics as M  # noqa: E402
from run import load_benchmark  # noqa: E402

VIRTUAL_TOLERANCE = 0.01


def unpack(repo: str, ref: str, tree: str) -> str:
    """``git archive ref`` extracted into the new directory ``tree``."""
    os.makedirs(tree)
    archive = subprocess.Popen(
        ["git", "-C", repo, "archive", ref], stdout=subprocess.PIPE
    )
    subprocess.run(["tar", "-x", "-C", tree], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        raise SystemExit(f"git archive {ref} failed")
    return tree


def one_run(tree: str, workload: str, seed: int, seconds, out_dir: str) -> dict:
    """One single-rep ledger run of ``workload`` against ``tree``."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--root", tree,
           "--workload", workload, "--seed", str(seed), "--reps", "1",
           "--out", out_dir]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    done = subprocess.run(cmd, capture_output=True, text=True)
    if done.returncode not in (0, 1):  # 1: a correctness check failed
        raise SystemExit(f"{workload} on {tree} failed:\n{done.stderr[-2000:]}")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    values = {k: v["value"] for k, v in line["metrics"].items()}
    values["failed"] = line["failed"]
    return values


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def verdict(metric: dict, a: list, b: list) -> tuple:
    """(verdict, B wins / decided pairs) for one metric's paired runs."""
    lower = metric["better"] == "lower"
    better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
    wins = sum(better(y, x) for x, y in zip(a, b))
    losses = sum(better(x, y) for x, y in zip(a, b))
    decided = wins + losses
    qa_lo, med_a, qa_hi = quartiles(a)
    _, med_b, _ = quartiles(b)
    spread = (qa_hi - qa_lo) / abs(med_a) if med_a else 0.0
    change = (med_b - med_a) / abs(med_a) if med_a else 0.0
    worse = change if lower else -change
    bound = metric["bound"]
    if metric["name"] not in M.HOST_CLOCK:
        bound = VIRTUAL_TOLERANCE
    # Fewer than ten pairs support neither a gain nor a loss.
    clear = len(a) >= 10 and abs(med_b - med_a) > qa_hi - qa_lo
    if clear and wins >= 0.9 * len(a):
        return "gain", wins, decided
    if worse > bound:
        return "regression", wins, decided
    if clear and losses >= 0.9 * len(a):
        return "loss", wins, decided
    if spread > bound and not all(better(y, x) for x in a for y in b):
        return "unresolved", wins, decided
    return "unchanged", wins, decided


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("ref_a")
    parser.add_argument("ref_b")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(M.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--repo", default=os.path.dirname(HERE))
    parser.add_argument("--workdir", help="where to unpack (default: a temp dir)")
    args = parser.parse_args(argv)
    if args.pairs < 10:
        print("note: fewer than 10 pairs cannot support a gain claim",
              file=sys.stderr)

    bench = load_benchmark()
    workdir = tempfile.mkdtemp(prefix="ledger-compare-", dir=args.workdir)
    try:
        trees = {
            side: unpack(args.repo, ref, os.path.join(workdir, side))
            for side, ref in (("A", args.ref_a), ("B", args.ref_b))
        }
        out_dir = os.path.join(workdir, "out")
        report = {"ref_a": args.ref_a, "ref_b": args.ref_b, "pairs": args.pairs,
                  "workloads": {}}
        for workload in args.workloads.split(","):
            runs = {"A": [], "B": []}
            for pair in range(args.pairs):
                order = ("A", "B") if pair % 2 == 0 else ("B", "A")
                for side in order:
                    runs[side].append(
                        one_run(trees[side], workload, args.seed,
                                args.seconds, out_dir)
                    )
            print(f"\n== {workload}: {args.ref_a} (A) vs {args.ref_b} (B), "
                  f"{args.pairs} interleaved pairs")
            print(f"{'metric':22s} {'A q1':>11s} {'A med':>11s} {'A q3':>11s} "
                  f"{'B q1':>11s} {'B med':>11s} {'B q3':>11s} {'B wins':>8s}  verdict")
            failed = {side: sum(r["failed"] for r in runs[side]) for side in runs}
            if failed["B"] > failed["A"]:
                print(f"more ops failed on B ({failed['B']}) than on A "
                      f"({failed['A']}): no gain counts")
            rows = {}
            for metric in bench["end_to_end"]:
                a = [r[metric["name"]] for r in runs["A"]]
                b = [r[metric["name"]] for r in runs["B"]]
                what, wins, decided = verdict(metric, a, b)
                if what == "gain" and failed["B"] > failed["A"]:
                    what = "void (B failed more ops)"
                qa, qb = quartiles(a), quartiles(b)
                print(f"{metric['name']:22s} "
                      + " ".join(f"{v:11.5g}" for v in qa + qb)
                      + f" {wins:>4d}/{decided:<3d}  {what}")
                rows[metric["name"]] = {"a": a, "b": b, "verdict": what,
                                        "b_wins": wins, "decided": decided}
            rows["failed_ops"] = failed
            report["workloads"][workload] = rows
        print("\n" + json.dumps({"report": report, "claim": None}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
