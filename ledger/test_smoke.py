"""Smoke test of the ledger itself: ``pytest ledger/`` (about 90 s).

Outside tier-1's ``testpaths`` on purpose.  Two ``--quick --trace`` runs
of all six workloads back the four assertions the benchmark rests on:
declared and emitted metric names agree, names are well formed, the
per-layer self times sum to the traced wall, and everything on the
virtual clock (and every count) repeats exactly.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import UNATTRIBUTED_LIMIT  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
#: Per-layer metrics measured on the host clock: free to differ run to run.
HOST_SUFFIXES = ("host_self_s", "host_share", "_per_s", "ns_per_event",
                 "ns_per_packet", "ns_per_byte", "ns_per_byte.shallow",
                 "ns_per_byte.deep", "_ms_per_op", "handshake_host_ms",
                 "overhead_ratio", "unattributed_share", "calibrate_s", "calib_s", "mp_wall_s",
                 "mp_cpu_s", "inproc_over_1domain", "mp_over_inproc")


def quick_run(tag: str) -> dict:
    out = os.path.join(HERE, "out", f"smoke-{tag}")
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick", "--trace",
         "--out", out],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert json.loads(done.stdout.strip().splitlines()[-1])["claim"] is None
    with open(os.path.join(out, "results.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def runs():
    return quick_run("a"), quick_run("b")


@pytest.fixture(scope="module")
def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_declared_and_emitted_metrics_agree(runs, bench):
    first = runs[0]
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    per_layer = {m["name"] for m in bench["per_layer"]}
    emitted_layer = set()
    for result in first["workloads"]:
        # Every end-to-end metric is defined on every workload.
        assert set(result["end_to_end"]) == end_to_end, result["workload"]
        emitted_layer |= set(result["per_layer"])
    assert emitted_layer == per_layer, (
        f"undeclared: {sorted(emitted_layer - per_layer)}; "
        f"never emitted: {sorted(per_layer - emitted_layer)}"
    )
    assert {w["name"] for w in bench["workloads"]} == {
        r["workload"] for r in first["workloads"]
    }


def test_metric_names_are_well_formed(bench):
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name


def test_layer_self_times_sum_to_the_traced_wall(runs):
    for result in runs[0]["workloads"]:
        layer = result["per_layer"]
        total = sum(v for k, v in layer.items() if k.endswith(".host_self_s"))
        wall = result["traced_wall_s"]
        assert abs(total - wall) <= UNATTRIBUTED_LIMIT * wall, (
            result["workload"], total, wall
        )


def test_virtual_clock_and_counts_repeat_exactly(runs):
    a, b = runs
    for ra, rb in zip(a["workloads"], b["workloads"]):
        name = ra["workload"]
        virt_a = {k: v for k, v in ra["end_to_end"].items() if k.startswith("virt_")}
        virt_b = {k: v for k, v in rb["end_to_end"].items() if k.startswith("virt_")}
        assert virt_a == virt_b, name
        for key in ("events", "attempted", "failed", "samples", "load", "cells"):
            assert ra[key] == rb[key], (name, key)
        assert ra["failed"] == 0
        for key, value in ra["per_layer"].items():
            if key.endswith(HOST_SUFFIXES) or key.startswith("env."):
                continue
            assert rb["per_layer"][key] == value, (name, key)
