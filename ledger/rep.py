"""One repetition of one workload, in a process of its own.

``run.py`` starts this file once per repetition with ``PYTHONHASHSEED=0``
so every rep begins with empty process-wide caches (``shared_aead``, the
FastAead memos) and reports its own ``ru_maxrss``.  The sequence is:
calibration loop, imports, set-up, discarded warm-up, **timed section**,
report, calibration loop again.  One JSON object goes to stdout.

Modes:

``plain``    the end-to-end measurement: no observability, no tracer;
``traced``   same seed and inputs with ``enable_obs()`` on, the
             ``LayerTracer`` installed and ``cProfile`` running;
``obs``      ``enable_obs()`` on and nothing else (its cost alone);
``shard1``   ``fabric_sharded`` on one time domain, in process;
``shardmp``  ``fabric_sharded`` on the multiprocessing carrier.
"""

import time

T_START = time.perf_counter()  # before the heavy imports: they are set-up

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

MODES = ("plain", "traced", "obs", "shard1", "shardmp")


def calib_loop() -> float:
    """A fixed pure-Python loop; its time tells how busy the box is."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - t0


def loadavg() -> str:
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def cpu_seconds() -> float:
    """User + system CPU of this process and every child it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


# -- public counters of live objects (traced pass only) ---------------------------------


def read_counters(instances: dict) -> dict:
    """Sum the public counters of every registered object."""
    out = {
        "homa.messages_tx": sum(t.messages_sent for t in instances["HomaTransport"]),
        "homa.packets_retx": sum(
            t.packets_retransmitted for t in instances["HomaTransport"]
        ),
        "homa.resend_requests": sum(
            t.resend_requests for t in instances["HomaTransport"]
        ),
        "tcp.retransmits": sum(c.retransmits for c in instances["TcpConnection"]),
        "tcp.rto_fires": sum(c.timeouts for c in instances["TcpConnection"]),
        "ktls.records": sum(
            c.records_sealed + c.records_opened for c in instances["KtlsConnection"]
        ),
        "core.records_sealed": sum(c.records_sealed for c in instances["SmtCodec"]),
        "core.records_opened": sum(c.records_opened for c in instances["SmtCodec"]),
        "core.auth_failures": sum(c.auth_failures for c in instances["SmtCodec"]),
        "nic.segments_posted": sum(n.segments_sent for n in instances["Nic"]),
        "nic.tso_packets": sum(n.packets_sent for n in instances["Nic"]),
        "nic.offload_records": sum(n.records_offloaded for n in instances["Nic"]),
        "net.dropped": sum(
            link.stats(side)["dropped"]
            for link in instances["Link"] for side in ("a", "b")
        ),
        "net.queued": 0,
        "net.trimmed": 0,
        "obs.spans": sum(len(o.tracer) for o in instances["Observability"]),
        "homa.sender_timeouts": sum(
            1
            for o in instances["Observability"]
            for span in o.tracer.spans()
            if span.layer == "homa.tx" and span.attrs.get("outcome") == "timeout"
        ),
    }
    for switch in instances["Switch"]:
        totals = switch.totals()
        out["net.dropped"] += totals["dropped"]
        out["net.queued"] += totals["queued"]
        out["net.trimmed"] += totals["trimmed"]
    app = softirq = items = app_cap = softirq_cap = 0.0
    for host in instances["Host"]:
        busy = host.cpu_busy_time()
        app += busy["app"]
        softirq += busy["softirq"]
        items += sum(core.items_processed for core in host.softirq_cores)
        now = host.loop.now
        app_cap += len(host.app_cores) * now
        softirq_cap += len(host.softirq_cores) * now
    out.update({
        "host.app_busy_s": app, "host.softirq_busy_s": softirq,
        "host.softirq_items": items,
        "host.app_capacity_s": app_cap, "host.softirq_capacity_s": softirq_cap,
    })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", required=True, help="repo whose src/ to measure")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--mode", choices=MODES, default="plain")
    parser.add_argument("--trace-out", help="write spans here (traced mode)")
    args = parser.parse_args(argv)

    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.abspath(args.root), "src"))
    calib_before = calib_loop()
    load_before = loadavg()

    import workloads

    tracer = None
    if args.mode == "traced":
        from tracer import LayerTracer

        tracer = LayerTracer()
        tracer.install()

    workload = workloads.WORKLOADS[args.workload]()
    if args.mode == "shard1":
        workload.domains = 1
    elif args.mode == "shardmp":
        workload.use_processes = True
    workload.setup(args.seed, args.scale, observe=args.mode in ("traced", "obs"))
    workload.warmup()

    cell_marks = {}
    cell_ends = []

    def mark_cell(label: str) -> None:
        cell_ends.append((label, time.perf_counter()))
        if tracer is not None:
            entry = tracer.agg.get("crypto.FastAead.open")
            cell_marks[label] = (entry[3], entry[5]) if entry else (0.0, 0)

    workload.cell_done = mark_cell
    if tracer is not None:
        counters0 = read_counters(tracer.instances)
        tracer.start()
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    workload.timed()
    wall_s = time.perf_counter() - t0
    cpu_s = cpu_seconds() - cpu0
    if tracer is not None:
        tracer.stop()
        counters1 = read_counters(tracer.instances)

    report = workload.report()
    out = {
        "workload": args.workload,
        "mode": args.mode,
        "seed": args.seed,
        "scale": args.scale,
        # Imports, PKI, build, pre-establishment, calibrate and warm-up:
        # everything before the timed section except the calibration loop.
        "setup_s": t0 - T_START - calib_before,
        "wall_s": wall_s,
        # Host seconds of each cell of the timed section, in run order.
        "cells_s": [
            [label, end - (cell_ends[i - 1][1] if i else t0)]
            for i, (label, end) in enumerate(cell_ends)
        ],
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "events": workload.events,
        "calibrate_s": workload.calibrate_s,
        "attempted": workload.book.attempted,
        "failed": workload.book.failed,
        "notes": workload.book.notes[:20],
        "report": report,
        "loadavg_before": load_before,
    }
    if tracer is not None:
        deltas = {k: counters1[k] - counters0[k] for k in counters1}
        buckets, unattributed = tracer.buckets(here)
        out["trace"] = {
            "wall_s": tracer.wall_s,
            "buckets": buckets,
            "unattributed_share": unattributed,
            "spans": tracer.span_table(),
            "counts": dict(tracer.counts),
            "counters": deltas,
            "cell_aead_open": cell_marks,
            "offload_resyncs": tracer.ncalls(
                "repro/nic/tls_offload.py", "apply_resync"
            ),
        }
        if args.trace_out:
            os.makedirs(os.path.dirname(args.trace_out), exist_ok=True)
            with open(args.trace_out, "w") as fh:
                head = {"workload": args.workload, "seed": args.seed,
                        "traced_wall_s": tracer.wall_s,
                        "buckets": out["trace"]["buckets"]}
                fh.write(json.dumps(head) + "\n")
                for row in out["trace"]["spans"]:
                    fh.write(json.dumps({"aggregate": row}) + "\n")
                for i, (start, end) in enumerate(workload.op_times()):
                    fh.write(json.dumps({
                        "name": "ledger.op", "layer": "ledger", "op": i,
                        "virt_start": start, "virt_end": end, "parent": None,
                    }) + "\n")
                for row in tracer.span_rows():
                    fh.write(json.dumps(row) + "\n")
        tracer.uninstall()

    out["calib_before_s"] = calib_before
    out["calib_after_s"] = calib_loop()
    out["loadavg_after"] = loadavg()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
