"""The ledger-owned layer tracer: spans, counts and profile buckets.

Everything here patches ``repro`` from the outside -- nothing under
``src/`` is edited, and an untraced rep never imports this module.  One
traced pass collects three things at once:

- **spans** around the public entry point of every layer (one per call,
  or one per resume for generator entry points, which only hold the
  processor while they run).  A span carries ``name, layer, start, end,
  parent`` and a byte count where the call has one.  Self time is the
  span's duration minus what its child spans cover.
- **counts** at the same boundaries: packets by protocol and type as
  they enter the network, timers armed and cancelled, boundary blobs,
  plus every live object whose public counters the ledger reads after
  the run (the instance registry).
- **profile buckets**: the same pass runs under ``cProfile``; each
  function's ``tottime`` goes to the ``repro.<package>`` that owns it.
  Builtins are not profiled as calls of their own, so their time is
  already inside the calling function's ``tottime``; standard-library
  Python functions and dataclass-generated methods are charged to their
  callers through the profiler's call edges.  Spans only see the calls
  they wrap; the buckets cover every profiled code object, and how far
  they are from summing to the traced wall is reported beside them
  (``trace.unattributed_share``).
"""

from __future__ import annotations

import cProfile
import inspect
import sys
import time
from collections import defaultdict
from importlib import import_module

#: (module, owner class or None, attribute, layer, byte-count extractor).
#: The extractor sees the call's positional arguments (``self`` included).
ENTRY_POINTS = (
    ("repro.sim.event_loop", "EventLoop", "run", "sim", None),
    ("repro.net.link", "Link", "send", "net", "packet"),
    ("repro.net.link", "Link", "send_burst", "net", "burst"),
    ("repro.net.switch", "Switch", "inject", "net", None),
    ("repro.net.switch", "Switch", "inject_burst", "net", None),
    ("repro.net.fabric", "FabricPort", "send", "net", "packet"),
    ("repro.net.fabric", "FabricPort", "send_burst", "net", "burst"),
    ("repro.nic.device", "Nic", "post", "nic", None),
    ("repro.nic.tso", None, "split_segment", "nic", "segment"),
    ("repro.nic.tso", None, "gso_split", "nic", "segment"),
    ("repro.nic.tls_offload", "FlowContextTable", "encrypt_segment", "nic", "arg1"),
    ("repro.host.cpu", "SoftirqCore", "submit", "host", None),
    ("repro.homa.engine", "HomaTransport", "send_message", "homa", None),
    ("repro.homa.socket", "HomaSocket", "call", "homa", "arg4"),
    ("repro.homa.socket", "HomaSocket", "reply", "homa", "arg3"),
    ("repro.homa.socket", "HomaSocket", "deliver", "homa", "arg2"),
    ("repro.tcp.connection", "TcpConnection", "send", "tcp", "arg2"),
    ("repro.tcp.connection", "TcpConnection", "handle_packet", "tcp", None),
    ("repro.core.codec", "SmtCodec", "encode", "core", "arg2"),
    ("repro.core.codec", "SmtCodec", "decode", "core", "arg2"),
    ("repro.tls.record", "RecordProtection", "seal", "tls", "arg1"),
    ("repro.tls.record", "RecordProtection", "seal_batch", "tls", "batch"),
    ("repro.tls.record", "RecordProtection", "open", "tls", None),
    ("repro.tls.record", "RecordProtection", "open_parsed", "tls", "arg2"),
    ("repro.crypto.aead", "FastAead", "seal", "crypto", "arg2"),
    ("repro.crypto.aead", "FastAead", "seal_many", "crypto", "items"),
    ("repro.crypto.aead", "FastAead", "open", "crypto", "arg2"),
    ("repro.crypto.ecdsa", None, "ecdsa_sign", "crypto", None),
    ("repro.crypto.ecdsa", None, "ecdsa_verify", "crypto", None),
    ("repro.crypto.ecdh", "EcdhKeyPair", "shared_secret", "crypto", None),
    ("repro.ktls.ktls", "KtlsConnection", "send", "ktls", "arg2"),
    ("repro.ktls.ktls", "KtlsConnection", "recv", "ktls", None),
    ("repro.load.cluster", "ClusterHarness", "call", "load", "arg4"),
    ("repro.tenancy.limiter", "TokenBucket", "reserve", "tenancy", "arg1"),
    ("repro.tenancy.bulkhead", "WeightedBulkhead", "acquire", "tenancy", None),
)

#: Classes whose live instances the ledger reads public counters from.
REGISTERED = (
    ("repro.homa.engine", "HomaTransport"),
    ("repro.tcp.connection", "TcpConnection"),
    ("repro.ktls.ktls", "KtlsConnection"),
    ("repro.core.codec", "SmtCodec"),
    ("repro.nic.device", "Nic"),
    ("repro.host.host", "Host"),
    ("repro.net.switch", "Switch"),
    ("repro.net.link", "Link"),
    ("repro.obs.observability", "Observability"),
)

KEEP_SPANS = 20_000


class LayerTracer:
    """Patch, record, unpatch.  ``install`` before set-up (so the instance
    registry sees every object built), ``start``/``stop`` around the timed
    section only."""

    def __init__(self) -> None:
        self.recording = False
        self.agg: dict = {}  # name -> [layer, calls, spans, total_s, self_s, bytes]
        self.spans: list = []  # first KEEP_SPANS closed spans
        self.counts: dict = defaultdict(int)
        self.instances: dict = defaultdict(list)
        self.profile = cProfile.Profile(builtins=False)
        self.wall_s = 0.0
        self._stack: list = []  # open spans: [id, child_seconds]
        self._next_id = 0
        self._undo: list = []

    # -- patching -------------------------------------------------------------------

    def install(self) -> None:
        for module, owner, attr, layer, kind in ENTRY_POINTS:
            mod = import_module(module)
            if owner is None:
                original = getattr(mod, attr)
                wrapper = self._wrap(original, f"{layer}.{attr}", layer, kind)
                # ``from m import f`` copies the binding: rebind it in
                # every repro module that holds the original.
                for other in list(sys.modules.values()):
                    name = getattr(other, "__name__", "")
                    if name.startswith("repro") and getattr(other, attr, None) is original:
                        self._set(other, attr, wrapper)
            else:
                cls = getattr(mod, owner)
                wrapper = self._wrap(
                    cls.__dict__[attr], f"{layer}.{owner}.{attr}", layer, kind
                )
                self._set(cls, attr, wrapper)
        for module, owner in REGISTERED:
            self._register(getattr(import_module(module), owner))
        from repro.net.headers import PROTO_TCP, PacketType

        self._proto_tcp = PROTO_TCP
        self._homa_kind = {int(t): "homa." + t.name.lower() for t in PacketType}
        self._count_timers()
        self._count_boundary()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _register(self, cls) -> None:
        init = cls.__dict__["__init__"]
        bucket = self.instances[cls.__name__]

        def registering_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            bucket.append(obj)

        self._set(cls, "__init__", registering_init)

    # -- byte counts, and the packet census at the network's edge -----------------------

    def _nbytes(self, kind, args) -> int:
        if kind is None:
            return 0
        if kind == "packet":  # send(self, side, packet)
            return self._note_packet(args[2])
        if kind == "burst":  # send_burst(self, side, packets)
            return sum(self._note_packet(p) for p in args[2])
        if kind == "segment":  # split_segment(segment, ...)
            return len(args[0].payload)
        if kind == "batch":  # seal_batch(self, [(payload, type, seqno), ...])
            self.counts["tls.batch_records"] += len(args[1])
            return sum(len(item[0]) for item in args[1])
        if kind == "items":  # seal_many(self, [(nonce, plaintext, aad), ...])
            return sum(len(item[1]) for item in args[1])
        index = int(kind[3:])  # "argN": a bytes-like or a byte count
        if index >= len(args):
            return 0  # passed by keyword: the span goes without bytes
        value = args[index]
        return value if isinstance(value, int) else len(value)

    def _note_packet(self, packet) -> int:
        """Classify one packet as it enters the network; returns wire bytes."""
        counts = self.counts
        counts["net.packets"] += 1
        counts["net.bytes"] += packet.wire_size
        if packet.ip.proto == self._proto_tcp:
            if len(packet.payload):
                counts["tcp.segments"] += 1
        else:
            counts[self._homa_kind[int(packet.transport.pkt_type)]] += 1
        return packet.wire_size

    # -- spans ------------------------------------------------------------------------

    def _enter(self):
        span_id = self._next_id
        self._next_id += 1
        stack = self._stack
        parent = stack[-1][0] if stack else None
        frame = [span_id, 0.0]
        stack.append(frame)
        return frame, parent, time.perf_counter()

    def _exit(self, frame, parent, start, entry, nbytes) -> None:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        duration = end - start
        if stack:
            stack[-1][1] += duration
        entry[2] += 1
        entry[3] += duration
        entry[4] += duration - frame[1]
        entry[5] += nbytes
        if len(self.spans) < KEEP_SPANS:
            self.spans.append((frame[0], parent, entry[6], entry[0], start, end, nbytes))

    def _entry(self, name: str, layer: str) -> list:
        return self.agg.setdefault(name, [layer, 0, 0, 0.0, 0.0, 0, name])

    def _wrap(self, fn, name: str, layer: str, kind):
        tracer = self
        entry = self._entry(name, layer)

        if inspect.isgeneratorfunction(fn):

            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                if not tracer.recording:
                    return (yield from gen)
                entry[1] += 1
                nbytes = tracer._nbytes(kind, args)
                resume, arg = gen.send, None
                while True:
                    frame, parent, start = tracer._enter()
                    try:
                        yielded = resume(arg)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        tracer._exit(frame, parent, start, entry, nbytes)
                        nbytes = 0  # bytes ride the first resume only
                    try:
                        arg = yield yielded
                        resume = gen.send
                    except GeneratorExit:
                        gen.close()
                        raise
                    except BaseException as exc:
                        # A throw() (failed event, interrupt) goes into the
                        # wrapped generator, as ``yield from`` would do.
                        arg, resume = exc, gen.throw

            return gen_wrapper

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            entry[1] += 1
            frame, parent, start = tracer._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame, parent, start, entry, tracer._nbytes(kind, args))

        return wrapper

    # -- counts at the layer boundaries -----------------------------------------------

    def _count_timers(self) -> None:
        from repro.sim.event_loop import EventLoop, Timer

        counts = self.counts
        cancel = Timer.__dict__["cancel"]

        def counted_cancel(timer):
            live = cancel(timer)
            if live and self.recording:
                counts["sim.timers_cancelled"] += 1
            return live

        self._set(Timer, "cancel", counted_cancel)
        for attr in ("timer_at", "timer_later"):
            arm = EventLoop.__dict__[attr]

            def counted_arm(loop, *args, arm=arm):
                if self.recording:
                    counts["sim.timers_armed"] += 1
                return arm(loop, *args)

            self._set(EventLoop, attr, counted_arm)

    def _count_boundary(self) -> None:
        from repro.sim.shard.boundary import OutboundQueue

        counts = self.counts
        drain = OutboundQueue.__dict__["drain"]

        def counted_drain(queue):
            out = drain(queue)
            if self.recording:
                for blob, _arrival in out.values():
                    counts["sim.shard.boundary_blobs"] += 1
                    counts["sim.shard.boundary_bytes"] += len(blob)
            return out

        self._set(OutboundQueue, "drain", counted_drain)

    # -- the timed section ------------------------------------------------------------

    def start(self) -> None:
        self.recording = True
        self._t0 = time.perf_counter()
        self.profile.enable()

    def stop(self) -> None:
        self.profile.disable()
        self.wall_s = time.perf_counter() - self._t0
        self.recording = False
        # Raw entries, one per code object: pstats keys functions by
        # (file, line, name), which folds every dataclass-generated
        # ``__init__`` ("<string>", 2) into one row and loses the rest.
        self._entries = self.profile.getstats()

    # -- results ----------------------------------------------------------------------

    def span_table(self) -> list[dict]:
        return [
            {"name": name, "layer": e[0], "calls": e[1], "spans": e[2],
             "total_s": e[3], "self_s": e[4], "bytes": e[5]}
            for name, e in sorted(self.agg.items()) if e[2]
        ]

    def span_rows(self):
        for span_id, parent, name, layer, start, end, nbytes in self.spans:
            row = {"id": span_id, "parent": parent, "name": name, "layer": layer,
                   "start": start - self._t0, "end": end - self._t0}
            if nbytes:
                row["bytes"] = nbytes
            yield row

    def ncalls(self, path_suffix: str, func: str) -> int:
        """Call count of one profiled function."""
        return sum(
            entry.callcount for entry in self._entries
            if not isinstance(entry.code, str) and entry.code.co_name == func
            and entry.code.co_filename.endswith(path_suffix)
        )

    def buckets(self, ledger_dir: str) -> tuple[dict, float]:
        """(seconds by owning package, share of the wall in no bucket).

        The seconds are ``cProfile``'s inline times, untouched, so the
        second value says how far the buckets are from summing to the
        traced wall; ``run.py`` fails the run if it is beyond 2 %.
        """
        seconds = bucket_profile(self._entries, ledger_dir)
        return seconds, 1.0 - sum(seconds.values()) / self.wall_s


def _owner(filename: str, ledger_dir: str):
    """The bucket that owns a source file, or None for nobody's code."""
    if filename.startswith(ledger_dir):
        return "ledger"
    marker = "/repro/"
    at = filename.rfind(marker)
    if at >= 0:
        rest = filename[at + len(marker):]
        return rest.split("/", 1)[0] if "/" in rest else "testbed"
    return None


def bucket_profile(entries: list, ledger_dir: str) -> dict:
    """Bucket every code object's inline time by owner.

    Unowned functions (the standard library, dataclass-generated methods)
    are split across their callers in proportion to the inline time each
    call edge accounts for, recursively, so ``random.expovariate`` under
    the load engine lands in ``load`` and a ``Packet.__init__`` under the
    NIC in ``nic``.  What no owned caller reaches is ``other``.
    """
    filename = {}
    callers: dict = defaultdict(dict)  # id(callee) -> {id(caller): weight}
    for entry in entries:
        code = entry.code
        filename[id(code)] = "" if isinstance(code, str) else code.co_filename
        for sub in entry.calls or ():
            callers[id(sub.code)][id(code)] = (
                sub.inlinetime if sub.inlinetime > 0
                else sub.totaltime * 1e-9 + 1e-12
            )
    shares: dict = {}

    def share(key, depth=0) -> dict:
        known = shares.get(key)
        if known is not None:
            return known
        owner = _owner(filename.get(key, ""), ledger_dir)
        if owner is not None:
            shares[key] = {owner: 1.0}
            return shares[key]
        weights = callers.get(key)
        if depth >= 12 or not weights:
            return {"other": 1.0}
        shares[key] = {"other": 1.0}  # cycle guard while we recurse
        total = sum(weights.values())
        mix: dict = defaultdict(float)
        for caller, weight in weights.items():
            for bucket, fraction in share(caller, depth + 1).items():
                mix[bucket] += fraction * weight / total
        shares[key] = dict(mix)
        return shares[key]

    seconds: dict = defaultdict(float)
    for entry in entries:
        for bucket, fraction in share(id(entry.code)).items():
            seconds[bucket] += entry.inlinetime * fraction
    return dict(seconds)
