"""Every capability has a caller: no function, class or method that only
its own tests reach.

An ``ast`` walk over ``src/repro`` lists every module-level function and
class and every method of every class (nested classes included).  A
second walk over the code that drives the package -- ``src/``,
``ledger/``, ``examples/``, ``benchmarks/`` and ``scripts/``, but not
``tests/`` -- collects every name it *references*:

- a name read or written (``flow_hash(...)``, ``x = Packet``);
- an attribute (``loop.call_soon``);
- an identifier inside a string constant, so ``"pkg.mod:fn"`` factory
  paths and ``ledger/tracer.py``'s ``ENTRY_POINTS`` tuples count;
- the original of an ``import ... as`` rename.

Not references: a definition's own name, anything inside the definition
itself (recursion), docstrings, and ``__all__`` lists (exports).  Dunders
are exempt: the language calls them.  A ``@property`` is not: the
language calls it only where some code reads the attribute, and that
read names it like any method call.

A name that nothing references is code only its own tests run.  Delete
it, give it a caller, or -- if it is deliberately test-only surface, an
interface base, or kept for a stated reason -- add it to :data:`KEPT`
with that reason.  ``KEPT`` is the written list of the test-only surface.
The match is by bare name, so a method shares its fate with every
same-named method: the gate finds capabilities nobody names, not every
unreached override.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path
from typing import Iterable, Iterator

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
CALLERS = ("src", "ledger", "examples", "benchmarks", "scripts")

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: ``module:Name`` -> why it stays although nothing outside tests names it.
KEPT: dict[str, str] = {
    # Reference models that tests compare the fast paths against.
    "repro.crypto.gcm:gf128_mul": "bitwise GF(2^128) multiply; GHASH's tables "
    "are tested against it",
    "repro.load.distributions:FixedSize": "the one-size distribution the load "
    "tests use as the trivial case",
    "repro.crypto.ec:_P256.negate": "group negation; the EC and ECDSA tests "
    "check P + (-P) = O and sign/verify edge cases with it",
    # Paper mechanisms that only tests drive.
    "repro.ctrl.rekey:RekeyManager.upgrade_to_fs": "§4.5.2 forward-secrecy "
    "upgrade of a ticket session; no workload runs a session that long",
    "repro.crypto.ca:CertificateAuthority.new_intermediate": "Table 2 prices "
    "C3.2 by chain length; the chain tests build the longer chain",
    "repro.ctrl.partition:PartitionedSessionTable.partition_capacity": "a "
    "tenant's compartment size; the partition property tests read it",
    "repro.ctrl.partition:PartitionedKeyPool.partition_capacity": "a tenant's "
    "key-pool slice; the partition property tests read it",
    # Fuzz support.
    "repro.net.faults:schedule_from_seed": "seeded link-fault schedules for the "
    "fuzz suites",
    "repro.net.domain_faults:domain_schedule_from_seed": "seeded incident "
    "schedules for the domain-fault fuzz suite",
    # Debug exports and accessors that tests read.
    "repro.obs.capture:PacketCapture.export_jsonl": "capture export; the "
    "golden-trace and determinism tests diff it",
    "repro.obs.capture:PacketCapture.export_text": "capture export; the "
    "determinism tests diff it",
    "repro.obs.capture:PacketCapture.tail_text": "the last packets, printed by "
    "the fuzz harness on a failing seed",
    "repro.obs.spans:SpanTracer.export": "span export the span, golden and "
    "determinism tests read",
    "repro.obs.metrics:MetricsRegistry.rate_meter": "the registry's rate-meter "
    "kind, beside counter/histogram/gauge; the metrics tests use it",
    "repro.lb.registry:ServiceRegistry.render_log": "membership log the "
    "front-end golden and fuzz tests diff",
    "repro.net.domain_faults:DomainFaultController.render_log": "incident log "
    "the incident golden and fuzz tests diff",
    "repro.lb.registry:ServiceRegistry.is_healthy": "health accessor the "
    "registry tests read",
    "repro.net.clos:ClosFabric.routing_spines": "the spines ECMP hashes over; "
    "the reconvergence tests read it",
    "repro.net.clos:ClosFabric.spine_for": "the spine a flow hashes to; the "
    "ECMP tests read it",
    "repro.nic.tls_offload:FlowContextTable.context_stats": "one flow "
    "context's counters; the offload and kTLS tests read them",
    "repro.host.cpu:SoftirqCore.utilization": "busy fraction accessor the CPU "
    "tests read",
    "repro.host.host:Host.utilization": "per-host busy fractions the host "
    "tests read",
    "repro.sim.resources:Resource.utilization": "busy fraction accessor the "
    "resource tests read",
    "repro.sim.resources:Store.peek_all": "queued-item snapshot the store "
    "tests read",
    "repro.sim.trace:Histogram.stddev": "histogram accessor the trace tests read",
    "repro.sim.event_loop:EventLoop.pending_events": "queue-depth accessor the "
    "scheduler and tombstone tests read",
    "repro.sim.event_loop:Event.add_callback": "the public way to watch an "
    "event; the kernel tests observe events through it",
    "repro.homa.socket:HomaSocket.pending_requests": "requests a server has "
    "not answered yet; the SMT integration tests check it drains to zero",
    "repro.sim.resources:Resource.in_use": "holder count the resource tests "
    "read",
    "repro.sim.resources:Resource.queue_length": "waiter count the resource "
    "tests read",
    "repro.tenancy.limiter:TokenBucket.tokens": "the refilled balance; the "
    "limiter tests check refill and debit with it",
    "repro.testbed:Testbed.faults_c2s": "the client-to-server injector; the "
    "fuzz harness and fault-schedule tests read its config and counters",
    "repro.testbed:Testbed.faults_s2c": "the server-to-client injector; the "
    "fault-schedule tests read its counters",
    "repro.net.domain_faults:HeartbeatMonitor.detection_bound": "worst-case "
    "death-to-down latency; the heartbeat property tests bound detection by it",
}


_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _is_docstring(node: ast.AST, parent: ast.AST) -> bool:
    return (
        isinstance(parent, _SCOPES)
        and parent.body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _is_all(node: ast.AST) -> bool:
    targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
    return isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in targets
    )


def references(tree: ast.AST) -> Counter:
    """Every identifier ``tree`` references, with multiplicity."""
    found: Counter = Counter()
    stack = [tree]
    while stack:
        node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if _is_docstring(child, node) or _is_all(child):
                continue
            stack.append(child)
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias) and node.asname is not None:
            found[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.update(_IDENT.findall(node.value))
    return found


def _definitions(body: list, prefix: str) -> Iterator[tuple[str, ast.AST]]:
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
        elif isinstance(node, ast.ClassDef):
            yield prefix + node.name, node
            yield from _definitions(node.body, f"{prefix}{node.name}.")


def definitions(root: Path) -> Iterator[tuple[str, str, ast.AST]]:
    """``(module, qualname, node)`` for every function, class and method."""
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        tree = ast.parse(path.read_text(), str(path))
        for qualname, node in _definitions(tree.body, ""):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            yield module, qualname, node


def all_references(roots: Iterable[Path]) -> Counter:
    found: Counter = Counter()
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            found.update(references(ast.parse(path.read_text(), str(path))))
    return found


def uncalled(src: Path, roots: Iterable[Path]) -> list[str]:
    """``module:Name`` for every definition nothing outside itself names."""
    refs = all_references(roots)
    out = []
    for module, qualname, node in definitions(src):
        if refs[node.name] - references(node)[node.name] <= 0:
            out.append(f"{module}:{qualname}")
    return out


def test_every_capability_has_a_caller():
    defs = list(definitions(SRC))
    assert len(defs) > 500, "the walk found too few definitions"
    found = uncalled(SRC, [REPO / d for d in CALLERS])
    problems = [name for name in found if name not in KEPT]
    assert not problems, (
        "nothing in src/, ledger/, examples/, benchmarks/ or scripts/ calls "
        "these; delete them or add them to KEPT with a reason:\n"
        + "\n".join(problems)
    )


def test_kept_names_exist_and_have_reasons():
    found = set(uncalled(SRC, [REPO / d for d in CALLERS]))
    stale = [name for name in KEPT if name not in found]
    assert not stale, "KEPT names that have a caller or are gone:\n" + "\n".join(
        stale
    )
    assert all(reason.strip() for reason in KEPT.values())


def test_the_gate_bites(tmp_path):
    """One definition of each kind: called, exported only, recursive,
    renamed on import, named in a string, named only in a docstring, a
    property read and one never read, a dunder, a class local to a
    function."""
    pkg = tmp_path / "repro"
    pkg.mkdir()
    (pkg / "__init__.py").write_text(
        "from repro.mod import Exported, only_exported\n"
        '__all__ = ["Exported", "only_exported"]\n'
    )
    (pkg / "mod.py").write_text(
        '"""Module docstring naming in_docstring."""\n'
        "class Exported:\n"
        "    def __repr__(self):\n"
        "        return ''\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 1\n"
        "    @property\n"
        "    def unread(self):\n"
        "        return self.size\n"
        "    def used(self):\n"
        "        return self.recursive(3)\n"
        "    def recursive(self, n):\n"
        "        return self.recursive(n - 1) if n else 0\n"
        "    def lonely(self):\n"
        "        return self.lonely()\n"
        "def only_exported():\n"
        "    return helper()\n"
        "def helper():\n"
        "    return 1\n"
        "def in_docstring():\n"
        "    return 2\n"
        "def by_string():\n"
        "    return 3\n"
        "def renamed():\n"
        "    return 4\n"
        "def called_by_driver():\n"
        "    class Local:\n"  # inside a function: local, not walked
        "        pass\n"
        "    return Local\n"
        "FACTORY = 'repro.mod:by_string'\n"
    )
    driver = tmp_path / "driver"
    driver.mkdir()
    (driver / "run.py").write_text(
        "from repro.mod import Exported, called_by_driver\n"
        "from repro.mod import renamed as other_name\n"
        "Exported().used(), other_name(), Exported().size\n"
        "called_by_driver()\n"
    )
    assert [q for _m, q, _n in definitions(pkg)] == [
        "Exported",
        "Exported.size",
        "Exported.unread",
        "Exported.used",
        "Exported.recursive",
        "Exported.lonely",
        "only_exported",
        "helper",
        "in_docstring",
        "by_string",
        "renamed",
        "called_by_driver",
    ]
    assert uncalled(pkg, [pkg, driver]) == [
        "repro.mod:Exported.unread",
        "repro.mod:Exported.lonely",
        "repro.mod:only_exported",
        "repro.mod:in_docstring",
    ]
    # Without the driver, nothing outside the package names its entry points.
    assert "repro.mod:called_by_driver" in uncalled(pkg, [pkg])
