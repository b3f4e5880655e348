"""The package layering of DESIGN.md §3, enforced.

An ``ast`` walk over ``src/repro`` collects every cross-package import --
module level, function level and under ``TYPE_CHECKING`` alike -- and
checks it against the rank table in DESIGN.md (the table is the only
place ranks are written down; this file parses it):

- every import goes from a package to one of strictly lower rank, so the
  package graph has no cycle;
- every package has a rank;
- an import inside a function is either of the same package or listed in
  :data:`DEFERRED` with the reason it stays deferred;
- the table's "imports" column is what the code imports, no more, no less;
- no module imports a ``_``-prefixed name from another module, in or
  across packages: what a module shares, it names publicly.

``repro.sim.shard`` is a node of its own: it builds hosts, NICs and fabric
slices, so it sits above ``nic`` while the kernel it is named after sits
near the bottom -- and the kernel must never import it (the subprocess
tests below).
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path
from typing import Iterator, NamedTuple

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: Cross-package imports that stay inside a function, keyed by
#: (importing module, imported module).  All three are optional layers,
#: off unless a bed enables them: hoisting any would add its package to
#: the import closure of every run (``test_import_closures`` holds that).
DEFERRED = {
    ("repro.testbed", "repro.obs"): "observability: loaded by enable_obs() only",
    ("repro.testbed", "repro.ctrl"): "control plane: loaded by enable_ctrl() only",
    ("repro.sim.shard.domain", "repro.obs"): (
        "observability: loaded when ShardPlan.observe is set"
    ),
}

#: Upward edges tolerated under ``TYPE_CHECKING`` only, keyed by
#: (importing module, imported package).
ANNOTATION_ONLY = {
    ("repro.load.tenant", "tenancy"): (
        "TenantLoadEngine drives a TenantFabric it is handed; the ledger "
        "imports it from repro.load, so the module cannot move up a layer"
    ),
}


class Import(NamedTuple):
    module: str  # importing module, dotted
    lineno: int
    target: str  # imported module, dotted
    kind: str  # "module" | "function" | "type_checking"
    names: tuple[str, ...] = ()  # what ``from target import ...`` takes

    @property
    def site(self) -> str:
        return f"{self.module}:{self.lineno}"


def node_of(module: str) -> str | None:
    """The layering node a ``repro`` module belongs to (None: not ours)."""
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) == 1 or parts[1].startswith("_"):
        return None  # third party, the root facade, _version
    if parts[1:3] == ["sim", "shard"]:
        return "sim.shard"
    return parts[1]


def _is_module(root: Path, dotted: str) -> bool:
    path = root.joinpath(*dotted.split("."))
    return path.with_suffix(".py").exists() or (path / "__init__.py").exists()


def _is_type_checking(test: ast.expr) -> bool:
    name = test.id if isinstance(test, ast.Name) else getattr(test, "attr", None)
    return name == "TYPE_CHECKING"


def imports_of(root: Path, path: Path) -> Iterator[Import]:
    """Every ``import`` statement in one file, resolved to dotted names."""
    parts = list(path.relative_to(root).with_suffix("").parts)
    package = parts[:-1]
    if parts[-1] == "__init__":
        parts = package
    module = ".".join(parts)

    def targets(stmt: ast.stmt) -> dict[str, tuple[str, ...]]:
        """Each module one statement imports, with the names taken from it."""
        found: dict[str, tuple[str, ...]] = {}
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                found.setdefault(alias.name, ())
            return found
        base = package[: len(package) - stmt.level + 1] if stmt.level else []
        if stmt.module:
            base = base + stmt.module.split(".")
        for alias in stmt.names:
            # ``from pkg import name``: name may itself be a submodule.
            sub = ".".join(base + [alias.name])
            if _is_module(root, sub):
                found.setdefault(sub, ())
            else:
                parent = ".".join(base)
                found[parent] = found.get(parent, ()) + (alias.name,)
        return found

    def walk(node: ast.AST, kind: str) -> Iterator[Import]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                for target, names in targets(child).items():  # once per statement
                    yield Import(module, child.lineno, target, kind, names)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, "function" if kind == "module" else kind)
            elif isinstance(child, ast.If) and _is_type_checking(child.test):
                yield from walk(ast.Module(child.body, []), "type_checking")
                yield from walk(ast.Module(child.orelse, []), kind)
            else:
                yield from walk(child, kind)

    yield from walk(ast.parse(path.read_text()), "module")


def all_imports(root: Path) -> list[Import]:
    """Every import statement under ``root/repro``."""
    return [
        imp
        for path in sorted((root / "repro").rglob("*.py"))
        for imp in imports_of(root, path)
    ]


def cross_package_imports(root: Path) -> list[Import]:
    """All imports under ``root/repro`` that cross a layering node."""
    found = []
    for imp in all_imports(root):
        src, dst = node_of(imp.module), node_of(imp.target)
        if src is not None and dst is not None and src != dst:
            found.append(imp)
    return found


def private_imports(imports: list[Import]) -> list[str]:
    """Each ``_``-prefixed name one ``repro`` module takes from another."""
    return [
        f"private: {imp.site} imports {name} from {imp.target}"
        for imp in imports
        if imp.target != imp.module and imp.target.startswith("repro.")
        for name in imp.names
        if name.startswith("_") and not name.startswith("__")
    ]


def nodes_under(root: Path) -> set[str]:
    """Every layering node that exists as source under ``root/repro``."""
    nodes = set()
    for path in (root / "repro").rglob("*.py"):
        parts = path.relative_to(root).with_suffix("").parts
        node = node_of(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
        if node is not None:
            nodes.add(node)
    return nodes


_ROW = re.compile(r"^\|\s*(\d+)\s*\|\s*`repro\.([\w.]+)`\s*\|[^|]*\|([^|]*)\|\s*$")


def design_table() -> dict[str, tuple[int, set[str]]]:
    """DESIGN.md §3: ``{package: (rank, {imported packages})}``."""
    text = (REPO / "DESIGN.md").read_text()
    section = text.split("## 3. ", 1)[1].split("\n## ", 1)[0]
    table = {}
    for line in section.splitlines():
        row = _ROW.match(line)
        if row:
            rank, package, imports = row.groups()
            table[package] = (int(rank), set(re.findall(r"`repro\.([\w.]+)`", imports)))
    return table


def violations(
    imports: list[Import],
    nodes: set[str],
    ranks: dict[str, int],
    deferred=DEFERRED,
    annotation_only=ANNOTATION_ONLY,
) -> list[str]:
    """What breaks the layering, one line per offence."""
    problems = [
        f"unranked: repro.{node} has no row in DESIGN.md §3"
        for node in sorted(nodes - set(ranks))
    ]
    edges = {(node_of(i.module), node_of(i.target)): i for i in imports}
    for imp in imports:
        src, dst = node_of(imp.module), node_of(imp.target)
        if src not in ranks or dst not in ranks:
            continue  # reported above
        exempt = imp.kind == "type_checking" and (imp.module, dst) in annotation_only
        if ranks[dst] >= ranks[src] and not exempt:
            line = (
                f"upward: {imp.site} imports {imp.target} -- repro.{src} "
                f"(rank {ranks[src]}) may not import repro.{dst} (rank {ranks[dst]})"
            )
            back = edges.get((dst, src))
            if back is not None:
                line += f"; with {back.site} importing {back.target} this is a cycle"
            problems.append(line)
        if imp.kind == "function" and (imp.module, imp.target) not in deferred:
            problems.append(
                f"deferred: {imp.site} imports {imp.target} inside a function; "
                "hoist it, or list it in DEFERRED with the reason"
            )
    return problems


# -- the gate --------------------------------------------------------------------


@pytest.fixture(scope="module")
def imports() -> list[Import]:
    return cross_package_imports(SRC)


def test_layering_holds(imports):
    ranks = {package: rank for package, (rank, _) in design_table().items()}
    problems = violations(imports, nodes_under(SRC), ranks)
    assert not problems, "\n" + "\n".join(problems)


def test_design_table_lists_what_the_code_imports(imports):
    actual: dict[str, set[str]] = {node: set() for node in nodes_under(SRC)}
    for imp in imports:
        actual[node_of(imp.module)].add(node_of(imp.target))
    documented = {package: deps for package, (_, deps) in design_table().items()}
    assert documented == actual


def test_no_private_name_crosses_modules():
    problems = private_imports(all_imports(SRC))
    assert not problems, "\n" + "\n".join(problems)


def test_the_standard_library_is_the_only_dependency():
    # The package declares no dependency: every import is ours or the
    # standard library's, so a third-party import fails here by name.
    outside = [
        f"{imp.site} imports {imp.target}"
        for imp in all_imports(SRC)
        if imp.target.split(".")[0] not in sys.stdlib_module_names | {"repro"}
    ]
    assert not outside, "\n" + "\n".join(outside)


def test_exemption_lists_hold_nothing_stale(imports):
    deferred = {(i.module, i.target) for i in imports if i.kind == "function"}
    assert deferred == set(DEFERRED)
    annotated = {
        (i.module, node_of(i.target)) for i in imports if i.kind == "type_checking"
    }
    assert set(ANNOTATION_ONLY) <= annotated


def test_the_gate_bites(tmp_path):
    """A synthetic tree with one offence of each kind yields four lines."""
    files = {
        "low/__init__.py": "from repro.high import thing\n",  # upward
        "high/__init__.py": "thing = 1\n_hidden = 2\n",
        "high/lazy.py": "def f():\n    from repro.low import x\n",  # undeclared
        # private, within a package; a dunder and a module's own names pass
        "high/leak.py": "from . import _hidden, __doc__, lazy\n_own = 1\n",
        "stray/__init__.py": "",  # unranked
        "sim/shard/__init__.py": "from .. import kernel\nfrom ...low import x\n",
        "sim/kernel.py": "",
    }
    for name, text in files.items():
        path = tmp_path / "repro" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    found = cross_package_imports(tmp_path)
    # Relative imports resolve, and sim.shard is not sim.
    from_shard = {i.target for i in found if node_of(i.module) == "sim.shard"}
    assert from_shard == {"repro.sim.kernel", "repro.low"}
    ranks = {"low": 0, "sim": 1, "high": 2, "sim.shard": 3}
    problems = violations(found, nodes_under(tmp_path), ranks, deferred={})
    kinds = sorted(p.split(":")[0] for p in problems)
    assert kinds == ["deferred", "unranked", "upward"], problems
    assert private_imports(all_imports(tmp_path)) == [
        "private: repro.high.leak:1 imports _hidden from repro.high"
    ]


# -- cycle 1, cut by declaration: the kernel stays a kernel -----------------------


@pytest.mark.parametrize(
    "modules, forbidden",
    [
        ("repro.sim", "net host nic obs sim.shard"),
        ("repro.crypto, repro.tls, repro.dns", "sim"),
        # What DEFERRED buys: a plain bed loads no optional layer.
        ("repro.testbed", "obs ctrl"),
    ],
)
def test_import_closures(modules, forbidden):
    code = (
        f"import sys, {modules}\n"
        f"bad = [m for m in sys.modules for f in {forbidden.split()!r}\n"
        "       if m == 'repro.' + f or m.startswith('repro.' + f + '.')]\n"
        "assert not bad, sorted(bad)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_the_ledger_leaves_multiprocessing_unloaded():
    # Only the pipe carrier of a sharded run uses it, and it brings socket
    # and selectors along: ~0.6 MB of every workload's peak RSS.
    code = (
        "import sys, workloads\n"
        "assert 'multiprocessing' not in sys.modules\n"
        "assert 'repro.sim.shard.runner' in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": f"{REPO / 'ledger'}{os.pathsep}{SRC}"}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_a_built_workload_leaves_numpy_unloaded():
    # numpy alone was ~12 MB of every workload's peak RSS, and an import of
    # it would lower every ratio the RSS gate reads, so it is checked here.
    code = (
        "import sys, workloads\n"
        "workloads.WORKLOADS['rpc_small']().setup(1, 0.1, observe=False)\n"
        "assert 'numpy' not in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": f"{REPO / 'ledger'}{os.pathsep}{SRC}"}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


# -- the names the frozen ledger/ reaches for still resolve -----------------------


def _tracer_tuples(name: str) -> tuple:
    tree = ast.parse((REPO / "ledger" / "tracer.py").read_text())
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and stmt.targets[0].id == name:
            return ast.literal_eval(stmt.value)
    raise AssertionError(f"ledger/tracer.py no longer defines {name}")


#: What ledger/workloads.py and ledger/tracer.py import by name.
LEDGER_NAMES = """
repro.sim.shard.ShardPlan repro.sim.shard.ShardRunner
repro.sim.shard.boundary.OutboundQueue
repro.load.HOMA_W4 repro.load.ClusterHarness repro.load.OpenLoopEngine
repro.load.TenantLoadEngine repro.load.TenantWorkload
repro.load.shard.measure_baselines repro.load.shard.merge_load_results
repro.load.shard.build_domain_workload
""".split()


def test_ledger_contract_resolves():
    for dotted in LEDGER_NAMES:
        module, _, attr = dotted.rpartition(".")
        assert hasattr(import_module(module), attr), dotted
    # The tracer patches ``cls.__dict__[attr]``: the method must be defined
    # on the class itself, not inherited.
    for module, owner, attr, _layer, _kind in _tracer_tuples("ENTRY_POINTS"):
        scope = import_module(module)
        if owner is not None:
            scope = vars(getattr(scope, owner))
            assert attr in scope, f"{module}.{owner}.{attr}"
        else:
            assert hasattr(scope, attr), f"{module}.{attr}"
    for module, owner in _tracer_tuples("REGISTERED"):
        assert "__init__" in vars(getattr(import_module(module), owner))
