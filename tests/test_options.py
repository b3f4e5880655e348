"""Every option is set by something: no defaulted parameter, and no
``*Config`` field, that nothing sets.

An ``ast`` walk over ``src/repro`` lists the options:

- every defaulted parameter of every public function and method,
  ``__init__`` included (public: no name on the way to it starts with
  ``_``; functions nested in functions are not walked);
- every field of every ``@dataclass`` whose name ends in ``Config``.

A second walk over the code that drives the package -- ``src/``,
``ledger/``, ``examples/``, ``benchmarks/``, ``scripts/`` and ``tests/``
-- collects what is *set*:

- a keyword argument of that name, anywhere (``HomaConfig(grant_window=
  ...)``, ``replace(cfg, grant_window=...)``, or a ``**kwargs`` wrapper's
  caller), unless its value only reads the same name back
  (``short_chain=cfg.short_chain`` forwards a setting, it does not choose
  one);
- a positional argument at the parameter's index in a call of its
  function by bare name (``KeyPool(loop, rng, 4)`` calls
  ``KeyPool.__init__``, ``x.seal(p, t)`` calls every ``seal``); a
  ``*args`` argument sets every index from its own on.  Two calls name
  their class another way: ``cls(...)`` inside a classmethod calls the
  enclosing class's ``__init__``, and ``super().__init__(...)`` calls the
  ``__init__`` of the enclosing class's first base;
- a command-line flag: ``add_argument("--jobs")`` sets ``jobs``, which the
  CLI then passes on as ``jobs=args.jobs``;
- for a ``*Config`` field, an attribute store to it (``cfg.grant_window =
  ...``), unless it stores the enclosing function's parameter of the same
  name (``self.refill_batch = refill_batch`` forwards it).

An option that nothing sets is a constant with extra steps: every
independent option doubles the configurations the tests must cover.
Make it a module-level constant beside its reader, or delete it with the
code only its other values reached.

An option that only ``tests/`` sets is the same constant, turned by the
tests alone: no bench, workload or example ever runs another value.  The
gate walks the setters a second time without ``tests/`` and fails on such
an option unless :data:`KEPT` gives the reason it stays.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
CALLERS = ("src", "ledger", "examples", "benchmarks", "scripts")
SETTERS = CALLERS + ("tests",)

#: ``module:Callee(option)`` -> why it stays an option although only tests
#: set it.  ``Callee`` is the class for ``__init__`` and ``*Config`` fields.
KEPT: dict[str, str] = {
    "repro.ctrl.plane:CtrlConfig(lane_size)": "§4.5.2 rekey: the rekey tests "
    "and the watermark_rekey transcript digest shrink lanes from 2^32 so a "
    "session reaches the watermark",
    "repro.ctrl.plane:CtrlConfig(rekey_watermark_fraction)": "§4.5.2 rekey: the "
    "same tests set where in the shrunken lane the rekey starts",
    "repro.ctrl.plane:ControlPlane.adopt(rekey_thread)": "§4.5.2 rekey: the "
    "thread background rekeys charge; only the rekey tests and the "
    "watermark_rekey digest turn watermark rekeys on",
    "repro.ctrl.plane:CtrlConfig(prefill)": "a cold key pool: the pool-miss "
    "transcript digests and the session-table tests start empty so keygen "
    "runs inline",
    "repro.ctrl.keypool:KeyPool(prefill)": "a cold key pool: the zrtt_fs_pool_miss "
    "transcript digest and the key-pool tests start empty",
    "repro.ctrl.plane:CtrlConfig(refill_interval)": "the upgrade_fs_pool_miss "
    "transcript digest holds the refill off for 1 s so the upgrade misses; at "
    "the default 100 us the refill lands first and the digest moves",
    "repro.ctrl.keypool:KeyPool(refill_interval)": "forwarded from "
    "CtrlConfig.refill_interval (the pool-miss digest); the key-pool tests "
    "time a slow refill",
    "repro.tls.handshake:HandshakeConfig(short_chain)": "§4.5.1 short "
    "certificate chain, a paper mechanism Table 2 prices; the handshake tests "
    "run it end to end",
    "repro.core.codec:SmtCodec(pad_to)": "§6.1 length concealment: messages "
    "padded to a bucket; tests/core/test_padding.py drives it",
    "repro.tls.record:RecordProtection.seal(padding)": "§6.1 length "
    "concealment at the record layer, the other half of pad_to; the record "
    "tests check padded records open and strip",
    "repro.crypto.ca:CertificateAuthority(rsa_bits)": "test speed: only tests "
    "build an RSA CA; its keygen takes 0.4 s at 1024 bits, 2.3 s at 2048",
    "repro.net.clos:ClosFabric(trunk_bandwidth_bps)": "the clos transmit-"
    "schedule digest runs a 40 Gb/s trunk; at the leaves' rate its digest "
    "moves and its spines never drop",
    "repro.net.clos:ClosFabric(trunk_buffer_bytes)": "the clos transmit-"
    "schedule digest runs a 6 KB trunk buffer, for the same reason",
}


class Option(NamedTuple):
    key: str  # ``module:Callee(name)``, or ``module:Class.method(name)``
    callee: str  # the name a call uses: the class for ``__init__``
    name: str
    index: Optional[int]  # positional index in a call, None: keyword only
    is_field: bool


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _public(name: str) -> bool:
    return not name.startswith("_") or name == "__init__"


def _name_of(node: ast.AST) -> Optional[str]:
    return getattr(node, "id", getattr(node, "attr", None))


def _parameters(module: str, node, owner: Optional[str]) -> Iterator[Option]:
    args = node.args
    positional = args.posonlyargs + args.args
    is_static = any(_name_of(d) == "staticmethod" for d in node.decorator_list)
    skip = 1 if owner is not None and not is_static else 0  # self / cls
    if node.name == "__init__":
        qualname, callee = owner, owner.rsplit(".", 1)[-1]
    else:
        qualname = f"{owner}.{node.name}" if owner else node.name
        callee = node.name
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], first):
        key = f"{module}:{qualname}({arg.arg})"
        yield Option(key, callee, arg.arg, i - skip, False)
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            key = f"{module}:{qualname}({arg.arg})"
            yield Option(key, callee, arg.arg, None, False)


def _options(module: str, body: list, owner: Optional[str]) -> Iterator[Option]:
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _public(node.name):
                yield from _parameters(module, node, owner)
        elif isinstance(node, ast.ClassDef) and _public(node.name):
            qualname = f"{owner}.{node.name}" if owner else node.name
            if node.name.endswith("Config") and _is_dataclass(node):
                for stmt in node.body:
                    target = getattr(stmt, "target", None)
                    if isinstance(stmt, ast.AnnAssign) and isinstance(target, ast.Name):
                        key = f"{module}:{qualname}({target.id})"
                        yield Option(key, node.name, target.id, None, True)
            yield from _options(module, node.body, qualname)


def options(root: Path) -> Iterator[Option]:
    """Every defaulted public parameter and every ``*Config`` field."""
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        yield from _options(module, ast.parse(path.read_text(), str(path)).body, None)


class Setters(NamedTuple):
    keywords: set  # names given a value by keyword or by a CLI flag
    stores: set  # names given a value by attribute store
    positions: dict  # callee -> indices given a value positionally
    starred: dict  # callee -> lowest index a ``*args`` argument fills


def _walk(tree: ast.AST) -> Iterator[tuple]:
    """Every node, with the parameter names of its enclosing function, the
    class ``cls(...)`` calls there (inside a classmethod, else None) and
    the class ``super().__init__(...)`` calls there (the enclosing class's
    first base, else None)."""
    stack = [(tree, frozenset(), None, None)]
    while stack:
        node, params, cls, base = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = frozenset(
                arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs
            )
        yield node, params, cls, base
        if isinstance(node, ast.ClassDef):
            base = _name_of(node.bases[0]) if node.bases else None
            for child in ast.iter_child_nodes(node):
                decorators = getattr(child, "decorator_list", ())
                is_cm = any(_name_of(d) == "classmethod" for d in decorators)
                stack.append((child, params, node.name if is_cm else None, base))
        else:
            stack.extend(
                (child, params, cls, base) for child in ast.iter_child_nodes(node)
            )


def _callee(call: ast.Call, cls: Optional[str], base: Optional[str]) -> Optional[str]:
    """The name whose options a call's positional arguments set."""
    func = call.func
    if cls and isinstance(func, ast.Name) and func.id == "cls":
        return cls
    if (
        base
        and isinstance(func, ast.Attribute)
        and func.attr == "__init__"
        and isinstance(func.value, ast.Call)
        and _name_of(func.value.func) == "super"
    ):
        return base
    return _name_of(func)


def _flag_dest(call: ast.Call) -> Optional[str]:
    """The attribute an ``add_argument`` call stores its value in."""
    for kw in call.keywords:
        if kw.arg == "dest":
            return getattr(kw.value, "value", None)
    flags = [getattr(a, "value", None) for a in call.args]
    flags = [f for f in flags if isinstance(f, str)]
    longs = [f for f in flags if f.startswith("--")]
    return (longs or flags or ["-"])[0].lstrip("-").replace("-", "_")


def setters(roots: Iterable[Path]) -> Setters:
    found = Setters(set(), set(), defaultdict(set), {})
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            for node, params, cls, base in _walk(tree):
                if isinstance(node, ast.keyword) and node.arg is not None:
                    if getattr(node.value, "attr", None) != node.arg:
                        found.keywords.add(node.arg)
                elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    # ``self.x = x`` of the function's own parameter forwards.
                    value = node.value
                    forwarded = (
                        value.id
                        if isinstance(value, ast.Name)
                        and value.id in params
                        and not isinstance(node, ast.AugAssign)
                        else None
                    )
                    targets = getattr(node, "targets", None) or [node.target]
                    found.stores.update(
                        t.attr
                        for t in targets
                        if isinstance(t, ast.Attribute) and t.attr != forwarded
                    )
                elif isinstance(node, ast.Call):
                    callee = _callee(node, cls, base)
                    if callee == "add_argument":
                        found.keywords.add(_flag_dest(node))
                    for i, arg in enumerate(node.args):
                        if isinstance(arg, ast.Starred):
                            found.starred[callee] = min(found.starred.get(callee, i), i)
                            break
                        found.positions[callee].add(i)
    return found


def _is_set(option: Option, found: Setters) -> bool:
    if option.name in found.keywords:
        return True
    if option.is_field:
        return option.name in found.stores
    if option.index is None:
        return False
    return (
        option.index in found.positions.get(option.callee, ())
        or option.index >= found.starred.get(option.callee, option.index + 1)
    )


def unset(src: Path, roots: Iterable[Path]) -> list[str]:
    """``module:Callee(option)`` for every option nothing in ``roots`` sets."""
    found = setters(roots)
    return [o.key for o in options(src) if not _is_set(o, found)]


def stale(kept: dict, src: Path, roots: Iterable[Path]) -> list[str]:
    """``kept`` entries that something in ``roots`` sets, or that are gone."""
    only_tests = set(unset(src, roots))
    return [key for key in kept if key not in only_tests]


def test_every_option_is_set_somewhere():
    found = list(options(SRC))
    assert len(found) > 300, "the walk found too few options"
    assert sum(o.is_field for o in found) > 20, "the walk found too few fields"
    problems = unset(SRC, [REPO / d for d in SETTERS])
    assert not problems, "set by nothing, so a constant:\n" + "\n".join(problems)


def test_every_option_is_set_outside_tests():
    only_tests = unset(SRC, [REPO / d for d in CALLERS])
    problems = [key for key in only_tests if key not in KEPT]
    assert not problems, (
        "only tests/ sets these; make each a constant or add it to KEPT with "
        "a reason:\n" + "\n".join(problems)
    )


def test_kept_fields_exist_and_have_reasons():
    gone = stale(KEPT, SRC, [REPO / d for d in CALLERS])
    assert not gone, "KEPT options that code sets or that are gone:\n" + "\n".join(
        gone
    )
    assert all(reason.strip() for reason in KEPT.values())


def test_the_gate_bites(tmp_path):
    """One option of each kind: set by keyword, by position, by store, by a
    ``**kwargs`` wrapper's caller, by a CLI flag, by ``cls(...)`` in a
    classmethod and by ``super().__init__(...)``; forwarded; unset;
    private; and one that only a test sets."""
    src = tmp_path / "pkg"
    src.mkdir()
    (src / "mod.py").write_text(
        "from dataclasses import dataclass, field\n"
        "import dataclasses\n"
        "@dataclass\n"
        "class ThingConfig:\n"
        "    by_keyword: int = 1\n"
        "    by_store: int = 2\n"
        "    forwarded: bool = False\n"
        "    never: int = 3\n"
        "    by_replace: int = field(default=4)\n"
        "    self_stored: int = 5\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class OtherConfig:\n"
        "    lonely: float = 0.5\n"
        "class PlainConfig:\n"  # not a dataclass: not an option table
        "    ignored: int = 0\n"
        "@dataclass\n"
        "class Settings:\n"  # not named *Config
        "    ignored_too: int = 0\n"
        "class Pool:\n"
        "    def __init__(self, loop, size=4, batch=8, self_stored=1):\n"
        "        self.self_stored = self_stored\n"
        "    def take(self, n=1, *, wait=False):\n"
        "        return n\n"
        "    @staticmethod\n"
        "    def make(kind='a'):\n"
        "        return kind\n"
        "    def _private(self, hidden=0):\n"
        "        def nested(inner=0):\n"
        "            return inner\n"
        "        return nested\n"
        "def wrapper(**kwargs):\n"
        "    return Pool(None, **kwargs)\n"
        "def run_all(names, jobs=1, quick=False, verbose=False):\n"
        "    return names\n"
        "def spread(a, b=1, c=2):\n"
        "    return a\n"
        "def only_tests(x, mode='plain'):\n"
        "    return x\n"
        "def use(cfg, other, args, parts):\n"
        "    cfg.by_store = 5\n"
        "    other.make(forwarded=cfg.forwarded, never=cfg.never + 1)\n"
        "    Pool(None, 16).take(2)\n"
        "    Pool.make('b')\n"
        "    wrapper(batch=2)\n"
        "    spread(1, *parts)\n"
        "    run_all(args.names, jobs=args.jobs, quick=args.quick,\n"
        "            verbose=args.verbose)\n"
        "    only_tests(1)\n"
        "    return ThingConfig(by_keyword=2), dataclasses.replace(cfg, by_replace=9)\n"
        "def cli(argparse):\n"
        "    parser = argparse.ArgumentParser()\n"
        "    parser.add_argument('-j', '--jobs', type=int)\n"
        "    parser.add_argument('--quick', action='store_true')\n"
        "class Codec:\n"
        "    def __init__(self, host, queues=1):\n"
        "        self.host = host\n"
        "    @classmethod\n"
        "    def for_host(cls, host):\n"
        "        return cls(host, 4)\n"
        "class Base:\n"
        "    def __init__(self, loop, depth=2, width=1):\n"
        "        self.loop = loop\n"
        "    def spawn(self, cls):\n"  # not a classmethod: ``cls`` is any callable
        "        return cls(self, 1, 2)\n"
        "class Child(Base):\n"
        "    def __init__(self, loop):\n"
        "        super().__init__(loop, 8)\n"
    )
    assert [o.key for o in options(src)] == [
        "pkg.mod:ThingConfig(by_keyword)",
        "pkg.mod:ThingConfig(by_store)",
        "pkg.mod:ThingConfig(forwarded)",
        "pkg.mod:ThingConfig(never)",
        "pkg.mod:ThingConfig(by_replace)",
        "pkg.mod:ThingConfig(self_stored)",
        "pkg.mod:OtherConfig(lonely)",
        "pkg.mod:Pool(size)",
        "pkg.mod:Pool(batch)",
        "pkg.mod:Pool(self_stored)",
        "pkg.mod:Pool.take(n)",
        "pkg.mod:Pool.take(wait)",
        "pkg.mod:Pool.make(kind)",
        "pkg.mod:run_all(jobs)",
        "pkg.mod:run_all(quick)",
        "pkg.mod:run_all(verbose)",
        "pkg.mod:spread(b)",
        "pkg.mod:spread(c)",
        "pkg.mod:only_tests(mode)",
        "pkg.mod:Codec(queues)",
        "pkg.mod:Base(depth)",
        "pkg.mod:Base(width)",
    ]
    flagged = [
        "pkg.mod:ThingConfig(forwarded)",
        "pkg.mod:ThingConfig(self_stored)",  # ``self.x = x`` forwards, not sets
        "pkg.mod:OtherConfig(lonely)",
        "pkg.mod:Pool(self_stored)",
        "pkg.mod:Pool.take(wait)",
        "pkg.mod:run_all(verbose)",  # ``args.verbose``, but no such flag
        "pkg.mod:only_tests(mode)",
        "pkg.mod:Base(width)",  # ``super().__init__`` set depth, not width
    ]
    assert unset(src, [src]) == flagged
    # An option that only tests set passes the first walk, not the second.
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_mod.py").write_text(
        "ThingConfig(forwarded=True)\nonly_tests(1, 'loud')\n"
    )
    assert unset(src, [src, tests]) == [
        key for key in flagged if key not in ("pkg.mod:ThingConfig(forwarded)",
                                              "pkg.mod:only_tests(mode)")
    ]
    assert unset(src, [src]) == flagged
    # A KEPT entry for an option real code sets, or for none at all, is stale.
    kept = dict.fromkeys(
        ["pkg.mod:only_tests(mode)", "pkg.mod:Pool(size)", "pkg.mod:gone(x)"], "r"
    )
    assert stale(kept, src, [src]) == ["pkg.mod:Pool(size)", "pkg.mod:gone(x)"]
