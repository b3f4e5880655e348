"""Every option is set by something: no ``*Config`` field that nothing sets.

An ``ast`` walk over ``src/repro`` finds every ``@dataclass`` whose name
ends in ``Config`` and lists its fields.  A second walk over the code that
drives the package -- ``src/``, ``ledger/``, ``examples/``,
``benchmarks/``, ``scripts/`` and ``tests/`` -- collects every name that
is *set*:

- a keyword argument of that name (``HomaConfig(grant_window=...)``,
  ``replace(cfg, grant_window=...)``), unless its value only reads the
  same name back (``short_chain=cfg.short_chain`` forwards a setting, it
  does not choose one);
- an attribute store to it (``cfg.grant_window = ...``).

A field that nothing sets is a constant with extra steps: every
independent option doubles the configurations the tests must cover.
Make it a module-level constant beside its reader, or set it somewhere
that exercises it.

A field that only ``tests/`` sets is the same constant, turned by the
tests alone: no bench, workload or example ever runs another value.
The gate walks the setters a second time without ``tests/`` and fails on
such a field unless :data:`KEPT` gives the reason it stays an option.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Iterator

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
CALLERS = ("src", "ledger", "examples", "benchmarks", "scripts")
SETTERS = CALLERS + ("tests",)

#: ``Class.field`` -> why it stays an option although only tests set it.
KEPT: dict[str, str] = {
    "CtrlConfig.lane_size": "§4.5.2 rekey: the rekey tests and the "
    "watermark_rekey transcript digest shrink lanes from 2^32 so a session "
    "reaches the watermark",
    "CtrlConfig.rekey_watermark_fraction": "§4.5.2 rekey: the same tests set "
    "where in the shrunken lane the rekey starts",
    "CtrlConfig.prefill": "a cold key pool: the pool-miss transcript digests "
    "and the session-table tests start empty so keygen runs inline",
    "HandshakeConfig.short_chain": "§4.5.1 short certificate chain, a paper "
    "mechanism Table 2 prices; the handshake tests run it end to end",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def config_fields(root: Path) -> Iterator[tuple[str, str]]:
    """``(Class, field)`` for every field of every ``@dataclass *Config``."""
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (
                isinstance(node, ast.ClassDef)
                and node.name.endswith("Config")
                and _is_dataclass(node)
            ):
                continue
            for stmt in node.body:
                target = getattr(stmt, "target", None)
                if isinstance(stmt, ast.AnnAssign) and isinstance(target, ast.Name):
                    yield node.name, target.id


def names_set(roots: Iterable[Path]) -> set[str]:
    """Every name given a value by keyword or by attribute store."""
    found: set[str] = set()
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.keyword) and node.arg is not None:
                    if getattr(node.value, "attr", None) != node.arg:
                        found.add(node.arg)
                elif isinstance(node, ast.Attribute):
                    if isinstance(node.ctx, ast.Store):
                        found.add(node.attr)
    return found


def unset_fields(src: Path, roots: Iterable[Path]) -> list[str]:
    setters = names_set(roots)
    return [f"{cls}.{name}" for cls, name in config_fields(src) if name not in setters]


def test_every_config_field_is_set_somewhere():
    fields = list(config_fields(SRC))
    assert len(fields) > 20, "the walk found too few *Config fields"
    problems = unset_fields(SRC, [REPO / d for d in SETTERS])
    assert not problems, "set by nothing, so a constant:\n" + "\n".join(problems)


def test_every_config_field_is_set_outside_tests():
    only_tests = unset_fields(SRC, [REPO / d for d in CALLERS])
    problems = [name for name in only_tests if name not in KEPT]
    assert not problems, (
        "only tests/ sets these; make each a constant or add it to KEPT with "
        "a reason:\n" + "\n".join(problems)
    )


def test_kept_fields_exist_and_have_reasons():
    only_tests = set(unset_fields(SRC, [REPO / d for d in CALLERS]))
    stale = [name for name in KEPT if name not in only_tests]
    assert not stale, "KEPT fields that code sets or that are gone:\n" + "\n".join(
        stale
    )
    assert all(reason.strip() for reason in KEPT.values())


def test_the_gate_bites(tmp_path):
    """One field of each kind: set by keyword, by store, forwarded, unset."""
    src = tmp_path / "src"
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
        "@dataclasses.dataclass(frozen=True)\n"
        "class OtherConfig:\n"
        "    lonely: float = 0.5\n"
        "class PlainConfig:\n"  # not a dataclass: not an option table
        "    ignored: int = 0\n"
        "@dataclass\n"
        "class Settings:\n"  # not named *Config
        "    ignored_too: int = 0\n"
        "def use(cfg, other):\n"
        "    cfg.by_store = 5\n"
        "    other.make(forwarded=cfg.forwarded, never=cfg.never + 1)\n"
        "    return ThingConfig(by_keyword=2), dataclasses.replace(cfg, by_replace=9)\n"
    )
    assert list(config_fields(src)) == [
        ("ThingConfig", "by_keyword"),
        ("ThingConfig", "by_store"),
        ("ThingConfig", "forwarded"),
        ("ThingConfig", "never"),
        ("ThingConfig", "by_replace"),
        ("OtherConfig", "lonely"),
    ]
    assert unset_fields(src, [src]) == ["ThingConfig.forwarded", "OtherConfig.lonely"]
    # A field that only tests set passes the first walk, not the second.
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_mod.py").write_text("ThingConfig(forwarded=True)\n")
    assert unset_fields(src, [src, tests]) == ["OtherConfig.lonely"]
    assert unset_fields(src, [src]) == ["ThingConfig.forwarded", "OtherConfig.lonely"]
