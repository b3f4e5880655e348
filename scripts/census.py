#!/usr/bin/env python
"""What code actually runs: a function and line census of ``src/repro``.

Two steps, standard library only.

``run`` executes a command with a trace hook installed through a
``sitecustomize.py`` that it puts first on ``PYTHONPATH``, so every Python
subprocess the command starts (each ledger rep, a ``multiprocessing``
worker) is traced too.  The hook records each code object under the
traced package the first time it is entered, and in line mode each line
the first time it runs.  Each process appends its records to its own
file, line-buffered, as it goes, so a worker that exits through
``os._exit`` without ``atexit`` is still counted::

    python scripts/census.py run --out CENSUS --lines -- \\
        python ledger/run.py --quick --reps 1
    for ex in examples/*.py; do
        python scripts/census.py run --out CENSUS --lines -- python "$ex"
    done

Several runs may share one ``--out``; the report reads the union.

``report`` maps the records back to the source with ``ast``.  It counts
every ``def`` with at least one executable statement, module-level,
method or nested, and prints, per module, the functions never entered
and (after a line-mode run) the statements that never ran inside a
function that was entered.  A statement is counted when it is a ``raise``
too, but only the others are listed: a ``raise`` that never ran is a
fail-closed check, not a lead::

    python scripts/census.py report CENSUS

"Never run" means "not reached by these runs", not "unreachable".
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import threading
from collections import defaultdict
from pathlib import Path
from types import CodeType

REPO = Path(__file__).resolve().parent.parent
DEFAULT_ROOT = REPO / "src" / "repro"

# The environment the hook reads in every traced process.
ENV_OUT, ENV_ROOT, ENV_LINES = "CENSUS_OUT", "CENSUS_ROOT", "CENSUS_LINES"

SITECUSTOMIZE = """\
import sys
sys.path.insert(0, {scripts!r})
import census
del sys.path[0]
census.install()
"""


def install() -> None:
    """Start recording in this process, as the environment directs."""
    out, root = os.environ.get(ENV_OUT), os.environ.get(ENV_ROOT)
    if not (out and root):
        return
    root = os.path.join(os.path.realpath(root), "")
    lines = os.environ.get(ENV_LINES) == "1"
    traced: dict[CodeType, bool] = {}
    seen: set[tuple[CodeType, int]] = set()
    handle = {"pid": None, "file": None}

    def emit(code: CodeType, line: int) -> None:
        pid = os.getpid()  # a forked child writes its own file
        if handle["pid"] != pid:
            path = os.path.join(out, f"{pid}.tsv")
            handle["pid"], handle["file"] = pid, open(path, "a", buffering=1)
        handle["file"].write(
            f"{code.co_filename}\t{code.co_firstlineno}\t{code.co_name}\t{line}\n"
        )

    def local(frame, event, arg):
        if event == "line":
            key = (frame.f_code, frame.f_lineno)
            if key not in seen:
                seen.add(key)
                emit(*key)
        return local

    def on_call(frame, event, arg):
        code = frame.f_code
        mine = traced.get(code)
        if mine is None:
            mine = traced[code] = os.path.realpath(code.co_filename).startswith(root)
            if mine:
                emit(code, 0)  # line 0: the code object was entered
        return local if (mine and lines) else None

    sys.settrace(on_call)
    threading.settrace(on_call)


def run(out: Path, lines: bool, root: Path, command: list[str]) -> int:
    out.mkdir(parents=True, exist_ok=True)
    hook = out / ".hook"
    hook.mkdir(exist_ok=True)
    (hook / "sitecustomize.py").write_text(
        SITECUSTOMIZE.format(scripts=str(Path(__file__).resolve().parent))
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(hook), env.get("PYTHONPATH", "")) if p
    )
    env.update({ENV_OUT: str(out.resolve()), ENV_ROOT: str(root.resolve())})
    env[ENV_LINES] = "1" if lines else "0"
    return subprocess.call(command, env=env)


# -- report --------------------------------------------------------------


def read_records(out: Path) -> dict[tuple[str, int, str], set[int]]:
    """``(file, first line, name) -> lines run``; line 0 marks entry."""
    hits: dict[tuple[str, int, str], set[int]] = defaultdict(set)
    for path in sorted(out.glob("*.tsv")):
        for row in path.read_text().splitlines():
            parts = row.split("\t")
            if len(parts) == 4:  # a process killed mid-write leaves a stub
                fn, first, name, line = parts
                hits[(os.path.realpath(fn), int(first), name)].add(int(line))
    return hits


def _code_objects(code: CodeType):
    yield code
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield from _code_objects(const)


def _header_lines(stmt: ast.stmt) -> range:
    """The lines that belong to ``stmt`` itself, not to a nested block."""
    inner = [
        child.lineno
        for field in ("body", "orelse", "finalbody", "handlers")
        for child in getattr(stmt, field, ())
    ]
    decorators = getattr(stmt, "decorator_list", ())
    first = min([stmt.lineno, *(d.lineno for d in decorators)])
    last = min(inner) - 1 if inner else stmt.end_lineno
    return range(first, max(first, last) + 1)


def _statements(body):
    """Every statement in ``body``, nested blocks too, but not nested defs.

    A bare constant (a docstring, ``...``) is not a statement: it compiles
    to nothing.
    """
    for stmt in body:
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for field in ("body", "orelse", "finalbody"):
            yield from _statements(getattr(stmt, field, ()))
        for handler in getattr(stmt, "handlers", ()):
            yield from _statements(handler.body)


class Function:
    def __init__(self, module: str, qualname: str, node, code: CodeType):
        self.module, self.qualname, self.node = module, qualname, node
        self.key = (code.co_filename, code.co_firstlineno, code.co_name)
        own = {line for _, _, line in code.co_lines() if line is not None}
        self.statements = [
            stmt
            for stmt in _statements(node.body)
            if own.intersection(_header_lines(stmt))
        ]

    def unrun(self, lines_run: set[int]) -> list[ast.stmt]:
        return [
            stmt
            for stmt in self.statements
            if not lines_run.intersection(_header_lines(stmt))
        ]


def functions(root: Path) -> list[Function]:
    """Every ``def`` under ``root`` that compiles to at least one statement."""
    found = []
    base = root.parent
    for path in sorted(root.rglob("*.py")):
        source = path.read_text()
        real = os.path.realpath(path)
        tree = ast.parse(source, real)
        codes = {
            (c.co_firstlineno, c.co_name): c
            for c in _code_objects(compile(source, real, "exec"))
        }
        module = ".".join(path.relative_to(base).with_suffix("").parts)
        module = module.removesuffix(".__init__")

        def walk(body, prefix):
            for node in body:
                if isinstance(node, ast.ClassDef):
                    walk(node.body, f"{prefix}{node.name}.")
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
                    code = codes[(first, node.name)]
                    fn = Function(module, prefix + node.name, node, code)
                    if fn.statements:
                        found.append(fn)
                    walk(node.body, f"{prefix}{node.name}.")
                else:
                    for field in ("body", "orelse", "finalbody"):
                        walk(getattr(node, field, ()), prefix)
                    for handler in getattr(node, "handlers", ()):
                        walk(handler.body, prefix)

        walk(tree.body, "")
    return found


def report(root: Path, out: Path) -> str:
    hits = read_records(out)
    line_mode = any(lines - {0} for lines in hits.values())
    rows: dict[str, list[tuple[int, str]]] = defaultdict(list)
    total = never = raises = other = 0
    for fn in functions(root):
        total += 1
        lines_run = hits.get(fn.key)
        if lines_run is None:
            never += 1
            rows[fn.module].append((fn.node.lineno, f"never entered  {fn.qualname}"))
            continue
        for stmt in fn.unrun(lines_run) if line_mode else ():
            if isinstance(stmt, ast.Raise):
                raises += 1
            else:
                other += 1
                text = f"never ran      {fn.qualname}: {type(stmt).__name__}"
                rows[fn.module].append((stmt.lineno, text))
    lines = []
    for module in sorted(rows):
        lines.append(module)
        lines += [f"  {lineno:5d}  {text}" for lineno, text in sorted(rows[module])]
    lines.append(f"functions with code: {total}; never entered: {never}")
    if line_mode:
        lines.append(
            f"statements never run in entered functions: {raises + other} "
            f"(raise {raises}, other {other})"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="step", required=True)
    r = sub.add_parser("run", help="run a command under the census hook")
    r.add_argument("--out", type=Path, required=True, help="record directory")
    r.add_argument("--lines", action="store_true", help="record lines too")
    r.add_argument("--root", type=Path, default=DEFAULT_ROOT, help="package to trace")
    r.add_argument("command", nargs=argparse.REMAINDER, help="-- command ...")
    p = sub.add_parser("report", help="print what the records never reached")
    p.add_argument("out", type=Path, help="record directory")
    p.add_argument("--root", type=Path, default=DEFAULT_ROOT, help="package traced")
    args = parser.parse_args(argv)
    if args.step == "run":
        command = args.command[1:] if args.command[:1] == ["--"] else args.command
        if not command:
            parser.error("run needs a command after --")
        return run(args.out, args.lines, args.root, command)
    print(report(args.root, args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
