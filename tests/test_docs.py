"""The docs name only what exists.

Every backticked span in DESIGN.md, README.md and EXPERIMENTS.md is
scanned for two kinds of reference:

- a dotted ``repro.…`` name, which must import (its longest importable
  module prefix) and resolve attribute by attribute from there;
- a repository path under ``src/``, ``tests/``, ``scripts/``, ``ledger/``,
  ``benchmarks/`` or ``examples/``, which must exist (a glob must match).

``:line`` and ``::test`` suffixes are stripped before a path is checked.
A failure names the file, the line and the reference.
"""

from __future__ import annotations

import re
from importlib import import_module
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DOCS = ("DESIGN.md", "README.md", "EXPERIMENTS.md")

SPAN = re.compile(r"`([^`\n]+)`")
NAME = re.compile(r"(?<![\w./])repro(?:\.\w+)+")
PATH = re.compile(
    r"(?<![\w./-])(?:src|tests|scripts|ledger|benchmarks|examples)/[\w./*:-]*"
)


def references(text: str):
    """``(line, kind, reference)`` for every name and path in backticks."""
    for lineno, line in enumerate(text.splitlines(), 1):
        for span in SPAN.findall(line):
            for name in NAME.findall(span):
                yield lineno, "name", name
            for path in PATH.findall(span):
                yield lineno, "path", path.split(":", 1)[0].rstrip(".")


def resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def exists(path: str) -> bool:
    return any(REPO.glob(path)) if "*" in path else (REPO / path).exists()


CHECKS = {"name": resolves, "path": exists}


def broken(doc: str) -> list[str]:
    return [
        f"{doc}:{lineno}: {kind} `{ref}` does not exist"
        for lineno, kind, ref in references((REPO / doc).read_text())
        if not CHECKS[kind](ref)
    ]


@pytest.mark.parametrize("doc", DOCS)
def test_doc_references_resolve(doc):
    problems = broken(doc)
    assert not problems, "\n" + "\n".join(problems)


def test_the_gate_bites():
    text = (
        "See `repro.core.endpoint.SmtEndpoint.rekey` and `repro.core.nope`,\n"
        "`tests/test_docs.py::test_the_gate_bites`, `src/repro/core/endpoint.py:12`\n"
        "and `python scripts/missing.py DIR`; plain repro.core.nope is prose.\n"
    )
    found = list(references(text))
    assert found == [
        (1, "name", "repro.core.endpoint.SmtEndpoint.rekey"),
        (1, "name", "repro.core.nope"),
        (2, "path", "tests/test_docs.py"),
        (2, "path", "src/repro/core/endpoint.py"),
        (3, "path", "scripts/missing.py"),
    ]
    failing = [ref for _, kind, ref in found if not CHECKS[kind](ref)]
    assert failing == ["repro.core.nope", "scripts/missing.py"]
