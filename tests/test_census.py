"""``scripts/census.py`` on a synthetic package: it reports exactly what never ran.

``main`` calls ``work`` and starts a child process that calls
``in_child``, which exits through ``os._exit``: the child's record counts
only if the hook writes as it goes.  ``never`` is never called.  In
``work`` one statement and one ``raise`` never run; only the statement
is listed.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "census.py"

PKG = '''\
"""A package with one of everything."""
import os
import subprocess
import sys


def main():
    work(1)
    return subprocess.call([sys.executable, "-c", "import pkg; pkg.in_child()"])


def work(x):
    if x > 0:
        y = x
    else:
        y = -x
    if y < 0:
        raise ValueError(y)
    return y


def in_child():
    os._exit(0)


def never():
    return 1
'''


def line_of(text: str) -> int:
    return PKG.splitlines().index(text) + 1


def census(tmp_path: Path, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(tmp_path))
    out = subprocess.run(
        [sys.executable, str(SCRIPT), *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, check=True,
    )
    return out.stdout


def traced_report(tmp_path: Path, *mode: str) -> list[str]:
    """Run the package under the hook, then report on the records."""
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "__init__.py").write_text(PKG)
    records = tmp_path / "records"
    launcher = [sys.executable, "-c", "import pkg, sys; sys.exit(pkg.main())"]
    census(tmp_path, "run", "--out", str(records), *mode, "--root", "pkg", "--",
           *launcher)
    assert len(list(records.glob("*.tsv"))) == 2  # the launcher and its child
    return census(tmp_path, "report", str(records), "--root", "pkg").splitlines()


def test_census_reports_exactly_what_never_ran(tmp_path):
    assert traced_report(tmp_path, "--lines") == [
        "pkg",
        f"{line_of('        y = -x'):7d}  never ran      work: Assign",
        f"{line_of('def never():'):7d}  never entered  never",
        "functions with code: 4; never entered: 1",
        "statements never run in entered functions: 2 (raise 1, other 1)",
    ]


def test_function_mode_records_entries_only(tmp_path):
    assert traced_report(tmp_path) == [
        "pkg",
        f"{line_of('def never():'):7d}  never entered  never",
        "functions with code: 4; never entered: 1",
    ]
