"""Smoke tests: the runnable examples keep working.

Only the fast examples run here (the benchmark-style ones are covered by
``benchmarks/``).  Each executes in-process with its printed output
captured; assertions inside the examples do the verifying.  Each runs
from an empty working directory, as a user running it from elsewhere
would, and ``sys.path`` is restored afterwards, so an example can neither
lean on the repository layout nor leak an import path into later tests.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


@pytest.fixture(autouse=True)
def _elsewhere(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "path", list(sys.path))


def run_example(name: str, capsys) -> str:
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart.py", capsys)
        assert "plaintext visible on the wire: False" in out
        assert "OK:" in out

    def test_zero_rtt(self, capsys):
        out = run_example("zero_rtt.py", capsys)
        assert "0 network round trips" in out
        assert "OK:" in out

    def test_attack_demo(self, capsys):
        out = run_example("attack_demo.py", capsys)
        assert "replay attack" in out
        assert "OK:" in out

    def test_offload_anatomy(self, capsys):
        out = run_example("offload_anatomy.py", capsys)
        assert out.count("CORRUPTED") == 3  # Out-seq + the two shared-queue records
        assert out.count("decrypted OK") == 5

    def test_adversarial_network(self, capsys):
        out = run_example("adversarial_network.py", capsys)
        assert "messages delivered bit-exact: 100/100" in out
        assert "OK:" in out

    def test_incast_trimming(self, capsys):
        out = run_example("incast_trimming.py", capsys)
        assert "trimming ON" in out and "trimming OFF" in out

    def test_leaf_spine_load(self, capsys):
        out = run_example("leaf_spine_load.py", capsys)
        assert "integrity errors 0" in out
        assert "OK: loaded leaf-spine fabric" in out

    def test_replica_frontend(self, capsys):
        out = run_example("replica_frontend.py", capsys)
        assert "5/5 cross-replica accepted" in out
        assert "0/5 cross-replica accepted" in out
        assert "0 unhandled errors" in out
        assert "OK: replicated front end kept every open alive." in out

    def test_noisy_neighbor(self, capsys):
        out = run_example("noisy_neighbor.py", capsys)
        assert "isolation OFF" in out and "isolation ON" in out
        assert "better with isolation on" in out
        assert "OK: noisy neighbor contained" in out
