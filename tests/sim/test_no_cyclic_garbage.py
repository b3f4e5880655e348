"""A run of the event loop makes no cyclic garbage.

``EventLoop.run`` pauses the cyclic collector for its duration.  That is
exact only while nothing dispatched inside a run leaves a reference cycle
to be reclaimed: every collection there would traverse the live heap and
find nothing.  These tests hold that invariant on the quick benches, and
hold ``run`` to restoring the collector's state however it ends.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager

import pytest

from repro.bench.fleet import run_experiment
from repro.errors import SimulationError
from repro.sim.event_loop import EventLoop

# The quick benches whose runs are checked: the open-loop engine under
# load, tenancy, failure domains, session churn and the front end.
BENCHES = ("loaded", "tenant", "incident", "churn", "frontend")


def _free_garbage() -> None:
    """Reclaim every unreachable object, saved or not."""
    gc.set_debug(0)
    gc.garbage.clear()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)


@contextmanager
def garbage_per_run(monkeypatch):
    """Count the unreachable objects each ``EventLoop.run`` leaves.

    Runs with automatic collection off and ``DEBUG_SAVEALL``.  Before each
    run a collection reclaims what earlier code left; after it a saving
    collection counts what the run itself left.  Yields the list of
    ``(run index, unreachable count, type names)`` of every run that left
    any.
    """
    real_run = EventLoop.run
    found: list[tuple[int, int, list[str]]] = []
    runs = [0]

    def checked_run(self, *args, **kwargs):
        _free_garbage()
        try:
            return real_run(self, *args, **kwargs)
        finally:
            runs[0] += 1
            unreachable = gc.collect()
            if unreachable:
                names = sorted({type(obj).__qualname__ for obj in gc.garbage})
                found.append((runs[0], unreachable, names))
            _free_garbage()

    was_enabled = gc.isenabled()
    gc.disable()
    _free_garbage()
    monkeypatch.setattr(EventLoop, "run", checked_run)
    try:
        yield found
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.collect()
        if was_enabled:
            gc.enable()
    assert runs[0] > 0, "no EventLoop.run was checked"


@pytest.mark.parametrize("name", BENCHES)
def test_quick_bench_runs_leave_no_cyclic_garbage(monkeypatch, name):
    with garbage_per_run(monkeypatch) as found:
        result = run_experiment(name, quick=True)
    assert result.misses == 0
    assert found == []


def test_the_check_sees_a_planted_cycle(monkeypatch):
    """A handler that builds a self-referencing closure is caught."""
    loop = EventLoop()

    def plant():
        def closure():
            return closure

    loop.call_later(1e-6, plant)
    with garbage_per_run(monkeypatch) as found:
        loop.run()
    assert [(index, names) for index, _, names in found] == [
        (1, ["cell", "function", "tuple"])
    ]


@contextmanager
def collector(enabled: bool):
    """Run the body with automatic collection on or off, then restore it."""
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was_enabled else gc.disable)()


class TestCollectorState:
    """``run`` pauses automatic collection and restores it as it was."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_paused_inside_and_restored(self, enabled):
        loop = EventLoop()
        seen = []
        loop.call_later(1e-6, lambda: seen.append(gc.isenabled()))
        with collector(enabled):
            loop.run()
            assert seen == [False]
            assert gc.isenabled() is enabled

    def test_restored_when_a_handler_raises(self):
        loop = EventLoop()

        def boom():
            raise SimulationError("handler failed")

        loop.call_later(1e-6, boom)
        with collector(True):
            with pytest.raises(SimulationError, match="handler failed"):
                loop.run()
            assert gc.isenabled()
