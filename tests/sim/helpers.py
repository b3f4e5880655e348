"""Test helpers for the discrete-event kernel."""

from __future__ import annotations

from typing import Any, Generator

from repro.errors import SimulationError
from repro.sim.event_loop import Event, EventLoop


def run_process(loop: EventLoop, gen: Generator[Event, Any, Any]) -> Any:
    """Run ``gen`` as a process on ``loop`` to completion; return its value.

    Raises the process's exception if it fails, and ``SimulationError`` if
    the queue drains before the process finishes.
    """
    proc = loop.process(gen)
    loop.run()
    if not proc.triggered:
        raise SimulationError("process did not complete (deadlock or timeout)")
    if not proc.ok:
        raise proc.value
    return proc.value
