"""Discrete-event simulation kernel.

A small, deterministic simpy-style engine: a virtual clock, an event queue,
generator-based processes, and FIFO resources used to model CPU cores and
serial devices.  All latency/throughput numbers reported by the benchmarks
come from this virtual clock, never from wall time.
"""

from repro.sim.event_loop import Event, EventLoop, Process, Timer
from repro.sim.resources import Resource, Store
from repro.sim.trace import Counter, CounterSet, Histogram, RateMeter

__all__ = [
    "Event",
    "EventLoop",
    "Process",
    "Timer",
    "Resource",
    "Store",
    "Counter",
    "CounterSet",
    "Histogram",
    "RateMeter",
]
