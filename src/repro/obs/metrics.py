"""Hierarchical metrics registry over the ``sim.trace`` primitives.

One :class:`MetricsRegistry` per testbed names every instrument with a
dotted path (``client.homa.rx.packets``, ``switch.port3.qdepth``) and
renders the whole lot as a single stable, JSON-serialisable dict via
:meth:`MetricsRegistry.snapshot`.  The instruments themselves are the
existing :class:`~repro.sim.trace.Counter`, :class:`~repro.sim.trace.CounterSet`,
:class:`~repro.sim.trace.Histogram` and :class:`~repro.sim.trace.RateMeter`
-- the registry subsumes them, it does not replace them, so subsystems
that already own counters simply :meth:`attach` them.

Gauges close over live state (a queue depth, a busy-time accumulator) and
are read only at snapshot time, so registering one never perturbs the
simulation.  Snapshot keys are sorted; values are ints/floats or small
dicts with insertion-ordered keys -- byte-identical across same-seed runs.
"""

from __future__ import annotations

from typing import Callable, Union

from repro.errors import SimulationError
from repro.sim.trace import Counter, CounterSet, Histogram, RateMeter

Instrument = Union[Counter, CounterSet, Histogram, RateMeter]


class Gauge:
    """A named read-only view of live state, sampled at snapshot time."""

    __slots__ = ("name", "fn")

    def __init__(self, name: str, fn: Callable[[], Union[int, float]]):
        self.name = name
        self.fn = fn

    def read(self) -> Union[int, float]:
        return self.fn()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Gauge({self.name}={self.read()})"


class MetricsRegistry:
    """Dotted-name registry of counters, histograms, meters and gauges."""

    def __init__(self) -> None:
        self._entries: dict[str, object] = {}

    # -- creation / registration ---------------------------------------------

    def _get(self, name: str, kind: type, factory: Callable[[], object]) -> object:
        entry = self._entries.get(name)
        if entry is None:
            entry = factory()
            self._entries[name] = entry
        elif not isinstance(entry, kind):
            raise SimulationError(
                f"metric {name!r} already registered as {type(entry).__name__}"
            )
        return entry

    def counter(self, name: str) -> Counter:
        """The counter at ``name``, created on first use."""
        return self._get(name, Counter, lambda: Counter(name))

    def histogram(self, name: str) -> Histogram:
        """The histogram at ``name``, created on first use."""
        return self._get(name, Histogram, lambda: Histogram(name))

    def rate_meter(self, name: str) -> RateMeter:
        """The rate meter at ``name``, created on first use."""
        return self._get(name, RateMeter, lambda: RateMeter(name))

    def gauge(self, name: str, fn: Callable[[], Union[int, float]]) -> Gauge:
        """Register ``fn`` as a gauge read at snapshot time.

        Re-registering a gauge name rebinds it (gauges are views of live
        state; when a session is replaced its gauges should follow), but a
        name held by any other instrument type stays an error.
        """
        entry = self._entries.get(name)
        if entry is not None and not isinstance(entry, Gauge):
            raise SimulationError(f"metric {name!r} already registered")
        gauge = Gauge(name, fn)
        self._entries[name] = gauge
        return gauge

    def attach(self, name: str, instrument: Instrument) -> Instrument:
        """Adopt an existing instrument (e.g. a fault injector's CounterSet)."""
        entry = self._entries.get(name)
        if entry is instrument:
            return instrument
        if entry is not None:
            raise SimulationError(f"metric {name!r} already registered")
        if not isinstance(instrument, (Counter, CounterSet, Histogram, RateMeter)):
            raise SimulationError(
                f"cannot attach {type(instrument).__name__} as metric {name!r}"
            )
        self._entries[name] = instrument
        return instrument

    # -- inspection ----------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, name: str) -> object:
        return self._entries[name]

    def names(self) -> list[str]:
        return sorted(self._entries)

    def snapshot(self) -> dict:
        """Every metric's value, keyed by dotted name, keys sorted."""
        out: dict[str, object] = {}
        for name in sorted(self._entries):
            out[name] = self._render(self._entries[name])
        return out

    @staticmethod
    def _render(entry: object) -> object:
        if isinstance(entry, Counter):
            return entry.value
        if isinstance(entry, Gauge):
            return entry.read()
        if isinstance(entry, CounterSet):
            return entry.as_dict()
        if isinstance(entry, Histogram):
            return {
                "count": entry.count,
                "mean": entry.mean(),
                "p50": entry.p50(),
                "p99": entry.p99(),
                "min": entry.minimum(),
                "max": entry.maximum(),
            }
        if isinstance(entry, RateMeter):
            return {
                "completions": entry.completions,
                "bytes": entry.bytes,
                "elapsed": entry.elapsed(),
                "rate": entry.rate(),
                "goodput_bps": entry.goodput_bps(),
            }
        raise SimulationError(f"unknown metric type {type(entry).__name__}")
