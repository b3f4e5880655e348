"""A bounded per-host table of active sessions with deterministic eviction.

A datacenter host talks to thousands of short-lived peers (ROADMAP north
star; Homa's workloads), so session state must be bounded.  The table
evicts the least-recently-used session when full and -- when even the LRU
candidates are busy -- refuses new handshake admissions (backpressure
surfaced to clients as a refused flight).  Everything is driven by
insertion and use order, so a fixed seed replays the same evictions.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

from repro.errors import ProtocolError


@dataclass
class _Entry:
    on_evict: Callable[[], None]
    busy: Callable[[], bool]


class SessionTable:
    """LRU-evicting session registry with admission backpressure."""

    def __init__(self, capacity: int = 1024):
        if capacity < 1:
            raise ProtocolError(f"session table capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[tuple, _Entry]" = OrderedDict()
        self.inserted = 0
        self.evicted_lru = 0
        self.admission_refused = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        return key in self._entries

    def admit(self) -> bool:
        """May one more handshake proceed?  False applies backpressure."""
        if len(self._entries) < self.capacity:
            return True
        if any(not e.busy() for e in self._entries.values()):
            return True  # insert() will evict that LRU candidate
        self.admission_refused += 1
        return False

    def insert(
        self,
        key: tuple,
        on_evict: Callable[[], None],
        busy: Callable[[], bool],
    ) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
            self._entries[key] = _Entry(on_evict, busy)
            return
        if len(self._entries) >= self.capacity and not self._evict_lru():
            self.admission_refused += 1
            raise ProtocolError("session table full and every entry is busy")
        self._entries[key] = _Entry(on_evict, busy)
        self.inserted += 1

    def touch(self, key: tuple) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)

    def remove(self, key: tuple) -> bool:
        return self._entries.pop(key, None) is not None

    def _evict_lru(self) -> bool:
        """Evict the oldest non-busy entry; False if all are busy."""
        for key, entry in self._entries.items():
            if entry.busy():
                continue
            del self._entries[key]
            self.evicted_lru += 1
            entry.on_evict()
            return True
        return False

    def clear(self, notify: bool = False) -> int:
        """Tear down every session (process crash / cold restart).

        With ``notify`` each entry's ``on_evict`` runs (orderly close,
        e.g. for tests); a crash uses the default ``notify=False`` -- the
        state is simply gone, peers discover it via failed RPCs and
        re-handshakes.  Returns the number of sessions dropped.
        """
        dropped = len(self._entries)
        entries = list(self._entries.values()) if notify else ()
        self._entries.clear()
        for entry in entries:
            entry.on_evict()
        return dropped
