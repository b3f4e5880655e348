"""Deterministic, seed-driven fault injection for the simulated network.

The clean substrate (``repro.net.link`` / ``repro.net.switch``) delivers
every transmitted packet in order.  Real datacenter fabrics do not: they
drop (tail drops, ECMP blackholes), reorder (multi-path, priority
inversion), duplicate (spurious retransmit hardware, loops during
reconvergence), corrupt (bit rot past the Ethernet FCS -- the exact case
paper §7 argues SMT's AEAD covers, since Homa has no checksum with TSO),
lose in bursts (shallow-buffer congestion, modelled as a Gilbert-Elliott
two-state chain), and go dark entirely for a while (link flaps).

:class:`FaultInjector` models all of these behind one seeded
``random.Random``.  It sits between an egress serialiser and the
receiver's packet handler, so it sees packets in deterministic
virtual-time order; with a fixed seed and a fixed schedule every run
replays identically -- a failing fuzz case is reproduced by its seed
alone.

Fault model notes:

- Corruption flips payload bytes only.  Header corruption on a real wire
  is caught by the Ethernet FCS and surfaces as a *drop*; payload
  corruption reaching the host is the case AEAD must catch, because Homa
  relies on TSO and carries no transport checksum (paper §7).
  Packets without payload bytes pass through unharmed.
- Reordering delays the chosen packet by a bounded random extra latency
  so later packets overtake it; nothing is ever reordered across more
  than ``reorder_delay`` seconds of traffic.
- Link flaps are a deterministic square wave derived from virtual time
  (period/down-time), so both directions of a wrapped link can share the
  same outage windows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from typing import Callable

from repro.errors import SimulationError
from repro.net.packet import Packet
from repro.sim.event_loop import EventLoop
from repro.sim.trace import CounterSet

Receiver = Callable[[Packet], None]

#: Counter names every injector exposes (one :class:`repro.sim.trace.Counter`
#: each); tests and benchmarks assert on exact values via ``counters.as_dict()``.
FAULT_COUNTERS = (
    "seen",
    "delivered",
    "dropped",
    "burst_dropped",
    "flap_dropped",
    "corrupted",
    "duplicated",
    "reordered",
)


@dataclass(frozen=True)
class FaultConfig:
    """Knobs of the adversarial network; all probabilities are per packet."""

    # Independent (Bernoulli) loss.
    drop_rate: float = 0.0
    # Payload bit corruption (one random byte XORed with a random mask).
    corrupt_rate: float = 0.0
    # Duplicate delivery: the copy arrives after an extra random delay.
    duplicate_rate: float = 0.0
    duplicate_delay: float = 5e-6
    # Reordering: the packet is held back up to ``reorder_delay`` seconds.
    reorder_rate: float = 0.0
    reorder_delay: float = 20e-6
    # Gilbert-Elliott burst loss: a two-state Markov chain advanced per
    # packet.  ``burst_enter`` is P(good->bad), ``burst_exit`` P(bad->good);
    # while in the bad state packets drop with ``burst_loss_rate``.
    burst_enter: float = 0.0
    burst_exit: float = 0.25
    burst_loss_rate: float = 0.9
    # Link flaps: every ``flap_period`` seconds the link goes dark for
    # ``flap_down`` seconds (0 disables).  Phase is anchored at t=0 with the
    # link up, so runs replay identically.
    flap_period: float = 0.0
    flap_down: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "drop_rate",
            "corrupt_rate",
            "duplicate_rate",
            "reorder_rate",
            "burst_enter",
            "burst_exit",
            "burst_loss_rate",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise SimulationError(f"{name} must be a probability, got {value}")
        for name in ("duplicate_delay", "reorder_delay", "flap_period", "flap_down"):
            if getattr(self, name) < 0:
                raise SimulationError(f"{name} must be non-negative")
        if self.flap_period and self.flap_down >= self.flap_period:
            raise SimulationError("flap_down must be shorter than flap_period")

    def describe(self) -> str:
        """Compact non-default-knob summary for logs and failure messages."""
        parts = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value != f.default:
                parts.append(f"{f.name}={value:g}")
        return ", ".join(parts) or "clean"


class FaultInjector:
    """Applies one :class:`FaultConfig` to a packet stream, deterministically.

    Install between an egress and its receiver with
    :meth:`repro.net.link.Link.inject_faults` (or the switch/fabric
    equivalents), or call :meth:`process` directly from custom plumbing.
    All randomness comes from ``random.Random(seed)`` consumed in packet
    order, so identical seeds and schedules replay identically on the
    virtual-time loop.
    """

    def __init__(
        self,
        loop: EventLoop,
        config: FaultConfig,
        seed: int = 0,
        name: str = "faults",
    ):
        self.loop = loop
        self.config = config
        self.seed = seed
        self.name = name
        self.rng = random.Random(seed)
        self.counters = CounterSet(FAULT_COUNTERS, prefix=f"{name}.")
        self._burst_bad = False  # Gilbert-Elliott state

    # -- the fault pipeline ---------------------------------------------------

    def process(self, packet: Packet, deliver: Receiver) -> str:
        """Decide this packet's fate and (maybe) hand it to ``deliver``.

        Returns a verdict string for capture taps: one of the drop kinds
        ("flap_dropped", "burst_dropped", "dropped") or "delivered" with
        "+corrupt"/"+dup"/"+reorder" markers for the faults applied.
        """
        cfg = self.config
        counters = self.counters
        counters.seen.add()
        # Link flap: a dark window swallows everything, no RNG consumed --
        # the outage is a property of the wire, not of chance.
        if cfg.flap_period and cfg.flap_down:
            phase = self.loop.now % cfg.flap_period
            if phase >= cfg.flap_period - cfg.flap_down:
                counters.flap_dropped.add()
                return "flap_dropped"
        rng = self.rng
        # Gilbert-Elliott burst loss, advanced once per packet while armed.
        if cfg.burst_enter:
            if self._burst_bad:
                if rng.random() < cfg.burst_exit:
                    self._burst_bad = False
            elif rng.random() < cfg.burst_enter:
                self._burst_bad = True
            if self._burst_bad and rng.random() < cfg.burst_loss_rate:
                counters.burst_dropped.add()
                return "burst_dropped"
        if cfg.drop_rate and rng.random() < cfg.drop_rate:
            counters.dropped.add()
            return "dropped"
        marks = []
        if cfg.corrupt_rate and packet.payload and rng.random() < cfg.corrupt_rate:
            packet = self._corrupt(packet)
            counters.corrupted.add()
            marks.append("corrupt")
        if cfg.duplicate_rate and rng.random() < cfg.duplicate_rate:
            counters.duplicated.add()
            marks.append("dup")
            delay = rng.random() * cfg.duplicate_delay
            self.loop.call_later(delay, deliver, packet)
        if cfg.reorder_rate and rng.random() < cfg.reorder_rate:
            counters.reordered.add()
            marks.append("reorder")
            delay = rng.random() * cfg.reorder_delay
            self.loop.call_later(delay, deliver, packet)
        else:
            deliver(packet)
        counters.delivered.add()
        return "delivered" + "".join(f"+{m}" for m in marks)

    def _corrupt(self, packet: Packet) -> Packet:
        """Flip one payload byte (never to its original value)."""
        mutated = bytearray(packet.payload)
        index = self.rng.randrange(len(mutated))
        mutated[index] ^= self.rng.randrange(1, 256)
        return Packet(packet.ip, packet.transport, bytes(mutated), dict(packet.meta))

    # -- inspection -----------------------------------------------------------

    def stats(self) -> dict:
        """Snapshot of every fault counter (stable key order)."""
        return self.counters.as_dict()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FaultInjector({self.name!r}, seed={self.seed}, {self.config.describe()})"


def schedule_from_seed(seed: int) -> FaultConfig:
    """A random-but-survivable fault schedule derived entirely from ``seed``.

    Used by the fuzz harness: rates are bounded so that retransmission can
    always win (drops <= 10%, corruption <= 4%, finite flaps), while mixes
    cover every fault dimension.  The same seed always yields the same
    schedule.
    """
    rng = random.Random(seed)
    bursty = rng.random() < 0.3
    flappy = rng.random() < 0.2
    return FaultConfig(
        drop_rate=rng.uniform(0.0, 0.10),
        corrupt_rate=rng.uniform(0.0, 0.04),
        duplicate_rate=rng.uniform(0.0, 0.08),
        duplicate_delay=rng.uniform(1e-6, 10e-6),
        reorder_rate=rng.uniform(0.0, 0.35),
        reorder_delay=rng.uniform(5e-6, 40e-6),
        burst_enter=rng.uniform(0.005, 0.03) if bursty else 0.0,
        burst_exit=rng.uniform(0.2, 0.5),
        burst_loss_rate=rng.uniform(0.5, 0.95),
        flap_period=rng.uniform(2e-3, 6e-3) if flappy else 0.0,
        flap_down=rng.uniform(50e-6, 300e-6) if flappy else 0.0,
    )
