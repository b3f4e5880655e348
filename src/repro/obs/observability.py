"""The per-testbed observability hub: tracer + metrics + capture.

One :class:`Observability` instance ties the three tentpole pieces to one
event loop and parks itself at ``loop.obs`` so instrumented code anywhere
in the stack can find it without plumbing (components without a loop
reference -- codecs, sessions, handshakes -- get an explicit ``bind_obs``
instead).  ``loop.obs`` defaults to ``None`` and every instrumentation
point guards on that, so an unobserved simulation runs the exact same
event sequence it always did.

The ``observe_*`` helpers wire the passive sources: packet-capture taps on
link directions and switch ports, and gauges over counters the substrate
already maintains (link/port/NIC/CPU state), so the registry reports them
without double bookkeeping.  :meth:`Observability.snapshot` is the one
JSON-serialisable view benchmarks embed in their reports.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.obs.capture import PacketCapture
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanTracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.faults import FaultInjector
    from repro.net.link import Link
    from repro.net.switch import Switch
    from repro.sim.event_loop import EventLoop


class Observability:
    """Span tracer, metrics registry and packet capture for one loop."""

    def __init__(self, loop: "EventLoop", capture_capacity: int = 4096):
        self.loop = loop
        self.tracer = SpanTracer(loop)
        self.metrics = MetricsRegistry()
        self.capture = PacketCapture(loop, capacity=capture_capacity)
        loop.obs = self

    # -- wiring helpers ------------------------------------------------------

    def observe_link(
        self, link: "Link", name_a: str = "a2b", name_b: str = "b2a"
    ) -> None:
        """Tap both directions and register the link's gauges.

        ``name_a`` labels packets transmitted *from* side "a" (and the
        ``link.{name_a}.*`` gauges), mirroring ``Link.inject_faults``.
        """
        for side, name in (("a", name_a), ("b", name_b)):
            link.install_tap(side, self.capture.tap(name))
            stats = link.stats  # read at snapshot time
            for gauge, field in (
                ("tx_packets", "tx_packets"), ("tx_bytes", "tx_bytes"),
                ("dropped", "dropped"), ("queued_bytes", "queued"),
            ):
                self.metrics.gauge(
                    f"link.{name}.{gauge}",
                    lambda side=side, field=field: stats(side)[field],
                )

    def observe_switch(self, switch: "Switch", port_names: dict) -> None:
        """Tap and gauge the egress port toward each ``{addr: name}``."""
        for addr, name in port_names.items():
            switch.install_tap(addr, self.capture.tap(name))
            for field in ("queued", "dropped", "trimmed"):
                self.metrics.gauge(
                    f"switch.{name}.{field}",
                    lambda addr=addr, field=field: switch.stats(addr)[field],
                )

    def observe_host(self, host) -> None:
        """Gauges over a host's CPU accounting and its NIC, if attached."""
        prefix = host.name
        self.metrics.gauge(
            f"{prefix}.cpu.app_busy", lambda: host.cpu_busy_time()["app"]
        )
        self.metrics.gauge(
            f"{prefix}.cpu.softirq_busy", lambda: host.cpu_busy_time()["softirq"]
        )
        self.metrics.gauge(
            f"{prefix}.cpu.softirq_items",
            lambda: sum(c.items_processed for c in host.softirq_cores),
        )
        self.metrics.gauge(
            f"{prefix}.cpu.softirq_batches",
            lambda: sum(c.batches for c in host.softirq_cores),
        )
        self.metrics.gauge(f"{prefix}.rx_dropped", lambda: host.rx_dropped)
        nic = host.nic
        if nic is not None:
            nic.bind_obs(self, f"{prefix}.nic")
            for field in ("segments_sent", "packets_sent", "records_offloaded"):
                self.metrics.gauge(
                    f"{prefix}.nic.{field}",
                    lambda field=field: getattr(nic, field),
                )
            table = nic.flow_contexts
            self.metrics.gauge(f"{prefix}.nic.tls.allocations", lambda: table.allocations)
            self.metrics.gauge(f"{prefix}.nic.tls.evictions", lambda: table.evictions)
            self.metrics.gauge(
                f"{prefix}.nic.tls.contexts", lambda: len(table._contexts)
            )

    def observe_fault_injector(
        self, injector: "FaultInjector", name: Optional[str] = None
    ) -> None:
        """Adopt an injector's CounterSet under ``name`` (its own by default)."""
        self.metrics.attach(name or injector.name, injector.counters)

    def observe_tenant_fabric(self, fabric) -> None:
        """Export a :class:`repro.tenancy.TenantFabric`'s ``tenant.*``
        gauges (served, throttled, bulkhead waits, session/key-pool
        compartments) and route its ``tenant.throttle`` spans through this
        tracer."""
        fabric.bind_obs(self)

    # -- the one-call summary ------------------------------------------------

    def snapshot(self) -> dict:
        """Everything, JSON-serialisable and stable under a fixed seed."""
        return {
            "now": self.loop.now,
            "metrics": self.metrics.snapshot(),
            "spans": self.tracer.layer_summary(),
            "capture": {
                "seen": self.capture.seen,
                "buffered": len(self.capture),
                "evicted": self.capture.evicted,
            },
        }
