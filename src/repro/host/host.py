"""The host: cores, NIC attachment, transport demultiplexing.

Receive steering follows real RSS: the NIC hashes the flow 5-tuple and the
packet lands on the corresponding softirq core.  Because a Homa/SMT
session is a single 5-tuple, *all* its packets funnel through one softirq
core -- the very bottleneck the paper measures (§5.2: throughput
"constrained to around 700 K RPC/s by the softirq thread") -- while TCP's
many connections spread across cores.  Message-level parallelism for
Homa/SMT happens above softirq, when completed messages are handed to
application threads.
"""

from __future__ import annotations

from typing import Any, Optional, Protocol

from repro.errors import SimulationError
from repro.host.costs import CostModel
from repro.host.cpu import AppThread, BatchHandler, SoftirqCore
from repro.net.addressing import flow_hash
from repro.net.packet import Packet
from repro.sim.event_loop import EventLoop
from repro.sim.resources import Resource


class Transport(Protocol):
    """What a transport must expose to receive packets from the host."""

    def classify(
        self, packet: Packet
    ) -> tuple[float, BatchHandler, Any, Optional[object], float]:
        """Return (cost, handler, arg, merge_key, merge_cost) for one packet.

        ``handler`` is a batch handler (:meth:`SoftirqCore.submit`): the
        softirq core calls it once per batch with every batched packet's
        ``arg``, and it returns the batch's extra CPU cost.  Handlers are
        built once per transport (or connection), not per packet.
        ``merge_key``/``merge_cost`` enable GRO-style batching on the
        softirq core (None disables it for this packet); packets sharing
        a merge key must share a handler.
        """
        ...


class Host:
    """A simulated machine: app cores, softirq cores, one NIC."""

    def __init__(
        self,
        loop: EventLoop,
        name: str,
        addr: int,
        costs: Optional[CostModel] = None,
        num_app_cores: int = 12,
        num_softirq_cores: int = 4,
    ):
        self.loop = loop
        self.name = name
        self.addr = addr
        self.costs = costs or CostModel()
        self.app_cores = [
            Resource(loop, 1, f"{name}.app{i}") for i in range(num_app_cores)
        ]
        self.softirq_cores = [
            SoftirqCore(loop, f"{name}.softirq{i}") for i in range(num_softirq_cores)
        ]
        self.nic = None  # attached via attach_nic
        self._transports: dict[int, Transport] = {}
        self._next_port = 10000
        self.rx_dropped = 0

    # -- wiring ----------------------------------------------------------------

    def attach_nic(self, nic) -> None:
        self.nic = nic
        nic.set_rx_handler(self._on_packet)

    def register_transport(self, proto: int, transport: Transport) -> None:
        if proto in self._transports:
            raise SimulationError(f"transport for proto {proto} already registered")
        self._transports[proto] = transport

    def transport(self, proto: int) -> Optional[Transport]:
        """The transport registered for ``proto``, if any."""
        return self._transports.get(proto)

    def alloc_port(self) -> int:
        """The next ephemeral port; raises once the 16-bit space is spent."""
        port = self._next_port
        if port > 0xFFFF:
            raise SimulationError(f"host {self.name} has no ephemeral port left")
        self._next_port += 1
        return port

    # -- receive path -------------------------------------------------------------

    def _on_packet(self, packet: Packet) -> None:
        transport = self._transports.get(packet.ip.proto)
        if transport is None:
            self.rx_dropped += 1
            return
        core = self.softirq_core_for(packet)
        cost, handler, arg, merge_key, merge_cost = transport.classify(packet)
        core.submit(
            cost + self.costs.driver_rx_per_packet,
            handler,
            arg,
            merge_key,
            merge_cost + self.costs.driver_rx_per_packet,
        )

    def softirq_core_for(self, packet: Packet) -> SoftirqCore:
        """RSS steering: hash the 5-tuple onto a softirq core."""
        ip = packet.ip
        t = packet.transport
        cores = self.softirq_cores
        h = flow_hash(ip.src_addr, t.src_port, ip.dst_addr, t.dst_port, ip.proto)
        return cores[h % len(cores)]

    def softirq_core_for_flow(
        self, peer_addr: int, peer_port: int, local_port: int, proto: int
    ) -> SoftirqCore:
        """The softirq core inbound packets of this flow would land on."""
        cores = self.softirq_cores
        h = flow_hash(peer_addr, peer_port, self.addr, local_port, proto)
        return cores[h % len(cores)]

    # -- application helpers --------------------------------------------------------

    def app_thread(self, index: int) -> AppThread:
        """An application thread pinned to app core ``index``."""
        core = self.app_cores[index % len(self.app_cores)]
        return AppThread(self.loop, core, f"{self.name}.thread{index}")

    # -- accounting --------------------------------------------------------------------

    def cpu_busy_time(self) -> dict[str, float]:
        """Cumulative busy seconds per core group."""
        return {
            "app": sum(c.busy_time for c in self.app_cores),
            "softirq": sum(c.busy_time for c in self.softirq_cores),
        }

    def utilization(self, elapsed: float) -> float:
        """Whole-host CPU utilisation over ``elapsed`` seconds."""
        if elapsed <= 0:
            return 0.0
        total_cores = len(self.app_cores) + len(self.softirq_cores)
        busy = sum(self.cpu_busy_time().values())
        return busy / (total_cores * elapsed)
