"""The NIC device: multi-queue transmit rings, TSO, TLS offload, receive.

Transmit rings are drained one descriptor at a time, round-robin across
non-empty rings.  Within a ring, order is preserved (the hardware
guarantee resync depends on); across rings there is none (the §3.2
hazard).  Packet pacing onto the wire is handled by the link's serialiser;
the NIC adds its fixed pipeline latency and, for offloaded segments, the
crypto-engine latency.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional, Union

from repro.errors import SimulationError
from repro.host.costs import CostModel
from repro.net.headers import HEADERS_SIZE
from repro.net.link import Link
from repro.net.packet import Packet
from repro.nic.tls_offload import FlowContextTable, ResyncDescriptor
from repro.nic.tso import TsoMode, TsoSegment, gso_split, split_segment
from repro.sim.event_loop import EventLoop

#: Transmit rings per NIC.
NUM_QUEUES = 4

RingItem = Union[ResyncDescriptor, TsoSegment]
RxHandler = Callable[[Packet], None]


class Nic:
    """One NIC attached to one side of a link."""

    def __init__(
        self,
        loop: EventLoop,
        link: Link,
        side: str,
        costs: CostModel,
        tso_mode: TsoMode = TsoMode.FULL,
    ):
        self.loop = loop
        self.link = link
        self.side = side
        self.costs = costs
        self.num_queues = NUM_QUEUES
        self.tso_mode = tso_mode
        self.flow_contexts = FlowContextTable()
        self._rings: list[deque[RingItem]] = [deque() for _ in range(NUM_QUEUES)]
        # One doorbell per posted descriptor: the engine takes exactly one
        # item per doorbell and scans rings round-robin.  ``_doorbells``
        # counts those it has not answered yet; it is 0 while idle.
        self._doorbells = 0
        self._idle = False
        self._next_ring = 0
        self._rx_handler: Optional[RxHandler] = None
        self._ipid: dict = {}
        self.segments_sent = 0
        self.packets_sent = 0
        self.records_offloaded = 0
        self.obs = None
        self.obs_name = f"nic.{side}"
        link.attach(side, self._on_wire_rx)
        # The engine's first look at the doorbell is one dispatch away, as
        # a process start would be.
        loop.call_soon(self._next)

    def bind_obs(self, obs, name: Optional[str] = None) -> None:
        """Count TSO/GSO activity under ``name`` (also binds the TLS table)."""
        self.obs = obs
        if name is not None:
            self.obs_name = name
        self.flow_contexts.bind_obs(obs, f"{self.obs_name}.tls")

    # -- host-facing API -------------------------------------------------------

    def set_rx_handler(self, handler: RxHandler) -> None:
        self._rx_handler = handler

    def post(self, queue_id: int, item: RingItem) -> None:
        """Host enqueues a descriptor (segment or resync) to a tx ring."""
        if not 0 <= queue_id < self.num_queues:
            raise SimulationError(f"queue {queue_id} out of range")
        self._rings[queue_id].append(item)
        if self._idle:
            self._idle = False
            self.loop.call_soon(self._take)
        else:
            self._doorbells += 1

    @property
    def mtu_payload(self) -> int:
        """Per-packet payload budget under the link MTU."""
        return self.link.mtu - HEADERS_SIZE

    # -- engine ------------------------------------------------------------------
    #
    # A callback state machine that drains the rings round-robin, one
    # descriptor per doorbell.  It files the loop entries the generator
    # loop it replaced did: a ``call_soon`` per descriptor taken (at
    # ``post`` when idle, after the previous descriptor otherwise) and a
    # zero-time gap between descriptors.  An exception from ``_process``
    # propagates out of ``loop.run()``.

    def _next(self) -> None:
        """Answer the next doorbell, or go idle until ``post`` rings one."""
        if self._doorbells:
            self._doorbells -= 1
            self.loop.call_soon(self._take)
        else:
            self._idle = True

    def _take(self) -> None:
        item = None
        n = self.num_queues
        for i in range(n):
            idx = (self._next_ring + i) % n
            ring = self._rings[idx]
            if ring:
                item = ring.popleft()
                self._next_ring = (idx + 1) % n
                break
        if item is None:
            raise SimulationError("doorbell rang with empty rings")
        self._process(item)
        # A zero-time gap so descriptors posted by other CPU cores at the
        # same instant interleave across rings -- the cross-queue
        # non-atomicity of §3.2.
        self.loop.call_soon(self.loop.call_soon, self._next)

    def _process(self, item: RingItem) -> None:
        if isinstance(item, ResyncDescriptor):
            self.flow_contexts.apply_resync(item)
            return
        segment = item
        latency = self.costs.nic_fixed_latency
        if segment.tls is not None:
            encrypted = self.flow_contexts.encrypt_segment(segment.payload, segment.tls)
            self.records_offloaded += len(segment.tls.records)
            segment = TsoSegment(
                segment.src_addr,
                segment.dst_addr,
                segment.proto,
                segment.header,
                encrypted,
                segment.mss,
                tls=None,
                meta=segment.meta,
            )
            latency += self.costs.nic_crypto_latency
        self.segments_sent += 1
        packets = self._segment_to_packets(segment)
        self.packets_sent += len(packets)
        # All packets of the segment exit the pipeline at the same instant
        # with consecutive event sequence numbers, so nothing can order
        # between them: one burst event replaces one event per packet and
        # the link ingests the burst through a single callback.
        if len(packets) == 1:
            self.loop.call_later(latency, self._wire_tx, packets[0])
        else:
            self.loop.call_later(latency, self._wire_tx_burst, packets)

    def _wire_tx(self, packet: Packet) -> None:
        self.link.send(self.side, packet)

    def _wire_tx_burst(self, packets: list[Packet]) -> None:
        self.link.send_burst(self.side, packets)

    def _segment_to_packets(self, segment: TsoSegment) -> list[Packet]:
        flow_key = (
            segment.src_addr,
            segment.dst_addr,
            segment.proto,
            segment.header.src_port,
            segment.header.dst_port,
        )
        metrics = self.obs.metrics if self.obs is not None else None
        sub_segments = [segment]
        if self.tso_mode is TsoMode.PAIRS and segment.num_packets > 2:
            sub_segments = gso_split(segment, 2, metrics, self.obs_name)
        packets: list[Packet] = []
        for sub in sub_segments:
            start = self._ipid.get(flow_key, 0)
            self._ipid[flow_key] = (start + sub.num_packets) & 0xFFFF
            packets.extend(split_segment(sub, start, metrics, self.obs_name))
        return packets

    # -- receive ------------------------------------------------------------------

    def _on_wire_rx(self, packet: Packet) -> None:
        handler = self._rx_handler
        if handler is None:
            return
        self.loop.call_later(self.costs.nic_fixed_latency, handler, packet)
