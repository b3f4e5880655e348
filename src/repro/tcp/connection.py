"""One TCP connection endpoint.

Transmission is chunk-based: the sender hands the connection *chunks* of
at most 64 KB, each optionally carrying a TLS offload descriptor.  A chunk
maps to one TSO segment; retransmissions resend whole chunks (preceded by
a resync descriptor when offloaded) so the NIC's flow context re-encrypts
records deterministically -- the retransmission story of paper §3.2.
The receiver trims overlapping bytes, so whole-chunk retransmits are safe.

Sequence numbers ride in ``msg_id`` un-wrapped (64-bit); pure ACKs carry
the cumulative ack in the same field with ``pkt_type=ACK``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator, Optional

from repro.errors import TransportError
from repro.host.cpu import AppThread, per_item
from repro.net.addressing import flow_hash
from repro.net.headers import PROTO_TCP, PacketType, TransportHeader
from repro.net.packet import Packet
from repro.nic.tls_offload import ResyncDescriptor, TlsOffloadDescriptor
from repro.nic.tso import MAX_TSO_PAYLOAD, TsoSegment
from repro.sim.resources import Store

_DUPACK_THRESHOLD = 3


class TxChunk:
    """A unit of transmission: contiguous bytes, optionally one TLS batch."""

    __slots__ = ("seq", "data", "tls")

    def __init__(self, seq: int, data: bytes, tls: Optional[TlsOffloadDescriptor]):
        self.seq = seq
        self.data = data
        self.tls = tls

    @property
    def end(self) -> int:
        return self.seq + len(self.data)


class TcpConnection:
    """One endpoint of an established connection."""

    def __init__(
        self,
        host,
        local_port: int,
        peer_addr: int,
        peer_port: int,
        window_bytes: int = 512 * 1024,
        rto: float = 1.0e-3,
    ):
        self.host = host
        self.loop = host.loop
        self.costs = host.costs
        self.local_port = local_port
        self.peer_addr = peer_addr
        self.peer_port = peer_port
        self.window = window_bytes
        self.base_rto = rto
        # Transmit state.
        self.snd_nxt = 0
        self.snd_una = 0
        self._tx_queue: deque[TxChunk] = deque()  # not yet transmitted
        self._unacked: deque[TxChunk] = deque()  # transmitted, not fully acked
        self._dupacks = 0
        self._recover_seq = -1
        self._rto_armed = False
        self._rto = rto
        self._rto_timer = None  # live Timer handle while armed
        self._rto_deadline = 0.0  # virtual time the armed timer fires
        # Deadline of a timer cancelled because everything was acked; a send
        # before that instant re-arms at the same deadline (legacy timers
        # were never cancelled, so new data inherited the old tick).
        self._rto_resume_at: Optional[float] = None
        # Receive state.
        self.rcv_nxt = 0
        self._ooo: dict[int, bytes] = {}  # seq -> payload
        self._rx_store: Store = Store(self.loop, f"tcp.{local_port}.rx")
        self._reader_blocked = False
        self._readable_cb = None  # epoll-style edge notification
        self._ack_pending = False
        self._pkts_since_ack = 0
        # The softirq core all this connection's packets land on (RSS),
        # and the batch handlers its work runs as there.
        self._softirq = host.softirq_core_for_flow(
            peer_addr, peer_port, local_port, PROTO_TCP
        )
        self.on_packets = per_item(self.handle_packet)
        self._on_retransmit_due = per_item(self._retransmit)
        # The NIC tx queue this connection's segments use (XPS-style).
        self.nic_queue = (
            flow_hash(host.addr, local_port, peer_addr, peer_port, PROTO_TCP)
            % host.nic.num_queues
        )
        # Stats.
        self.retransmits = 0
        self.fast_retransmits = 0
        self.timeouts = 0

    # -- application-side API (generators run on an AppThread) -----------------

    def send(
        self,
        thread: AppThread,
        data: bytes,
        tls: Optional[TlsOffloadDescriptor] = None,
    ) -> Generator[Any, Any, None]:
        """Queue ``data`` (one chunk per <=64 KB) and push what the window allows.

        CPU charged: syscall + copy-in + per-segment/packet tx costs for the
        portion transmitted now.  ``tls`` applies to the whole ``data`` and
        requires it to fit one chunk.
        """
        if not data:
            raise TransportError("cannot send zero bytes")
        if tls is not None and len(data) > MAX_TSO_PAYLOAD:
            raise TransportError("TLS chunk larger than a TSO segment")
        chunks: list[TxChunk] = []
        for off in range(0, len(data), MAX_TSO_PAYLOAD):
            piece = data[off : off + MAX_TSO_PAYLOAD]
            chunks.append(TxChunk(self.snd_nxt + off, piece, tls if off == 0 else None))
        self.snd_nxt += len(data)
        self._tx_queue.extend(chunks)
        # Charge the send-side CPU *before* packets hit the NIC, so
        # transmission waits for the work that produces it.
        cost = (
            self.costs.syscall
            + self.costs.copy_cost(len(data))
            + self._tx_cpu_cost(self._sendable())
        )
        yield from thread.work(cost)
        self._push()

    def recv(self, thread: AppThread) -> Generator[Any, Any, bytes]:
        """Read the next available in-order bytes (blocks if none)."""
        chunk = self._rx_store.try_get()
        woke = False
        if chunk is None:
            self._reader_blocked = True
            chunk = yield self._rx_store.get()
            self._reader_blocked = False
            woke = True
        # Coalesce whatever else is already queued (one syscall drains all).
        parts = [chunk]
        while True:
            more = self._rx_store.try_get()
            if more is None:
                break
            parts.append(more)
        data = b"".join(parts)
        cost = self.costs.syscall + self.costs.copy_cost(len(data))
        if woke:
            cost += self.costs.wakeup
        yield from thread.work(cost)
        return data

    # -- transmit machinery ---------------------------------------------------------

    def _tx_cpu_cost(self, chunks: list[TxChunk]) -> float:
        cost = 0.0
        mss = self.host.nic.mtu_payload
        for chunk in chunks:
            npkts = max(1, (len(chunk.data) + mss - 1) // mss)
            cost += (
                self.costs.tcp_tx_per_segment
                + npkts * self.costs.tcp_tx_per_packet
                + self.costs.driver_tx_per_segment
            )
        return cost

    def _sendable(self) -> list[TxChunk]:
        """Dry run of :meth:`_push`: chunks the window admits right now."""
        sendable: list[TxChunk] = []
        inflight = (self._unacked[-1].end - self.snd_una) if self._unacked else 0
        for chunk in self._tx_queue:
            if inflight + len(chunk.data) > self.window and inflight > 0:
                break
            inflight += len(chunk.data)
            sendable.append(chunk)
        return sendable

    def _push(self) -> list[TxChunk]:
        """Transmit queued chunks within the window; returns what was sent."""
        sent: list[TxChunk] = []
        while self._tx_queue:
            chunk = self._tx_queue[0]
            inflight = (self._unacked[-1].end - self.snd_una) if self._unacked else 0
            if inflight + len(chunk.data) > self.window and inflight > 0:
                break
            self._tx_queue.popleft()
            self._unacked.append(chunk)
            self._transmit_chunk(chunk)
            sent.append(chunk)
        if self._unacked and not self._rto_armed:
            resume_at = self._rto_resume_at
            self._rto_resume_at = None
            if resume_at is not None and resume_at > self.loop.now:
                self._arm_rto_at(resume_at)
            else:
                self._arm_rto()
        return sent

    def _transmit_chunk(self, chunk: TxChunk, resync: bool = False) -> None:
        nic = self.host.nic
        if chunk.tls is not None and resync:
            nic.post(
                self.nic_queue,
                ResyncDescriptor(chunk.tls.context_key, chunk.tls.records[0].seqno),
            )
        header = TransportHeader(
            src_port=self.local_port,
            dst_port=self.peer_port,
            msg_id=chunk.seq,
            pkt_type=PacketType.DATA,
            msg_len=len(chunk.data),
        )
        segment = TsoSegment(
            src_addr=self.host.addr,
            dst_addr=self.peer_addr,
            proto=PROTO_TCP,
            header=header,
            payload=chunk.data,
            mss=nic.mtu_payload,
            tls=chunk.tls,
        )
        nic.post(self.nic_queue, segment)

    def _arm_rto(self) -> None:
        self._rto_armed = True
        snapshot = self.snd_una
        rto = self._rto

        def check() -> None:
            self._rto_timer = None
            self._rto_armed = False
            if not self._unacked:
                return
            if self.snd_una == snapshot:
                # Timeout: retransmit the first unacked chunk in softirq
                # context with backoff.
                self.timeouts += 1
                self._rto = min(self._rto * 2, 0.2)
                self._softirq.submit(self._tx_cpu_cost([self._unacked[0]]),
                                     self._on_retransmit_due, self._unacked[0])
            else:
                self._rto = self.base_rto
            self._arm_rto()

        self._rto_deadline = self.loop.now + rto
        self._rto_timer = self.loop.timer_later(rto, check)

    def _arm_rto_at(self, deadline: float) -> None:
        """Re-arm a cancelled RTO at its original deadline.

        At that instant the legacy timer always landed in its
        made-progress branch (``snd_una`` had advanced past the snapshot
        before the cancel point), which reset the backoff and re-armed --
        so that is all this resume timer has to reproduce.
        """
        self._rto_armed = True

        def check() -> None:
            self._rto_timer = None
            self._rto_armed = False
            if not self._unacked:
                return
            self._rto = self.base_rto
            self._arm_rto()

        self._rto_deadline = deadline
        self._rto_timer = self.loop.timer_at(deadline, check)

    def _pause_rto(self) -> None:
        """All data acked: cancel the timer rather than let it fire dead."""
        timer = self._rto_timer
        if timer is not None:
            timer.cancel()
            self._rto_timer = None
            self._rto_armed = False
            self._rto_resume_at = self._rto_deadline

    def _retransmit(self, chunk: TxChunk) -> None:
        """Softirq work of an RTO: resend ``chunk`` if still first unacked."""
        if self._unacked and self._unacked[0] is chunk:
            self.retransmits += 1
            self._transmit_chunk(chunk, resync=chunk.tls is not None)

    # -- receive machinery (runs in softirq context) -----------------------------------

    def rx_cost(self, packet: Packet) -> float:
        """Softirq CPU cost on the delivery critical path for one packet.

        Wake/timer work happens after ``sk_data_ready`` hands off to the
        application, so it is charged as post-handler cost (it keeps the
        softirq core busy but does not delay this packet's delivery).
        """
        c = self.costs
        if packet.transport.pkt_type == PacketType.ACK:
            return c.tcp_ack_rx
        cost = c.tcp_rx_per_packet
        if packet.meta.get("segment_end", True):
            cost += c.tcp_rx_fixed
        return cost

    def handle_packet(self, packet: Packet) -> Optional[float]:
        """Process one packet; returns extra softirq cost discovered."""
        if packet.transport.pkt_type == PacketType.ACK:
            return self._handle_ack(packet.transport.msg_id)
        return self._handle_data(packet)

    def _handle_data(self, packet: Packet) -> Optional[float]:
        seq = packet.transport.msg_id
        payload = packet.payload
        extra = 0.0
        if seq + len(payload) <= self.rcv_nxt:
            pass  # pure duplicate: just ack again
        else:
            if seq < self.rcv_nxt:  # partial overlap: trim the head
                payload = payload[self.rcv_nxt - seq :]
                seq = self.rcv_nxt
            if seq == self.rcv_nxt:
                self._deliver(payload)
                # Drain any now-contiguous out-of-order data.
                while self.rcv_nxt in self._ooo:
                    nxt = self._ooo.pop(self.rcv_nxt)
                    self._deliver(nxt)
            else:
                self._ooo.setdefault(seq, payload)
        # ACK policy: every second packet, or segment end, or ooo (dup ack).
        self._pkts_since_ack += 1
        ooo_arrival = seq != self.rcv_nxt and seq > self.rcv_nxt
        if (
            self._pkts_since_ack >= 2
            or packet.meta.get("segment_end", True)
            or ooo_arrival
            or len(payload) < self.host.nic.mtu_payload
        ):
            self._send_ack()
            extra += self.costs.tcp_ack_tx
        # Post-delivery stack work: epoll wake chain and timer management.
        if packet.meta.get("segment_end", True):
            extra += self.costs.tcp_timer
            if self._reader_blocked or self._readable_cb is not None:
                extra += self.costs.tcp_wake_softirq
        return extra or None

    def set_readable_callback(self, fn) -> None:
        """Edge-triggered readability notification (epoll model).

        ``fn(self)`` fires (in softirq context) when the receive buffer
        transitions from empty to non-empty.
        """
        self._readable_cb = fn

    def try_recv(self) -> bytes:
        """Drain available in-order bytes without blocking or charging.

        The caller (an epoll-style server) charges syscall/copy costs.
        """
        parts = []
        while True:
            chunk = self._rx_store.try_get()
            if chunk is None:
                break
            parts.append(chunk)
        return b"".join(parts)

    def _deliver(self, payload: bytes) -> None:
        self.rcv_nxt += len(payload)
        was_empty = len(self._rx_store) == 0
        self._rx_store.put(payload)
        if was_empty and self._readable_cb is not None:
            self._readable_cb(self)

    def _send_ack(self) -> None:
        self._pkts_since_ack = 0
        nic = self.host.nic
        header = TransportHeader(
            src_port=self.local_port,
            dst_port=self.peer_port,
            msg_id=self.rcv_nxt,
            pkt_type=PacketType.ACK,
        )
        segment = TsoSegment(
            src_addr=self.host.addr,
            dst_addr=self.peer_addr,
            proto=PROTO_TCP,
            header=header,
            payload=b"",
            mss=nic.mtu_payload,
        )
        nic.post(self.nic_queue, segment)

    def _handle_ack(self, ack: int) -> Optional[float]:
        extra = 0.0
        if ack > self.snd_una:
            self.snd_una = ack
            self._dupacks = 0
            self._rto = self.base_rto
            while self._unacked and self._unacked[0].end <= ack:
                self._unacked.popleft()
            if not self._unacked:
                self._pause_rto()
            # Window opened: push more, charging this softirq context.
            sent = self._push()
            if sent:
                extra += self._tx_cpu_cost(sent)
        elif self._unacked:
            self._dupacks += 1
            if self._dupacks == _DUPACK_THRESHOLD and self.snd_una > self._recover_seq:
                self._recover_seq = self.snd_nxt
                self.fast_retransmits += 1
                self.retransmits += 1
                chunk = self._unacked[0]
                self._transmit_chunk(chunk, resync=chunk.tls is not None)
                extra += self._tx_cpu_cost([chunk])
        return extra or None
