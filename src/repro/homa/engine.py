"""The Homa protocol engine: packet handling, grants, retransmission.

One :class:`HomaTransport` per (host, protocol number).  Sockets register
by port; RPC message IDs are even for requests, ``request | 1`` for
responses (the Homa/Linux convention).  Receive processing runs in softirq
context on the single core the session's 5-tuple RSS-hashes to -- the
bottleneck §5.2 measures -- while completed messages are handed to
application threads for the copy/decrypt stage.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ProtocolError, TransportError
from repro.homa.codec import EncodedMessage, MessageCodec, SegmentPlan
from repro.homa.constants import HomaConfig
from repro.homa.message import InboundMessage, OutboundMessage
from repro.host.cpu import discard, per_item
from repro.net.headers import PROTO_HOMA, PacketType, TransportHeader
from repro.net.packet import Packet
from repro.nic.tso import TsoSegment
from repro.units import MB

#: Maximum message size (Homa's default, paper §4.4.1).
MAX_MESSAGE_SIZE = 1 * MB
#: Largest wire message a transport sends or takes: the payload bound with
#: room for SMT's record overhead.  The receiver checks a first DATA
#: header's ``msg_len`` against it before allocating, since nothing in that
#: header is authenticated yet.
MAX_WIRE_LEN = MAX_MESSAGE_SIZE * 2
#: Re-grant when outstanding authorisation falls below this fraction.
GRANT_REFILL_FRACTION = 0.5
#: Network priority levels (strict; 7 highest).
CONTROL_PRIORITY = 7
UNSCHEDULED_PRIORITY = 6

#: Delivered message IDs a transport remembers.  The oldest is forgotten
#: first, so a late duplicate of any of the newest this many is ignored.
DELIVERED_MEMORY = 100_000


class HomaTransport:
    """Protocol engine shared by all Homa (or SMT) sockets on a host."""

    def __init__(self, host, config: Optional[HomaConfig] = None, proto: int = PROTO_HOMA):
        self.host = host
        self.loop = host.loop
        self.costs = host.costs
        self.config = config or HomaConfig()
        self.proto = proto
        host.register_transport(proto, self)
        self._sockets: dict[int, "HomaSocket"] = {}  # noqa: F821
        # Outbound keyed by (peer, msg_id); inbound by (peer, port, id).
        self._outbound: dict[tuple[int, int], OutboundMessage] = {}
        self._inbound: dict[tuple[int, int, int], InboundMessage] = {}
        # Insertion-ordered, bounded at DELIVERED_MEMORY keys (a plain dict:
        # an OrderedDict's linked list more than doubles its size).
        self._delivered: dict[tuple[int, int, int], None] = {}
        self._next_msg_id = 2
        # Lazily-batched ACKs (Homa/Linux acks lazily; responses implicitly
        # ack their requests): peer -> (local_port, peer_port, [msg ids]).
        self._ack_batch: dict[int, tuple[int, int, list[int]]] = {}
        self.ack_batch_size = 8
        self.ack_flush_interval = 100e-6
        # Stats the tests and benchmarks read.
        self.messages_sent = 0
        self.messages_delivered = 0
        self.replays_dropped = 0
        self.oversize_dropped = 0
        self.spurious_ignored = 0
        self.resend_requests = 0
        self.packets_retransmitted = 0
        self.corrupt_recoveries = 0
        # Softirq batch handlers, built once; only DATA batches (GRO).
        self._on_data = per_item(self._handle_data)
        self._on_control = {
            PacketType.GRANT: per_item(self._handle_grant),
            PacketType.RESEND: per_item(self._handle_resend),
            PacketType.ACK: per_item(self._handle_ack),
        }
        self._on_resend_due = per_item(self._request_resend)
        # Receive counters bound per packet type on the loop's current
        # observability (see _rx_counters).
        self._rx_obs = None
        self._rx_bound: dict = {}

    # -- socket registry ---------------------------------------------------------

    def bind(self, socket, port: int) -> None:
        if port in self._sockets:
            raise TransportError(f"port {port} already bound")
        self._sockets[port] = socket

    def is_bound(self, port: int) -> bool:
        return port in self._sockets

    def alloc_msg_id(self, codec: MessageCodec) -> int:
        # Managed sessions (repro.ctrl) carve per-session lanes out of the
        # ID space; unmanaged codecs fall through to the shared counter.
        msg_id = codec.alloc_msg_id()
        if msg_id is not None:
            return msg_id
        msg_id = self._next_msg_id
        self._next_msg_id += 2
        if msg_id >= codec.max_message_ids():
            raise TransportError("message ID space exhausted for this session")
        return msg_id

    def forget_delivered(self, peer_addr: int, peer_port: int) -> int:
        """Drop delivered-ID memory for one peer socket (rekey support).

        A rekey resets the session's message-ID space, so previously seen
        IDs from that peer become valid again; without this purge the
        engine would treat the new epoch's messages as spurious duplicates.
        """
        stale = [k for k in self._delivered if k[0] == peer_addr and k[1] == peer_port]
        for key in stale:
            del self._delivered[key]
        return len(stale)

    # -- packet path -----------------------------------------------------------------
    #
    # Every packet this engine sends is one TsoSegment posted by _post;
    # every RESEND is built by _send_resend.  Work happens in a fixed
    # order -- NIC posts, timer arms and each ``cost +=`` -- because the
    # pinned virtual times depend on it, float bits included.

    def _post(
        self, queue: int, dest: int, header: TransportHeader, payload=b"", tls=None
    ) -> None:
        nic = self.host.nic
        mss = nic.mtu_payload
        nic.post(queue, TsoSegment(self.host.addr, dest, self.proto, header, payload, mss, tls))

    def _send_resend(
        self, peer: int, port: int, msg_id: int, tso_offset: int = 0, length: int = 0
    ) -> None:
        """Ask ``peer`` to resend ``length`` bytes at ``tso_offset``.

        ``length == 0`` means "the whole message" -- used when the
        requester holds no usable copy of any of it.
        """
        self._post(
            0,
            peer,
            TransportHeader(
                src_port=0,
                dst_port=port,
                msg_id=msg_id,
                pkt_type=PacketType.RESEND,
                tso_offset=tso_offset,
                msg_len=length,
                priority=CONTROL_PRIORITY,
            ),
        )

    # -- transmit path ---------------------------------------------------------------

    def send_message(
        self,
        codec: MessageCodec,
        src_port: int,
        dest_addr: int,
        dest_port: int,
        msg_id: int,
        encoded: EncodedMessage,
    ) -> float:
        """Register an outbound message and transmit its unscheduled part.

        Returns the CPU cost of the transmission work (the caller charges
        it to the right context: app thread for new messages).
        """
        if encoded.wire_len > MAX_WIRE_LEN:
            raise TransportError(
                f"message of {encoded.wire_len} wire bytes exceeds the maximum"
            )
        queue = encoded.nic_queue
        if queue is None:
            queue = (msg_id >> 1) % self.host.nic.num_queues
        msg = OutboundMessage(
            msg_id=msg_id,
            dest_addr=dest_addr,
            dest_port=dest_port,
            src_port=src_port,
            wire_len=encoded.wire_len,
            codec=codec,
            encoded=encoded,
            queue=queue,
            granted=min(encoded.wire_len, self.config.unscheduled_bytes),
            last_activity=self.loop.now,
        )
        self._outbound[(dest_addr, msg_id)] = msg
        self.messages_sent += 1
        obs = self.loop.obs
        if obs is not None:
            obs.metrics.counter(f"{self.host.name}.homa.tx.messages").add()
            # Explicit begin/end: the span closes when the message is
            # acked (implicitly or explicitly) or its sender state times
            # out, arbitrarily many events later.
            msg.obs_span = obs.tracer.begin(
                "homa.tx",
                f"{self.host.name}.msg{msg_id}",
                peer=dest_addr,
                bytes=encoded.wire_len,
            )
        cost = self.costs.homa_tx_per_message + encoded.tx_cpu_cost
        cost += self._granted_cost(msg)
        msg.sender_timer = self.loop.timer_later(
            self.config.sender_timeout, self._sender_timeout, msg
        )
        return cost

    def kick(self, dest_addr: int, msg_id: int) -> None:
        """Transmit the registered message's granted plans.

        Callers charge :meth:`send_message`'s returned CPU cost to their
        thread *before* kicking, so transmission correctly waits for the
        send-side work (encode, crypto, descriptor setup).
        """
        msg = self._outbound.get((dest_addr, msg_id))
        if msg is not None:
            self._transmit_granted(msg)

    def _plan_cost(self, cost: float, plan: SegmentPlan, mss: int) -> float:
        """``cost`` plus the CPU cost of transmitting ``plan``."""
        npkts = max(1, (plan.length + mss - 1) // mss)
        cost += self.costs.homa_tx_per_packet * npkts + self.costs.driver_tx_per_segment
        if plan.tls is not None:
            cost += self.costs.offload_meta_per_segment
        return cost

    def _granted_cost(self, msg: OutboundMessage) -> float:
        """CPU cost of transmitting the not-yet-sent plans below the grant."""
        cost = 0.0
        mss = self.host.nic.mtu_payload
        for plan in msg.encoded.plans:
            if not plan.sent and plan.tso_offset < msg.granted:
                cost = self._plan_cost(cost, plan, mss)
        return cost

    def _transmit_granted(self, msg: OutboundMessage) -> float:
        """Send every unsent plan below the grant limit; returns CPU cost.

        Each segment's resyncs go to its ring first, then the segment.
        """
        cost = 0.0
        nic = self.host.nic
        mss = nic.mtu_payload
        queue = msg.queue
        priority = UNSCHEDULED_PRIORITY
        if msg.wire_len > self.config.unscheduled_bytes:
            priority -= 1  # scheduled data, refined by grants
        for plan in msg.encoded.plans:
            if plan.sent or plan.tso_offset >= msg.granted:
                continue
            plan.sent = True
            cost = self._plan_cost(cost, plan, mss)
            pres = msg.codec.segment_pre_descriptors(plan, queue)
            for pre in pres:
                nic.post(queue, pre)
            header = TransportHeader(
                src_port=msg.src_port,
                dst_port=msg.dest_port,
                msg_id=msg.msg_id,
                pkt_type=PacketType.DATA,
                msg_len=msg.wire_len,
                tso_offset=plan.tso_offset,
                priority=priority,
            )
            self._post(queue, msg.dest_addr, header, plan.payload, plan.tls)
            cost += self.costs.offload_resync * len(pres)
        return cost

    # Per-message timers are bound methods that get their message through
    # the timer's argument slot.  A closure that re-arms itself refers to
    # itself, so it and the message it holds would wait for the cyclic GC
    # instead of being freed when the message completes.

    def _sender_timeout(self, msg: OutboundMessage) -> None:
        msg.sender_timer = None
        key = (msg.dest_addr, msg.msg_id)
        if key not in self._outbound:  # an ack cancels this timer first
            return
        # An *inactivity* timeout, not a deadline since send: a large
        # message can legitimately be grant-starved past the window
        # under overload, and freeing live state turns a slow RPC into
        # an unrecoverable one (the receiver's RESENDs and the RPC
        # layer's retransmissions then find nothing).  Re-arm while
        # grants show the receiver making forward progress; free after
        # a full window without one (dead receiver or broken path --
        # RESENDs deliberately do not count, or a peer re-requesting a
        # blackholed message would pin state alive while every RESEND
        # triggers a multi-packet retransmit burst).
        # The 1 ns floor absorbs float rounding: ``now - last_activity``
        # can land an epsilon short of the timeout, and re-arming for
        # that epsilon would fire at the same virtual instant forever.
        remaining = self.config.sender_timeout - (
            self.loop.now - msg.last_activity
        )
        if remaining > 1e-9:
            msg.sender_timer = self.loop.timer_later(remaining, self._sender_timeout, msg)
            return
        del self._outbound[key]
        self._end_tx_span(msg, "timeout")

    def _acked(self, msg: OutboundMessage, outcome: str) -> None:
        """Ack arrived: cancel the timeout instead of letting it fire dead."""
        timer = msg.sender_timer
        if timer is not None:
            timer.cancel()
            msg.sender_timer = None
        self._end_tx_span(msg, outcome)

    def _end_tx_span(self, msg: OutboundMessage, outcome: str) -> None:
        if msg.obs_span is not None:
            self.loop.obs.tracer.end(msg.obs_span, outcome=outcome)

    # -- receive path --------------------------------------------------------------------

    def classify(self, packet: Packet):
        t = packet.transport
        c = self.costs
        obs = self.loop.obs
        if obs is not None:
            packets, by_type = self._rx_counters(obs, t.pkt_type)
            packets.add()
            by_type.add()
        if t.pkt_type == PacketType.DATA:
            # Softirq only queues packet buffers; the gather/copy into the
            # user message happens at recvmsg on the app thread (the paper's
            # full-message-then-copy receive, §5.1).
            per_byte = c.homa_rx_per_byte * len(packet.payload)
            return (
                c.homa_rx_per_packet + per_byte,
                self._on_data,
                packet,
                (self, packet.ip.src_addr, t.src_port),
                c.homa_rx_merged_per_packet + per_byte,
            )
        handler = self._on_control.get(t.pkt_type)
        if handler is not None:
            return c.homa_grant_rx, handler, packet, None, 0.0
        return 0.1e-6, discard, packet, None, 0.0

    def _rx_counters(self, obs, pkt_type: PacketType):
        """The (all packets, this type) receive counters on ``obs``.

        Bound on first use per type, in the order a by-name lookup per
        packet would create them, so the registry is the same.
        """
        if obs is not self._rx_obs:
            self._rx_obs = obs
            self._rx_bound = {}
        pair = self._rx_bound.get(pkt_type)
        if pair is None:
            m = obs.metrics
            name = self.host.name
            pair = self._rx_bound[pkt_type] = (
                m.counter(f"{name}.homa.rx.packets"),
                m.counter(f"{name}.homa.rx.{pkt_type.name.lower()}"),
            )
        return pair

    # .. data ..

    def _handle_data(self, packet: Packet) -> Optional[float]:
        t = packet.transport
        key = (packet.ip.src_addr, t.src_port, t.msg_id)
        if key in self._delivered:
            self.spurious_ignored += 1
            return None
        socket = self._sockets.get(t.dst_port)
        if socket is None:
            return None
        try:
            codec = socket.codec_for(packet.ip.src_addr, t.src_port)
        except ProtocolError:
            # Data raced ahead of session establishment: drop; the sender's
            # RESEND machinery retries once the session exists.
            self.spurious_ignored += 1
            return None
        inbound = self._inbound.get(key)
        extra = 0.0
        if inbound is None:
            if t.msg_len > MAX_WIRE_LEN:
                # A forged length: drop it before it burns the ID or buys
                # a buffer.
                self.oversize_dropped += 1
                return None
            # First packet of an unseen message: replay filter (paper §6.1:
            # replayed IDs are dropped without decryption).
            extra += self.costs.homa_rx_per_message + self.costs.smt_replay_check
            obs = self.loop.obs
            if not codec.accept_message(t.msg_id):
                self.replays_dropped += 1
                if obs is not None:
                    obs.metrics.counter(
                        f"{self.host.name}.homa.rx.replays_dropped"
                    ).add()
                return extra
            inbound = InboundMessage(
                msg_id=t.msg_id,
                peer_addr=packet.ip.src_addr,
                peer_port=t.src_port,
                local_port=t.dst_port,
                wire_len=t.msg_len,
                segment_capacity=codec.segment_capacity(self.host.nic.mtu_payload),
                mss=self.host.nic.mtu_payload,
                granted=min(t.msg_len, self.config.unscheduled_bytes),
                last_progress=self.loop.now,
            )
            self._inbound[key] = inbound
            if obs is not None:
                # Closed in _deliver, after reassembly completes.
                inbound.obs_span = obs.tracer.begin(
                    "homa.rx",
                    f"{self.host.name}.msg{t.msg_id}",
                    peer=packet.ip.src_addr,
                    bytes=t.msg_len,
                )
            if not inbound.complete:
                inbound.resend_timer = self.loop.timer_later(
                    self._resend_interval(inbound), self._resend_check, inbound
                )
        if not packet.payload and t.msg_len:
            # A trimmed packet (NDP-style, paper §7): the payload was cut
            # at an overloaded switch but the plaintext transport metadata
            # tells us exactly what to re-request -- immediately, once.
            asm_state = inbound.segments.get(t.tso_offset)
            if (
                (asm_state is None or not asm_state.complete)
                and t.tso_offset not in inbound.trim_requested
            ):
                inbound.trim_requested.add(t.tso_offset)
                self.resend_requests += 1
                self._send_resend(
                    inbound.peer_addr, inbound.peer_port, inbound.msg_id,
                    t.tso_offset, inbound.segment_length(t.tso_offset),
                )
                return (extra + self.costs.homa_grant_tx) or None
            return extra or None
        asm = inbound.segments.get(t.tso_offset)
        if asm is None:
            asm = inbound.assembler(t.tso_offset)
        was_complete = asm.complete
        if t.retransmit_offset:
            asm.add_explicit_packet(t.retransmit_offset - 1, packet.payload)
        else:
            asm.add_tso_packet(packet.ip.ipid, packet.payload)
        if asm.spurious:
            self.spurious_ignored += asm.spurious
            asm.spurious = 0
        if asm.complete and not was_complete:
            inbound.received_bytes += asm.seg_len
            inbound.last_progress = self.loop.now
        # ``inbound.complete``, read once per packet without the property.
        if inbound.received_bytes < inbound.wire_len:
            extra += self._maybe_grant(inbound)
        elif not inbound.delivered:
            inbound.delivered = True
            extra += self._deliver(key, inbound, socket)
        return extra or None

    def _deliver(self, key: tuple, inbound: InboundMessage, socket) -> float:
        wire = inbound.assemble()
        del self._inbound[key]
        timer = inbound.resend_timer
        if timer is not None:  # delivered: the RESEND timer has no work left
            timer.cancel()
            inbound.resend_timer = None
        delivered = self._delivered
        delivered[key] = None
        if len(delivered) > DELIVERED_MEMORY:
            # Forget the oldest.  Each eviction leaves a hole that the next
            # ``iter`` walks over, so a periodic copy drops them.
            del delivered[next(iter(delivered))]
            if self.messages_delivered % 4096 == 0:
                self._delivered = dict(delivered)
        self.messages_delivered += 1
        obs = self.loop.obs
        if obs is not None:
            obs.metrics.counter(f"{self.host.name}.homa.rx.messages").add()
            if inbound.obs_span is not None:
                obs.tracer.end(inbound.obs_span, resends=inbound.resends)
        cost = self.costs.homa_deliver_fixed + self.costs.homa_wake
        if inbound.msg_id & 1:
            # A response implicitly acknowledges its request (Homa's RPC
            # semantics): free our outbound request state now, and queue a
            # lazy batched ACK so the responder frees the response.
            freed = self._outbound.pop((inbound.peer_addr, inbound.msg_id & ~1), None)
            if freed is not None:
                self._acked(freed, "implicit_ack")
            # Under corruption recovery the ACK must wait until the bytes
            # actually authenticate (it frees the responder's retransmit
            # state); the socket calls queue_ack() after decode.
            if not self.config.corruption_recovery:
                cost += self.queue_ack(inbound, socket)
        # Requests need no explicit ACK: the response implies it; sender
        # timeouts clean up one-way messages.
        socket.deliver(inbound, wire)
        return cost

    def queue_ack(self, inbound: InboundMessage, socket) -> float:
        """Batch an ACK for a delivered response; flush per 8 or on timer.

        Returns the CPU cost.  Called on delivery, or -- in corruption
        recovery mode -- by the socket once the response authenticates.
        """
        batch = self._ack_batch.get(inbound.peer_addr)
        if batch is None:
            batch = (socket.port, inbound.peer_port, [inbound.msg_id])
            self._ack_batch[inbound.peer_addr] = batch
            self.loop.call_later(
                self.ack_flush_interval, self.flush_acks, inbound.peer_addr
            )
        else:
            batch[2].append(inbound.msg_id)
        if len(batch[2]) >= self.ack_batch_size:
            return self.flush_acks(inbound.peer_addr)
        return 0.0

    def flush_acks(self, peer_addr: int) -> float:
        """Send ``peer_addr``'s batched ACKs now; returns the CPU cost."""
        batch = self._ack_batch.pop(peer_addr, None)
        if batch is None:
            return 0.0
        local_port, peer_port, ids = batch
        header = TransportHeader(
            src_port=local_port,
            dst_port=peer_port,
            msg_id=ids[0],
            pkt_type=PacketType.ACK,
            msg_len=len(ids),
            priority=CONTROL_PRIORITY,
        )
        self._post(0, peer_addr, header, b"".join(i.to_bytes(8, "big") for i in ids))
        return self.costs.homa_grant_tx

    def _maybe_grant(self, inbound: InboundMessage) -> float:
        cfg = self.config
        if inbound.wire_len <= cfg.unscheduled_bytes:
            return 0.0
        outstanding = inbound.granted - inbound.received_bytes
        if outstanding > cfg.grant_window * GRANT_REFILL_FRACTION:
            return 0.0
        new_grant = min(inbound.wire_len, inbound.received_bytes + cfg.grant_window)
        if new_grant <= inbound.granted:
            return 0.0
        inbound.granted = new_grant
        self._post(
            0,
            inbound.peer_addr,
            TransportHeader(
                src_port=0,
                dst_port=inbound.peer_port,
                msg_id=inbound.msg_id,
                pkt_type=PacketType.GRANT,
                grant_offset=new_grant,
                priority=CONTROL_PRIORITY,
            ),
        )
        return self.costs.homa_grant_tx

    # .. grant ..

    def _handle_grant(self, packet: Packet) -> Optional[float]:
        t = packet.transport
        msg = self._outbound.get((packet.ip.src_addr, t.msg_id))
        if msg is None:
            return None
        msg.last_activity = self.loop.now
        if t.grant_offset > msg.granted:
            msg.granted = min(t.grant_offset, msg.wire_len)
            # Granted data is pushed from softirq context (paper §3.2).
            return self._transmit_granted(msg) or None
        return None

    # .. resend ..

    def _resend_interval(self, inbound: InboundMessage) -> float:
        # Deterministic per-message jitter: synchronized retry storms from
        # many senders would otherwise collide at the same switch buffer
        # forever (the simulation is deterministic, so symmetry never
        # breaks by chance).
        jitter = 1.0 + ((inbound.msg_id * 2654435761) % 64) / 128.0
        return self.config.resend_interval * jitter

    def _resend_check(self, inbound: InboundMessage) -> None:
        inbound.resend_timer = None
        key = (inbound.peer_addr, inbound.peer_port, inbound.msg_id)
        if inbound.delivered or self._inbound.get(key) is not inbound:
            return
        interval = self._resend_interval(inbound)
        if self.loop.now - inbound.last_progress >= interval * 0.9:
            inbound.resends += 1
            if inbound.resends > self.config.max_resends:
                del self._inbound[key]  # give up
                if inbound.obs_span is not None:
                    self.loop.obs.tracer.end(
                        inbound.obs_span, outcome="abandoned", resends=inbound.resends
                    )
                return
            core = self.host.softirq_core_for_flow(
                inbound.peer_addr, inbound.peer_port,
                inbound.local_port, self.proto,
            )
            core.submit(self.costs.homa_grant_tx, self._on_resend_due, inbound)
        inbound.resend_timer = self.loop.timer_later(
            self.config.resend_delay(interval, inbound.resends),
            self._resend_check,
            inbound,
        )

    def _request_resend(self, inbound: InboundMessage) -> None:
        self.resend_requests += 1
        # Allow trim notifications to fast-path again for the re-requested
        # segments (the previous retransmission may itself have been cut).
        inbound.trim_requested.clear()
        for offset, length in inbound.missing_ranges():
            self._send_resend(
                inbound.peer_addr, inbound.peer_port, inbound.msg_id, offset, length
            )

    def retransmit_outbound(self, dest_addr: int, msg_id: int) -> float:
        """Resend every sent plan of an outbound message (RPC timeout).

        Covers the request-lost-entirely case: the receiver has no state,
        so only the sender can restart the exchange.  Retransmissions use
        explicit per-packet offsets -- duplicating rank-unknown TSO packets
        with fresh IPIDs would poison the receiver's IPID-rank inference.
        """
        msg = self._outbound.get((dest_addr, msg_id))
        if msg is None:
            return 0.0
        cost = 0.0
        for plan in msg.encoded.plans:
            if plan.sent:
                cost += self._retransmit_segment_explicit(msg, plan.tso_offset)
        return cost

    def _retransmit_segment_explicit(self, msg: OutboundMessage, tso_offset: int) -> float:
        """Resend one segment as explicit-offset single packets."""
        try:
            wire = msg.codec.reseal_range(msg.encoded, tso_offset)
        except ProtocolError:
            return 0.0
        mss = self.host.nic.mtu_payload
        obs = self.loop.obs
        counter = None
        if obs is not None:
            counter = obs.metrics.counter(f"{self.host.name}.homa.tx.packets_retransmitted")
        cost = 0.0
        wire = memoryview(wire)  # packets carry slices of it, never copies
        for off in range(0, len(wire), mss):
            self.packets_retransmitted += 1
            if counter is not None:
                counter.add()
            header = TransportHeader(
                src_port=msg.src_port,
                dst_port=msg.dest_port,
                msg_id=msg.msg_id,
                pkt_type=PacketType.DATA,
                msg_len=msg.wire_len,
                tso_offset=tso_offset,
                retransmit_offset=off + 1,  # explicit in-segment byte offset
                priority=CONTROL_PRIORITY,
            )
            self._post(msg.queue, msg.dest_addr, header, wire[off : off + mss])
            cost += self.costs.homa_tx_per_packet + self.costs.driver_tx_per_segment
        return cost

    def request_response_resend(self, dest_addr: int, dest_port: int, response_id: int) -> None:
        """Client-side RPC timeout: ask the server to resend a whole response
        (the requester may hold no inbound state at all: every packet lost).
        """
        self.resend_requests += 1
        self._send_resend(dest_addr, dest_port, response_id)

    # .. corruption recovery ..

    def recover_inbound(self, inbound) -> None:
        """Un-deliver a message whose reassembled bytes failed to decode.

        Called by the socket layer (app-thread context) when AEAD
        verification rejects a delivered message: wire corruption slipped
        past the (checksum-free, §7) transport.  The delivered-ID table
        entry is removed and the codec's replay filter forgives the ID so
        the sender's retransmission -- byte-identical ciphertext: same
        key, same nonces -- can be reassembled and delivered afresh.
        """
        self._delivered.pop((inbound.peer_addr, inbound.peer_port, inbound.msg_id), None)
        socket = self._sockets.get(inbound.local_port)
        if socket is not None:
            codec = socket.codec_for(inbound.peer_addr, inbound.peer_port)
            codec.forgive_message(inbound.msg_id)
        self.corrupt_recoveries += 1
        self.resend_requests += 1
        obs = self.loop.obs
        if obs is not None:
            obs.metrics.counter(f"{self.host.name}.homa.rx.corrupt_recoveries").add()
        # Whole-message RESEND: any packet of the original delivery may
        # have carried the flipped bits.
        self._send_resend(inbound.peer_addr, inbound.peer_port, inbound.msg_id)

    def _handle_resend(self, packet: Packet) -> Optional[float]:
        """Sender side: retransmit one segment as explicit-offset packets."""
        t = packet.transport
        msg = self._outbound.get((packet.ip.src_addr, t.msg_id))
        if msg is None:
            return None
        if t.msg_len == 0:
            # Whole-message resend: every granted segment, explicit offsets.
            cost = 0.0
            for plan in msg.encoded.plans:
                if plan.tso_offset < msg.granted:
                    cost += self._retransmit_segment_explicit(msg, plan.tso_offset)
            return cost or None
        return self._retransmit_segment_explicit(msg, t.tso_offset) or None

    # .. ack ..

    def _handle_ack(self, packet: Packet) -> Optional[float]:
        if packet.payload:
            ids = [
                int.from_bytes(packet.payload[i : i + 8], "big")
                for i in range(0, len(packet.payload), 8)
            ]
        else:
            ids = [packet.transport.msg_id]
        for msg_id in ids:
            msg = self._outbound.pop((packet.ip.src_addr, msg_id), None)
            if msg is not None:
                self._acked(msg, "acked")
        return None
