"""The message socket API: request/response RPCs over one socket.

One Homa (or SMT) socket talks to any number of peers -- the property
that let the paper's Redis port keep a single epoll-monitored descriptor
for all clients (§5.3).  Message codecs are resolved per peer, because an
SMT socket holds one secure session per flow 5-tuple.

All application-facing methods are generators that run on an
:class:`repro.host.cpu.AppThread` and charge the syscall/copy/crypto CPU
costs to that thread's core.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

from repro.errors import (
    AuthenticationError,
    ProtocolError,
    SessionFailedError,
    TransportError,
)
from repro.homa.codec import (
    MessageCodec,
    PlainCodec,
    SegmentedWire,
    packets_per_segment_for,
)
from repro.homa.engine import HomaTransport
from repro.homa.message import InboundMessage
from repro.host.cpu import AppThread, per_item
from repro.sim.resources import Store

#: After this many failed decodes of one message the session fails closed
#: with SessionFailedError instead of retrying forever.
MAX_CORRUPT_RECOVERIES = 8


@dataclass
class InboundRpc:
    """A received request the application must reply to."""

    peer_addr: int
    peer_port: int
    msg_id: int
    payload: bytes


class _RetryChain:
    """One RPC's response-timer chain: its current timer and attempt count.

    The timer gets the chain through its argument slot, so nothing here
    refers back to itself and the chain is freed with its RPC.
    """

    __slots__ = ("msg_id", "dest_addr", "dest_port", "attempts", "timer")

    def __init__(self, msg_id: int, dest_addr: int, dest_port: int):
        self.msg_id = msg_id
        self.dest_addr = dest_addr
        self.dest_port = dest_port
        self.attempts = 0
        self.timer = None


class HomaSocket:
    """A bound message socket."""

    def __init__(
        self,
        transport: HomaTransport,
        port: int,
        codec_provider: Optional[Callable[[int, int], MessageCodec]] = None,
    ):
        self.transport = transport
        self.loop = transport.loop
        self.costs = transport.costs
        self.port = port
        # Unencrypted by default, framed for this host's NIC (paper §7).
        default_codec = PlainCodec(
            transport.proto, packets_per_segment_for(transport.host.nic.tso_mode)
        )
        self._codec_provider = codec_provider or (lambda addr, port_: default_codec)
        self._rx_requests: Store = Store(self.loop, f"homa.{port}.rx")
        self._pending: dict[int, Any] = {}  # request msg_id -> Event
        # request msg_id -> list of live retry-timer chains (corruption
        # recovery can arm a second chain for the same RPC).
        self._response_timers: dict[int, list] = {}
        # (peer_addr, msg_id) -> failed-decode count (corruption recovery).
        self._corrupt_attempts: dict[tuple[int, int], int] = {}
        self._on_retry_due = per_item(self._retry)  # softirq batch handler
        transport.bind(self, port)

    def codec_for(self, peer_addr: int, peer_port: int) -> MessageCodec:
        """The codec governing messages to/from this peer."""
        return self._codec_provider(peer_addr, peer_port)

    # -- engine-facing -----------------------------------------------------------

    def deliver(self, inbound: InboundMessage, wire: SegmentedWire) -> None:
        """Engine hands over a complete message (softirq context): ``wire`` is
        its packets' views, ``len(wire)`` the wire length, ``bytes(wire)`` a join."""
        if inbound.msg_id & 1:
            event = self._pending.pop(inbound.msg_id & ~1, None)
            if event is not None:
                event.succeed((inbound, wire))
        else:
            self._rx_requests.put((inbound, wire))

    # -- application-facing ---------------------------------------------------------

    def call(
        self,
        thread: AppThread,
        dest_addr: int,
        dest_port: int,
        payload: bytes,
    ) -> Generator[Any, Any, bytes]:
        """Send a request and wait for its response; returns the payload.

        Like ``sendmsg``, the call is done with ``payload`` once it is
        encoded, before the first wait: SMT encodes into a buffer of its
        own.  Plain Homa's plans view ``payload``, so there the transport
        holds it until the request is acked.
        """
        codec = self.codec_for(dest_addr, dest_port)
        # Managed sessions (repro.ctrl) gate new calls while a rekey drains
        # the session; an unmanaged codec's gate is always open.
        blocked = codec.tx_gate()
        while blocked is not None:
            yield blocked
            blocked = codec.tx_gate()
        codec.rpc_started()
        try:
            msg_id = self.transport.alloc_msg_id(codec)
            cost = self._send(codec, dest_addr, dest_port, msg_id, payload)
            del payload  # encoded: the transport holds what it may resend
            return (
                yield from self._call(
                    thread, dest_addr, dest_port, codec, msg_id, cost
                )
            )
        finally:
            codec.rpc_finished()

    def _call(
        self,
        thread: AppThread,
        dest_addr: int,
        dest_port: int,
        codec: MessageCodec,
        msg_id: int,
        cost: float,
    ) -> Generator[Any, Any, bytes]:
        event = self._await_response(msg_id, dest_addr, dest_port)
        yield from thread.work(cost)
        self.transport.kick(dest_addr, msg_id)
        config = self.transport.config
        attempts = 0
        try:
            while True:
                inbound, wire = yield event
                try:
                    decoded = codec.decode(inbound.msg_id, wire)
                    break
                except (AuthenticationError, ProtocolError):
                    # The response's reassembled bytes do not authenticate:
                    # wire corruption (checksum-free transport, paper §7).
                    if not config.corruption_recovery:
                        raise
                    attempts += 1
                    yield from thread.work(self._failed_decode_cost(wire))
                    if attempts > MAX_CORRUPT_RECOVERIES:
                        raise SessionFailedError(
                            f"response {msg_id | 1} failed authentication "
                            f"{attempts} times; session fails closed"
                        )
                    # Re-arm the wait before asking the server to resend, so
                    # the redelivery finds a pending event to succeed.
                    event = self._await_response(msg_id, dest_addr, dest_port)
                    self.transport.recover_inbound(inbound)
        finally:
            self._cancel_response_timers(msg_id)
        ack_cost = 0.0
        if config.corruption_recovery:
            # Deferred lazy ACK: only bytes that authenticate may free the
            # responder's retransmit state.
            ack_cost = self.transport.queue_ack(inbound, self)
        yield from thread.work(
            self.costs.wakeup
            + self.costs.syscall
            + self.costs.homa_recv_extra
            + self.costs.reassembly_copy_per_byte * len(wire)
            + self.costs.copy_cost(len(decoded.payload))
            + decoded.rx_cpu_cost
            + ack_cost
        )
        return decoded.payload

    def forget_peer(self, peer_addr: int) -> None:
        """Drop per-peer recovery state when a session closes."""
        stale = [k for k in self._corrupt_attempts if k[0] == peer_addr]
        for key in stale:
            del self._corrupt_attempts[key]

    def _failed_decode_cost(self, wire: SegmentedWire) -> float:
        """CPU burned reassembling and decrypting bytes the tag rejected."""
        return (
            self.costs.reassembly_copy_per_byte * len(wire)
            + self.costs.crypto_cost(len(wire))
        )

    def _await_response(self, msg_id: int, dest_addr: int, dest_port: int):
        """The event a response to ``msg_id`` succeeds, with its RPC timeout
        armed: if the response never shows, RESEND it (Homa's client-side
        retry -- covers the all-packets-lost case where the receiver has
        no inbound state to drive its own resend timer)."""
        event = self._pending[msg_id] = self.loop.event()
        chain = _RetryChain(msg_id, dest_addr, dest_port)
        # First check after 2 intervals: give the RPC a full round trip.
        chain.timer = self.loop.timer_later(
            2 * self.transport.config.resend_interval, self._response_check, chain
        )
        self._response_timers.setdefault(msg_id, []).append(chain)
        return event

    def _response_check(self, chain: "_RetryChain") -> None:
        msg_id = chain.msg_id
        event = self._pending.get(msg_id)
        if event is None:
            return  # response arrived
        config = self.transport.config
        chain.attempts += 1
        if chain.attempts > config.max_resends:
            self._pending.pop(msg_id, None)
            self._response_timers.pop(msg_id, None)
            event.fail(TransportError(f"RPC {msg_id} timed out"))
            return
        core = self.transport.host.softirq_core_for_flow(
            chain.dest_addr, chain.dest_port, self.port, self.transport.proto
        )
        core.submit(self.costs.homa_grant_tx, self._on_retry_due, chain)
        chain.timer = self.loop.timer_later(
            config.resend_delay(config.resend_interval, chain.attempts),
            self._response_check,
            chain,
        )

    def _retry(self, chain: "_RetryChain") -> float:
        """Softirq work of one RPC timeout; returns its CPU cost."""
        # The request itself may have vanished entirely: resend it
        # alongside asking for the response.
        cost = self.transport.retransmit_outbound(chain.dest_addr, chain.msg_id)
        self.transport.request_response_resend(
            chain.dest_addr, chain.dest_port, chain.msg_id | 1
        )
        return cost

    def _cancel_response_timers(self, msg_id: int) -> None:
        """RPC completed: every remaining fire would be a no-op, so cancel."""
        for chain in self._response_timers.pop(msg_id, ()):
            chain.timer.cancel()

    def recv_request(self, thread: AppThread) -> Generator[Any, Any, InboundRpc]:
        """Wait for the next inbound request (decrypt/copy on this thread).

        With ``corruption_recovery`` enabled, a request whose reassembled
        bytes fail authentication is silently re-requested from the sender
        and the wait continues; after :data:`MAX_CORRUPT_RECOVERIES` failures
        for one message the session fails closed with
        :class:`SessionFailedError`.
        """
        while True:
            item = self._rx_requests.try_get()
            woke = False
            if item is None:
                item = yield self._rx_requests.get()
                woke = True
            inbound, wire = item
            codec = self.codec_for(inbound.peer_addr, inbound.peer_port)
            try:
                decoded = codec.decode(inbound.msg_id, wire)
            except (AuthenticationError, ProtocolError):
                config = self.transport.config
                if not config.corruption_recovery:
                    raise
                key = (inbound.peer_addr, inbound.msg_id)
                attempts = self._corrupt_attempts.get(key, 0) + 1
                self._corrupt_attempts[key] = attempts
                yield from thread.work(self._failed_decode_cost(wire))
                if attempts > MAX_CORRUPT_RECOVERIES:
                    self._corrupt_attempts.pop(key, None)
                    raise SessionFailedError(
                        f"request {inbound.msg_id} failed authentication "
                        f"{attempts} times; session fails closed"
                    )
                self.transport.recover_inbound(inbound)
                continue
            self._corrupt_attempts.pop((inbound.peer_addr, inbound.msg_id), None)
            cost = (
                self.costs.syscall
                + self.costs.homa_recv_extra
                + self.costs.reassembly_copy_per_byte * len(wire)
                + self.costs.copy_cost(len(decoded.payload))
                + decoded.rx_cpu_cost
            )
            if woke:
                cost += self.costs.wakeup
            yield from thread.work(cost)
            return InboundRpc(
                inbound.peer_addr, inbound.peer_port, inbound.msg_id, decoded.payload
            )

    def reply(
        self, thread: AppThread, rpc: InboundRpc, payload: bytes
    ) -> Generator[Any, Any, None]:
        """Send the response for ``rpc``."""
        if rpc.msg_id & 1:
            raise TransportError("cannot reply to a response")
        peer_addr = rpc.peer_addr
        codec = self.codec_for(peer_addr, rpc.peer_port)
        msg_id = rpc.msg_id | 1
        cost = self._send(codec, peer_addr, rpc.peer_port, msg_id, payload)
        del rpc, payload  # encoded: the request and the response are free to go
        yield from thread.work(cost)
        self.transport.kick(peer_addr, msg_id)

    def _send(
        self, codec: MessageCodec, dest_addr: int, dest_port: int, msg_id: int,
        payload: bytes,
    ) -> float:
        """Encode ``payload`` and register it with the transport.

        Returns the app-thread CPU cost; the caller charges it, then kicks.
        """
        encoded = codec.encode(msg_id, payload, self.transport.host.nic.mtu_payload)
        return (
            self.costs.syscall
            + self.costs.homa_send_extra
            + self.costs.copy_cost(len(payload))
            + self.transport.send_message(
                codec, self.port, dest_addr, dest_port, msg_id, encoded
            )
        )

    @property
    def pending_requests(self) -> int:
        return len(self._rx_requests)
