"""An SMT secure session: keys, replay defence, NIC flow contexts.

One session per flow 5-tuple (paper §4.2).  It holds the two directions'
traffic keys (from the TLS 1.3 handshake or the 0-RTT exchange), the
composite sequence-number allocation, the receiver's message-ID
uniqueness filter (§4.4.1/§6.1), and -- when TLS offload is on -- the
host-side shadow of the NIC's per-queue flow contexts that decides when a
resync descriptor must precede a segment (§4.4.2).
"""

from __future__ import annotations

from typing import Optional

from repro.core.seqspace import BitAllocation
from repro.crypto.aead import shared_aead
from repro.errors import ProtocolError
from repro.homa.idwindow import IdWindow
from repro.nic.tls_offload import RecordDescriptor, ResyncDescriptor
from repro.tls.keyschedule import TrafficKeys
from repro.tls.record import RecordProtection


class SmtSession:
    """One endpoint's view of a secure session."""

    def __init__(
        self,
        write_keys: TrafficKeys,
        read_keys: TrafficKeys,
        allocation: BitAllocation = BitAllocation(),
        aead_kind: str = "aes-128-gcm",
        offload: bool = False,
        nic=None,
        name: str = "smt-session",
    ):
        self.allocation = allocation
        self.aead_kind = aead_kind
        self.offload = offload
        self.nic = nic
        self.name = name
        self._write_keys = write_keys
        self._read_keys = read_keys
        self.write_protection = RecordProtection(
            shared_aead(aead_kind, write_keys.key), write_keys.iv
        )
        self.read_protection = RecordProtection(
            shared_aead(aead_kind, read_keys.key), read_keys.iv
        )
        # Replay defence for inbound message IDs: the highest IDs held
        # exactly, anything at or below the window's watermark outright.
        self.seen_ids = IdWindow()
        self.replays_rejected = 0
        self.messages_forgiven = 0
        # Host shadow of per-queue NIC flow contexts (offload mode).
        self._queue_expected: dict[int, Optional[int]] = {}
        self.resyncs_issued = 0
        self.rekeys = 0
        self.obs = None
        self.obs_name = name
        # Control-plane hooks (all optional; None when the session is
        # unmanaged, which keeps the default paths byte-identical).
        self.id_space = None  # MessageIdSpace slice assigned by repro.ctrl
        self.inflight_rpcs = 0
        self.tx_gate_event = None  # Event blocking new calls during a rekey
        self.drain_waiter = None  # Event fired when inflight_rpcs drains to 0
        self.on_activity = None  # callback for LRU touch on send/receive
        if offload and nic is None:
            raise ProtocolError("offload sessions need the NIC reference")

    def bind_obs(self, obs, name: Optional[str] = None) -> None:
        """Expose this session's security counters as registry gauges.

        Names never include :meth:`context_key` material -- context keys
        are ``id()``-based and must not leak into deterministic output.
        """
        self.obs = obs
        prefix = f"{name or self.obs_name}.session"
        self.obs_name = name or self.obs_name
        m = obs.metrics
        m.gauge(f"{prefix}.replays_rejected", lambda: self.replays_rejected)
        m.gauge(f"{prefix}.messages_forgiven", lambda: self.messages_forgiven)
        m.gauge(f"{prefix}.resyncs_issued", lambda: self.resyncs_issued)
        m.gauge(f"{prefix}.rekeys", lambda: self.rekeys)
        m.gauge(f"{prefix}.ids_tracked", lambda: len(self.seen_ids))

    # -- control-plane hooks ---------------------------------------------------

    @property
    def write_keys(self) -> TrafficKeys:
        return self._write_keys

    @property
    def read_keys(self) -> TrafficKeys:
        return self._read_keys

    def rpc_started(self) -> None:
        self.inflight_rpcs += 1
        if self.on_activity is not None:
            self.on_activity()

    def rpc_finished(self) -> None:
        self.inflight_rpcs -= 1
        if self.inflight_rpcs == 0 and self.drain_waiter is not None:
            waiter, self.drain_waiter = self.drain_waiter, None
            waiter.succeed()

    # -- key management --------------------------------------------------------

    def rekey(self, write_keys: TrafficKeys, read_keys: TrafficKeys) -> None:
        """Install fresh keys (session resumption / key update, §4.5.2).

        Resets the message-ID space: the paper notes resumption "updates
        cryptographic keys and thus resets the message ID space".
        """
        self._write_keys = write_keys
        self._read_keys = read_keys
        self.write_protection = RecordProtection(
            shared_aead(self.aead_kind, write_keys.key), write_keys.iv
        )
        self.read_protection = RecordProtection(
            shared_aead(self.aead_kind, read_keys.key), read_keys.iv
        )
        self.seen_ids.clear()
        self._queue_expected.clear()
        if self.id_space is not None:
            self.id_space.reset()
        self.rekeys += 1
        if self.obs is not None:
            with self.obs.tracer.trace_span(
                "smt.session", f"{self.obs_name}.rekey", rekeys=self.rekeys
            ):
                pass

    # -- replay defence ------------------------------------------------------------

    def accept_message(self, msg_id: int) -> bool:
        """True exactly once per message ID (paper §6.1 non-replayability)."""
        if not self.seen_ids.add(msg_id):
            self.replays_rejected += 1
            return False
        if self.on_activity is not None:
            self.on_activity()
        return True

    def forgive_message(self, msg_id: int) -> bool:
        """Allow ``msg_id`` one more :meth:`accept_message` pass.

        Corruption recovery: the reassembled bytes under this ID failed
        AEAD verification, so nothing was ever *accepted* at the crypto
        layer -- re-admitting the ID lets the sender's retransmission
        (identical ciphertext: same key, same nonces) be processed.  IDs
        already folded below the pruning watermark cannot be selectively
        forgiven; the session stays fail-closed for those (returns False).
        """
        if msg_id <= self.seen_ids.watermark:
            return False
        self.seen_ids.discard(msg_id)
        self.messages_forgiven += 1
        return True

    # -- NIC flow contexts (transmit offload) ------------------------------------------

    def context_key(self, queue: int) -> tuple:
        return (id(self), queue)

    def message_context_key(self, queue: int, msg_id: int) -> tuple:
        """Ablation: a dedicated context per message (no reuse, §4.4.2).

        Costs a fresh in-NIC allocation per message instead of a resync;
        the ablation benchmark shows why the paper prefers reuse.
        """
        return (id(self), queue, msg_id)

    def ensure_message_context(self, queue: int, msg_id: int) -> None:
        key = self.message_context_key(queue, msg_id)
        if not self.nic.flow_contexts.has_context(key):
            self.nic.flow_contexts.install(
                key, shared_aead(self.aead_kind, self._write_keys.key), self._write_keys.iv
            )

    def ensure_context(self, queue: int) -> None:
        """Install this session's flow context on ``queue`` if missing."""
        key = self.context_key(queue)
        if not self.nic.flow_contexts.has_context(key):
            self.nic.flow_contexts.install(
                key, shared_aead(self.aead_kind, self._write_keys.key), self._write_keys.iv
            )
            self._queue_expected[queue] = None

    def pre_descriptors(
        self, queue: int, first_seqno: int, num_records: int
    ) -> list[ResyncDescriptor]:
        """Descriptors that must precede a segment in its ring.

        Decided at post time against the host's shadow of the context's
        expected sequence number -- a segment posted after another
        message's records needs a resync (paper §4.4.2: reusing a context
        "simply performing a resync operation").
        """
        self.ensure_context(queue)
        expected = self._queue_expected.get(queue)
        descriptors: list[ResyncDescriptor] = []
        if expected is not None and expected != first_seqno:
            descriptors.append(ResyncDescriptor(self.context_key(queue), first_seqno))
            self.resyncs_issued += 1
        self._queue_expected[queue] = first_seqno + num_records
        return descriptors

    # -- record descriptor helper ---------------------------------------------------------

    def record_descriptor(self, segment_offset: int, plaintext_len: int, seqno: int) -> RecordDescriptor:
        return RecordDescriptor(offset=segment_offset, plaintext_len=plaintext_len, seqno=seqno)
