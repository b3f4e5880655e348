"""Message codecs: how application payloads become wire bytes.

The Homa engine is codec-agnostic: a codec turns an application payload
into per-TSO-segment plans on send and turns reassembled wire bytes back
into the payload on receive.  Plain Homa's codec is the identity; SMT's
codec (:mod:`repro.core.codec`) adds TLS records, composite sequence
numbers, NIC offload descriptors and replay defence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ProtocolError
from repro.net.headers import PROTO_HOMA
from repro.nic.tls_offload import ResyncDescriptor, TlsOffloadDescriptor
from repro.nic.tso import MAX_TSO_PAYLOAD, TsoMode


@dataclass
class SegmentPlan:
    """One TSO segment of an outbound message."""

    tso_offset: int
    # Wire payload, bytes-like: a read-only view of the sealed message
    # (SMT), its plaintext layout (NIC offload) or of the payload (plain).
    payload: bytes
    tls: Optional[TlsOffloadDescriptor] = None
    # Descriptors that must precede this segment in its NIC ring (resyncs).
    pre_descriptors: list[ResyncDescriptor] = field(default_factory=list)
    sent: bool = False

    @property
    def length(self) -> int:
        return len(self.payload)


@dataclass
class EncodedMessage:
    """Codec output for one message."""

    wire_len: int
    plans: list[SegmentPlan]
    # Extra app-context CPU the encode cost (crypto, framing) beyond the
    # engine's generic per-message/per-packet charges.
    tx_cpu_cost: float = 0.0
    # Pin all segments to one NIC queue (SMT's per-queue flow contexts);
    # None lets the engine pick its default.
    nic_queue: Optional[int] = None


@dataclass
class DecodedMessage:
    """Codec output for one received message."""

    payload: bytes
    rx_cpu_cost: float = 0.0


class SegmentedWire:
    """A reassembled message: per TSO segment, in wire order, the tuple of
    its packets' payload views.  ``len()`` is the wire length, which every
    receive cost is keyed on; ``bytes()`` joins the message (one copy)."""

    def __init__(self, segments: tuple[tuple[bytes, ...], ...], length: int):
        self.segments, self._len = segments, length

    def __len__(self) -> int:
        return self._len

    def __bytes__(self) -> bytes:
        return b"".join([p for packets in self.segments for p in packets])


class MessageCodec:
    """Contract between the Homa engine and a message codec.

    A codec implements the seven methods that raise here.  The five
    session hooks below them default to "unmanaged, nothing to do", so the
    engine and socket call them unconditionally; :class:`SmtCodec
    <repro.core.codec.SmtCodec>` forwards them to its session.
    """

    proto: int

    def segment_capacity(self, mss: int) -> int:
        """Uniform wire bytes per TSO segment (both endpoints derive it)."""
        raise NotImplementedError

    def max_message_ids(self) -> int:
        """How many message IDs the codec can represent."""
        raise NotImplementedError

    def encode(self, msg_id: int, payload: bytes, mss: int) -> EncodedMessage:
        """Build wire segments for ``payload`` under ``msg_id``."""
        raise NotImplementedError

    def decode(self, msg_id: int, wire) -> DecodedMessage:
        """Recover the payload from a (segmented) wire; raises AuthenticationError."""
        raise NotImplementedError

    def accept_message(self, msg_id: int) -> bool:
        """Replay filter, called on the first packet of an unseen message.

        Returning False silently drops the message (paper §6.1: a replayed
        message ID is discarded *without decryption*).
        """
        raise NotImplementedError

    def reseal_range(self, encoded: EncodedMessage, tso_offset: int) -> bytes:
        """Wire bytes of one segment for retransmission.

        Software-encrypted (and plain) codecs return the cached bytes; an
        offloaded codec re-seals in software, since per-packet retransmits
        cannot ride the record-granular NIC engine.
        """
        raise NotImplementedError

    def segment_pre_descriptors(
        self, plan: SegmentPlan, queue: int
    ) -> list[ResyncDescriptor]:
        """Descriptors to post before ``plan`` in ring ``queue`` (resyncs)."""
        raise NotImplementedError

    # -- session hooks (managed sessions, repro.ctrl) ----------------------------

    def alloc_msg_id(self) -> Optional[int]:
        """An ID from the session's own lane, or None for the transport counter."""
        return None

    def tx_gate(self):
        """Event blocking new calls while the session rekeys, else None."""
        return None

    def rpc_started(self) -> None:
        """A call on this codec's session began (in-flight accounting)."""

    def rpc_finished(self) -> None:
        """The call ended, successfully or not."""

    def forgive_message(self, msg_id: int) -> bool:
        """Re-admit an ID whose bytes failed authentication (recovery)."""
        return True


def packets_per_segment_for(tso_mode) -> int:
    """Map a :class:`repro.nic.tso.TsoMode` to a segment packet budget."""
    return {TsoMode.FULL: 0, TsoMode.PAIRS: 2, TsoMode.OFF: 1}[tso_mode]


class PlainCodec(MessageCodec):
    """Identity codec: unencrypted Homa."""

    def __init__(self, proto: int = PROTO_HOMA, packets_per_segment: int = 0):
        self.proto = proto
        self.packets_per_segment = packets_per_segment

    def segment_capacity(self, mss: int) -> int:
        # Full packets per segment so TSO cuts are uniform (or the §7
        # reduced-TSO modes: 2-packet GSO segments / single packets).
        if self.packets_per_segment > 0:
            return self.packets_per_segment * mss
        return (MAX_TSO_PAYLOAD // mss) * mss

    def max_message_ids(self) -> int:
        return 1 << 64

    def encode(self, msg_id: int, payload: bytes, mss: int) -> EncodedMessage:
        if not payload:
            raise ProtocolError("cannot send an empty message")
        cap = self.segment_capacity(mss)
        # Zero-copy: plans hold memoryview slices of the payload.
        view = memoryview(payload)
        plans = [
            SegmentPlan(off, view[off : off + cap]) for off in range(0, len(payload), cap)
        ]
        return EncodedMessage(wire_len=len(payload), plans=plans)

    def decode(self, msg_id: int, wire) -> DecodedMessage:
        # Reassembly hands over the packets' views; the app-visible payload
        # must be immutable owned bytes, made by one join.
        return DecodedMessage(payload=wire if isinstance(wire, bytes) else bytes(wire))

    def accept_message(self, msg_id: int) -> bool:
        return True

    def reseal_range(self, encoded: EncodedMessage, tso_offset: int) -> bytes:
        for plan in encoded.plans:
            if plan.tso_offset == tso_offset:
                return plan.payload
        raise ProtocolError(f"no segment at TSO offset {tso_offset}")

    def segment_pre_descriptors(
        self, plan: SegmentPlan, queue: int
    ) -> list[ResyncDescriptor]:
        return []
