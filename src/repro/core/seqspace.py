"""Composite 64-bit record sequence numbers (paper §4.4.1, Figures 4-5).

The TLS record sequence number is the only free variable available to
encode both a session-unique message ID and the record's index within the
message.  :class:`BitAllocation` fixes the split (48/16 by default); the
low bits hold the record index so the NIC's self-incrementing counter
works unchanged across the records of one message.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ProtocolError
from repro.tls.constants import MAX_RECORD_PAYLOAD

DEFAULT_MSG_ID_BITS = 48


@dataclass(frozen=True)
class CompositeSeqno:
    """A decoded composite sequence number."""

    msg_id: int
    record_index: int


@dataclass(frozen=True)
class BitAllocation:
    """How the 64 bits split between message ID and record index."""

    msg_id_bits: int = DEFAULT_MSG_ID_BITS

    def __post_init__(self) -> None:
        if not 1 <= self.msg_id_bits <= 63:
            raise ProtocolError(f"msg_id_bits must be in [1, 63], got {self.msg_id_bits}")

    @property
    def record_index_bits(self) -> int:
        return 64 - self.msg_id_bits

    @property
    def max_message_ids(self) -> int:
        return 1 << self.msg_id_bits

    @property
    def max_records_per_message(self) -> int:
        return 1 << self.record_index_bits

    def max_message_size(self, record_payload: int = MAX_RECORD_PAYLOAD) -> int:
        """Largest message supportable with records of ``record_payload``.

        This is the Figure 5 trade-off: more ID bits, smaller messages.
        """
        return self.max_records_per_message * record_payload

    def encode(self, msg_id: int, record_index: int) -> int:
        if not 0 <= msg_id < self.max_message_ids:
            raise ProtocolError(f"msg_id {msg_id} exceeds {self.msg_id_bits} bits")
        if not 0 <= record_index < self.max_records_per_message:
            raise ProtocolError(
                f"record index {record_index} exceeds {self.record_index_bits} bits"
            )
        return (msg_id << self.record_index_bits) | record_index

    def decode(self, seqno: int) -> CompositeSeqno:
        if not 0 <= seqno < (1 << 64):
            raise ProtocolError(f"seqno {seqno} out of 64-bit range")
        return CompositeSeqno(
            msg_id=seqno >> self.record_index_bits,
            record_index=seqno & (self.max_records_per_message - 1),
        )


class MessageIdSpace:
    """A session's slice of the message-ID space with a rekey watermark.

    Homa RPC ids are even (responses ride ``id | 1``), so the space hands
    out even ids from ``first_msg_id`` up to an exclusive ``limit``.  When
    allocation crosses ``high_watermark`` the ``on_high_watermark`` hook
    fires once per epoch — the control plane uses it to schedule a
    proactive rekey *before* exhaustion would raise (paper §4.5.2).
    ``reset()`` returns to the start of the slice after a rekey.
    """

    __slots__ = (
        "allocation",
        "first_msg_id",
        "limit",
        "high_watermark",
        "on_high_watermark",
        "_next",
        "_watermark_fired",
        "epoch",
        "resets",
        "total_allocated",
    )

    def __init__(
        self,
        allocation: BitAllocation,
        first_msg_id: int = 2,
        capacity: int | None = None,
        watermark_fraction: float = 0.75,
    ):
        if first_msg_id & 1:
            raise ProtocolError(f"first_msg_id must be even, got {first_msg_id}")
        max_ids = allocation.max_message_ids
        limit = max_ids if capacity is None else first_msg_id + capacity
        if not first_msg_id + 2 <= limit <= max_ids:
            raise ProtocolError(
                f"message-ID slice [{first_msg_id}, {limit}) does not fit "
                f"{allocation.msg_id_bits}-bit space"
            )
        if not 0.0 < watermark_fraction <= 1.0:
            raise ProtocolError(
                f"watermark_fraction must be in (0, 1], got {watermark_fraction}"
            )
        self.allocation = allocation
        self.first_msg_id = first_msg_id
        self.limit = limit
        span = limit - first_msg_id
        self.high_watermark = first_msg_id + (int(span * watermark_fraction) & ~1)
        self.on_high_watermark = None
        self._next = first_msg_id
        self._watermark_fired = False
        self.epoch = 0
        self.resets = 0
        self.total_allocated = 0

    def alloc(self) -> int:
        """Next even message id; fires the watermark hook, raises at the end."""
        msg_id = self._next
        if msg_id | 1 >= self.limit:
            raise ProtocolError(
                f"message-ID space exhausted (epoch {self.epoch}: "
                f"[{self.first_msg_id}, {self.limit}))"
            )
        self._next = msg_id + 2
        self.total_allocated += 1
        if not self._watermark_fired and self._next >= self.high_watermark:
            self._watermark_fired = True
            hook = self.on_high_watermark
            if hook is not None:
                hook()
        return msg_id

    def reset(self) -> None:
        """Restart the slice after a rekey (fresh keys, fresh ID space)."""
        self._next = self.first_msg_id
        self._watermark_fired = False
        self.epoch += 1
        self.resets += 1


def tradeoff_curve(record_payload: int) -> list[tuple[int, int, int]]:
    """(msg_id_bits, max message IDs, max message bytes) for every split.

    The data behind Figure 5 for a given record size.
    """
    rows = []
    for bits in range(1, 64):
        alloc = BitAllocation(bits)
        rows.append((bits, alloc.max_message_ids, alloc.max_message_size(record_payload)))
    return rows
