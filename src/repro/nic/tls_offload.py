"""Autonomous TLS offload engine (paper §2.3, §3.2, §4.4.2).

Faithful to the ConnectX-6/7 architecture described by Pismenny et al.
("Autonomous NIC offloads") and the kernel's tls-offload contract:

- The NIC holds *flow contexts* in device memory.  Each context stores the
  AEAD key/IV and an **expected record sequence number** that
  self-increments after every record the engine encrypts.
- The host enqueues descriptors into per-queue rings.  A segment whose
  first record's sequence number differs from the context's expectation
  must be preceded -- in the same ring -- by a *resync descriptor*.
- Reads are atomic within a ring but there is **no ordering guarantee
  across rings** (§3.2).  If two rings share one context, a resync from
  ring A can land between ring B's resync and segment, and the engine will
  happily encrypt with the wrong expectation, producing ciphertext the
  receiver cannot authenticate (Figure 2 "Out-seq.").  The engine does not
  detect this -- just like the hardware -- so the corruption test observes
  it end-to-end as an AEAD failure at the receiver.

SMT avoids the hazard by allocating one context per (flow, queue) and
keeping all segments of a message in one queue (§4.4.2); kTLS/TCP avoids
it because TCP serialises all transmissions of a connection.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.crypto.aead import Aead
from repro.errors import ProtocolError
from repro.tls.constants import CONTENT_APPLICATION_DATA, RECORD_HEADER_SIZE, TAG_SIZE
from repro.tls.record import RecordProtection


@dataclass(frozen=True)
class RecordDescriptor:
    """One TLS record inside a segment's payload.

    The payload region ``[offset, offset + RECORD_HEADER_SIZE +
    plaintext_len + TAG_SIZE)`` holds the record header, the *plaintext*
    and a zeroed tag placeholder; the engine encrypts in place.
    """

    offset: int
    plaintext_len: int
    seqno: int
    content_type: int = CONTENT_APPLICATION_DATA

    @property
    def wire_len(self) -> int:
        # TLS 1.3 inner plaintext carries one content-type byte.
        return RECORD_HEADER_SIZE + self.plaintext_len + 1 + TAG_SIZE


@dataclass(frozen=True)
class ResyncDescriptor:
    """Retargets a flow context's expected sequence number (Figure 2, R3)."""

    context_key: object
    seqno: int


@dataclass
class TlsOffloadDescriptor:
    """Offload metadata attached to one TSO segment."""

    context_key: object
    records: list[RecordDescriptor]

    def slice(self, offset: int, length: int) -> "TlsOffloadDescriptor":
        """Descriptor for a GSO sub-segment covering [offset, offset+length).

        Records must be fully contained (SMT aligns records to segment
        boundaries, so this holds by construction).
        """
        sub = []
        for rec in self.records:
            if rec.offset >= offset + length or rec.offset + rec.wire_len <= offset:
                continue
            if rec.offset < offset or rec.offset + rec.wire_len > offset + length:
                raise ProtocolError("TLS record straddles a GSO boundary")
            sub.append(replace(rec, offset=rec.offset - offset))
        return TlsOffloadDescriptor(self.context_key, sub)


@dataclass
class _FlowContext:
    """In-NIC state for one offloaded flow."""

    protection: RecordProtection
    expected_seqno: Optional[int] = None  # None until first use/resync
    records_encrypted: int = 0
    out_of_sync_records: int = 0
    resyncs: int = 0


class FlowContextTable:
    """The NIC's flow-context memory plus the encryption engine.

    ``capacity`` bounds live contexts (in-NIC memory is finite, §4.4.2);
    allocation beyond it evicts the least recently used context, modelling
    the admission/eviction the paper says transmissions usually hide.
    """

    def __init__(self, capacity: int = 1024):
        self.capacity = capacity
        self._contexts: dict[object, _FlowContext] = {}
        self.allocations = 0
        self.evictions = 0
        # Optional observability binding (repro.obs.Observability); the
        # table has no loop reference, so the NIC/testbed binds explicitly.
        self.obs = None
        self.obs_name = "nic.tls"

    def bind_obs(self, obs, name: str = "nic.tls") -> None:
        """Record spans/counters under ``name`` on ``obs`` from now on."""
        self.obs = obs
        self.obs_name = name

    def install(self, key: object, aead: Aead, iv: bytes) -> None:
        """Host installs key material for a context (connection/queue setup)."""
        if key in self._contexts:
            del self._contexts[key]
        if len(self._contexts) >= self.capacity:
            oldest = next(iter(self._contexts))
            del self._contexts[oldest]
            self.evictions += 1
        self._contexts[key] = _FlowContext(RecordProtection(aead, iv))
        self.allocations += 1

    def has_context(self, key: object) -> bool:
        return key in self._contexts

    def context_stats(self, key: object) -> dict:
        ctx = self._contexts[key]
        return {
            "records_encrypted": ctx.records_encrypted,
            "out_of_sync_records": ctx.out_of_sync_records,
            "resyncs": ctx.resyncs,
            "expected_seqno": ctx.expected_seqno,
        }

    def apply_resync(self, resync: ResyncDescriptor) -> None:
        """Process a resync descriptor read from a ring."""
        ctx = self._contexts.get(resync.context_key)
        if ctx is None:
            raise ProtocolError(f"resync for unknown context {resync.context_key!r}")
        ctx.expected_seqno = resync.seqno
        ctx.resyncs += 1
        if self.obs is not None:
            self.obs.metrics.counter(f"{self.obs_name}.resyncs_applied").add()

    def encrypt_segment(self, payload, descriptor: TlsOffloadDescriptor) -> bytes:
        """Encrypt every described record in ``payload``.

        The engine uses its *expected* sequence number, not the one the
        host intended: if they disagree (and no resync fixed it), the
        output is valid-looking ciphertext under the wrong nonce -- the
        receiver's tag check will fail, which is how the Figure 2
        "Out-seq." corruption manifests end to end.
        """
        ctx = self._contexts.get(descriptor.context_key)
        if ctx is None:
            raise ProtocolError(
                f"segment references unknown context {descriptor.context_key!r}"
            )
        obs = self.obs
        span = None
        if obs is not None:
            span = obs.tracer.begin(
                "nic.tls_offload", self.obs_name, records=len(descriptor.records)
            )
        out_of_sync = 0
        seqnos: list[int] = []
        for rec in descriptor.records:
            if ctx.expected_seqno is None:
                # First record ever seen on this context defines the start.
                ctx.expected_seqno = rec.seqno
            use_seqno = ctx.expected_seqno
            if use_seqno != rec.seqno:
                ctx.out_of_sync_records += 1
                out_of_sync += 1
            if rec.offset + rec.wire_len > len(payload):
                raise ProtocolError("record descriptor exceeds segment payload")
            seqnos.append(use_seqno)
            ctx.records_encrypted += 1
            ctx.expected_seqno = use_seqno + 1
        out = seal_layout(ctx.protection, payload, descriptor.records, seqnos)
        if obs is not None:
            obs.metrics.counter(f"{self.obs_name}.records_encrypted").add(
                len(descriptor.records)
            )
            if out_of_sync:
                obs.metrics.counter(f"{self.obs_name}.out_of_sync_records").add(
                    out_of_sync
                )
            obs.tracer.end(span, out_of_sync=out_of_sync)
        return out


def seal_layout(protection: RecordProtection, payload, records, seqnos) -> bytes:
    """``payload``, a plaintext-layout segment, with ``records`` sealed.

    Each described region (header, plaintext, content-type and tag
    placeholders) becomes the record sealed under its entry of ``seqnos``;
    the bytes between regions pass through.  The records are sealed as one
    batch and the segment is gathered once, straight from the pieces, so
    each byte is copied once after the AEAD.  Records must be in offset
    order and must not overlap (every layout here is built that way).
    """
    view = memoryview(payload)
    items = []
    for rec, seqno in zip(records, seqnos):
        start = rec.offset + RECORD_HEADER_SIZE
        items.append((view[start : start + rec.plaintext_len], rec.content_type, seqno))
    pieces = protection.seal_batch(items)
    parts: list = []
    pos = 0
    for i, rec in enumerate(records):
        if rec.offset < pos:
            raise ProtocolError("record descriptors overlap or are out of order")
        parts += (view[pos : rec.offset], pieces[2 * i], pieces[2 * i + 1])
        pos = rec.offset + rec.wire_len
    parts.append(view[pos:])
    return b"".join(parts)
