"""The SMT message codec: encryption between message and wire.

Plugs into the Homa engine (:mod:`repro.homa.engine`) as the codec for
protocol number 147.  Encode turns an application payload into TLS records
packed into TSO segments under the composite sequence-number space; decode
reverses it, authenticating every record.  In offload mode, encode emits
plaintext-layout segments plus NIC record descriptors instead of sealing
on the CPU (paper §4.4.2), and resync descriptors are decided at post time
by the session's per-queue context shadow.
"""

from __future__ import annotations


from repro.core.framing import plan_message, segment_capacity
from repro.core.seqspace import BitAllocation
from repro.core.session import SmtSession
from repro.errors import ProtocolError
from repro.homa.codec import (
    DecodedMessage,
    EncodedMessage,
    MessageCodec,
    SegmentPlan,
    packets_per_segment_for,
)
from repro.host.costs import CostModel
from repro.net.headers import PROTO_SMT
from repro.nic.tls_offload import ResyncDescriptor, TlsOffloadDescriptor, seal_layout
from repro.tls.constants import (
    CONTENT_APPLICATION_DATA,
    MAX_RECORD_PAYLOAD,
    RECORD_HEADER_SIZE,
    TAG_SIZE,
)
from repro.tls.keyschedule import TrafficKeys
from repro.tls.record import encode_record_header, parse_record_header


class SmtCodec(MessageCodec):
    """MessageCodec implementation for one SMT session."""

    def __init__(
        self,
        session: SmtSession,
        costs: CostModel,
        num_nic_queues: int = 4,
        max_record_payload: int = MAX_RECORD_PAYLOAD,
        proto: int = PROTO_SMT,
        packets_per_segment: int = 0,
        context_per_message: bool = False,
        pad_to: int = 0,
    ):
        self.session = session
        self.costs = costs
        self.num_nic_queues = num_nic_queues
        self.max_record_payload = max_record_payload
        self.proto = proto
        self.packets_per_segment = packets_per_segment
        # Ablation knob: allocate a fresh NIC flow context per message
        # instead of reusing one per queue with resyncs (paper §4.4.2).
        self.context_per_message = context_per_message
        # Length concealment (paper §6.1): pad every message up to a
        # multiple of ``pad_to`` bytes before encryption, so the plaintext
        # msg_len field only reveals the padded bucket.  The true length
        # rides encrypted inside the message and "the receiver can
        # identify the padding length at the time of decryption".
        self.pad_to = pad_to
        self.records_sealed = 0
        self.records_opened = 0
        self.auth_failures = 0
        # Optional observability binding (no loop reference here, so the
        # endpoint or harness binds explicitly with a host-scoped name).
        self.obs = None
        self.obs_name = "smt"

    @classmethod
    def for_host(
        cls,
        host,
        write_keys: TrafficKeys,
        read_keys: TrafficKeys,
        *,
        offload: bool = False,
        allocation: BitAllocation = BitAllocation(),
        aead_kind: str = "aes-128-gcm",
        **codec_kw,
    ) -> "SmtCodec":
        """A fresh session plus its codec, wired to ``host``.

        The one place that reads a :class:`~repro.host.Host` for a codec:
        the cost model, the NIC queue count, the segment packet budget of
        the NIC's TSO mode (paper §7) and, for ``offload``, the NIC whose
        flow contexts the session installs.  ``codec_kw`` passes through
        to the constructor (``context_per_message``, ``pad_to``, ...).
        """
        session = SmtSession(
            write_keys, read_keys, allocation, aead_kind, offload,
            nic=host.nic if offload else None,
        )
        return cls(
            session, host.costs, host.nic.num_queues,
            packets_per_segment=packets_per_segment_for(host.nic.tso_mode),
            **codec_kw,
        )

    @classmethod
    def per_peer(cls, host, codecs: dict, keys_for, aead_kind: str):
        """``HomaSocket`` codec provider: one pre-keyed codec per peer.

        ``keys_for(peer_addr)`` returns ``host``'s ``(tx, rx)`` traffic keys
        toward that peer; it runs once per codec built.  ``codecs`` is the
        per-socket cache, owned by the caller so an eviction policy (the
        tenant session tables) can drop entries -- the next packet rebuilds.
        """

        def provider(addr: int, port: int) -> "SmtCodec":
            codec = codecs.get(addr)
            if codec is None:
                tx, rx = keys_for(addr)
                codec = codecs[addr] = cls.for_host(host, tx, rx, aead_kind=aead_kind)
            return codec

        return provider

    def bind_obs(self, obs, name: str = "smt") -> None:
        """Record codec spans/counters under ``name`` on ``obs``."""
        self.obs = obs
        self.obs_name = name
        self.session.bind_obs(obs, name)

    # -- MessageCodec interface -----------------------------------------------

    def segment_capacity(self, mss: int) -> int:
        return segment_capacity(mss, self.packets_per_segment)

    def max_message_ids(self) -> int:
        return self.session.allocation.max_message_ids

    def alloc_msg_id(self):
        """Managed-session ID allocation (None → use the transport counter)."""
        space = self.session.id_space
        return None if space is None else space.alloc()

    def tx_gate(self):
        """Event blocking new calls while the session rekeys (else None)."""
        return self.session.tx_gate_event

    def rpc_started(self) -> None:
        self.session.rpc_started()

    def rpc_finished(self) -> None:
        self.session.rpc_finished()

    def accept_message(self, msg_id: int) -> bool:
        return self.session.accept_message(msg_id)

    def forgive_message(self, msg_id: int) -> bool:
        """Re-admit an ID whose bytes failed authentication (recovery)."""
        return self.session.forgive_message(msg_id)

    def _pad(self, payload: bytes) -> bytes:
        """Wrap payload as ``true_len || payload || zeros`` up to the bucket."""
        if not self.pad_to:
            return payload
        inner = len(payload).to_bytes(4, "big") + payload
        padded_len = -(-len(inner) // self.pad_to) * self.pad_to
        return inner + bytes(padded_len - len(inner))

    def _unpad(self, payload: bytes) -> bytes:
        if not self.pad_to:
            return payload
        true_len = int.from_bytes(payload[:4], "big")
        if 4 + true_len > len(payload):
            raise ProtocolError("padding frame shorter than its length field")
        return payload[4 : 4 + true_len]

    def encode(self, msg_id: int, payload: bytes, mss: int) -> EncodedMessage:
        obs = self.obs
        if obs is None:
            return self._encode(msg_id, payload, mss)
        with obs.tracer.trace_span(
            "smt.codec", f"{self.obs_name}.encode", msg_id=msg_id, bytes=len(payload)
        ) as span:
            encoded = self._encode(msg_id, payload, mss)
            span.attrs["cpu"] = encoded.tx_cpu_cost
            span.attrs["segments"] = len(encoded.plans)
            obs.metrics.counter(f"{self.obs_name}.codec.messages_encoded").add()
        return encoded

    def _encode(self, msg_id: int, payload: bytes, mss: int) -> EncodedMessage:
        payload = self._pad(payload)
        frame = plan_message(
            len(payload), mss, self.max_record_payload, self.packets_per_segment
        )
        alloc = self.session.allocation
        seq_base = alloc.encode(msg_id, 0)
        max_records = alloc.max_records_per_message
        plans: list[SegmentPlan] = []
        cpu = 0.0
        offload = self.session.offload
        queue = (msg_id >> 1) % self.num_nic_queues if offload else None
        # Zero-copy: record plaintexts are memoryview slices; they become
        # bytes only inside seal_batch() (or the join building the NIC
        # layout).
        view = memoryview(payload)
        if not offload:
            # Software seal: gather every record of the message first, then
            # seal the whole message in one record-layer batch.
            items: list[tuple] = []
            seg_counts: list[int] = []
            for seg in frame.segments:
                count = 0
                for rec in seg.records:
                    if rec.index >= max_records:
                        alloc.encode(msg_id, rec.index)  # raises the canonical error
                    items.append(
                        (
                            view[
                                rec.plaintext_offset : rec.plaintext_offset
                                + rec.plaintext_len
                            ],
                            CONTENT_APPLICATION_DATA,
                            seq_base | rec.index,
                        )
                    )
                    cpu += self.costs.smt_frame_per_record
                    cpu += self.costs.crypto_cost(rec.plaintext_len)
                    self.records_sealed += 1
                    count += 1
                seg_counts.append(count)
            # ``[header, sealed, header, sealed, ...]``: one gather per segment.
            pieces = self.session.write_protection.seal_batch(items)
            start = 0
            for seg, count in zip(frame.segments, seg_counts):
                seg_payload = b"".join(pieces[start : start + 2 * count])
                start += 2 * count
                if len(seg_payload) != seg.wire_len:
                    raise ProtocolError("framing plan and wire bytes disagree")
                plans.append(SegmentPlan(seg.tso_offset, seg_payload, tls=None))
            return EncodedMessage(
                wire_len=frame.wire_len,
                plans=plans,
                tx_cpu_cost=cpu,
                nic_queue=queue,
            )
        for seg in frame.segments:
            parts: list = []
            descriptors = []
            for rec in seg.records:
                if rec.index >= max_records:
                    alloc.encode(msg_id, rec.index)  # raises the canonical error
                seqno = seq_base | rec.index
                plaintext = view[
                    rec.plaintext_offset : rec.plaintext_offset + rec.plaintext_len
                ]
                cpu += self.costs.smt_frame_per_record
                # Plaintext layout the NIC encrypts in place: header,
                # plaintext, content-type placeholder, zero tag.
                parts += (
                    encode_record_header(rec.plaintext_len + 1 + TAG_SIZE),
                    plaintext,
                    bytes(1 + TAG_SIZE),
                )
                descriptors.append(
                    self.session.record_descriptor(
                        rec.segment_offset, rec.plaintext_len, seqno
                    )
                )
                self.records_sealed += 1
            context_key = (
                self.session.message_context_key(queue, msg_id)
                if self.context_per_message
                else self.session.context_key(queue)
            )
            tls = TlsOffloadDescriptor(context_key, descriptors)
            seg_payload = b"".join(parts)
            if len(seg_payload) != seg.wire_len:
                raise ProtocolError("framing plan and wire bytes disagree")
            plans.append(SegmentPlan(seg.tso_offset, seg_payload, tls=tls))
        return EncodedMessage(
            wire_len=frame.wire_len,
            plans=plans,
            tx_cpu_cost=cpu,
            nic_queue=queue,
        )

    def decode(self, msg_id: int, wire: bytes) -> DecodedMessage:
        """Decrypt and authenticate all records of a reassembled message."""
        obs = self.obs
        if obs is None:
            return self._decode(msg_id, wire)
        with obs.tracer.trace_span(
            "smt.codec", f"{self.obs_name}.decode", msg_id=msg_id, bytes=len(wire)
        ) as span:
            try:
                decoded = self._decode(msg_id, wire)
            except Exception:
                span.attrs["auth_failure"] = True
                obs.metrics.counter(f"{self.obs_name}.codec.auth_failures").add()
                raise
            span.attrs["cpu"] = decoded.rx_cpu_cost
            obs.metrics.counter(f"{self.obs_name}.codec.messages_decoded").add()
        return decoded

    def _decode(self, msg_id: int, wire: bytes) -> DecodedMessage:
        alloc = self.session.allocation
        # One composite encode validates msg_id; per-record seqnos are then
        # a plain OR with the (validated) record index.
        seq_base = alloc.encode(msg_id, 0)
        max_records = alloc.max_records_per_message
        out: list[bytes] = []
        cpu = self.costs.smt_session_lookup
        total = len(wire)
        # Zero-copy: records go to the record layer as memoryview slices of
        # the wire and come back as views of the opened plaintexts, so the
        # final join is the one copy of each byte after the AEAD.
        view = memoryview(wire)
        off = 0
        index = 0
        open_parsed = self.session.read_protection.open_parsed
        while off < total:
            header = view[off : off + RECORD_HEADER_SIZE]
            outer, ct_len = parse_record_header(header)
            body_start = off + RECORD_HEADER_SIZE
            end = body_start + ct_len
            if end > total:
                raise ProtocolError("truncated record in reassembled message")
            if index >= max_records:
                alloc.encode(msg_id, index)  # raises the canonical error
            seqno = seq_base | index
            try:
                if outer != CONTENT_APPLICATION_DATA:
                    raise ProtocolError(f"unexpected outer content type {outer}")
                # The boundary walk just parsed the header, so hand the
                # pre-split slices straight to the record layer.
                record = open_parsed(header, view[body_start:end], seqno)
            except Exception:
                self.auth_failures += 1
                raise
            out.append(record.payload)
            cpu += self.costs.record_parse + self.costs.crypto_cost(len(record.payload))
            self.records_opened += 1
            index += 1
            off = end
        return DecodedMessage(payload=self._unpad(b"".join(out)), rx_cpu_cost=cpu)

    def segment_pre_descriptors(self, plan: SegmentPlan, queue: int) -> list[ResyncDescriptor]:
        """Post-time resync decision (engine hook)."""
        if plan.tls is None or not plan.tls.records:
            return []
        if self.context_per_message:
            # Fresh context per message: install on first use, no resyncs
            # (the hardware adopts the first seqno it sees).
            _sid, queue_id, msg_id = plan.tls.context_key
            self.session.ensure_message_context(queue_id, msg_id)
            return []
        first = plan.tls.records[0].seqno
        return self.session.pre_descriptors(queue, first, len(plan.tls.records))

    def reseal_range(self, encoded: EncodedMessage, tso_offset: int) -> bytes:
        """Wire bytes for retransmitting one segment.

        Software mode returns the cached ciphertext.  Offload mode re-seals
        in software: per-packet retransmissions cannot ride the
        record-granular NIC engine, so the stack falls back to CPU crypto
        (the ciphertext is identical -- same key, same nonce).
        """
        for plan in encoded.plans:
            if plan.tso_offset != tso_offset:
                continue
            if plan.tls is None:
                return plan.payload
            records = plan.tls.records
            return seal_layout(
                self.session.write_protection, plan.payload, records,
                [rec.seqno for rec in records],
            )
        raise ProtocolError(f"no segment at TSO offset {tso_offset}")
