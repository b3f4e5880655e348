"""Property tests for the composite sequence-number bit split (paper §4.4.1).

The 64-bit TLS record sequence number is carved into (message ID, record
index); these tests pin the boundary behaviour -- exhaustion at exactly
2^48 message IDs and 2^16 records under the default split -- and the
injectivity of the encoding under every non-default split: no two
(msg_id, record_idx) pairs may ever collide on one 64-bit seqno, or two
different records would share an AEAD nonce.
"""

import random

import pytest

from repro.core.seqspace import BitAllocation, CompositeSeqno
from repro.errors import ProtocolError, TransportError

NON_DEFAULT_SPLITS = [1, 8, 16, 31, 32, 40, 47, 56, 63]


class TestDefaultSplitBoundaries:
    def test_message_id_exhaustion_at_2_48(self):
        alloc = BitAllocation()
        assert alloc.max_message_ids == 1 << 48
        assert alloc.encode((1 << 48) - 1, 0) == ((1 << 48) - 1) << 16
        with pytest.raises(ProtocolError):
            alloc.encode(1 << 48, 0)

    def test_record_index_overflow_at_2_16(self):
        alloc = BitAllocation()
        assert alloc.max_records_per_message == 1 << 16
        assert alloc.encode(0, (1 << 16) - 1) == (1 << 16) - 1
        with pytest.raises(ProtocolError):
            alloc.encode(0, 1 << 16)

    def test_negative_inputs_rejected(self):
        alloc = BitAllocation()
        with pytest.raises(ProtocolError):
            alloc.encode(-1, 0)
        with pytest.raises(ProtocolError):
            alloc.encode(0, -1)

    def test_engine_alloc_refuses_exhausted_id_space(self):
        # The transport's ID allocator must fail typed, not wrap around.
        from repro.homa.codec import MessageCodec
        from repro.homa.engine import HomaTransport
        from repro.net.headers import PROTO_SMT
        from repro.testbed import Testbed

        class TinyCodec(MessageCodec):
            def max_message_ids(self):
                return 8

        bed = Testbed.back_to_back()
        transport = HomaTransport(bed.client, proto=PROTO_SMT)
        codec = TinyCodec()
        transport.alloc_msg_id(codec)  # 2
        transport.alloc_msg_id(codec)  # 4
        transport.alloc_msg_id(codec)  # 6
        with pytest.raises(TransportError):
            transport.alloc_msg_id(codec)  # 8 == max: exhausted

    def test_seqno_decode_range_check(self):
        alloc = BitAllocation()
        with pytest.raises(ProtocolError):
            alloc.decode(1 << 64)
        with pytest.raises(ProtocolError):
            alloc.decode(-1)


class TestNonDefaultSplits:
    @pytest.mark.parametrize("bits", NON_DEFAULT_SPLITS)
    def test_boundaries_scale_with_split(self, bits):
        alloc = BitAllocation(bits)
        assert alloc.max_message_ids == 1 << bits
        assert alloc.max_records_per_message == 1 << (64 - bits)
        with pytest.raises(ProtocolError):
            alloc.encode(alloc.max_message_ids, 0)
        with pytest.raises(ProtocolError):
            alloc.encode(0, alloc.max_records_per_message)

    @pytest.mark.parametrize("bits", NON_DEFAULT_SPLITS)
    def test_encode_is_injective_under_random_sampling(self, bits):
        alloc = BitAllocation(bits)
        rng = random.Random(bits * 7919)
        pairs = set()
        # Random interior pairs plus every corner of the space.
        while len(pairs) < 500:
            pairs.add((
                rng.randrange(alloc.max_message_ids),
                rng.randrange(alloc.max_records_per_message),
            ))
        for mid in (0, alloc.max_message_ids - 1):
            for idx in (0, alloc.max_records_per_message - 1):
                pairs.add((mid, idx))
        seqnos = {alloc.encode(m, r) for (m, r) in pairs}
        assert len(seqnos) == len(pairs), f"collision under split {bits}"
        for m, r in pairs:
            assert alloc.decode(alloc.encode(m, r)) == CompositeSeqno(m, r)

    @pytest.mark.parametrize("bits", NON_DEFAULT_SPLITS)
    def test_adjacent_boundary_pairs_never_collide(self, bits):
        # The classic aliasing hazard: (msg_id, max_index) vs (msg_id+1, 0)
        # are numerically adjacent and must differ by exactly one.
        alloc = BitAllocation(bits)
        if alloc.max_message_ids < 2:
            pytest.skip("single-message split has no adjacent pair")
        hi = alloc.encode(0, alloc.max_records_per_message - 1)
        lo = alloc.encode(1, 0)
        assert lo == hi + 1
        assert alloc.decode(hi).msg_id == 0
        assert alloc.decode(lo).msg_id == 1

    def test_invalid_split_rejected(self):
        with pytest.raises(ProtocolError):
            BitAllocation(0)
        with pytest.raises(ProtocolError):
            BitAllocation(64)

    @pytest.mark.parametrize("bits", [1, 16, 48, 63])
    def test_exhaustive_injectivity_on_small_subspace(self, bits):
        # Exhaustively check a 64x64 corner tile of the space from each
        # end: all four corners of the (msg_id, record_idx) grid.
        alloc = BitAllocation(bits)
        mids = set(range(min(64, alloc.max_message_ids)))
        mids |= {alloc.max_message_ids - 1 - i for i in range(min(64, alloc.max_message_ids))}
        idxs = set(range(min(64, alloc.max_records_per_message)))
        idxs |= {
            alloc.max_records_per_message - 1 - i
            for i in range(min(64, alloc.max_records_per_message))
        }
        seen = {}
        for m in mids:
            for r in idxs:
                seqno = alloc.encode(m, r)
                assert seqno not in seen, (
                    f"split {bits}: ({m},{r}) and {seen[seqno]} share seqno {seqno}"
                )
                seen[seqno] = (m, r)
