"""SMT session tests: replay filter, rekey, flow-context shadow."""

import pytest

from repro.core.seqspace import BitAllocation
from repro.core.session import SmtSession
from repro.errors import ProtocolError
from repro.homa.idwindow import REPLAY_WINDOW_IDS
from repro.tls.keyschedule import TrafficKeys


def make_session(offload=False, nic=None):
    return SmtSession(
        write_keys=TrafficKeys(key=b"\x01" * 16, iv=b"\x02" * 12),
        read_keys=TrafficKeys(key=b"\x03" * 16, iv=b"\x04" * 12),
        offload=offload,
        nic=nic,
    )


class TestReplayFilter:
    def test_first_sighting_accepted(self):
        session = make_session()
        assert session.accept_message(2)

    def test_second_sighting_rejected(self):
        session = make_session()
        session.accept_message(2)
        assert not session.accept_message(2)
        assert session.replays_rejected == 1

    def test_out_of_order_ids_accepted_once_each(self):
        session = make_session()
        for msg_id in (10, 4, 8, 2, 6):
            assert session.accept_message(msg_id)
        for msg_id in (10, 4, 8, 2, 6):
            assert not session.accept_message(msg_id)

    def test_window_prunes_but_rejects_ancient_ids(self):
        session = make_session()
        for msg_id in range(0, 2 * REPLAY_WINDOW_IDS + 10):
            session.accept_message(msg_id)
        # An ID far below the watermark is rejected outright.
        assert not session.accept_message(1)
        # Memory stays bounded: the add that made 2W + 1 IDs (ID 2W) dropped
        # the lowest 128-ID chunks until at most W were held, chunk 512
        # (IDs W to W + 127) the last of them, and the nine after it stay.
        assert session.seen_ids.watermark == REPLAY_WINDOW_IDS + 127
        assert len(session.seen_ids) == REPLAY_WINDOW_IDS - 127 + 9
        assert session.replays_rejected == 1

    def test_directions_independent(self):
        # Each endpoint filters only its *inbound* (peer-write) space;
        # two sessions never share filters.
        a, b = make_session(), make_session()
        assert a.accept_message(2) and b.accept_message(2)


class TestRekey:
    def test_rekey_replaces_protections(self):
        session = make_session()
        old = session.write_protection
        session.rekey(
            TrafficKeys(key=b"\x05" * 16, iv=b"\x06" * 12),
            TrafficKeys(key=b"\x07" * 16, iv=b"\x08" * 12),
        )
        assert session.write_protection is not old
        assert session.rekeys == 1

    def test_rekey_resets_message_id_space(self):
        # §4.5.2: resumption "updates cryptographic keys and thus resets
        # the message ID space".
        session = make_session()
        session.accept_message(2)
        session.rekey(
            TrafficKeys(key=b"\x05" * 16, iv=b"\x06" * 12),
            TrafficKeys(key=b"\x07" * 16, iv=b"\x08" * 12),
        )
        assert session.accept_message(2)  # same ID valid again

    def test_ciphertext_changes_after_rekey(self):
        session = make_session()
        before = session.write_protection.seal(b"x", seqno=1)
        session.rekey(
            TrafficKeys(key=b"\x05" * 16, iv=b"\x06" * 12),
            TrafficKeys(key=b"\x07" * 16, iv=b"\x08" * 12),
        )
        after = session.write_protection.seal(b"x", seqno=1)
        assert before != after


class TestFlowContextShadow:
    def _nic(self):
        from repro.testbed import Testbed

        return Testbed.back_to_back().client.nic

    def test_offload_requires_nic(self):
        with pytest.raises(ProtocolError):
            make_session(offload=True, nic=None)

    def test_context_installed_lazily(self):
        nic = self._nic()
        session = make_session(offload=True, nic=nic)
        assert not nic.flow_contexts.has_context(session.context_key(0))
        session.ensure_context(0)
        assert nic.flow_contexts.has_context(session.context_key(0))

    def test_fresh_context_needs_no_resync(self):
        nic = self._nic()
        session = make_session(offload=True, nic=nic)
        alloc = BitAllocation()
        pres = session.pre_descriptors(0, alloc.encode(2, 0), 3)
        assert pres == []  # hardware adopts the first seqno it sees

    def test_consecutive_message_needs_resync(self):
        # Context reuse across messages is "simply performing a resync
        # operation" (§4.4.2).
        nic = self._nic()
        session = make_session(offload=True, nic=nic)
        alloc = BitAllocation()
        session.pre_descriptors(0, alloc.encode(2, 0), 2)
        pres = session.pre_descriptors(0, alloc.encode(4, 0), 1)
        assert len(pres) == 1
        assert pres[0].seqno == alloc.encode(4, 0)
        assert session.resyncs_issued == 1

    def test_continuation_of_same_message_needs_no_resync(self):
        # Later segments of one message continue the counter.
        nic = self._nic()
        session = make_session(offload=True, nic=nic)
        alloc = BitAllocation()
        session.pre_descriptors(0, alloc.encode(2, 0), 4)
        pres = session.pre_descriptors(0, alloc.encode(2, 4), 4)
        assert pres == []

    def test_queues_have_independent_contexts(self):
        # §4.4.2: "messages sent to different queues do not [share]".
        nic = self._nic()
        session = make_session(offload=True, nic=nic)
        alloc = BitAllocation()
        session.pre_descriptors(0, alloc.encode(2, 0), 2)
        pres_q1 = session.pre_descriptors(1, alloc.encode(4, 0), 2)
        assert pres_q1 == []  # fresh context on queue 1, no resync
        assert session.context_key(0) != session.context_key(1)
