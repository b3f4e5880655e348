"""Replay defence under the fault layer (paper §6.1 non-replayability).

Two layers of defence are exercised here: the Homa engine's delivered-set
dedup (a duplicated *packet* must never surface twice to the application)
and the session's message-ID filter (a replayed *ID* is rejected by
``accept_message`` -- including after a ``rekey``, where the ID space
resets but stale pre-rekey ciphertext still dies at AEAD verification).
"""

import pytest

from repro.core.codec import SmtCodec
from repro.core.session import SmtSession
from repro.errors import AuthenticationError
from repro.homa import idwindow
from repro.host.costs import CostModel
from repro.net.faults import FaultConfig
from repro.tls.keyschedule import TrafficKeys

from tests.fuzz.harness import build_pair, random_payloads, run_exchange, start_echo_server

KEYS_A = TrafficKeys(key=b"\x11" * 16, iv=b"\x22" * 12)
KEYS_B = TrafficKeys(key=b"\x33" * 16, iv=b"\x44" * 12)
KEYS_A2 = TrafficKeys(key=b"\x55" * 16, iv=b"\x66" * 12)
KEYS_B2 = TrafficKeys(key=b"\x77" * 16, iv=b"\x88" * 12)


class TestDuplicatedPacketsNeverDeliveredTwice:
    def test_every_packet_duplicated_single_app_delivery(self):
        # duplicate_rate=1.0: every packet on the wire arrives twice, so
        # whole messages arrive twice.  The engine's delivered-set and the
        # session's ID filter must collapse them to one app delivery each.
        seed = 7
        pair = build_pair(FaultConfig(duplicate_rate=1.0), fault_seed=seed)
        start_echo_server(pair)
        payloads = random_payloads(seed, 12, max_size=4000)
        assert run_exchange(pair, payloads, seed=seed) == payloads
        # The echo server saw each request exactly once, in order.
        assert pair.delivery_order == sorted(pair.delivery_order)
        assert len(pair.delivery_order) == len(set(pair.delivery_order)) == 12
        assert pair.server_transport.messages_delivered == 12
        dup = (
            pair.bed.faults_c2s.counters.duplicated.value
            + pair.bed.faults_s2c.counters.duplicated.value
        )
        assert dup > 0, "fault layer never duplicated anything"

    def test_duplicates_plus_drops_still_exactly_once(self):
        seed = 21
        faults = FaultConfig(duplicate_rate=0.5, drop_rate=0.1, reorder_rate=0.2)
        pair = build_pair(faults, fault_seed=seed)
        start_echo_server(pair)
        payloads = random_payloads(seed, 10, max_size=5000)
        assert run_exchange(pair, payloads, seed=seed) == payloads
        assert len(pair.delivery_order) == len(set(pair.delivery_order)) == 10


class TestAcceptMessageReplayFilter:
    def make_session(self):
        return SmtSession(KEYS_A, KEYS_B)

    def test_replayed_id_rejected_within_epoch(self):
        session = self.make_session()
        assert session.accept_message(2)
        assert not session.accept_message(2)
        assert session.replays_rejected == 1

    def test_replayed_id_rejected_after_rekey(self):
        # rekey resets the ID space (paper §4.5.2), but the filter itself
        # keeps enforcing at-most-once within the new epoch: an ID seen
        # twice after the rekey is still a replay.
        session = self.make_session()
        assert session.accept_message(2)
        session.rekey(KEYS_A2, KEYS_B2)
        assert session.accept_message(2)  # fresh epoch, fresh ID space
        assert not session.accept_message(2)  # replayed post-rekey: rejected
        assert session.replays_rejected == 1

    def test_pre_rekey_ciphertext_dies_at_aead_after_rekey(self):
        # The ID space reset is safe only because old ciphertext cannot be
        # smuggled into the new epoch: it was sealed under retired keys.
        costs = CostModel()
        sender = SmtSession(KEYS_A, KEYS_B)
        receiver = SmtSession(KEYS_B, KEYS_A)
        sender_codec = SmtCodec(sender, costs)
        receiver_codec = SmtCodec(receiver, costs)
        encoded = sender_codec.encode(2, b"pre-rekey secret", mss=1460)
        stale_wire = b"".join(plan.payload for plan in encoded.plans)
        assert receiver_codec.decode(2, stale_wire).payload == b"pre-rekey secret"
        sender.rekey(KEYS_A2, KEYS_B2)
        receiver.rekey(KEYS_B2, KEYS_A2)
        assert receiver.accept_message(2)  # the ID alone is admissible again
        with pytest.raises(AuthenticationError):
            receiver_codec.decode(2, stale_wire)  # ...but the bytes are not
        assert receiver_codec.auth_failures == 1

    def test_watermark_rejects_ancient_ids(self, monkeypatch):
        # Shrink the window so pruning happens fast, then check that an ID
        # below the watermark is rejected even though it was never seen.
        monkeypatch.setattr(idwindow, "REPLAY_WINDOW_IDS", 16)
        session = self.make_session()
        for msg_id in range(0, 200, 2):
            assert session.accept_message(msg_id)
        assert session.seen_ids.watermark > 0
        assert not session.accept_message(1)  # below watermark, never seen
        assert session.replays_rejected == 1

    def test_forgive_refuses_ids_below_watermark(self, monkeypatch):
        # Corruption recovery must not become a replay hole: once an ID has
        # been folded below the pruning watermark it cannot be re-admitted.
        monkeypatch.setattr(idwindow, "REPLAY_WINDOW_IDS", 16)
        session = self.make_session()
        for msg_id in range(0, 200, 2):
            session.accept_message(msg_id)
        assert not session.forgive_message(0)
        assert not session.accept_message(0)
        # A recent ID is forgivable exactly once.
        assert session.forgive_message(198)
        assert session.accept_message(198)
        assert not session.accept_message(198)
