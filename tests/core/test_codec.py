"""SMT codec tests: encryption between message and wire."""

import pytest

from repro.core.codec import SmtCodec
from repro.core.session import SmtSession
from repro.errors import AuthenticationError, ProtocolError
from repro.host.costs import CostModel
from repro.obs import Observability
from repro.sim.event_loop import EventLoop
from repro.tls.keyschedule import TrafficKeys

MSS = 1440


def make_pair(offload=False, nic=None):
    """(sender_codec, receiver_codec) wired like two session endpoints."""
    client_write = TrafficKeys(key=b"\x01" * 16, iv=b"\x02" * 12)
    server_write = TrafficKeys(key=b"\x03" * 16, iv=b"\x04" * 12)
    costs = CostModel()
    sender = SmtCodec(
        SmtSession(client_write, server_write, offload=offload, nic=nic), costs
    )
    receiver = SmtCodec(SmtSession(server_write, client_write), costs)
    return sender, receiver


def wire_of(encoded):
    return b"".join(plan.payload for plan in encoded.plans)


class TestSoftwareRoundTrip:
    @pytest.mark.parametrize("size", [1, 64, 1024, 16384, 100_000])
    def test_roundtrip(self, size):
        sender, receiver = make_pair()
        payload = bytes(i & 0xFF for i in range(size))
        encoded = sender.encode(2, payload, MSS)
        decoded = receiver.decode(2, wire_of(encoded))
        assert decoded.payload == payload

    def test_wire_is_ciphertext(self):
        sender, _ = make_pair()
        payload = b"CONFIDENTIAL" * 50
        encoded = sender.encode(2, payload, MSS)
        assert b"CONFIDENTIAL" not in wire_of(encoded)

    def test_wire_len_matches_plan(self):
        sender, _ = make_pair()
        encoded = sender.encode(2, bytes(50_000), MSS)
        assert sum(p.length for p in encoded.plans) == encoded.wire_len

    def test_tampered_wire_rejected(self):
        sender, receiver = make_pair()
        encoded = sender.encode(2, b"payload" * 100, MSS)
        wire = bytearray(wire_of(encoded))
        wire[30] ^= 1
        with pytest.raises(AuthenticationError):
            receiver.decode(2, bytes(wire))
        assert receiver.auth_failures == 1

    def test_malformed_record_counts_once_in_both_counters(self):
        # A record whose length runs past the message end fails before any
        # AEAD work; the attribute the ledger reads and the obs metric must
        # still agree that exactly one decode failed.
        sender, receiver = make_pair()
        obs = Observability(EventLoop())
        receiver.bind_obs(obs, "rx")
        encoded = sender.encode(2, b"payload" * 100, MSS)
        wire = bytearray(wire_of(encoded))
        wire[3] += 1  # high byte of the first record's length
        with pytest.raises(ProtocolError):
            receiver.decode(2, bytes(wire))
        metric = obs.metrics.get("rx.codec.auth_failures").value
        assert receiver.auth_failures == metric == 1

    def test_wrong_msg_id_rejected(self):
        # A message decrypted under another ID fails: the composite seqno
        # binds ciphertext to its message identity.
        sender, receiver = make_pair()
        encoded = sender.encode(2, b"hello", MSS)
        with pytest.raises(AuthenticationError):
            receiver.decode(4, wire_of(encoded))

    def test_swapped_records_rejected(self):
        # Order protection within a message: swapping two records makes
        # their positions disagree with their sequence numbers.
        sender, receiver = make_pair()
        payload = bytes(30_000)  # two 16 KB-ish records in one segment
        encoded = sender.encode(2, payload, MSS)
        wire = wire_of(encoded)
        from repro.tls.record import parse_record_header
        from repro.tls.constants import RECORD_HEADER_SIZE

        _t, len0 = parse_record_header(wire)
        r0 = wire[: RECORD_HEADER_SIZE + len0]
        rest = wire[RECORD_HEADER_SIZE + len0 :]
        swapped = rest + r0
        with pytest.raises(AuthenticationError):
            receiver.decode(2, swapped)

    def test_cross_direction_isolation(self):
        # Client-write records cannot be opened with the server-write keys:
        # each direction has its own sequence space and keys (Figure 4).
        sender, _ = make_pair()
        other_sender, _ = make_pair()
        encoded = sender.encode(2, b"data", MSS)
        with pytest.raises(AuthenticationError):
            sender.decode(2, wire_of(encoded))  # sender reads with read keys

    def test_replay_filter_delegates_to_session(self):
        _, receiver = make_pair()
        assert receiver.accept_message(2)
        assert not receiver.accept_message(2)

    def test_reseal_returns_cached_ciphertext(self):
        sender, _ = make_pair()
        encoded = sender.encode(2, bytes(5000), MSS)
        assert sender.reseal_range(encoded, 0) == encoded.plans[0].payload


class TestOffloadPath:
    def _nic(self):
        from repro.testbed import Testbed

        return Testbed.back_to_back().client.nic

    def test_encode_leaves_plaintext_with_descriptors(self):
        nic = self._nic()
        sender, _ = make_pair(offload=True, nic=nic)
        payload = b"VISIBLE-UNTIL-NIC" * 10
        encoded = sender.encode(2, payload, MSS)
        assert encoded.plans[0].tls is not None
        assert b"VISIBLE-UNTIL-NIC" in encoded.plans[0].payload

    def test_nic_queue_pinned(self):
        nic = self._nic()
        sender, _ = make_pair(offload=True, nic=nic)
        encoded = sender.encode(2, bytes(200_000), MSS)
        assert encoded.nic_queue is not None
        assert all(
            p.tls.context_key == sender.session.context_key(encoded.nic_queue)
            for p in encoded.plans
        )

    def test_nic_encryption_matches_software(self):
        # The offloaded ciphertext must byte-match the software path.
        nic = self._nic()
        hw_sender, receiver = make_pair(offload=True, nic=nic)
        sw_sender, _ = make_pair()
        payload = bytes(i & 0xFF for i in range(40_000))
        hw_encoded = hw_sender.encode(2, payload, MSS)
        sw_encoded = sw_sender.encode(2, payload, MSS)
        hw_wire = b""
        for plan in hw_encoded.plans:
            hw_sender.segment_pre_descriptors(plan, hw_encoded.nic_queue)
            for pre in []:
                pass
            hw_sender.session.ensure_context(hw_encoded.nic_queue)
            hw_wire += nic.flow_contexts.encrypt_segment(plan.payload, plan.tls)
        assert hw_wire == wire_of(sw_encoded)
        assert receiver.decode(2, hw_wire).payload == payload

    def test_reseal_range_regenerates_identical_bytes(self):
        # Offload retransmit falls back to software sealing; ciphertext
        # must be identical (same key, same nonce).
        nic = self._nic()
        hw_sender, _ = make_pair(offload=True, nic=nic)
        sw_sender, _ = make_pair()
        payload = bytes(20_000)
        hw_encoded = hw_sender.encode(2, payload, MSS)
        sw_encoded = sw_sender.encode(2, payload, MSS)
        assert hw_sender.reseal_range(hw_encoded, 0) == sw_encoded.plans[0].payload

    def test_offload_charges_no_crypto_cpu(self):
        nic = self._nic()
        hw_sender, _ = make_pair(offload=True, nic=nic)
        sw_sender, _ = make_pair()
        payload = bytes(16384)
        hw_cost = hw_sender.encode(2, payload, MSS).tx_cpu_cost
        sw_cost = sw_sender.encode(4, payload, MSS).tx_cpu_cost
        assert hw_cost < sw_cost
