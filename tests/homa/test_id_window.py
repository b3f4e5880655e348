"""The per-peer message-ID window behind both duplicate filters.

:class:`~repro.homa.idwindow.IdWindow` replaced a set of seen IDs plus a
watermark (SMT's replay defence) and a 100 000-key FIFO dict of delivered
IDs (Homa's late-copy filter).  The session and the engine's per-peer
windows answer as one model of a set and a watermark; a window must stay
small per ID, never grow with an ID's value, never let one forged ID lift
its floor (in the session, not even one that failed AEAD and was
forgiven), and never cut off a message still being received.
"""

from __future__ import annotations

import gc
import tracemalloc
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.homa.engine as engine_mod
from repro.homa import idwindow
from repro.homa.idwindow import REPLAY_WINDOW_IDS, IdWindow

from tests.core.test_session import make_session
from tests.homa.test_batch_receive import MSS, PEER, PEER_PORT, Message, Receiver


SPAN = 4  # the window each model test runs with


def held(window: IdWindow) -> list[int]:
    """The IDs a window holds exactly, ascending, decoded from its chunks."""
    return sorted(
        (key << 7) + bit
        for key, mask in window._chunks.items()
        for bit in range(128)
        if (mask >> bit) & 1
    )


class Model:
    """A set of IDs and a watermark; a prune drops the lowest 128-ID groups
    until at most W are left and the watermark is the highest ID dropped."""

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        self.ids: set[int] = set()
        self.watermark = -1

    def add(self, msg_id: int) -> bool:
        if msg_id <= self.watermark or msg_id in self.ids:
            return False
        self.ids.add(msg_id)
        if len(self.ids) > 2 * SPAN:
            ids = sorted(self.ids)
            while len(ids) > SPAN:
                group = ids[0] >> 7
                while ids and ids[0] >> 7 == group:
                    self.watermark = ids.pop(0)
            self.ids = set(ids)
        return True

    def seen(self, msg_id: int) -> bool:
        return msg_id <= self.watermark or msg_id in self.ids


# Each op names its ID relative to the newest added since the last rekey,
# as a peer's traffic does: mostly the next one or two, sometimes one that
# skips a chunk or lands near 2^48 (a forged header's), and half the time
# one up to 40 back (a replay, a late copy, or a hole filled).
_offsets = st.one_of(
    st.sampled_from((1, 2) * 4 + (3, 130, 2**48)),
    st.integers(-40, 0),
)
# Mostly adds, so runs between rekeys are long enough to prune.
_ops = st.lists(
    st.tuples(st.sampled_from(("add",) * 8 + ("discard",) * 2 + ("rekey",)), _offsets),
    min_size=20,
    max_size=120,
)


# A prune while IDs 124-131 straddle a chunk edge, then an ID below them.
_FLOOR_ENDS_A_CHUNK = [
    ("add", offset) for offset in (130, -6, -5, -4, -3, 1, -2, -3, -31)
]


def _with_ids(ops) -> list[tuple[str, int]]:
    newest, out = 0, []
    for op, offset in ops:
        msg_id = max(0, newest + offset)
        if op == "add":
            newest = max(newest, msg_id)
        elif op == "rekey":
            newest = 0
        out.append((op, msg_id))
    return out


def _probe(model: Model) -> list[int]:
    near = {0, 1, 127, 128, 129, 255, 256, 2**48, 2**48 + 1}
    return sorted(near | model.ids | {model.watermark, model.watermark + 1})


def _same(window: IdWindow, model: Model) -> None:
    assert len(window) == len(model.ids)
    assert window.watermark == model.watermark
    assert held(window) == sorted(model.ids)
    for probe in _probe(model):
        assert (probe in window) == model.seen(probe)


@settings(max_examples=300, deadline=None)
@given(_ops)
@example(_FLOOR_ENDS_A_CHUNK)
def test_session_answers_as_the_model_does(ops):
    session = make_session()
    model = Model()
    rejected = forgiven = 0
    with mock.patch.object(idwindow, "REPLAY_WINDOW_IDS", SPAN):
        for op, msg_id in _with_ids(ops):
            if op == "add":
                expected = model.add(msg_id)
                rejected += not expected
                assert session.accept_message(msg_id) == expected
            elif op == "discard":
                # forgive_message: refused below the watermark, else discard.
                expected = msg_id > model.watermark
                if expected:
                    model.ids.discard(msg_id)
                    forgiven += 1
                assert session.forgive_message(msg_id) == expected
            else:
                model.clear()
                session.rekey(session.write_keys, session.read_keys)
            _same(session.seen_ids, model)
    assert session.replays_rejected == rejected
    assert session.messages_forgiven == forgiven


@settings(max_examples=300, deadline=None)
@given(_ops)
@example(_FLOOR_ENDS_A_CHUNK)
def test_window_matches_the_model(ops):
    window, model = IdWindow(), Model()
    with mock.patch.object(idwindow, "REPLAY_WINDOW_IDS", SPAN):
        for op, msg_id in _with_ids(ops):
            if op == "add":
                assert window.add(msg_id) == model.add(msg_id)
            elif op == "discard":
                window.discard(msg_id)
                model.ids.discard(msg_id)
            else:
                window.clear()
                model.clear()
            _same(window, model)


def _traced_bytes(build) -> tuple[int, object]:
    gc.collect()
    tracemalloc.start()
    try:
        kept = build()
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return size, kept


def test_dense_ids_cost_at_most_two_bytes_each():
    # One peer's requests: even IDs, consecutive.  Past the small-int
    # cache, so every chunk pays for its key.
    def build():
        window = IdWindow()
        for msg_id in range(10**6, 10**6 + 2 * REPLAY_WINDOW_IDS, 2):
            window.add(msg_id)
        return window

    size, window = _traced_bytes(build)
    assert len(window) == REPLAY_WINDOW_IDS
    assert size / len(window) <= 2.0


def test_a_forged_id_near_2_48_allocates_one_small_chunk():
    window = IdWindow()
    for msg_id in range(2, 2000, 2):
        window.add(msg_id)
    size, _ = _traced_bytes(lambda: window.add(2**48 - 2))
    assert size < 1024
    assert 2**48 - 2 in window and 1998 in window and 2**48 - 4 not in window


def _receive(receiver: Receiver, packets) -> None:
    handler = receiver.transport.classify(packets[0])[1]
    handler(list(packets))


def _window_bytes(snapshot) -> int:
    only = [tracemalloc.Filter(True, idwindow.__file__)]
    return sum(s.size for s in snapshot.filter_traces(only).statistics("filename"))


def test_a_forged_first_data_header_costs_the_engine_under_1_kb():
    # Plain Homa accepts any ID, so a one-packet message whose unauthenticated
    # header names an ID near 2^48 is delivered, and its peer window must
    # not grow with the ID's value.
    receiver = Receiver()
    for msg_id in range(2, 200, 2):
        _receive(receiver, Message(msg_id, 300).packets)
    forged = Message(2**48 - 2, 300)
    gc.collect()
    tracemalloc.start()
    try:
        _receive(receiver, forged.packets)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert receiver.delivered[-1][1] == 2**48 - 2
    assert _window_bytes(snapshot) < 1024
    window = receiver.transport.delivered_ids[(PEER, PEER_PORT)]
    assert 2**48 - 2 in window and len(window) == 100


def test_a_forged_id_near_2_48_cannot_cut_its_peer_off():
    # The forged ID stays the window's newest, but a prune keeps the IDs
    # the window holds, not those near its newest: the outlier takes one
    # slot and the watermark stays among the peer's real IDs.  (A 64-ID
    # window, so 2W + 1 real deliveries are quick.)
    receiver = Receiver()
    w = 64
    real = range(2, 2 + 2 * (2 * w + 2), 2)
    with mock.patch.object(idwindow, "REPLAY_WINDOW_IDS", w):
        _receive(receiver, Message(2**48 - 2, 300).packets)
        for msg_id in real[:-1]:
            _receive(receiver, Message(msg_id, 300).packets)
        window = receiver.transport.delivered_ids[(PEER, PEER_PORT)]
        assert real[0] < window.watermark < real[-1]  # a prune ran
        assert 2**48 - 2 in window and len(window) <= w
        _receive(receiver, Message(real[-1], 300).packets)
    assert receiver.delivered[-1][1] == real[-1]
    assert len(receiver.delivered) == len(real) + 1
    assert receiver.transport.spurious_ignored == 0


def test_a_forgiven_forged_id_cannot_lock_the_session():
    # A forged first header's ID passes accept_message before AEAD, fails
    # it, and is forgiven.  It must leave nothing behind that a later prune
    # lifts the watermark to: after 2W + 1 real IDs the next one is accepted.
    session = make_session()
    w = 16
    with mock.patch.object(idwindow, "REPLAY_WINDOW_IDS", w):
        assert session.accept_message(2**48)
        assert session.forgive_message(2**48)
        real = range(2, 2 + 2 * (2 * w + 2), 2)
        for msg_id in real[:-1]:
            assert session.accept_message(msg_id)
        assert session.seen_ids.watermark < real[-1]
        assert session.accept_message(real[-1])
    assert session.replays_rejected == 0


def test_a_message_in_progress_survives_a_prune():
    receiver = Receiver()
    _receive(receiver, Message(2, 300).packets)  # the peer's window exists
    slow = Message(4, 5 * MSS)
    _receive(receiver, slow.packets[:2])
    window = receiver.transport.delivered_ids[(PEER, PEER_PORT)]
    for msg_id in range(6, 6 + 4 * REPLAY_WINDOW_IDS + 2, 2):
        window.add(msg_id)
    assert window.watermark > slow.msg_id  # the prune passed its ID
    _receive(receiver, slow.packets[2:])
    assert receiver.delivered[-1] == (slow.dst_port, slow.msg_id, slow.wire)
    spurious = receiver.transport.spurious_ignored
    _receive(receiver, slow.packets[:1])  # a late copy: now delivered
    assert receiver.transport.spurious_ignored == spurious + 1
    assert len(receiver.delivered) == 2


def test_peer_windows_are_capped_least_recently_delivered_first():
    receiver = Receiver()
    ports = [PEER_PORT + 10 + i for i in range(5)]
    with mock.patch.object(engine_mod, "MAX_PEER_WINDOWS", 3):
        for i, port in enumerate(ports):
            _receive(receiver, Message(2 + 2 * i, 300, src_port=port).packets)
            if i == 2:  # the first peer delivers again: now most recent
                _receive(receiver, Message(100, 300, src_port=ports[0]).packets)
    windows = receiver.transport.delivered_ids
    assert list(windows) == [(PEER, ports[0]), (PEER, ports[3]), (PEER, ports[4])]
    assert held(windows[(PEER, ports[0])]) == [2, 100]


def test_forget_delivered_drops_one_peer():
    receiver = Receiver()
    _receive(receiver, Message(2, 300).packets)
    _receive(receiver, Message(2, 300, src_port=PEER_PORT + 10).packets)
    receiver.transport.forget_delivered(PEER, PEER_PORT)
    assert list(receiver.transport.delivered_ids) == [(PEER, PEER_PORT + 10)]
    _receive(receiver, Message(2, 300).packets)  # a new ID space: delivered
    assert len(receiver.delivered) == 3
