"""Pinned bytes of the record path: FastAead, SMT-SW/HW segments, kTLS-SW.

Every digest below was captured when FastAead's keystream became one
keyed, nonzero byte per record, and has held since.  A digest moves only
if a sealed record, a wire byte or an opened plaintext changed.  The in-flight
table's books after a fixed seal/open script are pinned too: the memo must
hit, miss, evict and peak exactly as its accounting says.
"""

import hashlib
import random

import pytest

from repro.core.codec import SmtCodec
from repro.core.session import SmtSession
from repro.crypto import aead as aead_module
from repro.crypto.aead import FastAead, in_flight_stats
from repro.errors import AuthenticationError
from repro.host.costs import CostModel
from repro.ktls import KtlsConnection
from repro.nic.tls_offload import FlowContextTable
from repro.tls.keyschedule import TrafficKeys

LENGTHS = (0, 1, 63, 64, 65, 1_023, 16_384, 16_385, 65_536, 262_144)
AADS = (b"", b"\x17\x03\x03\x40\x11")
KEYS = (bytes(range(16)), b"\xa5" * 16)
MSS = 1440


@pytest.fixture(autouse=True)
def table(monkeypatch):
    """A fresh in-flight table, so every open below starts from known books."""
    monkeypatch.setattr(aead_module, "_IN_FLIGHT", aead_module._InFlight())
    return aead_module._IN_FLIGHT


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(len(chunk).to_bytes(8, "big"))
        h.update(chunk)
    return h.hexdigest()[:16]


def _plaintext(length: int, salt: int) -> bytes:
    return random.Random(length * 7 + salt).randbytes(length)


def _nonce(i: int) -> bytes:
    return (0x5EED0000 + i).to_bytes(12, "big")


def _cases():
    """(key, nonce, plaintext, aad) over every length x AAD x key."""
    cases = []
    for k, key in enumerate(KEYS):
        for a, aad in enumerate(AADS):
            for i, length in enumerate(LENGTHS):
                index = (k * len(AADS) + a) * len(LENGTHS) + i
                cases.append((key, _nonce(index), _plaintext(length, index), aad))
    return cases


def _seal_each():
    return [FastAead(key).seal(nonce, pt, aad) for key, nonce, pt, aad in _cases()]


#: Captured with the one-byte keystream; see the module docstring.
PINS = {
    "seal": "051dd6e75158095a",
    "seal_many": "051dd6e75158095a",
    "smt_sw": "e63b1ed8f0969a83",
    "smt_hw": "e6894db68cc2f130",
    "ktls_sw": "8bdd1b7d253d3318",
}

#: ``in_flight_stats()`` after :func:`_script`.  An entry counts the wire
#: bytes it pins, AAD and sealed record, and no plaintext; the table as it
#: was before it filed views, with only that accounting changed, replays
#: the script to exactly these books.
SCRIPT_STATS = {
    "entries": 89, "bytes": 965_173, "high_water_bytes": 1_048_261,
    "hits": 178, "misses": 135, "evicted_unopened": 33,
}


def _reference_xor(f: FastAead, nonce: bytes, data: bytes) -> bytes:
    """Every byte XOR the record's key byte: a keyed one-byte BLAKE2b
    digest mapped to 1..255, so no byte is left as it was."""
    digest = hashlib.blake2b(nonce, key=f._enc_key, digest_size=1).digest()
    k = digest[0] % 255 + 1
    return bytes(b ^ k for b in data)


def _reference_tag(f: FastAead, nonce: bytes, aad: bytes, ciphertext: bytes) -> bytes:
    """The tag over one joined message, before it was hashed field by field."""
    msg = b"".join((
        f._mac_key, nonce, len(aad).to_bytes(8, "big"), aad,
        len(ciphertext).to_bytes(8, "big"), ciphertext,
    ))
    return hashlib.sha1(msg).digest()[:16]


def test_xor_and_tag_match_the_reference():
    for key, nonce, pt, aad in _cases():
        f = FastAead(key)
        ciphertext = f._xor(nonce, memoryview(pt))
        assert ciphertext == _reference_xor(f, nonce, pt)
        assert all(c != p for c, p in zip(ciphertext, pt))
        assert f._tag(nonce, aad, ciphertext) == _reference_tag(f, nonce, aad, ciphertext)


def test_seal_bytes_pinned():
    assert _digest(_seal_each()) == PINS["seal"]


def test_seal_many_matches_seal_and_pin():
    sealed = []
    for key in KEYS:
        items = [(n, memoryview(p), a) for k, n, p, a in _cases() if k == key]
        offsets = [0]
        for _nonce_, p, _aad in items:
            offsets.append(offsets[-1] + len(p) + FastAead.tag_size)
        out = bytearray(offsets[-1])
        FastAead(key).seal_many(items, out, offsets)
        sealed += [bytes(out[i:j]) for i, j in zip(offsets, offsets[1:])]
    assert sealed == _seal_each()
    assert _digest(sealed) == PINS["seal_many"]


def test_open_miss_path_recovers_every_plaintext(table):
    sealed = _seal_each()
    table.entries.clear()  # nothing filed: every open below verifies and decrypts
    for (key, nonce, pt, aad), record in zip(_cases(), sealed):
        assert FastAead(key).open(nonce, memoryview(record), aad) == pt
    assert (in_flight_stats()["hits"], in_flight_stats()["misses"]) == (0, len(sealed))


def _flipped(data: bytes, index: int) -> bytes:
    out = bytearray(data)
    out[index] ^= 0x01
    return bytes(out)


@pytest.mark.parametrize("length", [1, 64, 16_385])
def test_any_flipped_byte_fails_on_the_miss_path(table, length):
    key, aad = KEYS[1], AADS[1]
    nonce, pt = _nonce(900 + length), _plaintext(length, 900)
    f = FastAead(key)
    record = f.seal(nonce, pt, aad)
    table.entries.clear()
    forged = [(_flipped(nonce, i), record, aad) for i in (0, 11)]
    forged += [(nonce, record, _flipped(aad, i)) for i in (0, 4)]
    forged += [(nonce, _flipped(record, i), aad) for i in (0, length // 2, length - 1)]
    forged += [(nonce, _flipped(record, i), aad) for i in (length, len(record) - 1)]
    for bad_nonce, bad_record, bad_aad in forged:
        with pytest.raises(AuthenticationError):
            f.open(bad_nonce, bad_record, bad_aad)
    assert f.open(nonce, record, aad) == pt


def _script():
    """Seal, open, replay, tamper and overflow the table, in a fixed order."""
    aeads = [FastAead(key) for key in KEYS]
    rng = random.Random(30)
    carried = []
    for i in range(400):
        f = aeads[i % 2]
        length = rng.choice(LENGTHS[:9])
        nonce, pt, aad = _nonce(rng.randrange(120)), _plaintext(length, i), AADS[i % 2]
        carried.append((f, nonce, f.seal(nonce, pt, aad), aad, pt))
        if rng.random() < 0.6:
            f, nonce, record, aad, pt = carried.pop(rng.randrange(len(carried)))
            if rng.random() < 0.1:
                with pytest.raises(AuthenticationError):
                    f.open(nonce, _flipped(record, len(record) - 1), aad)
            assert f.open(nonce, record, aad) == pt
            if rng.random() < 0.2:  # a replay finds nothing to hit
                assert f.open(nonce, memoryview(record), aad) == pt
    return in_flight_stats()


def test_in_flight_books_after_a_fixed_script(monkeypatch):
    monkeypatch.setattr(aead_module, "IN_FLIGHT_BUDGET", 1 << 20)  # so it evicts
    assert _script() == SCRIPT_STATS


def _smt_pair(aead_kind, offload=False, nic=None):
    tx = TrafficKeys(key=b"\x01" * 16, iv=b"\x02" * 12)
    rx = TrafficKeys(key=b"\x03" * 16, iv=b"\x04" * 12)
    costs = CostModel()
    sender = SmtCodec(SmtSession(tx, rx, aead_kind=aead_kind, offload=offload, nic=nic), costs)
    receiver = SmtCodec(SmtSession(rx, tx, aead_kind=aead_kind), costs)
    return sender, receiver


MESSAGES = ((2, 64), (4, 16 * 1024), (6, 256 * 1024))


def test_smt_sw_segments_pinned():
    chunks = []
    for kind in ("fast", "aes-128-gcm"):
        sender, receiver = _smt_pair(kind)
        for msg_id, size in MESSAGES[: 3 if kind == "fast" else 2]:
            payload = _plaintext(size, msg_id)
            encoded = sender.encode(msg_id, payload, MSS)
            segments = [bytes(plan.payload) for plan in encoded.plans]
            assert receiver.decode(msg_id, b"".join(segments)).payload == payload
            resent = sender.reseal_range(encoded, encoded.plans[-1].tso_offset)
            chunks += segments + [bytes(resent)]
    assert _digest(chunks) == PINS["smt_sw"]


class _Nic:
    def __init__(self):
        self.flow_contexts = FlowContextTable()


def test_smt_hw_segments_pinned():
    nic = _Nic()
    sender, receiver = _smt_pair("fast", offload=True, nic=nic)
    chunks = []
    for msg_id, size in MESSAGES:
        payload = _plaintext(size, msg_id)
        encoded = sender.encode(msg_id, payload, MSS)
        wire = []
        for plan in encoded.plans:
            for resync in sender.segment_pre_descriptors(plan, encoded.nic_queue):
                nic.flow_contexts.apply_resync(resync)
            wire.append(bytes(nic.flow_contexts.encrypt_segment(plan.payload, plan.tls)))
        assert receiver.decode(msg_id, b"".join(wire)).payload == payload
        resent = sender.reseal_range(encoded, encoded.plans[0].tso_offset)
        assert bytes(resent) == wire[0]
        chunks += wire
    assert _digest(chunks) == PINS["smt_hw"]


class _Stream:
    """Both ends of a byte stream: what one side sends, the other receives."""

    costs = CostModel()

    def __init__(self):
        self.sent = []
        self.inbox = []

    def send(self, thread, data, tls=None):
        self.sent.append(bytes(data))
        return
        yield

    def recv(self, thread):
        return self.inbox.pop(0)
        yield


class _Thread:
    def work(self, cost):
        return ()


def _drive(gen):
    try:
        while True:
            next(gen)
    except StopIteration as stop:
        return stop.value


def test_ktls_sw_record_stream_pinned():
    a = TrafficKeys(key=b"\x11" * 16, iv=b"\x22" * 12)
    b = TrafficKeys(key=b"\x33" * 16, iv=b"\x44" * 12)
    tx_pipe, rx_pipe = _Stream(), _Stream()
    sender = KtlsConnection(tx_pipe, "sw", a, b, aead_kind="fast")
    receiver = KtlsConnection(rx_pipe, "sw", b, a, aead_kind="fast")
    payloads = [_plaintext(n, 50 + n) for n in (5, 100_000, 16_384, 70_001)]
    for payload in payloads:
        _drive(sender.send(_Thread(), payload))
    stream = b"".join(tx_pipe.sent)
    # Deliver in odd-sized pieces so records straddle reads.
    cuts = list(range(0, len(stream), 9_973)) + [len(stream)]
    rx_pipe.inbox = [stream[i:j] for i, j in zip(cuts, cuts[1:])]
    got = b""
    while len(got) < sum(map(len, payloads)):
        got += _drive(receiver.recv(_Thread()))
    assert got == b"".join(payloads)
    assert receiver.records_opened == sender.records_sealed
    assert _digest(tx_pipe.sent) == PINS["ktls_sw"]
