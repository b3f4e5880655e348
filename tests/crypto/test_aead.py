"""AEAD interface and the FastAead simulation cipher."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.runner import build_rpc_harness
from repro.crypto import aead as aead_module
from repro.crypto.aead import FastAead, in_flight_stats, new_aead, shared_aead
from repro.crypto.gcm import AesGcm
from repro.errors import AuthenticationError, CryptoError

NONCE = bytes(12)


class TestFactory:
    def test_aes_128(self):
        assert isinstance(new_aead("aes-128-gcm", bytes(16)), AesGcm)

    def test_aes_256(self):
        assert isinstance(new_aead("aes-256-gcm", bytes(32)), AesGcm)

    def test_fast(self):
        assert isinstance(new_aead("fast", bytes(16)), FastAead)

    def test_unknown_kind(self):
        with pytest.raises(CryptoError):
            new_aead("rot13", bytes(16))

    def test_wrong_key_size(self):
        with pytest.raises(CryptoError):
            new_aead("aes-128-gcm", bytes(32))


class TestFastAead:
    def test_roundtrip(self):
        f = FastAead(bytes(16))
        out = f.seal(NONCE, b"payload", b"aad")
        assert f.open(NONCE, out, b"aad") == b"payload"

    def test_overhead_is_tag_size(self):
        f = FastAead(bytes(16))
        assert len(f.seal(NONCE, b"x" * 100)) == 100 + f.tag_size

    def test_ciphertext_differs_from_plaintext(self):
        f = FastAead(bytes(16))
        assert f.seal(NONCE, b"secret" * 10)[:60] != b"secret" * 10

    def test_tamper_detected(self):
        f = FastAead(bytes(16))
        out = bytearray(f.seal(NONCE, b"payload"))
        out[0] ^= 1
        with pytest.raises(AuthenticationError):
            f.open(NONCE, bytes(out))

    def test_wrong_aad_detected(self):
        f = FastAead(bytes(16))
        out = f.seal(NONCE, b"payload", b"a")
        with pytest.raises(AuthenticationError):
            f.open(NONCE, out, b"b")

    def test_nonce_binds_ciphertext(self):
        f = FastAead(bytes(16))
        out = f.seal(NONCE, b"payload")
        with pytest.raises(AuthenticationError):
            f.open(b"\x01" + NONCE[1:], out)

    def test_same_interface_as_gcm(self):
        for cls in (FastAead, AesGcm):
            obj = cls(bytes(16))
            assert obj.nonce_size == 12
            assert obj.tag_size == 16

    @given(st.binary(min_size=0, max_size=200), st.binary(min_size=0, max_size=32))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, plaintext, aad):
        f = FastAead(b"\x05" * 16)
        assert f.open(NONCE, f.seal(NONCE, plaintext, aad), aad) == plaintext


class TestFastAeadMemo:
    """The seal->open memo must be invisible to tampering and nonce reuse."""

    def test_tamper_on_shared_instance_detected(self):
        # One instance sealing and opening (the shared_aead topology): the
        # memo matches only byte-identical records, so every tamper falls
        # through to the full verify path.
        f = FastAead(bytes(16))
        sealed = f.seal(NONCE, b"payload" * 100, b"aad")
        assert f.open(NONCE, sealed, b"aad") == b"payload" * 100  # memo hit
        for i in (0, len(sealed) // 2, len(sealed) - 1):
            bad = bytearray(sealed)
            bad[i] ^= 1
            with pytest.raises(AuthenticationError):
                f.open(NONCE, bytes(bad), b"aad")

    def test_memo_checks_aad(self):
        f = FastAead(bytes(16))
        sealed = f.seal(NONCE, b"payload", b"right")
        with pytest.raises(AuthenticationError):
            f.open(NONCE, sealed, b"wrong")

    def test_memo_overwrite_still_opens_older_record(self):
        # Re-sealing under the same nonce evicts the memo entry; the older
        # record must still open via the full decrypt path.
        f = FastAead(bytes(16))
        first = f.seal(NONCE, b"first message")
        f.seal(NONCE, b"second message")
        assert f.open(NONCE, first) == b"first message"

    def test_memoryview_inputs_match_memo(self):
        f = FastAead(bytes(16))
        sealed = f.seal(NONCE, memoryview(b"zero-copy plaintext"), b"aad")
        assert f.open(memoryview(NONCE), memoryview(sealed), b"aad") == (
            b"zero-copy plaintext"
        )


@pytest.fixture
def table(monkeypatch):
    """A fresh in-flight table in place of the process-wide one."""
    monkeypatch.setattr(aead_module, "_IN_FLIGHT", aead_module._InFlight())
    return aead_module._IN_FLIGHT


def _nonce(i: int) -> bytes:
    return i.to_bytes(12, "big")


def _flip(data: bytes, index: int) -> bytes:
    return data[:index] + bytes([data[index] ^ 1]) + data[index + 1 :]


class TestInFlightTable:
    """Sealed and not yet opened, and nothing else."""

    def test_open_hits_and_consumes(self, table):
        f = FastAead(bytes(16))
        sealed = f.seal(NONCE, b"payload" * 50, b"aad")
        assert in_flight_stats()["entries"] == 1
        # The wire bytes the entry pins: AAD and sealed record, no plaintext.
        assert in_flight_stats()["bytes"] == 3 + len(sealed)
        assert f.open(NONCE, sealed, b"aad") == b"payload" * 50
        stats = in_flight_stats()
        assert (stats["hits"], stats["misses"], stats["entries"], stats["bytes"]) == (
            1, 0, 0, 0,
        )
        # A replay finds nothing to hit and decrypts to the same bytes.
        assert f.open(NONCE, sealed, b"aad") == b"payload" * 50
        assert (in_flight_stats()["hits"], in_flight_stats()["misses"]) == (1, 1)
        assert in_flight_stats()["high_water_bytes"] == 3 + len(sealed)

    def test_every_mismatch_fails_beside_the_genuine_entry(self, table):
        f = FastAead(bytes(16))
        sealed = f.seal(NONCE, b"payload" * 50, b"aad")
        forged = [
            (_flip(NONCE, 11), sealed, b"aad"),
            (NONCE, sealed, b"aae"),
            (NONCE, _flip(sealed, 0), b"aad"),  # ciphertext, genuine tag
            (NONCE, _flip(sealed, len(sealed) - 1), b"aad"),  # tag
        ]
        for nonce, record, aad in forged:
            with pytest.raises(AuthenticationError):
                f.open(nonce, record, aad)
            assert in_flight_stats()["entries"] == 1
        assert in_flight_stats()["hits"] == 0
        assert f.open(NONCE, sealed, b"aad") == b"payload" * 50
        assert in_flight_stats()["hits"] == 1

    def test_hit_needs_the_key_not_the_instance(self, table):
        sealed = FastAead(b"k" * 16).seal(NONCE, b"one key, two instances")
        assert FastAead(b"k" * 16).open(NONCE, sealed) == b"one key, two instances"
        assert in_flight_stats()["hits"] == 1
        sealed = FastAead(b"k" * 16).seal(NONCE, b"one nonce, two keys")
        with pytest.raises(AuthenticationError):
            FastAead(b"j" * 16).open(NONCE, sealed)
        assert (in_flight_stats()["hits"], in_flight_stats()["entries"]) == (1, 1)

    def test_reseal_replaces_its_entry(self, table):
        f = FastAead(bytes(16))
        first = f.seal(NONCE, b"first message")
        second = f.seal(NONCE, b"second, longer message")
        assert in_flight_stats()["entries"] == 1
        assert in_flight_stats()["bytes"] == len(second)
        assert f.open(NONCE, first) == b"first message"  # slow path
        assert f.open(NONCE, second) == b"second, longer message"
        assert (in_flight_stats()["hits"], in_flight_stats()["misses"]) == (1, 1)

    def test_seal_many_files_what_seal_files(self, table):
        items = [(_nonce(i), bytes([i]) * (i * 37), b"h%d" % i) for i in range(6)]
        offsets = [sum(i * 37 + 16 + 3 for i in range(j)) for j in range(6)]
        out = bytearray(offsets[-1] + 5 * 37 + 16 + 3)
        f = FastAead(b"\x07" * 16)
        f.seal_many(items, out, offsets)
        batch = [bytes(out[o : o + len(p) + 16]) for o, (_n, p, _a) in zip(offsets, items)]
        assert out[offsets[1] - 3 : offsets[1]] == bytes(3)  # the gaps untouched

        def filed():
            return [
                (key, aad, bytes(buf[off : off + length]))
                for key, (aad, buf, off, length) in table.entries.items()
            ]

        by_batch = filed()
        assert all(entry[1] is out for entry in table.entries.values())
        table.entries.clear()
        assert [f.seal(*item) for item in items] == batch
        assert filed() == by_batch
        f.seal_many([], bytearray(), [])
        assert len(table.entries) == 6

    def test_random_walk_keeps_the_books(self, table, monkeypatch):
        budget = 64 * 1024
        monkeypatch.setattr(aead_module, "IN_FLIGHT_BUDGET", budget)
        rng = random.Random(24)
        aeads = [FastAead(bytes([k]) * 16) for k in range(3)]
        # (key index, nonce) -> (aad, sealed, plaintext): what the network
        # still carries, and what the table must file, oldest first; an
        # entry pins its AAD and sealed record, not the plaintext.
        carried: dict = {}
        filed: dict = {}
        hits = misses = evicted = 0
        for _ in range(10_000):
            op = rng.random()
            if op < 0.5:  # seal, or re-seal over a nonce still in flight
                key = k, nonce = rng.randrange(3), _nonce(rng.randrange(300))
                plaintext, aad = rng.randbytes(rng.randrange(3000)), rng.randbytes(5)
                record = (aad, aeads[k].seal(nonce, plaintext, aad), plaintext)
                filed.pop(key, None)
                carried[key] = filed[key] = record
                while sum(len(a) + len(s) for a, s, _p in filed.values()) > budget:
                    del filed[next(iter(filed))]
                    evicted += 1
            elif carried:
                key = k, nonce = rng.choice(list(carried))
                aad, sealed, plaintext = record = carried.pop(key)
                if op < 0.9:  # delivered; else dropped, and filed until evicted
                    assert aeads[k].open(nonce, sealed, aad) == plaintext
                    if filed.get(key) == record:
                        del filed[key]
                        hits += 1
                    else:
                        misses += 1
            assert [(aeads[k]._mac_key, n) for k, n in filed] == list(table.entries)
            assert table.bytes == sum(len(e[0]) + e[3] for e in table.entries.values())
            assert table.bytes <= budget
        stats = in_flight_stats()
        assert (stats["hits"], stats["misses"]) == (hits, misses)
        assert stats["evicted_unopened"] == evicted
        assert hits > 1000 and misses > 100 and evicted > 100
        assert budget - 6000 < stats["high_water_bytes"] <= budget

    def test_quiesced_bed_leaves_nothing_filed(self, table):
        harness = build_rpc_harness("smt-sw")
        bed = harness.bed

        def slot(i):
            call = harness.call_factory(i)
            for _ in range(250):
                yield from call(bytes(64 + 200 * i), 64)

        done = [bed.loop.process(slot(i)) for i in range(8)]  # 2 000 RPCs
        bed.loop.run(until=5.0)
        assert all(d.triggered and d.ok for d in done)
        stats = in_flight_stats()
        assert stats["hits"] >= 4000 and stats["misses"] == 0
        assert (stats["entries"], stats["bytes"]) == (0, 0)

    def test_opened_records_are_not_retained(self, table):
        aeads = [FastAead(bytes([k]) * 16) for k in range(16)]
        payload = bytes(16 * 1024)
        tracemalloc.start()
        try:
            for i in range(100):
                for f in aeads:
                    f.open(_nonce(i), f.seal(_nonce(i), payload, b"hdr"), b"hdr")
            live = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.Filter(True, aead_module.__file__)]
            )
        finally:
            tracemalloc.stop()
        assert sum(stat.size for stat in live.statistics("filename")) < 1 << 20


class TestSharedAead:
    def test_hot_key_survives_cold_keys(self):
        cap = shared_aead.cache_parameters()["maxsize"]
        hot = shared_aead("fast", b"hot key 16 bytes")
        for i in range(10 * cap):
            shared_aead("fast", i.to_bytes(16, "big"))
            if i % (cap // 2) == 0:
                assert shared_aead("fast", b"hot key 16 bytes") is hot
        assert shared_aead("fast", b"hot key 16 bytes") is hot

    def test_cap_holds(self):
        for i in range(406):  # session_churn's distinct keys
            shared_aead("fast", b"churn" + i.to_bytes(11, "big"))
            assert shared_aead.cache_info().currsize <= shared_aead.cache_info().maxsize

    def test_same_key_shares_instance(self):
        assert shared_aead("fast", b"\x09" * 16) is shared_aead("fast", b"\x09" * 16)

    def test_different_key_or_kind_distinct(self):
        a = shared_aead("fast", b"\x0a" * 16)
        assert shared_aead("fast", b"\x0b" * 16) is not a
        assert shared_aead("aes-128-gcm", b"\x0a" * 16) is not a

    def test_shared_instance_roundtrips(self):
        sealer = shared_aead("fast", b"\x0c" * 16)
        opener = shared_aead("fast", b"\x0c" * 16)
        assert opener.open(NONCE, sealer.seal(NONCE, b"hello", b"x"), b"x") == b"hello"
