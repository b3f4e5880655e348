"""The RPC integrity protocol and cluster harness plumbing."""

import random

import pytest

from repro.load.cluster import (
    HEADER_SIZE,
    MIN_MESSAGE,
    ClusterHarness,
    build_request,
    handle_request,
    verify_response,
)
from repro.load.cluster import _HDR as HEADER
from repro.load.cluster import _RESP_SALT, _fill


class TestFill:
    def test_length_and_determinism(self):
        assert len(_fill(7, 100)) == 100
        assert _fill(7, 100) == _fill(7, 100)
        assert _fill(7, 100) != _fill(8, 100)

    def test_position_dependence(self):
        # Swapping two aligned 8-byte blocks must change the bytes —
        # that is what catches reassembly placing a record at the wrong
        # offset even when no byte of the record itself is corrupted.
        fill = _fill(3, 64)
        swapped = fill[8:16] + fill[0:8] + fill[16:]
        assert len(swapped) == len(fill)
        assert swapped != fill


class TestProtocol:
    def test_roundtrip(self):
        request = build_request(serial=5, size=256, response_size=64)
        assert len(request) == 256
        response, ok = handle_request(request)
        assert ok
        assert len(response) == 64
        assert verify_response(response, serial=5, response_size=64)

    def test_minimum_sizes_enforced(self):
        with pytest.raises(ValueError):
            build_request(1, MIN_MESSAGE - 1, 64)
        with pytest.raises(ValueError):
            build_request(1, 256, MIN_MESSAGE - 1)

    def test_corrupt_request_detected_and_answered(self):
        request = bytearray(build_request(9, 256, 64))
        request[HEADER_SIZE + 10] ^= 0xFF
        response, ok = handle_request(bytes(request))
        assert not ok
        # The server still answers (status 2) so the client counts the
        # error instead of timing out, and the client rejects the verdict.
        assert not verify_response(response, serial=9, response_size=64)

    def test_swapped_blocks_detected(self):
        request = build_request(9, 256, 64)
        tail = request[HEADER_SIZE:]
        swapped = request[:HEADER_SIZE] + tail[8:16] + tail[:8] + tail[16:]
        _, ok = handle_request(swapped)
        assert not ok

    def test_response_checks(self):
        request = build_request(5, 256, 64)
        response, _ = handle_request(request)
        assert not verify_response(response, serial=6, response_size=64)
        assert not verify_response(response[:-1], serial=5, response_size=64)
        assert not verify_response(response, serial=5, response_size=63)
        corrupted = response[:-1] + bytes([response[-1] ^ 1])
        assert not verify_response(corrupted, serial=5, response_size=64)


class TestHarnessValidation:
    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError):
            ClusterHarness(None, "quic")


def _reference_fill(serial: int, n: int) -> bytes:
    """The big-int fill the numpy XOR replaced: position words XOR the
    serial repeated, as one integer each."""
    blocks = (n + 7) // 8
    pos = int.from_bytes(b"".join(i.to_bytes(8, "big") for i in range(blocks)), "big")
    rep = int.from_bytes(serial.to_bytes(8, "big") * blocks, "big")
    return (pos ^ rep).to_bytes(blocks * 8, "big")[:n]


def _reference_request(serial: int, size: int, response_size: int) -> bytes:
    header = HEADER.pack(serial, response_size, 0)
    return header + _reference_fill(serial, size)[HEADER_SIZE:]


class TestFillMatchesReference:
    def test_random_serials_and_lengths(self):
        rng = random.Random(32)
        cases = [(0, 0), (1, 1), (2**64 - 1, 70_000)]
        cases += [(rng.getrandbits(64), rng.randrange(1, 300_000)) for _ in range(300)]
        for serial, n in cases:
            assert _fill(serial, n) == _reference_fill(serial, n), (serial, n)

    def test_lengths_around_the_lane_boundaries(self):
        """2^8 and 2^16 blocks on each side, and past 2^16 blocks, where a
        third position byte (lane 5) is set."""
        rng = random.Random(34)
        for n in (2_048, 2_056, 524_288, 524_296, 1_100_000):
            serial = rng.getrandbits(64)
            assert _fill(serial, n) == _reference_fill(serial, n), (serial, n)

    def test_messages_match_reference(self):
        rng = random.Random(33)
        for _ in range(100):
            serial = rng.getrandbits(64)
            size, response_size = rng.randrange(MIN_MESSAGE, 20_000), rng.randrange(
                MIN_MESSAGE, 20_000
            )
            request = build_request(serial, size, response_size)
            assert request == _reference_request(serial, size, response_size)
            response, ok = handle_request(request)
            assert ok
            assert response == HEADER.pack(serial, response_size, 1) + _reference_fill(
                serial ^ _RESP_SALT, response_size
            )[HEADER_SIZE:]
            assert verify_response(memoryview(response), serial, response_size)
            bad = bytearray(request)
            bad[rng.randrange(HEADER_SIZE, size)] ^= 0x40
            assert handle_request(bytes(bad))[1] is False
