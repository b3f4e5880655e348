"""The table of agreed secrets in EcdhKeyPair.shared_secret.

Every test starts from an empty table, and from an empty table of
generated shares so that every first half is a ``k*Q`` ladder, and counts
the ladders that really run under it: the second half of an agreement
must read the first half's secret and nothing else, a hit must leave the
table, every share must be validated before the lookup, and the table
must stay bounded.
"""

import random

import pytest

from repro.crypto import ec, ecdh
from repro.crypto.ec import INFINITY, N, ECPoint
from repro.crypto.ecdh import EcdhKeyPair
from repro.errors import CryptoError


@pytest.fixture()
def ladders(monkeypatch):
    """Empty tables; returns the list of (k, x, y) of every ``k*Q`` run."""
    monkeypatch.setattr(ecdh, "_agreed", {})
    monkeypatch.setattr(ecdh, "_generated", {})
    calls = []
    real = ec._wnaf_mult

    def counted(k, px, py):
        calls.append((k, px, py))
        return real(k, px, py)

    monkeypatch.setattr(ec, "_wnaf_mult", counted)
    return calls


@pytest.fixture(scope="module")
def pairs():
    rng = random.Random(21)
    return [EcdhKeyPair.generate(rng) for _ in range(6)]


_ladder = ec._wnaf_mult  # the real one, which the fixture does not count


def _full(private: int, point: ECPoint) -> bytes:
    """The agreement as one uncounted ladder, outside ``shared_secret``."""
    return ec._to_affine(*_ladder(private % N, point.x, point.y)).x.to_bytes(32, "big")


def test_the_bound_is_256():
    assert ecdh._AGREED_MAX == 256


@pytest.mark.parametrize("a_first", [True, False])
def test_a_hit_equals_the_full_result_whichever_side_goes_first(
    ladders, pairs, a_first
):
    a, b = pairs[0], pairs[1]
    first, second = (a, b) if a_first else (b, a)
    got_first = first.shared_secret(second.public)
    assert ecdh._agreed == {(first.public, second.public): got_first}
    got_second = second.shared_secret(first.public)
    assert len(ladders) == 1
    assert got_second == got_first == _full(a.private, b.public)
    assert got_first == _full(b.private, a.public)


def test_a_third_key_pair_meeting_the_same_share_computes_in_full(
    ladders, pairs
):
    a, b, c = pairs[0], pairs[1], pairs[2]
    filed = a.shared_secret(b.public)
    # c meets b's share, and then a's: neither lookup names c's share.
    assert c.shared_secret(b.public) == _full(c.private, b.public)
    assert c.shared_secret(a.public) == _full(c.private, a.public)
    assert len(ladders) == 3
    assert ecdh._agreed[(a.public, b.public)] == filed
    # A key pair that meets its own share files under (A, A) and reads it.
    assert a.shared_secret(a.public) == a.shared_secret(a.public)
    assert len(ladders) == 4


@pytest.mark.parametrize("bad", [INFINITY, ECPoint(5, 7)],
                         ids=["infinity", "off-curve"])
def test_an_invalid_share_raises_even_when_the_swapped_pair_is_filed(
    ladders, pairs, bad
):
    b = pairs[1]
    planted = {(bad, b.public): bytes(32)}
    ecdh._agreed.update(planted)
    with pytest.raises(CryptoError, match="invalid peer ECDH share"):
        b.shared_secret(bad)
    assert ecdh._agreed == planted
    assert ladders == []


def test_a_hit_removes_its_entry(ladders, pairs):
    a, b = pairs[0], pairs[1]
    secret = a.shared_secret(b.public)
    assert b.shared_secret(a.public) == secret
    assert ecdh._agreed == {}
    # The same second half again misses, pays in full and files its own.
    assert b.shared_secret(a.public) == secret
    assert len(ladders) == 2
    assert ecdh._agreed == {(b.public, a.public): secret}


def test_the_table_never_exceeds_its_bound_oldest_out(
    ladders, pairs, monkeypatch
):
    monkeypatch.setattr(ecdh, "_AGREED_MAX", 3)
    hub, spokes = pairs[0], pairs[1:]
    for spoke in spokes:
        hub.shared_secret(spoke.public)
        assert len(ecdh._agreed) <= 3
    assert list(ecdh._agreed) == [(hub.public, s.public) for s in spokes[-3:]]
    assert len(ladders) == len(spokes)
    # The oldest was evicted, so its second half computes in full; a
    # filed one is read.
    assert spokes[0].shared_secret(hub.public) == _full(hub.private, spokes[0].public)
    assert len(ladders) == len(spokes) + 1
    assert spokes[-1].shared_secret(hub.public) == _full(hub.private, spokes[-1].public)
    assert len(ladders) == len(spokes) + 1


def test_a_call_that_raises_files_nothing(ladders, pairs):
    b = pairs[1]
    for bad in (INFINITY, ECPoint(5, 7)):
        with pytest.raises(CryptoError):
            b.shared_secret(bad)
    # A private scalar of N is 0 mod N: its ladder ends at infinity.
    degenerate = EcdhKeyPair(N, b.public)
    with pytest.raises(CryptoError, match="point at infinity"):
        degenerate.shared_secret(pairs[2].public)
    assert len(ladders) == 1
    assert ecdh._agreed == {}
