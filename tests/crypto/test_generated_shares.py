"""The table of generated shares in EcdhKeyPair.

``generate`` files every pair it makes, so a first half against a share
this process generated is one comb on the product of the two private
scalars.  Every test starts from empty tables and counts the ``k*Q``
ladders and the combs that really run: a share that ``generate`` did not
make must pay the ladder in full, every share must be validated before
either lookup, a call that raises must file nothing, and the table must
stay bounded.
"""

import random

import pytest

from repro.crypto import ec, ecdh
from repro.crypto.ec import INFINITY, N, P256, ECPoint
from repro.crypto.ecdh import EcdhKeyPair
from repro.errors import CryptoError


@pytest.fixture()
def runs(monkeypatch):
    """Empty tables; returns {"ladders": [k, ...], "combs": [k, ...]}."""
    monkeypatch.setattr(ecdh, "_agreed", {})
    monkeypatch.setattr(ecdh, "_generated", {})
    seen = {"ladders": [], "combs": []}
    real_ladder, real_comb = ec._wnaf_mult, ec._comb_mult

    def ladder(k, px, py):
        seen["ladders"].append(k)
        return real_ladder(k, px, py)

    def comb(*terms):
        seen["combs"].append(terms[0][0])
        return real_comb(*terms)

    monkeypatch.setattr(ec, "_wnaf_mult", ladder)
    monkeypatch.setattr(ec, "_comb_mult", comb)
    return seen


_ladder = ec._wnaf_mult  # the real one, which the fixture does not count


def _full(private: int, point: ECPoint) -> bytes:
    """The agreement as one uncounted ladder, outside ``shared_secret``."""
    return ec._to_affine(*_ladder(private % N, point.x, point.y)).x.to_bytes(32, "big")


def test_the_bound_is_1024():
    assert ecdh._GENERATED_MAX == 1024


def test_generate_files_its_pair(runs):
    pair = EcdhKeyPair.generate(random.Random(5))
    assert ecdh._generated == {pair.public: pair.private}
    assert pair.public == P256.scalar_mult(pair.private)


@pytest.mark.parametrize("a_first", [True, False])
def test_both_orders_equal_the_ladder_and_run_none(runs, a_first):
    rng = random.Random(7)
    a, b = EcdhKeyPair.generate(rng), EcdhKeyPair.generate(rng)
    first, second = (a, b) if a_first else (b, a)
    del runs["combs"][:]
    got_first = first.shared_secret(second.public)
    assert runs["combs"] == [a.private * b.private % N]
    got_second = second.shared_secret(first.public)
    assert runs["combs"] == [a.private * b.private % N]  # read, not computed
    assert runs["ladders"] == []
    assert got_first == got_second == _full(a.private, b.public)
    assert got_first == _full(b.private, a.public)


def test_a_directly_built_or_unknown_share_runs_the_ladder(runs):
    rng = random.Random(9)
    a = EcdhKeyPair.generate(rng)
    k = rng.randrange(1, N)
    direct = EcdhKeyPair(k, P256.scalar_mult(k))
    assert a.shared_secret(direct.public) == _full(a.private, direct.public)
    assert runs["ladders"] == [a.private]
    # A share generated before the table was emptied is unknown here, as
    # one made by another process would be.
    unknown = EcdhKeyPair.generate(rng)
    ecdh._generated.clear()
    assert a.shared_secret(unknown.public) == _full(a.private, unknown.public)
    assert runs["ladders"] == [a.private, a.private]


@pytest.mark.parametrize("bad", [INFINITY, ECPoint(5, 7)],
                         ids=["infinity", "off-curve"])
def test_an_invalid_share_raises_even_when_an_entry_is_planted(runs, bad):
    b = EcdhKeyPair.generate(random.Random(11))
    ecdh._generated[bad] = 3
    planted = dict(ecdh._generated)
    del runs["combs"][:]
    with pytest.raises(CryptoError, match="invalid peer ECDH share"):
        b.shared_secret(bad)
    assert ecdh._generated == planted
    assert ecdh._agreed == {}
    assert runs == {"ladders": [], "combs": []}


def test_a_call_that_raises_adds_nothing(runs):
    b = EcdhKeyPair.generate(random.Random(13))
    filed = dict(ecdh._generated)
    # A private scalar of N is 0 mod N: the comb on the product ends at
    # infinity.
    degenerate = EcdhKeyPair(N, b.public)
    del runs["combs"][:]
    with pytest.raises(CryptoError, match="point at infinity"):
        degenerate.shared_secret(b.public)
    assert runs == {"ladders": [], "combs": [0]}
    assert ecdh._generated == filed
    assert ecdh._agreed == {}


def test_the_table_never_exceeds_its_bound_oldest_out(runs, monkeypatch):
    monkeypatch.setattr(ecdh, "_GENERATED_MAX", 3)
    rng = random.Random(17)
    pairs = []
    for _ in range(5):
        pairs.append(EcdhKeyPair.generate(rng))
        assert len(ecdh._generated) <= 3
    assert ecdh._generated == {p.public: p.private for p in pairs[-3:]}
    # The oldest was evicted, so an agreement against it runs the ladder;
    # one against a filed share does not.
    hub = pairs[-1]
    assert hub.shared_secret(pairs[0].public) == _full(hub.private, pairs[0].public)
    assert runs["ladders"] == [hub.private]
    assert hub.shared_secret(pairs[-2].public) == _full(hub.private, pairs[-2].public)
    assert runs["ladders"] == [hub.private]
