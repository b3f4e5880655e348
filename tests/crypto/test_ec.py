"""secp256r1 group tests: known vectors, group laws, and a differential
suite that pins the comb and wNAF scalar multiplications, and the per-key
table cache behind ``double_scalar_mult``, against the textbook
double-and-add ladder they replaced."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import ec
from repro.crypto.ec import GX, GY, ECPoint, INFINITY, N, P, P256
from repro.errors import CryptoError

# Known scalar multiples of the P-256 generator (public test vectors).
K2_X = 0x7CF27B188D034F7E8A52380304B51AC3C08969E277F21B35A60B48FC47669978
K2_Y = 0x07775510DB8ED040293D9AC69F7430DBBA7DADE63CE982299E04B79D227873D1
K3_X = 0x5ECBE4D1A6330A44C8F7EF951D4BF165E6C6B721EFADA985FB41661BC6E7FD6C
K112233445566778899_X = 0x339150844EC15234807FE862A86BE77977DBFB3AE3D96F4C22795513AEAAB82F


class TestKnownVectors:
    def test_generator_on_curve(self):
        assert P256.is_on_curve(P256.generator)

    def test_2g(self):
        p = P256.scalar_mult(2)
        assert p.x == K2_X and p.y == K2_Y

    def test_3g(self):
        assert P256.scalar_mult(3).x == K3_X

    def test_large_scalar(self):
        assert P256.scalar_mult(112233445566778899).x == K112233445566778899_X

    def test_order_times_g_is_infinity(self):
        assert P256.scalar_mult(N).is_infinity

    def test_n_minus_1_is_negation_of_g(self):
        p = P256.scalar_mult(N - 1)
        assert p == P256.negate(P256.generator)


class TestGroupLaws:
    def test_addition_commutes(self):
        a, b = P256.scalar_mult(5), P256.scalar_mult(7)
        assert P256.add(a, b) == P256.add(b, a)

    def test_addition_associates(self):
        a, b, c = (P256.scalar_mult(k) for k in (3, 11, 29))
        assert P256.add(P256.add(a, b), c) == P256.add(a, P256.add(b, c))

    def test_identity_element(self):
        g = P256.generator
        assert P256.add(g, INFINITY) == g
        assert P256.add(INFINITY, g) == g

    def test_inverse_element(self):
        g = P256.generator
        assert P256.add(g, P256.negate(g)).is_infinity

    def test_doubling_matches_addition(self):
        g = P256.generator
        assert P256.add(g, g) == P256.scalar_mult(2)

    @given(st.integers(min_value=1, max_value=N - 1))
    @settings(max_examples=100, deadline=None)
    def test_scalar_distributes(self, k):
        # (k+1)G == kG + G
        assert P256.add(P256.scalar_mult(k), P256.generator) == P256.scalar_mult(k + 1)

    def test_scalar_mult_mod_n(self):
        k = random.Random(1).randrange(1, N)
        assert P256.scalar_mult(k) == P256.scalar_mult(k + N)


class TestEncoding:
    def test_roundtrip(self):
        p = P256.scalar_mult(12345)
        assert ECPoint.decode(p.encode()) == p

    def test_encoding_is_65_bytes_uncompressed(self):
        data = P256.generator.encode()
        assert len(data) == 65 and data[0] == 0x04

    def test_off_curve_point_rejected(self):
        data = bytearray(P256.generator.encode())
        data[-1] ^= 1
        with pytest.raises(CryptoError):
            ECPoint.decode(bytes(data))

    def test_bad_prefix_rejected(self):
        data = b"\x02" + P256.generator.encode()[1:]
        with pytest.raises(CryptoError):
            ECPoint.decode(data)

    def test_infinity_cannot_encode(self):
        with pytest.raises(CryptoError):
            INFINITY.encode()

    def test_scalar_mult_rejects_off_curve(self):
        with pytest.raises(CryptoError):
            P256.scalar_mult(2, ECPoint(1, 1))

    @pytest.mark.parametrize("k", [0, N, 2 * N])
    def test_scalar_mult_rejects_off_curve_for_multiples_of_n(self, k):
        # The k = 0 (mod N) shortcut used to return infinity before the
        # point was looked at.
        with pytest.raises(CryptoError):
            P256.scalar_mult(k, ECPoint(1, 1))

    def test_double_scalar_mult_rejects_off_curve(self):
        with pytest.raises(CryptoError):
            P256.double_scalar_mult(1, 0, ECPoint(1, 1))


class RefP256:
    """The bit-at-a-time double-and-add ladder ``repro.crypto.ec`` used
    before its windowed multiplications, kept as their reference model:
    textbook Jacobian formulas, a Fermat inverse, no tables."""

    @staticmethod
    def double(x1, y1, z1):
        if not y1 or not z1:
            return (0, 0, 0)
        ysq = (y1 * y1) % P
        s = (4 * x1 * ysq) % P
        zsq = (z1 * z1) % P
        m = (3 * (x1 - zsq) * (x1 + zsq)) % P
        nx = (m * m - 2 * s) % P
        ny = (m * (s - nx) - 8 * ysq * ysq) % P
        nz = (2 * y1 * z1) % P
        return (nx, ny, nz)

    @staticmethod
    def jacobian_add(x1, y1, z1, x2, y2, z2):
        if not z1:
            return (x2, y2, z2)
        if not z2:
            return (x1, y1, z1)
        z1sq = (z1 * z1) % P
        z2sq = (z2 * z2) % P
        u1 = (x1 * z2sq) % P
        u2 = (x2 * z1sq) % P
        s1 = (y1 * z2sq * z2) % P
        s2 = (y2 * z1sq * z1) % P
        if u1 == u2:
            if s1 != s2:
                return (0, 0, 0)
            return RefP256.double(x1, y1, z1)
        h = (u2 - u1) % P
        r = (s2 - s1) % P
        hsq = (h * h) % P
        hcu = (hsq * h) % P
        u1hsq = (u1 * hsq) % P
        nx = (r * r - hcu - 2 * u1hsq) % P
        ny = (r * (u1hsq - nx) - s1 * hcu) % P
        nz = (h * z1 * z2) % P
        return (nx, ny, nz)

    @staticmethod
    def to_affine(x, y, z):
        if not z:
            return INFINITY
        zinv = pow(z, P - 2, P)
        zinv2 = (zinv * zinv) % P
        return ECPoint((x * zinv2) % P, (y * zinv2 * zinv) % P)

    @classmethod
    def add(cls, a, b):
        ja = (a.x, a.y, 1) if not a.is_infinity else (0, 0, 0)
        jb = (b.x, b.y, 1) if not b.is_infinity else (0, 0, 0)
        return cls.to_affine(*cls.jacobian_add(*ja, *jb))

    @classmethod
    def scalar_mult(cls, k, point):
        k %= N
        if point.is_infinity or not k:
            return INFINITY
        rx, ry, rz = 0, 0, 0
        qx, qy, qz = point.x, point.y, 1
        while k:
            if k & 1:
                rx, ry, rz = cls.jacobian_add(rx, ry, rz, qx, qy, qz)
            qx, qy, qz = cls.double(qx, qy, qz)
            k >>= 1
        return cls.to_affine(rx, ry, rz)

    @classmethod
    def double_scalar_mult(cls, u1, u2, point):
        return cls.add(
            cls.scalar_mult(u1, P256.generator), cls.scalar_mult(u2, point)
        )


G = P256.generator
# Equal to the generator but not the same object, so scalar_mult takes the
# variable-base path over it.
G_COPY = ECPoint(GX, GY)
NEG_G = ECPoint(GX, P - GY)
ALL_WINDOWS_SET = (1 << 252) - 1  # every 4-bit window below the top one is 0xF
EDGE_SCALARS = [
    0, 1, 2, 15, 16, N - 1, N, N + 1, 1 << 255,
    ALL_WINDOWS_SET,
    int("f0" * 31, 16),  # windows alternate 0xF and 0x0
    int("0f" * 32, 16),
    1 << 252,  # one window set, all others zero
    (1 << 248) + 1,
    int("10" * 31, 16),
    31, 33, (1 << 128) - 1,  # negative wNAF digits, a long run of ones
]  # fmt: skip


class TestAgainstDoubleAndAdd:
    """Fixed-base, variable-base and joint multiplication, differentially."""

    def test_seeded_scalars(self):
        rng = random.Random(1305)
        points = [RefP256.scalar_mult(rng.randrange(1, N), G) for _ in range(8)]
        for i in range(200):
            # A third of the scalars are short, so the high windows are empty.
            u1 = rng.getrandbits(rng.choice((256, 256, 64)))
            u2 = rng.getrandbits(rng.choice((256, 256, 64)))
            q = points[i % len(points)]
            u1_g = RefP256.scalar_mult(u1, G)
            u2_q = RefP256.scalar_mult(u2, q)
            assert P256.scalar_mult(u1) == u1_g
            assert P256.scalar_mult(u2, q) == u2_q
            assert P256.double_scalar_mult(u1, u2, q) == RefP256.add(u1_g, u2_q)

    @pytest.mark.parametrize("k", EDGE_SCALARS)
    def test_edge_scalars(self, k):
        q = RefP256.scalar_mult(0xC0FFEE, G)
        expected_g = RefP256.scalar_mult(k, G)
        expected_q = RefP256.scalar_mult(k, q)
        assert P256.scalar_mult(k) == expected_g
        assert P256.scalar_mult(k, G_COPY) == expected_g
        assert P256.scalar_mult(k, q) == expected_q
        assert P256.double_scalar_mult(k, 0, q) == expected_g
        assert P256.double_scalar_mult(0, k, q) == expected_q
        assert P256.double_scalar_mult(k, k, q) == RefP256.add(expected_g, expected_q)
        assert P256.double_scalar_mult(k, 7, INFINITY) == expected_g

    @pytest.mark.parametrize("q", [G_COPY, NEG_G], ids=["Q=G", "Q=-G"])
    def test_joint_with_generator_as_q(self, q):
        # u1 == u2 in the low window makes the running sum meet the table
        # entry it is about to add (Q = G: the doubling branch) or its
        # negation (Q = -G: cancel to infinity, then carry on from there).
        rng = random.Random(7)
        pairs = [(d, d) for d in range(1, 16)]
        pairs += [(d + 16 * e, d) for d, e in ((1, 1), (9, 3), (15, 15))]
        pairs += [(rng.randrange(N), rng.randrange(N)) for _ in range(20)]
        pairs += [(k, k) for k in EDGE_SCALARS]
        for u1, u2 in pairs:
            assert P256.double_scalar_mult(u1, u2, q) == RefP256.double_scalar_mult(
                u1, u2, q
            )
        assert P256.double_scalar_mult(5, 5, NEG_G).is_infinity
        assert P256.double_scalar_mult(5, 5, G_COPY) == RefP256.scalar_mult(10, G)

    def test_joint_cancels_to_infinity(self):
        # u1*G = -(u2*Q) for Q = qG means u1 = -u2*q (mod N).
        rng = random.Random(11)
        for _ in range(10):
            q_scalar = rng.randrange(1, N)
            q = RefP256.scalar_mult(q_scalar, G)
            u2 = rng.randrange(1, N)
            u1 = -u2 * q_scalar % N
            assert P256.double_scalar_mult(u1, u2, q).is_infinity
            assert not P256.double_scalar_mult(u1 + 1, u2, q).is_infinity


# Where a comb column starts and the scalar just below it: 2^(32j) sets one
# tooth alone, 2^(32j) - 1 fills every column of the teeth below it.
COMB_EDGE_SCALARS = [0, 1, N - 1]
COMB_EDGE_SCALARS += [1 << 32 * j for j in range(1, 8)]
COMB_EDGE_SCALARS += [(1 << 32 * j) - 1 for j in range(1, 9)]


@pytest.fixture
def key_tables(monkeypatch):
    """An empty per-key comb-table cache for the test alone."""
    tables = {}
    monkeypatch.setattr(ec, "_key_tables", tables)
    return tables


def tabled(point):
    """``point`` after two sightings, so that the joint ladder reads its table."""
    P256.double_scalar_mult(0, 0, point)
    P256.double_scalar_mult(0, 0, point)
    assert ec._key_tables[point.x, point.y] is not None
    return point


class TestCombTables:
    """The two users of a comb table -- ``k*G`` and the joint ladder over a
    public key seen before -- against the reference ladder, and the policy
    of the cache that holds the per-key tables."""

    def test_table_entries_are_the_subset_sums(self, key_tables):
        q = RefP256.scalar_mult(0xBEEF, G)
        table = ec._comb_table(q.x, q.y)
        assert len(table) == 256 and table[0] is None
        for m in (1, 2, 3, 128, 129, 0b10100101, 255):
            c = sum(1 << 32 * j for j in range(8) if m >> j & 1)
            assert ECPoint(*table[m]) == RefP256.scalar_mult(c, q)

    def test_seeded_scalars_on_the_table_path(self, key_tables):
        rng = random.Random(2107)
        points = [
            tabled(RefP256.scalar_mult(rng.randrange(1, N), G)) for _ in range(4)
        ]
        for i in range(100):
            u1 = rng.getrandbits(rng.choice((256, 256, 64)))
            u2 = rng.getrandbits(rng.choice((256, 256, 64)))
            q = points[i % len(points)]
            assert P256.double_scalar_mult(u1, u2, q) == RefP256.double_scalar_mult(
                u1, u2, q
            )
        assert all(key_tables[q.x, q.y] is not None for q in points)

    @pytest.mark.parametrize("k", COMB_EDGE_SCALARS)
    def test_column_edges(self, key_tables, k):
        q = tabled(RefP256.scalar_mult(0xC0FFEE, G))
        k_g = RefP256.scalar_mult(k, G)
        k_q = RefP256.scalar_mult(k, q)
        assert P256.scalar_mult(k) == k_g
        assert P256.double_scalar_mult(k, 0, q) == k_g
        assert P256.double_scalar_mult(0, k, q) == k_q
        assert P256.double_scalar_mult(k, k, q) == RefP256.add(k_g, k_q)
        assert P256.double_scalar_mult(k, N - 1 - k, q) == RefP256.add(
            k_g, RefP256.scalar_mult(N - 1 - k, q)
        )

    @pytest.mark.parametrize("q", [G_COPY, NEG_G], ids=["Q=G", "Q=-G"])
    def test_generator_as_the_tabled_key(self, key_tables, q):
        # Equal columns meet the same entry in both tables (Q = G: the
        # doubling branch of the mixed addition) or its negation (Q = -G:
        # cancel to infinity and carry on from there), in every column.
        tabled(q)
        rng = random.Random(7)
        pairs = [(k, k) for k in COMB_EDGE_SCALARS + EDGE_SCALARS]
        pairs += [(rng.randrange(N), rng.randrange(N)) for _ in range(20)]
        for u1, u2 in pairs:
            assert P256.double_scalar_mult(u1, u2, q) == RefP256.double_scalar_mult(
                u1, u2, q
            )
        assert P256.double_scalar_mult(5, 5, NEG_G).is_infinity

    def test_tabled_sum_cancels_to_infinity(self, key_tables):
        rng = random.Random(11)
        q_scalar = rng.randrange(1, N)
        q = tabled(RefP256.scalar_mult(q_scalar, G))
        for _ in range(10):
            u2 = rng.randrange(1, N)
            u1 = -u2 * q_scalar % N  # u1*G = -(u2*Q)
            assert P256.double_scalar_mult(u1, u2, q).is_infinity
            assert P256.double_scalar_mult(u1 + 1, u2, q) == G

    def test_first_sighting_builds_nothing_and_agrees(self, key_tables, monkeypatch):
        built = []
        build = ec._comb_table
        monkeypatch.setattr(
            ec, "_comb_table", lambda x, y: built.append((x, y)) or build(x, y)
        )
        q = RefP256.scalar_mult(0xFACADE, G)
        u1, u2 = 0x1234567890ABCDEF << 100, N - 0xFEEDFACE
        first = P256.double_scalar_mult(u1, u2, q)
        assert built == [] and key_tables == {(q.x, q.y): None}
        second = P256.double_scalar_mult(u1, u2, q)
        assert built == [(q.x, q.y)] and key_tables[q.x, q.y] is not None
        third = P256.double_scalar_mult(u1, u2, q)
        assert built == [(q.x, q.y)]
        assert first == second == third == RefP256.double_scalar_mult(u1, u2, q)

    def test_only_double_scalar_mult_fills_the_cache(self, key_tables):
        q = RefP256.scalar_mult(77, G)
        for _ in range(3):
            P256.scalar_mult(5, q)
            P256.scalar_mult(5)
            P256.add(q, G)
        assert key_tables == {}

    def test_q_and_minus_q_never_share_a_table(self, key_tables):
        q = RefP256.scalar_mult(0xABCDEF, G)
        minus_q = P256.negate(q)
        tabled(q)
        assert (minus_q.x, minus_q.y) not in key_tables
        u1, u2 = 3, 0x5DEECE66D << 70
        expected = RefP256.double_scalar_mult(u1, u2, minus_q)
        assert P256.double_scalar_mult(u1, u2, minus_q) == expected  # first sighting
        assert P256.double_scalar_mult(u1, u2, minus_q) == expected  # own table
        assert P256.double_scalar_mult(u1, u2, q) == RefP256.double_scalar_mult(u1, u2, q)
        assert key_tables[q.x, q.y] is not key_tables[minus_q.x, minus_q.y]
        assert key_tables[q.x, q.y][1] == (q.x, q.y)
        assert key_tables[minus_q.x, minus_q.y][1] == (q.x, P - q.y)

    @pytest.mark.parametrize(
        "bad",
        [ECPoint(1, 1), ECPoint(GX, GY + 1), ECPoint(GX + P, GY), ECPoint(-1, GY)],
        ids=["off-curve", "wrong-y", "x-unreduced", "x-negative"],
    )
    def test_invalid_points_never_reach_the_cache(self, monkeypatch, bad):
        class Untouchable(dict):
            def __contains__(self, key):
                raise AssertionError("cache consulted for an unvalidated point")

            __setitem__ = __getitem__ = __contains__

        monkeypatch.setattr(ec, "_key_tables", Untouchable())
        for _ in range(3):
            with pytest.raises(CryptoError):
                P256.double_scalar_mult(1, 1, bad)
        assert len(ec._key_tables) == 0

    def test_infinity_is_never_cached(self, key_tables):
        for _ in range(3):
            assert P256.double_scalar_mult(9, 7, INFINITY) == RefP256.scalar_mult(9, G)
        assert key_tables == {}

    def test_cache_stays_within_its_bound(self, key_tables):
        hot = tabled(RefP256.scalar_mult(0x600D, G))
        hot_table = key_tables[hot.x, hot.y]
        point = G
        for i in range(1000):
            point = P256.add(point, G)  # 1 000 distinct keys: 2G, 3G, ...
            P256.double_scalar_mult(1, 1, point)
            assert len(key_tables) <= ec._KEY_TABLES_MAX
            if i % 10 == 0:
                # A key in steady use outlives any number of one-off keys.
                P256.double_scalar_mult(1, 1, hot)
                assert key_tables[hot.x, hot.y] is hot_table
        # Seen once each: the scan left markers, not tables.
        assert sum(t is not None for t in key_tables.values()) == 1
        # Without use in between, the oldest entry goes first.
        for _ in range(ec._KEY_TABLES_MAX):
            point = P256.add(point, G)
            P256.double_scalar_mult(1, 1, point)
        assert (hot.x, hot.y) not in key_tables
        assert len(key_tables) == ec._KEY_TABLES_MAX
