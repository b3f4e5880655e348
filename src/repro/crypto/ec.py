"""The secp256r1 (NIST P-256) elliptic-curve group.

Implements point addition/doubling in Jacobian coordinates, comb and wNAF
scalar multiplication, on-curve validation, and SEC1 uncompressed point
encoding.
This is the group behind the paper's key exchange (ECDH with secp256r1) and
signatures (ECDSA with secp256r1), per §5.6.

Scalar multiplication comes in three shapes, all over affine tables so that
every addition is a mixed Jacobian+affine one:

- ``k*G`` (key generation, signing): a Lim-Lee comb of 8 teeth x 32 columns
  over one table of the 255 subset sums of ``2^(32j) * G``, j in 0..7, built
  on first use (~3 ms, ~47 KB, once per process).  32 doublings and at most
  32 additions.
- ``k*Q`` (ECDH against a share from elsewhere, and ECDSA's first sighting
  of a key): width-5 wNAF over the odd multiples ``1Q..15Q``, which are
  recomputed on every call (2Q goes affine first, so that building them is
  mixed additions too).  An ECDH peer share is ephemeral, so no table is
  kept for it.  Both ends of a handshake run in one process, and
  ``repro.crypto.ecdh`` uses it twice: a first half against a share this
  process generated is ``(a*b mod N)*G``, one ``k*G`` comb, and the
  second half reads the first half's secret.  So an in-process agreement
  runs no ``k*Q`` at all.
- ``u1*G + u2*Q`` (ECDSA verification): **one** comb ladder over two tables
  of that shape, G's and Q's -- 32 doublings for both scalars together and
  at most 64 additions.  Verification keys are long-lived (a CA's, a
  server leaf's), so this is the one place a table is kept per public key:
  ``_key_tables`` holds at most ``_KEY_TABLES_MAX`` of them, least recently
  used out first, keyed by the full ``(x, y)``, and a key earns its table
  only on its second sighting.  On the first, ``u2*Q`` is the wNAF ladder
  and joins the comb for ``u1*G`` by one affine addition.  What is kept
  here is a table of multiples of a point that was validated on this very
  call, so every call of ``double_scalar_mult`` is a full double-scalar
  multiplication.  Results are kept one layer up:
  ``repro.crypto.cert.verify_with_key`` files each verification that
  succeeded under all four of its inputs (key algorithm, public key,
  message, signature).  That is safe because verification is a pure
  function of exactly those inputs: only a byte-identical repeat hits,
  and a failure is never filed, so a forgery runs the full check.

All tables leave Jacobian coordinates through Montgomery's batch inversion,
and every inverse is ``pow(x, -1, m)``.

Performance note: pure-Python big-int arithmetic, measured on the CI-class
box the ledger runs on: 0.30 ms for ``k*G``, 1.3 ms for ``k*Q``, 0.48 ms
for an ECDSA verification under a key with a table and 1.6 ms without,
2.7 ms to build a table.  The bit-at-a-time double-and-add ladder (kept as
the reference model in ``tests/crypto/test_ec.py``) cost 2.3 ms, 2.3 ms and
5.0 ms; the 64 x 15 window table ``k*G`` used before the comb cost 0.31 ms
per ``k*G`` and 180 KB.  About two thirds of ``k*Q`` is its 256 doublings.
An in-process agreement costs one ``k*G``: ``session_churn`` runs no
``k*Q`` in a timed section, where it ran 392 before the table of agreed
secrets and 196 before the table of generated shares.  No ladder
here is constant-time: keys are seeded simulation keys, and virtual-time
costs come from the cost model anyway.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

from repro.errors import CryptoError

# secp256r1 domain parameters (SEC 2, version 2).
P = 0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF
A = P - 3
B = 0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B
N = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551
GX = 0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296
GY = 0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5


@dataclass(frozen=True)
class ECPoint:
    """An affine point on P-256, or the point at infinity (x = y = None)."""

    x: Optional[int]
    y: Optional[int]

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def encode(self) -> bytes:
        """SEC1 uncompressed encoding: 0x04 || X || Y (65 bytes)."""
        if self.is_infinity:
            raise CryptoError("cannot encode the point at infinity")
        return b"\x04" + self.x.to_bytes(32, "big") + self.y.to_bytes(32, "big")

    @staticmethod
    def decode(data: bytes) -> "ECPoint":
        """Parse SEC1 uncompressed encoding and validate on-curve."""
        if len(data) != 65 or data[0] != 0x04:
            raise CryptoError("expected 65-byte uncompressed point")
        x = int.from_bytes(data[1:33], "big")
        y = int.from_bytes(data[33:], "big")
        point = ECPoint(x, y)
        if not P256.is_on_curve(point):
            raise CryptoError("point is not on secp256r1")
        return point


INFINITY = ECPoint(None, None)


# -- Jacobian arithmetic -----------------------------------------------------
# (X, Y, Z) represents affine (X/Z^2, Y/Z^3); infinity is Z == 0.  Every
# coordinate these helpers take and return is reduced mod P.


def _double(x1: int, y1: int, z1: int) -> tuple[int, int, int]:
    if not y1 or not z1:
        return (0, 0, 0)
    ysq = y1 * y1 % P
    s = (x1 * ysq << 2) % P
    zsq = z1 * z1 % P
    # a = -3 special case: M = 3(X - Z^2)(X + Z^2)
    m = (x1 - zsq) * (x1 + zsq) * 3 % P
    nx = (m * m - (s << 1)) % P
    ny = (m * (s - nx) - (ysq * ysq << 3)) % P
    return (nx, ny, (y1 * z1 << 1) % P)


def _add_affine(
    x1: int, y1: int, z1: int, x2: int, y2: int
) -> tuple[int, int, int]:
    """Mixed addition: Jacobian (x1, y1, z1) plus affine, finite (x2, y2)."""
    if not z1:
        return (x2, y2, 1)
    z1sq = z1 * z1 % P
    h = (x2 * z1sq - x1) % P
    r = (y2 * z1sq % P * z1 - y1) % P
    if not h:
        if r:
            return (0, 0, 0)  # P + (-P) = infinity
        return _double(x1, y1, z1)
    hsq = h * h % P
    hcu = hsq * h % P
    x1hsq = x1 * hsq % P
    nx = (r * r - hcu - (x1hsq << 1)) % P
    ny = (r * (x1hsq - nx) - y1 * hcu) % P
    return (nx, ny, h * z1 % P)


def _batch_to_affine(points: list[tuple[int, int, int]]) -> list[tuple[int, int]]:
    """Affine (x, y) of finite Jacobian points with one inversion in all
    (Montgomery's trick: invert the product, then peel one factor at a time)."""
    prefix = []
    product = 1
    for _, _, z in points:
        prefix.append(product)
        product = product * z % P
    inverse = pow(product, -1, P)
    affine = []
    for (x, y, z), before in zip(reversed(points), reversed(prefix)):
        zinv = inverse * before % P
        inverse = inverse * z % P
        zinv2 = zinv * zinv % P
        affine.append((x * zinv2 % P, y * zinv2 % P * zinv % P))
    affine.reverse()
    return affine


_CombTable = tuple[Optional[tuple[int, int]], ...]


def _comb_table(px: int, py: int) -> _CombTable:
    """Lim-Lee comb of the finite curve point (px, py), 8 teeth x 32 columns:
    ``table[m]`` = the affine sum of ``2^(32j) * P`` over the set bits j of
    m, for m in 1..255; ``table[0]`` is None.

    No entry is infinity: each is ``c * P`` with 0 < c < 2^225 < N, and the
    group has prime order N.
    """
    teeth = [(px, py, 1)]
    for _ in range(7):
        x, y, z = teeth[-1]
        for _ in range(32):
            x, y, z = _double(x, y, z)
        teeth.append((x, y, z))
    sums: list = [None] * 256
    for j, (tx, ty) in enumerate(_batch_to_affine(teeth)):
        low = 1 << j
        sums[low] = (tx, ty, 1)
        for m in range(1, low):
            sums[low + m] = _add_affine(*sums[m], tx, ty)
    return (None, *_batch_to_affine(sums[1:]))


@functools.cache
def _generator_table() -> _CombTable:
    """The comb table of G, built on first use (once per process)."""
    return _comb_table(GX, GY)


# Comb tables of the public keys ``double_scalar_mult`` has seen, least
# recently used first.  A key's first sighting leaves None (a verification
# key met once may never come back; an ephemeral one never does), its second
# builds the table.  Keyed by the full (x, y): Q and -Q share x only.
_KEY_TABLES_MAX = 16
_key_tables: dict[tuple[int, int], Optional[_CombTable]] = {}


def _key_table(px: int, py: int) -> Optional[_CombTable]:
    """The comb table of the finite curve point (px, py) if this is at least
    its second sighting, else None.  The caller has validated the point."""
    key = (px, py)
    if key in _key_tables:
        table = _key_tables.pop(key) or _comb_table(px, py)
    else:
        table = None
        if len(_key_tables) >= _KEY_TABLES_MAX:
            del _key_tables[next(iter(_key_tables))]
    _key_tables[key] = table
    return table


def _comb_columns(k: int) -> list[int]:
    """The 32 comb indices of 0 <= k < 2^256, top column first: bit j of
    entry 31 - c is bit ``32j + c`` of k."""
    bits = f"{k:0256b}"
    return [int(bits[i::32], 2) for i in range(32)]


def _comb_mult(*terms: tuple[int, _CombTable]) -> tuple[int, int, int]:
    """The sum of ``k * P`` over (k, comb table of P) terms with every k
    below 2^256, as one ladder: 32 doublings in all, and one mixed addition
    per nonzero column of each scalar."""
    x = y = z = 0
    for entries in zip(
        *[[table[m] for m in _comb_columns(k)] for k, table in terms]
    ):
        x, y, z = _double(x, y, z)
        for entry in entries:
            if entry:
                x, y, z = _add_affine(x, y, z, *entry)
    return (x, y, z)


def _wnaf_mult(k: int, px: int, py: int) -> tuple[int, int, int]:
    """k * (px, py) for 0 <= k < N and a finite point of the curve: width-5
    wNAF (digits odd, |digit| <= 15, at least four zeros between two) over
    the affine odd multiples 1P..15P."""
    if not k:
        return (0, 0, 0)
    ((tx, ty),) = _batch_to_affine([_double(px, py, 1)])
    multiples = [(px, py, 1)]
    for _ in range(7):
        multiples.append(_add_affine(*multiples[-1], tx, ty))
    odd = _batch_to_affine(multiples)

    digits = []  # (digit, bit position), least significant first
    position = 0
    while k:
        zeros = (k & -k).bit_length() - 1
        k >>= zeros
        position += zeros
        digit = k & 31
        if digit > 15:
            digit -= 32
        digits.append((digit, position))
        k = (k - digit) >> 5
        position += 5

    x = y = z = 0
    position = digits[-1][1]
    for digit, below in reversed(digits):
        for _ in range(position - below):
            x, y, z = _double(x, y, z)
        position = below
        ox, oy = odd[abs(digit) >> 1]
        x, y, z = _add_affine(x, y, z, ox, oy if digit > 0 else P - oy)
    for _ in range(position):
        x, y, z = _double(x, y, z)
    return (x, y, z)


def _to_affine(x: int, y: int, z: int) -> ECPoint:
    if not z:
        return INFINITY
    return ECPoint(*_batch_to_affine([(x, y, z)])[0])


class _P256:
    """Group operations.  Exposed as the module-level singleton ``P256``."""

    p = P
    n = N
    generator = ECPoint(GX, GY)

    @staticmethod
    def is_on_curve(point: ECPoint) -> bool:
        if point.is_infinity:
            return True
        x, y = point.x, point.y
        if not (0 <= x < P and 0 <= y < P):
            return False
        return (y * y - (x * x * x + A * x + B)) % P == 0

    @classmethod
    def add(cls, a: ECPoint, b: ECPoint) -> ECPoint:
        if a.is_infinity:
            return b
        if b.is_infinity:
            return a
        return _to_affine(*_add_affine(a.x, a.y, 1, b.x, b.y))

    @classmethod
    def scalar_mult(cls, k: int, point: Optional[ECPoint] = None) -> ECPoint:
        """Compute k * point (default: the generator)."""
        if point is None:
            point = cls.generator
        if not cls.is_on_curve(point):
            raise CryptoError("scalar_mult on a point off the curve")
        if point.is_infinity:
            return INFINITY
        k %= N
        if point is cls.generator:
            return _to_affine(*_comb_mult((k, _generator_table())))
        return _to_affine(*_wnaf_mult(k, point.x, point.y))

    @classmethod
    def double_scalar_mult(cls, u1: int, u2: int, point: ECPoint) -> ECPoint:
        """Compute u1 * G + u2 * point (the core of ECDSA verification).

        A point met here before has a comb table (see ``_key_table``), and
        the sum is then one 32-doubling ladder over it and G's.  On a first
        sighting ``u2 * point`` is a wNAF ladder of its own, added affine
        onto the comb for ``u1 * G``.  The point is validated on every call,
        before any table is looked up.
        """
        if not cls.is_on_curve(point):
            raise CryptoError("double_scalar_mult on a point off the curve")
        terms = [(u1 % N, _generator_table())]
        rest = INFINITY  # u2 * point, where no table covers it
        if not point.is_infinity:
            table = _key_table(point.x, point.y)
            if table:
                terms.append((u2 % N, table))
            else:
                rest = _to_affine(*_wnaf_mult(u2 % N, point.x, point.y))
        total = _comb_mult(*terms)
        if not rest.is_infinity:
            total = _add_affine(*total, rest.x, rest.y)
        return _to_affine(*total)

    @classmethod
    def negate(cls, point: ECPoint) -> ECPoint:
        if point.is_infinity:
            return point
        return ECPoint(point.x, (-point.y) % P)


P256 = _P256()
