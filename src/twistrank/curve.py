"""Reduction data for a short Weierstrass curve and its quadratic twists.

The trace of Frobenius a_p is computed for good primes p > 3 by
Shanks-Mestre baby-step giant-step over the Hasse interval (O(p^(1/4))
group operations; Cohen, A Course in Computational Algebraic Number
Theory, 7.4), for a block of primes at once: one int64 numpy lane per
(prime, point) pair, walked in Jacobian coordinates (co-Z additions for
the two walks) and normalised with Montgomery's simultaneous inversion
along each lane's walk ("Speeding the Pollard and elliptic curve methods
of factorization", Math. Comp. 1987).
The primes whose points leave more than one candidate go, as a group, to
an exhaustive quadratic-character sum over F_p.  Bad primes p > 3 use the
node/cusp rule, and p in {2, 3}, where short Weierstrass point counting
degenerates, use caller-supplied metadata.  A twist carries its conductor
(N * d_K^2, or a bound) and its root number (through the quadratic
character of Q(sqrt(D))); its coefficients are the base curve's times that
character, applied by explicit_formula.prime_sides, so no twisted model is
ever built.  A run of twists is a set of numpy columns (Twists) from one
squarefree sieve over the D interval; one twist is the one-row range
range(D, D + 1).
"""

from __future__ import annotations

import math
from collections import namedtuple
from pathlib import Path
from typing import List, Optional

import numpy as np

from .arith import PrimeTable, _powmod, kronecker, squarefree_kernels

__all__ = [
    "CurveModel",
    "Twists",
    "twist_columns",
    "filter_twists",
    "MissingBadPrimeData",
    "ap_array",
    "cpm",
    "load_catalog",
    "builtin_catalog",
]


class MissingBadPrimeData(ValueError):
    """a_p was requested at p in {2, 3} but the curve carries no metadata."""


class CurveModel(namedtuple("CurveModel", "A B conductor root_number label a2 a3")):
    """A fixed curve y^2 = x^3 + A x + B with caller-supplied invariants.

    conductor and root_number are metadata: the model is assumed
    quasi-minimal and the invariants are not re-derived here.  a2 and a3
    hold the L-coefficients at 2 and 3 (None if unknown).  Equal fields
    make equal, equally hashed models (the a_p cache is keyed by them).
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates too

    def __new__(
        cls,
        A: int,
        B: int,
        conductor: int,
        root_number: int,
        label: str = "",
        a2: Optional[int] = None,
        a3: Optional[int] = None,
    ):
        if 4 * A**3 + 27 * B**2 == 0:
            raise ValueError(f"singular model A={A}, B={B}")
        if conductor < 1:
            raise ValueError(f"conductor must be >= 1, got {conductor}")
        if root_number not in (-1, 1):
            raise ValueError(f"root number must be +-1, got {root_number}")
        return super().__new__(cls, A, B, conductor, root_number, label, a2, a3)

    @property
    def discriminant(self) -> int:
        return -16 * (4 * self.A**3 + 27 * self.B**2)


# x-values per step of the exhaustive sum.
_CHAR_SUM_CHUNK = 1 << 20


def _ap_char_sum(A: int, B: int, p: int) -> int:
    """a_p = -sum_x (x^3+Ax+B | p) for an odd good prime p < 2^31, vectorized.

    It takes p bytes for the table of squares and O(_CHAR_SUM_CHUNK) for
    the rest, so a prime near the 1e8 table cap needs 0.1 GB, not 3 GB.
    """
    square = np.zeros(p, dtype=bool)
    for lo in range(0, p // 2 + 1, _CHAR_SUM_CHUNK):  # x and p - x: one square
        x = np.arange(lo, min(lo + _CHAR_SUM_CHUNK, p // 2 + 1), dtype=np.int64)
        square[x * x % p] = True
    total = 0
    for lo in range(0, p, _CHAR_SUM_CHUNK):
        x = np.arange(lo, min(lo + _CHAR_SUM_CHUNK, p), dtype=np.int64)
        fx = ((x * x % p + A % p) * x + B % p) % p
        nonzero = fx != 0
        # (f | p) is 1 on a nonzero square and -1 off the squares
        total += 2 * int(np.count_nonzero(square[fx] & nonzero)) - int(np.count_nonzero(nonzero))
    return -total


def _ap_bad(A: int, B: int, p: int) -> int:
    """a_p at a bad prime p > 3 of the model.

    Triple root (A = B = 0 mod p) means additive reduction, a_p = 0.
    Otherwise the cubic has the double root x0 = -3B / 2A mod p and the
    reduction is multiplicative, split iff 3*x0 is a square mod p.
    """
    if A % p == 0 and B % p == 0:
        return 0
    x0 = (-3 * B * pow(2 * A, -1, p)) % p
    return 1 if kronecker(3 * x0, p) == 1 else -1


# x-coordinates tried per prime before falling back to the exhaustive sum.
_BSGS_TRIES = 12
# The n-th x-coordinate tried is n * _BSGS_STRIDE mod p.  Consecutive small
# x0 give values f(x0) made of small primes, which can all be squares mod p
# (y^2 = x^3 - x at p = 48049 for every x0 < 12), and then no point of the
# twist would be tried.
_BSGS_STRIDE = 2654435761
# Further x-coordinates searched, for a prime left open, for a point of the
# curve (E or its twist) that its tries missed.
_EXTRA_TRIES = 64
# Lanes per kernel call.  A numpy call costs about 1 us plus 5 ns per lane
# for the int64 remainder, and the lane state is O(lanes * p^(1/4)): about
# 1.1 KB a lane at p near 5e4 and 2 KB near 1e6.  ncm37, fresh ap_array,
# 2-core VM, at 512 / 1024 / 2048 lanes: to 5e4 (the bench's high-lambda
# table) 86-98 / 63-66 / 65-69 ms and +1.5 / +2.1 / +3.3 MB peak RSS; to
# 1e6, 1.71-1.77 / 1.42-1.44 / 1.18-1.30 s and +1.2 / +2.6 / +5.6 MB.
_LANES = 1024
# Primes per _ap_lanes call from ap_array, so that the primes the first try
# leaves open are gathered over many blocks and fill whole ones.
_AP_CHUNK = 8 * _LANES
# Below this, every intermediate value of the kernel is below 2 p^2 < 2^63.
_LANE_P_LIMIT = 1 << 31
# A step in the match is ((lane << 31 | x) << 1 | giant) << _ROW_BITS | row,
# with rows below 2^10 (m = isqrt(isqrt(4p)) < 305 for p < 2^31).
_ROW_BITS = 10
_ROW_MASK = (1 << _ROW_BITS) - 1
_TAG = _ROW_BITS + 1  # key >> _TAG is lane << 31 | x
_NO_X = (1 << 31) - 1  # an x-coordinate no residue of a prime p < 2^31 takes
_MATCH_BLOCK = 1 << 13  # sorted keys compared with their neighbours at once


def _isqrt(n: np.ndarray) -> np.ndarray:
    """floor(sqrt(n)) for an int64 array of n < 2^52."""
    r = np.sqrt(n.astype(np.float64)).astype(np.int64)
    r -= r * r > n
    r += (r + 1) * (r + 1) <= n
    return r


def _madd(X1, Y1, Z1, x2, y2, p):
    """(X1 : Y1 : Z1) + (x2, y2) in Jacobian coordinates (x = X/Z^2,
    y = Y/Z^3), for int64 arrays.

    Exact when the x-coordinates differ, and when the sum is O (Z3 = 0).
    P1 = O and P1 = P2 also give Z3 = 0, wrongly; _madd_checked mends them.
    """
    zz = Z1 * Z1 % p
    h = (x2 * zz - X1) % p
    r = (y2 * (Z1 * zz % p) - Y1) % p
    hh = h * h % p
    hhh = h * hh % p
    v = X1 * hh % p
    X3 = (r * r - hhh - 2 * v) % p
    return X3, (r * (v - X3) - Y1 * hhh) % p, Z1 * h % p


def _dbl(X, Y, Z, a, p):
    """2 (X : Y : Z) in Jacobian coordinates on y^2 = x^3 + a x + b; O and
    2-torsion give Z3 = 0."""
    yy = Y * Y % p
    s = X * yy % p * 4 % p
    zz = Z * Z % p
    m = (3 * (X * X % p) + a * (zz * zz % p)) % p
    X3 = (m * m - 2 * s) % p
    return X3, (m * (s - X3) - 8 * (yy * yy % p)) % p, 2 * Y * Z % p


def _zaddu(X1, Y1, X2, Y2, Z, p):
    """(X1 : Y1 : Z) + (X2 : Y2 : Z), two points with one Z in Jacobian
    coordinates, and the first point again with the sum's Z: Meloni's co-Z
    addition ("New point addition formulae for ECC applications", WAIFI
    2007), 7 products against 11 for _madd, for a walk that adds one point
    over and over.  Returns (X3, Y3, Z3, X1', Y1'); X1 and Y1 are int64.

    Exact when the x-coordinates differ, and when the sum is O (Z3 = 0).
    Equal points give Z3 = Y3 = 0, and a point O gives Z3 = 0, wrongly.
    """
    dx = X1 - X2
    c = dx * dx % p
    w1 = X1 * c % p
    w2 = X2 * c % p
    dy = Y1 - Y2
    a1 = Y1 * (w1 - w2) % p
    X3 = (dy * dy - w1 - w2) % p
    return X3, (dy * (w1 - X3) - a1) % p, Z * dx % p, w1, a1


def _with_z(x, y, Z, p):
    """The affine point (x, y) in Jacobian coordinates with the given Z."""
    zz = Z * Z % p
    return x * zz % p, y * (zz * Z % p) % p


def _madd_checked(X1, Y1, Z1, x2, y2, a, p, keep):
    """_madd in every case (P1 = O gives P2, P1 = P2 gives 2 P2); lanes
    where keep is set return P1.  The doubling runs only where needed."""
    X3, Y3, Z3 = _madd(X1, Y1, Z1, x2, y2, p)
    (i,) = np.nonzero((Z3 == 0) | keep)
    if i.size:
        at_o = Z1[i] == 0
        # P1 = P2 gives h = r = 0 and so Y3 = 0; a true sum O has Y3 != 0
        j = i[~at_o & (Y3[i] == 0)]
        if j.size:
            X3[j], Y3[j], Z3[j] = _dbl(x2[j], y2[j], np.ones_like(j), a[j], p[j])
        j = i[at_o]
        if j.size:
            X3[j], Y3[j], Z3[j] = x2[j], y2[j], 1
        j = i[keep[i]]
        if j.size:
            X3[j], Y3[j], Z3[j] = X1[j], Y1[j], Z1[j]
    return X3, Y3, Z3


def _to_affine(
    X: np.ndarray, Y: Optional[np.ndarray], Z: np.ndarray, p: np.ndarray, c: np.ndarray
) -> np.ndarray:
    """Overwrite (X, Y), a (steps, lanes) walk in Jacobian coordinates with
    nonzero Z, with x = X/Z^2 and y = Y/Z^3 (X alone when Y is None), and
    return whether c (nonzero, one per lane) is a square mod p.

    Montgomery's simultaneous inversion along each lane's walk: prefix
    products of Z, one Fermat power per lane, and back.  It cannot batch
    across lanes, since each lane has its own modulus.  The one power
    u = w^((p-3)/2) of w = z^2 c, with z the product of the walk's Z,
    gives both 1/z = u^2 w z c and (c|p) = (w|p) = u w.  The walk is
    stored as int32 (every residue is below 2^31); the products are taken
    in int64.
    """
    zinv = np.empty(Z.shape, dtype=np.int32)  # prefix products, then inverses
    z = Z[0].astype(np.int64)
    zinv[0] = z
    for j in range(1, Z.shape[0]):
        z = z * Z[j] % p
        zinv[j] = z
    w = z * z % p * c % p
    u = _powmod(w, (p - 3) // 2, p)
    inv = u * u % p * w % p * z % p * c % p
    for j in range(Z.shape[0] - 1, 0, -1):
        zinv[j] = inv * zinv[j - 1] % p
        inv = inv * Z[j] % p
    zinv[0] = inv
    for j in range(0, Z.shape[0], 4):  # blocks of rows: small int64 temporaries
        zi = zinv[j : j + 4].astype(np.int64)
        zz = zi * zi % p
        X[j : j + 4] = X[j : j + 4] * zz % p
        if Y is not None:
            zz *= zi
            zz %= p
            Y[j : j + 4] = Y[j : j + 4] * zz % p
    return u * w % p == 1


def _hasse_orders(p, a, x, y, c):
    """Every k in [-T, T] with (p + 1 + k) P = O, for one point P per lane.

    Lane i holds a prime 5 <= p[i] < 2^31, the coefficient a[i] of
    y^2 = x^3 + a x + b over F_p (the group law needs no b), an affine
    point P = (x[i], y[i]) and a nonzero c[i]; all are int64 arrays.
    T = isqrt(4p) and m = isqrt(T) per lane.  Baby steps jP (j = 1..m)
    and giant steps G_i = (p + 1 + i s) P (s = 2m + 1, |i| <= (T + m) // s)
    are walked in Jacobian coordinates, so no step inverts, each walk by
    co-Z additions of one point (_zaddu); the giant walk's start comes from
    a 2^w-ary ladder over the baby steps.  Each walk is then normalised
    with one Fermat power per lane (_to_affine), the giant walk's also
    giving (c|p).  A giant step G_i = -rP with |r| <= m gives k = i s + r,
    and the matches come from one sort of lane-tagged x-coordinates.  They
    are unique only if ord(P) > 2m, so a lane whose baby steps show a
    smaller order (a step that is O or 2-torsion, or a repeated x) is
    invalid.  Every product is of two residues, so no intermediate value
    reaches 2 p^2 < 2^63; the walks are stored as int32, since every
    residue is below 2^31.

    Returns (valid, lane, k, square): valid flags each lane, for the valid
    lanes the pairs (lane[j], k[j]) are exactly the k above, and square
    flags the valid lanes whose c is a square mod p.
    """
    L = p.size
    T = _isqrt(4 * p)
    m = _isqrt(T)  # >= 2 for p >= 5
    M = int(m.max())
    lanes = np.arange(L)
    one = np.ones(L, dtype=np.int64)
    # rows 0..M-1 hold jP (j = row + 1), row M holds sP
    BX = np.empty((M + 1, L), dtype=np.int32)
    BY, BZ = np.empty_like(BX), np.empty_like(BX)
    BX[0], BY[0], BZ[0] = x, y, one
    X, Y, Z = _dbl(x, y, one, a, p)
    BX[1], BY[1], BZ[1] = X, Y, Z
    px, py = _with_z(x, y, Z, p)  # P with the Z of the walk's last step
    for j in range(2, M):
        X, Y, Z, px, py = _zaddu(px, py, X, Y, Z, p)
        BX[j], BY[j], BZ[j] = X, Y, Z
    del px, py
    mP = (B[m - 1, lanes].astype(np.int64) for B in (BX, BY, BZ))
    BX[M], BY[M], BZ[M] = _madd(*_dbl(*mP, a, p), x, y, p)
    mult = np.arange(1, M + 2)[:, None]  # j of the rows jP
    live = mult[:M] <= m
    # a step that is O or 2-torsion shows a small order; on a valid lane
    # only sP can be O (when ord(P) = 2m + 1), and the giant walk keeps it
    valid = ~(((BZ[:M] == 0) | (BY[:M] == 0)) & live).any(axis=0)
    step_o = BZ[M] == 0
    # the walk first errs at jP = -P, so jP is exact up to j = 2m < ord(P)
    # on a valid lane: those rows are normalised too, for the ladder
    exact = mult <= 2 * m
    exact[M] = True
    BZ[~exact | (BZ == 0)] = 1
    _to_affine(BX, BY, BZ, p, one)
    del BZ
    v = np.flatnonzero(valid)  # a repeated x shows in the match's sort
    if not v.size:
        return valid, v, v, valid

    p, a, m, T = p[v], a[v], m[v], T[v]
    s = 2 * m + 1
    span = (T + m) // s
    n0 = p + 1 - span * s
    # G_{-span} = n0 P by 2^w-ary double-and-add, with the multiples dP
    # (0 < d < 2^w <= min(M, 2m) + 1) read from the baby steps
    w = int(min(M, 2 * int(m.min())) + 1).bit_length() - 1
    tx, ty = (B[: (1 << w) - 1, v].astype(np.int64) for B in (BX, BY))
    sx, sy = (B[M, v].astype(np.int64) for B in (BX, BY))
    step_o = step_o[v]
    BX, BY = BX[:M], BY[:M]  # read again in the match
    BX[~live] = _NO_X
    cols = np.arange(v.size)
    X, Y, Z = np.zeros_like(p), np.ones_like(p), np.zeros_like(p)
    windows = -(-int(n0.max()).bit_length() // w)
    for t in range(windows - 1, -1, -1):
        if Z.any():
            for _ in range(w):
                X, Y, Z = _dbl(X, Y, Z, a, p)
        d = n0 >> (w * t) & ((1 << w) - 1)
        X, Y, Z = _madd_checked(X, Y, Z, tx[d - 1, cols], ty[d - 1, cols], a, p, d == 0)
    del tx, ty
    NG = 2 * int(span.max()) + 1
    GX = np.empty((NG, v.size), dtype=np.int32)
    GY, GZ = np.empty_like(GX), np.empty_like(GX)
    GX[0], GY[0], GZ[0] = X, Y, Z
    # The giant steps are co-Z additions of sP ((ux, uy) is sP with the Z
    # of the last step), exact but after O: there the next step is sP and
    # the one after it 2 sP (the doubling sP + sP), both set from values
    # made once.  A walk that starts at sP is taken as one whose step
    # before was O.
    ux, uy = _with_z(sx, sy, Z, p)
    dx, dy, dz = _dbl(sx, sy, np.ones_like(sx), a, p)
    dux, duy = _with_z(sx, sy, dz, p)
    after_o = np.flatnonzero(Z == 0)
    twice = np.flatnonzero((Z != 0) & (X == ux) & (Y == uy))
    for i in range(1, NG):
        X, Y, Z, ux, uy = _zaddu(ux, uy, X, Y, Z, p)
        if twice.size:
            X[twice], Y[twice], Z[twice], ux[twice], uy[twice] = (
                dx[twice], dy[twice], dz[twice], dux[twice], duy[twice]
            )
        twice = after_o
        if after_o.size:
            X[after_o], Y[after_o], Z[after_o], ux[after_o], uy[after_o] = (
                sx[after_o], sy[after_o], 1, sx[after_o], sy[after_o]
            )
        after_o = np.flatnonzero(Z == 0)
        GX[i], GY[i], GZ[i] = X, Y, Z
    del X, Y, Z, ux, uy
    # sP = O (ord(P) = 2m + 1): every giant step is the first
    GX[:, step_o], GY[:, step_o], GZ[:, step_o] = GX[0, step_o], GY[0, step_o], GZ[0, step_o]
    walk = np.arange(NG)[:, None] <= 2 * span
    at_o = GZ == 0
    GZ[at_o] = 1
    square = np.zeros(L, dtype=bool)
    square[v] = _to_affine(GX, None, GZ, p, c[v])  # y only where a step matches
    # the giant keys follow the baby ones; a step outside the walk, or at
    # O, gets x = 2^31 - 1, above every residue, and no giant flag, so
    # that it matches nothing
    kept = walk & ~at_o
    GX[~kept] = _NO_X
    # one sort of ((lane << 31 | x) << 1 | giant) << _ROW_BITS | row over
    # the baby steps of every lane and the giant steps of the valid ones
    keys = np.empty(BX.size + GX.size, dtype=np.int64)
    for part, xs, lane, flag in ((keys[: BX.size], BX, lanes, False), (keys[BX.size :], GX, v, kept)):
        part = part.reshape(xs.shape)
        part[...] = xs
        part |= lane << 31
        part <<= 1
        part |= flag
        part <<= _ROW_BITS
        part |= np.arange(xs.shape[0])[:, None]
    del BX, GX, xs, part
    keys.sort()

    ends = list(range(0, keys.size - 1, _MATCH_BLOCK)) + [keys.size - 1]
    g = np.concatenate(  # the keys that share lane and x with the one before, by blocks
        [np.flatnonzero((keys[i + 1 : j + 1] ^ keys[i:j]) >> _TAG == 0) + i + 1 for i, j in zip(ends, ends[1:])]
    )
    giant = keys[g] >> _ROW_BITS & 1 == 1
    twice = keys[g[~giant]] >> _TAG  # two baby steps at one x (or at _NO_X)
    valid[twice[twice & _NO_X != _NO_X] >> 31] = False
    # a giant step's baby partner, if any, comes first among the keys of
    # its lane and x, before any other giant step there
    g = g[giant]
    b = g - 1
    back = keys[b] >> _ROW_BITS & 1 == 1
    while back.any():  # giant steps that share an x
        b[back] -= 1
        back &= (b > 0) & (keys[b] >> _ROW_BITS & 1 == 1) & (keys[b] >> _TAG == keys[g] >> _TAG)
    hit = (keys[b] >> _ROW_BITS & 1 == 0) & (keys[b] >> _TAG == keys[g] >> _TAG)
    g, b = keys[g[hit]], keys[b[hit]]
    del keys
    row, jrow = g & _ROW_MASK, b & _ROW_MASK
    col = np.searchsorted(v, g >> (_TAG + 31))
    pc = p[col]
    zz = GZ[row, col] * GZ[row, col].astype(np.int64) % pc
    plus = GY[row, col] == BY[jrow, v[col]] * (zz * GZ[row, col] % pc) % pc  # y = Y/Z^3
    r = np.where(plus, -1 - jrow, 1 + jrow)  # G = jP or -jP
    o_row, o_col = np.nonzero(walk & at_o)  # G = O: r = 0
    row, col = np.concatenate((row, o_row)), np.concatenate((col, o_col))
    k = (row - span[col]) * s[col] + np.concatenate((r, np.zeros_like(o_row)))
    inside = (np.abs(k) <= T[col]) & valid[v[col]]
    return valid, v[col[inside]], k[inside], square


def _ap_lanes(A: int, B: int, ps: np.ndarray):
    """a_p at good primes 3 < p < 2^31 by Shanks-Mestre, lane-parallel.

    Returns (vals, settled): vals[i] is a_p at ps[i] wherever settled[i];
    the other primes are left to the exhaustive sum.  For the n-th
    x-coordinate x0 of a prime with c = f(x0) != 0, the point (c x0, c^2)
    lies on Y^2 = X^3 + A c^2 X + B c^3, which is E when c is a square mod
    p and its quadratic twist E' otherwise (#E + #E' = 2p + 2).  Each such
    (prime, try) pair is one lane of _hasse_orders, and narrows a_p to the
    candidates whose group order P divides.  The tries run in rounds: a
    round gives each open prime its next try, or all its remaining tries
    when they fit in one block of lanes, and runs whole blocks only; the
    lanes of a last part block wait for the next round, to share a block
    with its tries.  A prime is settled once the candidates of its tries
    have one element in common, as when the tries run one by one.
    """
    n = ps.size
    if n and int(ps.max()) >= _LANE_P_LIMIT:
        raise ValueError(f"a_p by Shanks-Mestre needs p < 2^31, got {int(ps.max())}")
    Ar, Br = _mod_each(A, ps), _mod_each(B, ps)

    def point(t, q):
        """c = f(x0) and x0 of try t at prime ps[q]."""
        p = ps[q]
        x0 = t * _BSGS_STRIDE % p
        return (x0 * x0 % p * x0 + Ar[q] * x0 + Br[q]) % p, x0

    usable = np.array([point(t, slice(None))[0] != 0 for t in range(_BSGS_TRIES)])
    usable = usable.reshape(_BSGS_TRIES, n)
    # 1, 2, ... over each prime's usable tries
    rank = np.cumsum(usable, axis=0, dtype=np.int8) * usable
    W = 2 * int(_isqrt(4 * ps).max(initial=0)) + 1  # a_p + W // 2 in [0, W)
    nvalid = np.zeros(n, dtype=np.int64)

    def candidates(t, q):
        """prime * W + a_p + W // 2 for every candidate of every valid lane."""
        out = []
        for lo in range(0, q.size, _LANES):
            tq, qq = t[lo : lo + _LANES], q[lo : lo + _LANES]
            p = ps[qq]
            c, x0 = point(tq, qq)
            cc = c * c % p
            valid, lane, k, square = _hasse_orders(p, Ar[qq] * cc % p, c * x0 % p, cc, c)
            np.add.at(nvalid, qq[valid], 1)
            # on E, #E = p + 1 - a_p = p + 1 + k; on E', #E' = p + 1 + a_p
            on_e = square[lane]
            out.append(qq[lane] * W + np.where(on_e, -k, k) + W // 2)
        return np.concatenate(out)

    vals = np.zeros(n, dtype=np.int64)
    settled = np.zeros(n, dtype=bool)
    keys = np.zeros(0, dtype=np.int64)  # the candidates of the open primes

    def narrow(t, q):
        """Intersect the candidates of lanes (t, q) with the kept ones."""
        nonlocal keys
        # the kept candidates stand for all earlier tries, so they count once
        need = (nvalid > 0) - nvalid
        keys = np.concatenate((keys, candidates(t, q)))
        need += nvalid
        keys, count = np.unique(keys, return_counts=True)
        keys = keys[count == need[keys // W]]
        one = (nvalid > 0) & (np.bincount(keys // W, minlength=n) == 1)
        done = one[keys // W]
        vals[keys[done] // W] = keys[done] % W - W // 2
        settled[one] = True
        keys = keys[~done]

    taken = np.zeros((1, n), dtype=np.int8)
    wait_t = wait_q = np.zeros(0, dtype=np.int64)  # lanes handed out, not yet run
    while True:
        todo = (rank > taken) & ~settled
        todo[:, wait_q] = False
        if todo.sum() + wait_q.size > _LANES:
            todo &= rank == taken + 1
        t, q = np.nonzero(todo)
        taken = np.maximum(taken, (rank * todo).max(axis=0))
        t, q = np.concatenate((wait_t, t)), np.concatenate((wait_q, q))
        if not q.size:
            break
        run = q.size - q.size % _LANES or q.size  # whole blocks while a part is left
        narrow(t[:run], q[:run])
        wait_t, wait_q = t[run:], q[run:]

    # An open prime whose tries all gave points of one curve (every c a
    # square, or none) gets one point of the other: the x0 sequence goes on
    # to the first c of the missing symbol.
    extra = []
    for q in np.flatnonzero(~settled).tolist():
        p = int(ps[q])
        symbols = {pow(c, (p - 1) // 2, p) for c in point(np.arange(_BSGS_TRIES), q)[0].tolist() if c}
        if len(symbols) != 1:
            continue
        for t in range(_BSGS_TRIES, _BSGS_TRIES + _EXTRA_TRIES):
            c = int(point(t, q)[0])
            if c and pow(c, (p - 1) // 2, p) not in symbols:
                extra.append((t, q))
                break
    if extra:
        t, q = (np.array(v) for v in zip(*extra))
        narrow(t, q)
    return vals, settled


def _mod_each(n: int, ps: np.ndarray) -> np.ndarray:
    """n mod p in [0, p) for every p of ps, as int64, for any integer n."""
    if -(1 << 63) <= n < 1 << 63:
        return np.int64(n) % ps
    return np.array([n % q for q in ps.tolist()], dtype=np.int64)


def _ap_values(curve: CurveModel, ps: np.ndarray) -> np.ndarray:
    """a_p of the model at each prime of ps, as int64 (see ``ap_array``)."""
    A, B = curve.A, curve.B
    out = np.empty(ps.size, dtype=np.int64)
    for p, meta in ((2, curve.a2), (3, curve.a3)):
        at = ps == p
        if at.any():
            if meta is None:
                raise MissingBadPrimeData(f"curve {curve.label or (A, B)} has no a_{p} metadata")
            out[at] = meta
    bad = (_mod_each(4 * A**3 + 27 * B**2, ps) == 0) & (ps > 3)
    for i in np.flatnonzero(bad).tolist():
        out[i] = _ap_bad(A, B, int(ps[i]))
    good = np.flatnonzero(~bad & (ps > 3))
    if good.size:
        vals, settled = _ap_lanes(A, B, ps[good])
        for i in np.flatnonzero(~settled):  # the ambiguous lanes, as a group
            vals[i] = _ap_char_sum(A, B, int(ps[good[i]]))
        out[good] = vals
    return out


# Per curve: the primes of the longest table prefix requested so far and
# their a_p.  Every PrimeTable lists the primes from 2 upward, so the prefix
# does not depend on the table's limit.
_AP_CACHE: dict = {}
_NO_PRIMES = np.empty(0, dtype=np.int64)
_NO_PRIMES.setflags(write=False)


def ap_array(curve: CurveModel, primes: PrimeTable, bound: float) -> np.ndarray:
    """a_p for every prime p < bound in the table, as int64, so that
    p + 1 - a_p = #E(F_p) at good p.

    Good p > 3: Shanks-Mestre baby-step giant-step over the Hasse interval,
    run in numpy lanes (``_ap_lanes``), with the exhaustive character sum
    where the points tried leave more than one candidate (tiny p, or a
    group of small exponent on both E and its twist); p < 2^31.  Bad p > 3:
    the node/cusp rule.  p in {2, 3}: curve metadata.  The longest prefix
    computed so far is cached per curve; new primes run through the lane
    kernel in chunks of _AP_CHUNK.
    """
    ps = primes.below(bound)
    _, vals = _AP_CACHE.get(curve, (_NO_PRIMES, _NO_PRIMES))
    if vals.size < ps.size:
        new = [_ap_values(curve, ps[i : i + _AP_CHUNK]) for i in range(vals.size, ps.size, _AP_CHUNK)]
        vals = np.concatenate((vals, *new))
        vals.setflags(write=False)
        # a copy of the primes, so the cache does not pin the whole table
        _AP_CACHE[curve] = (ps.copy(), vals)
    return vals[: ps.size]


def cpm(curve: CurveModel, primes: PrimeTable, bound: float, m: int) -> np.ndarray:
    """Prime-power coefficients c_{p^m} for every prime p < bound in the
    table, as int64, read from the ``ap_array`` table.

    Good p: the power-sum recurrence c_{p^k} = a_p c_{p^(k-1)} - p c_{p^(k-2)}
    from c_1 = a_p and c_0 = 2, so c_{p^2} = a_p^2 - 2p.  Bad p (p | the
    conductor): a_p^m.  Every intermediate value is at most 4 p^(m/2) in
    absolute value, so the int64 result is exact for p^m < 2^120.
    """
    if m < 1:
        raise ValueError(f"cpm needs m >= 1, got {m}")
    ps = primes.below(bound)
    a = ap_array(curve, primes, bound)
    prev, cur = np.full(a.size, 2, dtype=np.int64), a
    for _ in range(m - 1):
        prev, cur = cur, a * cur - ps * prev
    return np.where(_mod_each(curve.conductor, ps) == 0, a**m, cur)


# The conductor bound of an unclean twist is 2^8 3^5 N d^2: the largest
# exponents the twist can reach at 2 and 3.
_UNCLEAN_BOUND = 2**8 * 3**5


def _kronecker_minus_n(a: np.ndarray, n: int) -> np.ndarray:
    """kronecker(a, -n) for every a of the array, n >= 1.

    (a|n) has period 8n in a (8 for the 2-part, the odd part of n for the
    Jacobi part), and (a|-n) is (a|n) negated for a < 0, so one kronecker
    call per residue class of a mod 8n present covers the array.
    """
    residues, inverse = np.unique(a % (8 * n), return_inverse=True)
    table = np.array([kronecker(r, n) for r in residues.tolist()], dtype=np.int64)
    return np.where(a < 0, -table[inverse], table[inverse])


class Twists(namedtuple("Twists", "base D kernel fundamental_disc squarefree coprime root_number")):
    """The twists of one base curve by a run of D, as columns (int64 and bool
    arrays aligned with D); one twist is the one-row run range(D, D + 1).

    E_D is y^2 = x^3 + A D^2 x + B D^3, isomorphic over Q to E_d for its
    kernel d (D = d m^2: x = m^2 X, y = m^3 Y), and only its invariants are
    kept: c_{p^m}(E_D) = chi_d(p)^m c_{p^m}(E) at every p, so the twisted
    model is never needed for the coefficients.  kernel is sign(D) times the
    squarefree part of |D|, fundamental_disc the discriminant d_K of
    Q(sqrt(D)), which defines the twist's character chi_d, squarefree marks
    D equal to its kernel, and coprime marks gcd(D, 2N) = 1.

    conductor_bounds() is N * d_K^2 where conductor_exact (squarefree and
    coprime to 2N) and gcd(d_K, N) = 1, i.e. N odd: chi_D then has conductor
    |d_K| prime to N (Atkin-Li 1978), so D = 3 mod 4 gives N * 16 * D^2.  For
    even N it stays N * D^2, unproven at D = 3 mod 4 though conductor_exact
    is true there too (ROADMAP item 2).  Otherwise it is a documented
    over-estimate (<= 2^8 * 3^5 * N * d^2 with d the kernel).  root_number is
    w(E_D) = w(E) * chi_D(-N) = w(E) * (d_K | -N) for a clean D, else 0; it
    is 0 also where chi_D ramifies at a prime of N (N even, D = 3 mod 4),
    as the relation leaves the sign open there.
    """

    __slots__ = ()

    def __len__(self) -> int:  # the rows, not the fields: no _replace
        return int(self.D.size)

    @property
    def conductor_exact(self) -> np.ndarray:
        return self.squarefree & self.coprime

    def select(self, keep: np.ndarray) -> "Twists":
        """The rows where keep (a boolean mask) holds, in order."""
        return Twists(self.base, *(column[keep] for column in self[1:]))  # every field but base

    def conductor_bounds(self) -> List[int]:
        """N d_K^2 for a clean D (N D^2 if gcd(d_K, N) > 1), else 2^8 3^5 N d^2
        with d the kernel, as exact Python integers (they pass 2^63 for |D|
        near 1e9 and beyond)."""
        n = self.base.conductor
        columns = (self.D, self.kernel, self.fundamental_disc, self.conductor_exact)
        return [
            n * (f if math.gcd(f, n) == 1 else D) ** 2 if exact else _UNCLEAN_BOUND * n * d * d
            for D, d, f, exact in zip(*(c.tolist() for c in columns))
        ]


def twist_columns(curve: CurveModel, ds: range) -> Twists:
    """The invariants of the twists of curve by every D of ds, a range of
    consecutive integers in ascending order (D = 0 gives a row with kernel
    0 that no filter keeps).

    The kernels come from one squarefree sieve over the range
    (arith.squarefree_kernels), the gcd with 2N from numpy, and the root
    numbers from one kronecker call per residue class mod 8N; nothing is
    done per D in Python.  |D| <= arith.SQUAREFREE_SIEVE_MAX.
    """
    if ds.step != 1:
        raise ValueError(f"twist_columns needs consecutive ascending D, got step {ds.step}")
    kernel = squarefree_kernels(ds.start, ds.stop - 1)
    D = np.arange(ds.start, ds.start + kernel.size, dtype=np.int64)
    disc = np.where(kernel % 4 == 1, kernel, 4 * kernel)
    squarefree = (kernel == D) & (D != 0)
    coprime = np.gcd(D, 2 * curve.conductor) == 1
    clean = squarefree & coprime
    root = np.zeros(D.size, dtype=np.int64)
    root[clean] = curve.root_number * _kronecker_minus_n(disc[clean], curve.conductor)
    return Twists(curve, D, kernel, disc, squarefree, coprime, root)


def filter_twists(curve: CurveModel, ds: range, squarefree: bool, coprime: bool) -> Twists:
    """The twists by the nonzero D of ds (consecutive, ascending) that are
    coprime to 2N, if asked, and squarefree, if asked, as columns from one
    sieve over ds (twist_columns).  The only place a D becomes a twist."""
    twists = twist_columns(curve, ds)
    keep = twists.D != 0
    if coprime:
        keep &= twists.coprime
    if squarefree:
        keep &= twists.squarefree
    return twists.select(keep)


# ---------------------------------------------------------------------------
# Curve catalog


def load_catalog(path) -> dict:
    """Parse a curve catalog file.

    One record per line: label, A, B, N_E, w(E), a_2, a_3 (comma-separated);
    '#' starts a comment.
    """
    catalog: dict = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [f.strip() for f in line.split(",")]
        if len(parts) != 7:
            raise ValueError(f"{path}:{lineno}: expected 7 fields, got {len(parts)}")
        label = parts[0]
        try:
            a, b, n, w, a2, a3 = (int(v) for v in parts[1:])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: non-integer field: {exc}") from exc
        if label in catalog:
            raise ValueError(f"{path}:{lineno}: duplicate label {label!r}")
        catalog[label] = CurveModel(
            A=a, B=b, conductor=n, root_number=w, label=label, a2=a2, a3=a3
        )
    return catalog


def builtin_catalog() -> dict:
    """The two shipped curves (verified against exhaustive point counts)."""
    from importlib import resources

    with resources.as_file(
        resources.files("twistrank").joinpath("data/curves.cat")
    ) as p:
        return load_catalog(p)
