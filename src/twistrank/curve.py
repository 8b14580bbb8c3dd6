"""Reduction data for a short Weierstrass curve and its quadratic twists.

The trace of Frobenius a_p is computed for good primes p > 3 by
Shanks-Mestre baby-step giant-step over the Hasse interval (O(p^(1/4))
group operations; Cohen, A Course in Computational Algebraic Number
Theory, 7.4), falling back to an exhaustive quadratic-character sum over
F_p when the points tried leave more than one candidate.  Bad primes
p > 3 use the node/cusp rule, and p in {2, 3}, where short Weierstrass
point counting degenerates, use caller-supplied metadata.  A twist
carries its conductor (N * D^2, or a bound) and its root number (through
the quadratic character of Q(sqrt(D))); its coefficients are the base
curve's times that character, applied by explicit_formula.prime_side, so
no twisted model is ever built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .arith import PrimeTable, fundamental_discriminant, kronecker

__all__ = [
    "CurveModel",
    "TwistedCurve",
    "MissingBadPrimeData",
    "ap",
    "ap_array",
    "cpm",
    "load_catalog",
    "builtin_catalog",
]


class MissingBadPrimeData(ValueError):
    """a_p was requested at p in {2, 3} but the curve carries no metadata."""


@dataclass(frozen=True)
class CurveModel:
    """A fixed curve y^2 = x^3 + A x + B with caller-supplied invariants.

    conductor and root_number are metadata: the model is assumed
    quasi-minimal and the invariants are not re-derived here.  a2 and a3
    hold the L-coefficients at 2 and 3 (None if unknown).
    """

    A: int
    B: int
    conductor: int
    root_number: int
    label: str = ""
    a2: Optional[int] = None
    a3: Optional[int] = None

    def __post_init__(self) -> None:
        if 4 * self.A**3 + 27 * self.B**2 == 0:
            raise ValueError(f"singular model A={self.A}, B={self.B}")
        if self.conductor < 1:
            raise ValueError(f"conductor must be >= 1, got {self.conductor}")
        if self.root_number not in (-1, 1):
            raise ValueError(f"root number must be +-1, got {self.root_number}")

    @property
    def discriminant(self) -> int:
        return -16 * (4 * self.A**3 + 27 * self.B**2)


def _ap_char_sum(A: int, B: int, p: int) -> int:
    """a_p = -sum_x (x^3+Ax+B | p) for an odd good prime, vectorized."""
    x = np.arange(p, dtype=np.int64)
    sq = (x * x) % p
    fx = ((sq + A % p) * x + B % p) % p
    chi = np.full(p, -1, dtype=np.int64)
    chi[sq] = 1
    chi[0] = 0
    return int(-chi[fx].sum())


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


def _ec_add(P, Q, a: int, p: int):
    """P + Q on y^2 = x^3 + a x + b over F_p, in affine coordinates.

    None is the point at infinity; b is not needed by the group law.
    """
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def _ec_mul(n: int, P, a: int, p: int):
    """n P for n >= 0 by double-and-add."""
    R = None
    while n:
        if n & 1:
            R = _ec_add(R, P, a, p)
        P = _ec_add(P, P, a, p)
        n >>= 1
    return R


def _hasse_orders(P, a: int, p: int, T: int, m: int) -> Optional[set]:
    """Every k in [-T, T] with (p + 1 + k) P = O, by baby-step giant-step.

    Baby steps store x(jP) for j = 1..m; giant steps walk
    G_i = (p + 1 + i s) P with s = 2m + 1, and G_i = -rP for |r| <= m
    gives k = i s + r.  The match is unique only if ord(P) > 2m, so None is
    returned when the baby steps show a smaller order: a step that is
    2-torsion (y = 0) or repeats an x-coordinate (jP = +-j'P).  O itself is
    never reached first, since jP = -P repeats x(P).
    """
    baby = {}
    prev, R = None, P
    for j in range(1, m + 1):
        if R[1] == 0 or R[0] in baby:
            return None
        baby[R[0]] = (j, R[1])
        prev, R = R, _ec_add(R, P, a, p)
    step = _ec_add(R, prev, a, p)  # (2m + 1) P
    s = 2 * m + 1
    span = (T + m) // s
    G = _ec_mul(p + 1 - span * s, P, a, p)
    found = set()
    for i in range(-span, span + 1):
        r = None
        if G is None:
            r = 0
        elif G[0] in baby:
            j, y = baby[G[0]]
            r = -j if G[1] == y else j
        if r is not None and -T <= i * s + r <= T:
            found.add(i * s + r)
        G = _ec_add(G, step, a, p)
    return found


# x-coordinates tried per prime before falling back to the exhaustive sum.
_BSGS_TRIES = 12
# The n-th x-coordinate tried is n * _BSGS_STRIDE mod p.  Consecutive small
# x0 give values f(x0) made of small primes, which can all be squares mod p
# (y^2 = x^3 - x at p = 48049 for every x0 < 12), and then no point of the
# twist would be tried.
_BSGS_STRIDE = 2654435761


def _ap_bsgs(A: int, B: int, p: int) -> Optional[int]:
    """a_p for a good prime p > 3 by Shanks-Mestre, or None if ambiguous.

    For x0 spread over F_p with c = f(x0) != 0, the point (c x0, c^2) lies on
    Y^2 = X^3 + A c^2 X + B c^3, which is E when c is a square mod p and
    its quadratic twist E' otherwise (#E + #E' = 2p + 2).  Each point
    narrows the candidate a_p to those whose group order it divides; the
    answer is returned once one candidate is left.  Points of order
    <= 2m carry no information here and are skipped.
    """
    T = math.isqrt(4 * p)  # |a_p| <= 2 sqrt(p)
    m = max(1, math.isqrt(T))
    half = (p - 1) // 2
    cands = None
    for n in range(_BSGS_TRIES):
        x0 = n * _BSGS_STRIDE % p
        c = (x0 * x0 * x0 + A * x0 + B) % p
        if c == 0:
            continue
        ks = _hasse_orders((c * x0 % p, c * c % p), A * c * c % p, p, T, m)
        if ks is None:
            continue
        # on E, #E = p + 1 - a_p = p + 1 + k; on E', #E' = p + 1 + a_p
        sign = -1 if pow(c, half, p) == 1 else 1
        found = {sign * k for k in ks}
        cands = found if cands is None else cands & found
        if len(cands) == 1:
            return cands.pop()
    return None


def ap(curve: CurveModel, p: int) -> int:
    """Trace of Frobenius a_p of the model, so p + 1 - a_p = #E(F_p) at good p.

    Good p > 3: Shanks-Mestre baby-step giant-step (``_ap_bsgs``), with the
    exhaustive character sum when the candidate set stays ambiguous (tiny
    p, or a group of small exponent on both E and its twist).  Bad p > 3:
    the node/cusp rule.  p in {2, 3}: curve metadata.
    """
    if p in (2, 3):
        meta = curve.a2 if p == 2 else curve.a3
        if meta is None:
            raise MissingBadPrimeData(
                f"curve {curve.label or (curve.A, curve.B)} has no a_{p} metadata"
            )
        return meta
    if (4 * curve.A**3 + 27 * curve.B**2) % p == 0:
        return _ap_bad(curve.A, curve.B, p)
    a = _ap_bsgs(curve.A, curve.B, p)
    return _ap_char_sum(curve.A, curve.B, p) if a is None else a


# Per curve: the primes of the longest table prefix requested so far and
# their a_p.  Every PrimeTable lists the primes from 2 upward, so the prefix
# does not depend on the table's limit.
_AP_CACHE: dict = {}
_NO_PRIMES = np.empty(0, dtype=np.int64)
_NO_PRIMES.setflags(write=False)


def ap_array(curve: CurveModel, primes: PrimeTable, bound: float) -> np.ndarray:
    """a_p for every prime p < bound in the table, as int64.

    The longest prefix computed so far is cached per curve.
    """
    ps = primes.below(bound)
    _, vals = _AP_CACHE.get(curve, (_NO_PRIMES, _NO_PRIMES))
    if vals.size < ps.size:
        new = np.fromiter((ap(curve, p) for p in ps[vals.size :].tolist()), dtype=np.int64)
        vals = np.concatenate((vals, new))
        vals.setflags(write=False)
        # a copy of the primes, so the cache does not pin the whole table
        _AP_CACHE[curve] = (ps.copy(), vals)
    return vals[: ps.size]


def cpm(curve: CurveModel, p: int, m: int) -> int:
    """Prime-power coefficient c_{p^m}.

    Good p: the power-sum recurrence c_{p^m} = a_p c_{p^(m-1)} - p c_{p^(m-2)}
    with c_p = a_p and c_{p^2} = a_p^2 - 2p.  Bad p (p | conductor): a_p^m.
    a_p is read from the ``ap_array`` cache when p lies in its prefix.
    """
    if m < 1:
        raise ValueError(f"cpm needs m >= 1, got {m}")
    ps, vals = _AP_CACHE.get(curve, (_NO_PRIMES, _NO_PRIMES))
    i = int(np.searchsorted(ps, p))
    a = int(vals[i]) if i < ps.size and ps[i] == p else ap(curve, p)
    if curve.conductor % p == 0:
        return a**m
    if m == 1:
        return a
    prev, cur = a, a * a - 2 * p
    for _ in range(m - 2):
        prev, cur = cur, a * cur - p * prev
    return cur


@dataclass(frozen=True)
class TwistedCurve:
    """A base curve paired with a twisting integer D.

    E_D is y^2 = x^3 + A D^2 x + B D^3, but only its invariants are kept:
    c_{p^m}(E_D) = chi_D(p)^m c_{p^m}(E) at every p, so the twisted model
    is never needed for the coefficients.  conductor_bound is
    exactly N * D^2 for D squarefree and coprime to 2N; otherwise it is a
    documented over-estimate (<= 2^8 * 3^5 * N * d^2 with d the squarefree
    part of D).  Note the exact branch follows the N * D^2 convention even
    though twisting a curve of odd conductor by D = 3 mod 4 also moves the
    2-part; the explicit-formula reports flag this through conductor_exact.
    squarefree (D equals its squarefree kernel), conductor_exact (squarefree
    and coprime to 2N) and fundamental_disc (the discriminant of Q(sqrt(D)),
    which defines the twist's character) come from one factorisation of D.
    root_number is w(E_D) = w(E) * chi_D(-N) = w(E) * (d_K | -N) for a
    clean D, else 0; it is 0 also where chi_D ramifies at a prime of N (N
    even, D = 3 mod 4), as the relation leaves the sign open there.
    """

    base: CurveModel
    D: int
    squarefree: bool = field(init=False)
    conductor_bound: int = field(init=False)
    conductor_exact: bool = field(init=False)
    fundamental_disc: int = field(init=False)
    root_number: int = field(init=False)

    def __post_init__(self) -> None:
        if self.D == 0:
            raise ValueError("twisting integer D must be nonzero")
        disc = fundamental_discriminant(self.D)
        # sign(D) times the squarefree part of |D|, which is D iff D is squarefree
        kernel = disc if disc % 4 == 1 else disc // 4
        squarefree = kernel == self.D
        clean = squarefree and math.gcd(self.D, 2 * self.base.conductor) == 1
        if clean:
            bound = self.base.conductor * self.D**2
        else:
            bound = 2**8 * 3**5 * self.base.conductor * kernel * kernel
        root = self.base.root_number * kronecker(disc, -self.base.conductor) if clean else 0
        object.__setattr__(self, "squarefree", squarefree)
        object.__setattr__(self, "conductor_bound", bound)
        object.__setattr__(self, "conductor_exact", clean)
        object.__setattr__(self, "fundamental_disc", disc)
        object.__setattr__(self, "root_number", root)


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
