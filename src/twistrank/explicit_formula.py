"""Both sides of Weil's explicit formula for a quadratic twist.

For the twist E_D with kernel scale lambda the identity reads

    sum_rho Phi_lambda(rho) = log N_(E_D)
                              - 2 sum_{p^m} c_{p^m}(E_D) (log p)/p^m F(m log p / lambda)
                              - 2 log 2pi - 2 * (archimedean integral).

The zero side is never located; it is defined by the prime-side equality,
and under GRH every Phi_lambda(rho) is nonnegative with Phi_lambda(1) =
lambda, so total_S / lambda upper-bounds the analytic rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .arith import (
    PrimeTable,
    fixed_point_limbs,
    fixed_point_scale,
    legendre_matrix,
    round_fixed_point,
)
from .curve import CurveModel, Twists, ap_array, cpm
from .kernel import TriangleKernel, archimedean_integral, triangle

__all__ = [
    "ExplicitFormulaTable",
    "InsufficientPrimeTable",
    "prime_sides",
    "evaluate_reports",
    "beta_array",
    "CSV_COLUMNS",
]


class InsufficientPrimeTable(ValueError):
    """The prime table does not reach the cutoff e^lambda."""

    def __init__(self, required: int, limit: int):
        super().__init__(
            f"prime table reaches {limit} but the kernel needs all primes below {required}"
        )
        self.required = required
        self.limit = limit


CSV_COLUMNS = [
    "D",
    "lambda",
    "log_conductor",
    "conductor_exact",
    "prime_m1",
    "prime_m2",
    "prime_tail",
    "archimedean",
    "total_S",
    "rank_bound",
    "root_number",
]


def _require_table(primes: PrimeTable, lam: float) -> float:
    """The cutoff e^lambda, once the table is known to hold every prime below it."""
    cutoff = math.exp(lam)
    if primes.limit + 0.5 < cutoff * (1.0 - 1e-12):
        required = math.ceil(cutoff - 1e-6 * max(1.0, cutoff))
        raise InsufficientPrimeTable(required=required, limit=primes.limit)
    return cutoff


def beta_array(curve: CurveModel, x: float, primes: PrimeTable) -> np.ndarray:
    """The prime weights a_p (log p)/p F(log p / log x) for all p < x, as a
    float array aligned with primes.below(x)."""
    _require_table(primes, math.log(x))
    ps = primes.below(x)
    aps = ap_array(curve, primes, x).astype(float)
    lp = np.log(ps.astype(float))
    fv = triangle(lp / math.log(x))
    return aps * lp / ps.astype(float) * fv


def _term(c: int, p: int, m: int, lam: float) -> float:
    """c (log p)/p^m F(m log p / lambda) for m >= 2, left to right from c."""
    lp = math.log(p)
    return c * lp / p**m * triangle(m * lp / lam)


@dataclass(frozen=True)
class _Group:
    """One group of the plan (m = 1, m = 2 or m >= 3): for each term, the
    column of its prime p in the character matrix, its m and its value
    c_{p^m}(E) (log p)/p^m F(m log p / lambda); limbs and emin hold the
    values as exact fixed point (arith.fixed_point_limbs)."""

    index: np.ndarray
    power: np.ndarray
    terms: np.ndarray
    limbs: np.ndarray
    emin: int


@dataclass(frozen=True)
class _PrimePlan:
    """The part of prime_sides that does not depend on D.

    ``groups`` holds, for m = 1, m = 2 and m >= 3, each p^m < e^lambda whose
    term is nonzero (c_{p^m}(E) != 0).  At every prime, 2 and those dividing
    N included, c_{p^m}(E_D) = chi_D(p)^m c_{p^m}(E), so a twist only flips
    the sign of a term or zeroes it.
    """

    primes: np.ndarray
    groups: Tuple[_Group, ...]


# Plans keyed by (curve, lambda, table limit): the table limit caps the primes
# below the cutoff, so the same (curve, lambda) can give different plans.
_PLAN_CACHE: Dict[tuple, _PrimePlan] = {}


def _group(index: List[int], power: List[int], terms: np.ndarray) -> _Group:
    keep = terms != 0.0  # a zero term (F = 0 at the cutoff) adds nothing to any sum
    terms = terms[keep]
    emin, count = fixed_point_scale(terms)
    limbs = fixed_point_limbs(terms, emin, count)
    return _Group(
        np.asarray(index, dtype=np.int64)[keep], np.asarray(power, dtype=np.int8)[keep],
        terms, limbs, emin,
    )  # fmt: skip


def _prime_plan(E: CurveModel, lam: float, primes: PrimeTable, cutoff: float) -> _PrimePlan:
    key = (E, lam, primes.limit)
    if key in _PLAN_CACHE:
        return _PLAN_CACHE[key]
    ps = primes.below(cutoff)
    aps = ap_array(E, primes, cutoff)
    lp = np.log(ps.astype(float))
    weights = lp / ps.astype(float) * triangle(lp / lam)  # (log p)/p F, as in beta_array
    first = np.flatnonzero(aps)
    groups = [_group(first, np.ones(first.size), aps[first] * weights[first])]
    higher = {2: ([], [], []), 3: ([], [], [])}  # index, m and term for m = 2 and m >= 3
    for i, p in enumerate(ps[: int(np.searchsorted(ps, math.sqrt(cutoff))) + 1].tolist()):
        m = 2
        while p**m < cutoff:
            c = cpm(E, p, m)
            if c:  # a zero coefficient adds +0.0 for every twist
                index, power, term = higher[min(m, 3)]
                index.append(i)
                power.append(m)
                term.append(_term(c, p, m, lam))
            m += 1
    groups += [_group(i, m, np.array(t, dtype=float)) for i, m, t in higher.values()]
    plan = _PrimePlan(primes=ps.copy(), groups=tuple(groups))  # a copy: the cache must not pin the table
    _PLAN_CACHE[key] = plan
    return plan


# Cells of the character matrix evaluated at once, so that the temporaries of
# a batch stay O(_CHUNK_CELLS) whatever the number of twists: a family sweep at
# x = 1e3 peaked 1.2 MB (3.4%) above one twist at a time with 2^16 cells and
# 0.5 MB with 2^14, which ran as fast.
_CHUNK_CELLS = 1 << 14

# chi_D(2) by D mod 8: (D|2) for D = 1 mod 4, 0 otherwise
_CHI_AT_2 = np.array([0, 1, 0, 0, 0, -1, 0, 0], dtype=np.int8)


def _characters(ps: np.ndarray, ds: np.ndarray) -> np.ndarray:
    """chi_D(p) for every D of ds (rows) and p of ps (columns; 2 leads)."""
    chi = np.empty((ds.size, ps.size), dtype=np.int8)
    if ps.size:
        chi[:, 0] = _CHI_AT_2[ds % 8]
        chi[:, 1:] = legendre_matrix(ds, ps[1:])
    return chi


def prime_sides(
    curve: CurveModel, ds: Sequence[int], kernel: TriangleKernel, primes: PrimeTable
) -> np.ndarray:
    """The m = 1, m = 2 and m >= 3 partial sums of the prime side of the
    twists of curve by each D of ds, as the rows of a (3, len(ds)) array.

    Each is sum over p^m < e^lambda of c_{p^m}(E_D) (log p)/p^m *
    F(m log p / lambda), without the overall factor 2.  Everything but the
    character comes from the per-(curve, lambda) plan; the characters come
    from one matrix per chunk of twists.  The sum is exact fixed point: the
    plan holds each group's terms as integer multiples of 2^emin split into
    int64 limbs, the character matrix times the limbs gives each twist's
    integer exactly, and arith.round_fixed_point rounds it once, so each
    result is the correctly rounded sum of the twist's terms, the float
    math.fsum gives, whatever the term order or the batching.

    The character is chi_D(p) = (D|p) at odd p and, at p = 2, (D|2) for
    D = 1 mod 4 and 0 otherwise.  At a bad prime p > 3 the twisted model
    moves the node to D x0, so a_p(E_D) = (D|p) a_p(E); at 2 and 3 the
    twist's local data is chi_{d_K}(p) a_p(E) with d_K the discriminant of
    Q(sqrt(D)), which is the same character.
    """
    cutoff = _require_table(primes, kernel.lam)
    plan = _prime_plan(curve, kernel.lam, primes, cutoff)
    ds = np.asarray(ds, dtype=np.int64)
    sums = [np.empty((ds.size, g.limbs.shape[1]), dtype=np.int64) for g in plan.groups]
    step = max(1, _CHUNK_CELLS // max(1, plan.primes.size))
    for start in range(0, ds.size, step):
        chi = _characters(plan.primes, ds[start : start + step])
        for g, out in zip(plan.groups, sums):
            np.matmul(chi[:, g.index] ** g.power, g.limbs, out=out[start : start + step])
    rounded = [round_fixed_point(s, g.emin) for g, s in zip(plan.groups, sums)]
    return np.array(rounded).reshape(3, ds.size)


@dataclass(frozen=True)
class ExplicitFormulaTable:
    """The explicit-formula decomposition of a batch of twists as columns:
    row i belongs to twists.D[i] (lam and archimedean are one number per
    batch).  Each row's total_S reconstructs exactly as
    log_conductor - 2*(prime_sum_m1 + prime_sum_m2 + prime_sum_tail) -
    archimedean, where archimedean = 2*integral + 2*log(2pi); root numbers
    and conductor_exact are the twists' columns (see Twists)."""

    twists: Twists
    lam: float
    log_conductor: np.ndarray
    prime_sum_m1: np.ndarray
    prime_sum_m2: np.ndarray
    prime_sum_tail: np.ndarray
    archimedean: float
    total_S: np.ndarray
    rank_bound: np.ndarray

    def __len__(self) -> int:
        return len(self.twists)

    def records(self) -> List[dict]:
        """The output records, one per row: the CSV_COLUMNS fields in order,
        then the coarse bound (twisted_upper_bound) that only the JSON output
        carries; every value a Python scalar."""
        lam, arch = self.lam, self.archimedean
        rows = zip(
            self.twists.D.tolist(),
            self.log_conductor.tolist(),
            self.twists.conductor_exact.tolist(),
            self.prime_sum_m1.tolist(),
            self.prime_sum_m2.tolist(),
            self.prime_sum_tail.tolist(),
            self.total_S.tolist(),
            self.rank_bound.tolist(),
            self.twists.root_number.tolist(),
        )
        return [
            {
                "D": D,
                "lambda": lam,
                "log_conductor": log_n,
                "conductor_exact": exact,
                "prime_m1": m1,
                "prime_m2": m2,
                "prime_tail": tail,
                "archimedean": arch,
                "total_S": total,
                "rank_bound": bound,
                "root_number": root,
                "twisted_upper_bound": _coarse_bound(D, lam, m1),
            }
            for D, log_n, exact, m1, m2, tail, total, bound, root in rows
        ]


def evaluate_reports(twists: Twists, lam: float, primes: PrimeTable) -> ExplicitFormulaTable:
    """The explicit-formula columns of a batch of twists, from one
    prime_sides call: total_S = log_conductor - 2*(m1 + m2 + tail) -
    archimedean and rank_bound = total_S / lambda, evaluated row by row in
    IEEE arithmetic exactly as for one twist.  log_conductor is math.log of
    each exact integer conductor bound."""
    kernel = TriangleKernel(lam)
    m1, m2, tail = prime_sides(twists.base, twists.D, kernel, primes)
    log_n = np.array([math.log(n) for n in twists.conductor_bounds()], dtype=float)
    arch = 2.0 * archimedean_integral(kernel) + 2.0 * math.log(2.0 * math.pi)
    total = log_n - 2.0 * (m1 + m2 + tail) - arch
    return ExplicitFormulaTable(twists, lam, log_n, m1, m2, tail, arch, total, total / lam)


def _coarse_bound(D: int, lam: float, m1: float) -> float:
    """The coarser bound 2 log|D| + lambda/2 - 2*(m=1 sum): the shape with
    log(D^2) in place of the conductor and the higher powers dropped."""
    return 2.0 * math.log(abs(D)) + 0.5 * lam - 2.0 * m1
