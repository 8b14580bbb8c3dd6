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

from .arith import PrimeTable, kronecker, legendre_matrix
from .curve import CurveModel, TwistedCurve, ap_array, cpm
from .kernel import TriangleKernel, archimedean_integral, triangle

__all__ = [
    "ExplicitFormulaReport",
    "InsufficientPrimeTable",
    "prime_sides",
    "prime_side",
    "twist_report",
    "ef_total",
    "beta_array",
    "twisted_upper_bound",
    "report_record",
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


@dataclass(frozen=True)
class ExplicitFormulaReport:
    """One twist's explicit-formula decomposition.

    total_S reconstructs exactly as
    log_conductor - 2*(prime_m1 + prime_m2 + prime_tail) - archimedean,
    where archimedean = 2*integral + 2*log(2pi).  root_number is the
    twist's (see TwistedCurve), 0 where no sign is determined.
    """

    D: int
    lam: float
    log_conductor: float
    prime_sum_m1: float
    prime_sum_m2: float
    prime_sum_tail: float
    archimedean: float
    total_S: float
    rank_bound: float
    root_number: int
    conductor_exact: bool


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


def _term(c: int, p: int, m: int, lam: float, weight: float) -> float:
    """c (log p)/p^m F(m log p / lambda): for m = 1 c times the vectorized
    weight (log p)/p F, as in beta_array; for m >= 2 left to right from c."""
    if m == 1:
        return c * weight
    lp = math.log(p)
    return c * lp / p**m * triangle(m * lp / lam)


@dataclass(frozen=True)
class _PrimePlan:
    """The part of prime_side that does not depend on D.

    ``groups`` holds, for m = 1, m = 2 and m >= 3, each p^m < e^lambda with
    c_{p^m}(E) != 0 as (index of p in ``primes``, m, the term of
    c_{p^m}(E)).  At every prime, 2 and those dividing N included,
    c_{p^m}(E_D) = chi_D(p)^m c_{p^m}(E), so a twist only flips the sign of
    a term or zeroes it.
    """

    primes: np.ndarray
    groups: Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray], ...]


# Plans keyed by (curve, lambda, table limit): the table limit caps the primes
# below the cutoff, so the same (curve, lambda) can give different plans.
_PLAN_CACHE: Dict[tuple, _PrimePlan] = {}


def _prime_plan(E: CurveModel, lam: float, primes: PrimeTable, cutoff: float) -> _PrimePlan:
    key = (E, lam, primes.limit)
    if key in _PLAN_CACHE:
        return _PLAN_CACHE[key]
    ps = primes.below(cutoff)
    aps = ap_array(E, primes, cutoff)
    lp = np.log(ps.astype(float))
    weights = lp / ps.astype(float) * triangle(lp / lam)
    groups = [([], [], []) for _ in range(3)]
    for i, (p, a, weight) in enumerate(zip(ps.tolist(), aps.tolist(), weights.tolist())):
        m = 1
        while p**m < cutoff:
            c = a if m == 1 else cpm(E, p, m)
            if c:  # a zero coefficient adds +0.0 for every twist
                index, power, term = groups[min(m, 3) - 1]
                index.append(i)
                power.append(m)
                term.append(_term(c, p, m, lam, weight))
            m += 1
    plan = _PrimePlan(
        # a copy, so the cache does not pin the whole table
        primes=ps.copy(),
        groups=tuple(
            (np.array(i, dtype=np.int64), np.array(m, dtype=np.int64), np.array(t, dtype=float))
            for i, m, t in groups
        ),
    )
    _PLAN_CACHE[key] = plan
    return plan


# Cells of the character matrix evaluated at once, so that the temporaries of
# a batch stay O(_CHUNK_CELLS) whatever the number of twists: a family sweep at
# x = 1e3 peaked 1.2 MB (3.4%) above one twist at a time with 2^16 cells and
# 0.5 MB with 2^14, which ran as fast.
_CHUNK_CELLS = 1 << 14


def _chunk_sums(plan: _PrimePlan, ds: Sequence[int]) -> List[Tuple[float, float, float]]:
    """The three partial sums for each D of ds, over one character matrix."""
    chi = np.empty((len(ds), plan.primes.size), dtype=np.int8)
    if plan.primes.size:  # p = 2 leads the primes
        chi[:, 0] = [kronecker(D, 2) if D % 4 == 1 else 0 for D in ds]
        chi[:, 1:] = legendre_matrix(ds, plan.primes[1:])
    per_group = []
    for index, power, term in plan.groups:
        s = chi[:, index] ** power
        nonzero = s != 0
        values = (term * s)[nonzero].tolist()  # row-major: a twist's terms are contiguous
        ends = np.cumsum(nonzero.sum(axis=1)).tolist()
        per_group.append([math.fsum(values[a:b]) for a, b in zip([0] + ends, ends)])
    return list(zip(*per_group))


def prime_sides(
    twists: Sequence[TwistedCurve], kernel: TriangleKernel, primes: PrimeTable
) -> List[Tuple[float, float, float]]:
    """The m = 1, m = 2 and m >= 3 partial sums of the prime side for each
    twist, in the input order; the twists may have different base curves.

    Each is sum over p^m < e^lambda of c_{p^m}(E_D) (log p)/p^m *
    F(m log p / lambda), without the overall factor 2.  Everything but the
    character comes from the per-(curve, lambda) plan, and the characters
    of a batch come from one legendre_matrix call per chunk of twists, so
    every term is the same float the direct sum gives; exact compensated
    summation over each twist's nonzero terms makes the results independent
    of term order and of how the twists are batched.

    The character is chi_D(p) = (D|p) at odd p and, at p = 2, (D|2) for
    D = 1 mod 4 and 0 otherwise.  At a bad prime p > 3 the twisted model
    moves the node to D x0, so a_p(E_D) = (D|p) a_p(E); at 2 and 3 the
    twist's local data is chi_{d_K}(p) a_p(E) with d_K the discriminant of
    Q(sqrt(D)), which is the same character.
    """
    cutoff = _require_table(primes, kernel.lam)
    by_curve: Dict[CurveModel, List[int]] = {}
    for i, twist in enumerate(twists):
        by_curve.setdefault(twist.base, []).append(i)
    out: List[Tuple[float, float, float]] = [None] * len(twists)
    for curve, rows in by_curve.items():
        plan = _prime_plan(curve, kernel.lam, primes, cutoff)
        step = max(1, _CHUNK_CELLS // max(1, plan.primes.size))
        for start in range(0, len(rows), step):
            chunk = rows[start : start + step]
            for i, sums in zip(chunk, _chunk_sums(plan, [twists[i].D for i in chunk])):
                out[i] = sums
    return out


def prime_side(
    twist: TwistedCurve, kernel: TriangleKernel, primes: PrimeTable
) -> Tuple[float, float, float]:
    """prime_sides of the one twist."""
    return prime_sides([twist], kernel, primes)[0]


def twist_report(
    twist: TwistedCurve, kernel: TriangleKernel, sums: Tuple[float, float, float]
) -> ExplicitFormulaReport:
    """Assemble the full explicit-formula report of a twist from its
    prime-side sums (m1, m2, tail)."""
    lam = kernel.lam
    m1, m2, tail = sums
    log_n = math.log(twist.conductor_bound)
    arch = 2.0 * archimedean_integral(kernel) + 2.0 * math.log(2.0 * math.pi)
    total = log_n - 2.0 * (m1 + m2 + tail) - arch
    return ExplicitFormulaReport(
        D=twist.D,
        lam=lam,
        log_conductor=log_n,
        prime_sum_m1=m1,
        prime_sum_m2=m2,
        prime_sum_tail=tail,
        archimedean=arch,
        total_S=total,
        rank_bound=total / lam,
        root_number=twist.root_number,
        conductor_exact=twist.conductor_exact,
    )


def ef_total(
    twist: TwistedCurve, kernel: TriangleKernel, primes: PrimeTable
) -> ExplicitFormulaReport:
    """The full explicit-formula report for one twist."""
    return twist_report(twist, kernel, prime_side(twist, kernel, primes))


def twisted_upper_bound(report: ExplicitFormulaReport) -> float:
    """The coarser bound 2 log|D| + lambda/2 - 2*(m=1 sum): the shape with
    log(D^2) in place of the conductor and the higher powers dropped."""
    if report.D == 0:
        raise ValueError("undefined for D = 0")
    return 2.0 * math.log(abs(report.D)) + 0.5 * report.lam - 2.0 * report.prime_sum_m1


def report_record(r: ExplicitFormulaReport) -> dict:
    """One output record: the CSV_COLUMNS fields in order, then the derived
    coarse bound, which only the JSON output carries."""
    return {
        "D": r.D,
        "lambda": r.lam,
        "log_conductor": r.log_conductor,
        "conductor_exact": r.conductor_exact,
        "prime_m1": r.prime_sum_m1,
        "prime_m2": r.prime_sum_m2,
        "prime_tail": r.prime_sum_tail,
        "archimedean": r.archimedean,
        "total_S": r.total_S,
        "rank_bound": r.rank_bound,
        "root_number": r.root_number,
        "twisted_upper_bound": twisted_upper_bound(r),
    }
