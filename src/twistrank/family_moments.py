"""Weighted moment statistics of the explicit formula over a twist family.

The moment functional per twist is (total_S / lambda)^k, which by the
explicit formula equals [r_an + sum over nonzero-height zeros of sinc^2]^k.
Families are selected by a one-sided smooth weight W(D/T), optionally
restricted to squarefree D coprime to 2N (the regime where conductors are
exact and root numbers are defined).

A family is a set of numpy columns (Family): D and the twist invariants
from one squarefree sieve over the support, W, and the explicit-formula
columns from one batched prime side.  No object is built per twist; what
stays per element in Python is what numpy does not round as libm does:
math.exp in W (one kernel.weight_eval call per family), math.log of each
exact conductor, and the k-th power.  The statistics are exact sums over
the columns (arith.ExactSums: the floats
math.fsum gives, without its per-element loop); the weight column and the
weighted rank bounds are split into fixed point once per family, and every
total and masked sum of the reductions reads those two splits.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from functools import cached_property
from math import comb, fsum
from typing import Optional

import numpy as np

from .arith import ExactSums, PrimeTable, exact_sum
from .curve import CurveModel, Twists, twist_columns
from .explicit_formula import ExplicitFormulaTable, evaluate_reports
from .kernel import SmoothWeight, weight_eval

__all__ = [
    "MomentConfig",
    "MomentRow",
    "Family",
    "EmptyFamilyError",
    "X_k",
    "theoretical_moment_bound",
    "rank_density_bound",
    "lowzero_density_bound",
    "filter_twists",
    "family_twist_values",
    "sweep_family",
    "weighted_moment",
    "sign_partition_stats",
    "empirical_rank_tail",
    "GOLDFELD_K1",
    "HEATH_BROWN_K1",
    "RANK_DENSITY_BASE",
    "LOWZERO_DENSITY_BASE",
    "SINC_HALF_SQUARED",
]

# Reference constants for the k = 1 comparisons and the density bounds.
GOLDFELD_K1 = 3.25
HEATH_BROWN_K1 = 1.5
RANK_DENSITY_BASE = 1.44467
LOWZERO_DENSITY_BASE = 1.402408
SINC_HALF_SQUARED = 0.9193953884  # (sin(1/2) / (1/2))^2


class EmptyFamilyError(ValueError):
    """No twist survives the weight support and the filters."""


def X_k(x: float, k: int) -> float:
    """Family scale x^(k/2) * (log x)^(2k+2)."""
    if not x > 1.0:
        raise ValueError(f"x must exceed 1, got {x}")
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    return x ** (k / 2.0) * math.log(x) ** (2 * k + 2)


def theoretical_moment_bound(k: int) -> float:
    """(1/2) * [(k + 1/2 + 3^(-1/2))^k + (k + 1/2 - 3^(-1/2))^k].

    Evaluated through the even-power binomial expansion
    sum_j C(k, 2j) (k + 1/2)^(k-2j) / 3^j, which involves only rational
    powers of 3 and so returns exactly 1.5 at k = 1.
    """
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    c = k + 0.5
    return fsum(comb(k, 2 * j) * c ** (k - 2 * j) / 3**j for j in range(k // 2 + 1))


def rank_density_bound(R: float) -> float:
    """Density bound (1/2) * 1.44467^(-R) for twists of rank at least R."""
    if not R > 0:
        raise ValueError(f"R must be positive, got {R}")
    return 0.5 * RANK_DENSITY_BASE ** (-R)


def lowzero_density_bound(k: int) -> float:
    """Density bound 1.402408^(-k) for families with 3k-th zero very low."""
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    return LOWZERO_DENSITY_BASE ** (-k)


@dataclass(frozen=True)
class MomentConfig:
    """Parameters of one family sweep.

    T defaults to X_k(x, k).  A sign filter requires the squarefree and
    coprimality filters since the root number is only defined there.
    """

    curve: CurveModel
    k: int
    x: float
    weight: SmoothWeight
    T: Optional[float] = None
    squarefree_only: bool = True
    coprime_to_2N: bool = True
    sign: str = "any"  # any | plus | minus

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be a positive integer, got {self.k}")
        if not self.x > math.e:
            raise ValueError(f"x must exceed e, got {self.x}")
        if self.sign not in ("any", "plus", "minus"):
            raise ValueError(f"sign must be any/plus/minus, got {self.sign!r}")
        if self.sign != "any" and not (self.squarefree_only and self.coprime_to_2N):
            raise ValueError(
                "sign filters need squarefree_only and coprime_to_2N "
                "(root numbers are defined only there)"
            )
        if self.T is None:
            object.__setattr__(self, "T", X_k(self.x, self.k))
        if not self.T >= 1.0:
            raise ValueError(f"family scale T must be >= 1, got {self.T}")

    @property
    def lam(self) -> float:
        return math.log(self.x)

    def support_ds(self) -> range:
        """The D with D/T strictly inside the weight support, ascending."""
        first = math.floor(self.T * self.weight.support_lo) + 1
        last = math.ceil(self.T * self.weight.support_hi) - 1
        return range(first, last + 1)

    def filter_flags(self) -> str:
        parts = []
        if self.squarefree_only:
            parts.append("squarefree")
        if self.coprime_to_2N:
            parts.append("coprime")
        parts.append(f"sign={self.sign}")
        return "+".join(parts)


@dataclass(frozen=True)
class Family:
    """A twist family as columns, ascending in D: the twists, their weights
    W(D/T) and, once sweep_family has evaluated them, their explicit-formula
    columns (table, None before)."""

    twists: Twists
    weight: np.ndarray
    table: Optional[ExplicitFormulaTable] = None

    def __len__(self) -> int:
        return len(self.twists)

    def select(self, keep: np.ndarray) -> "Family":
        """The unevaluated family of the rows where keep holds."""
        return Family(self.twists.select(keep), self.weight[keep])

    @cached_property
    def weight_sums(self) -> ExactSums:
        """Exact sums of W over subsets of the rows; .total is the weighted count."""
        return ExactSums(self.weight)

    @cached_property
    def bound_sums(self) -> ExactSums:
        """Exact sums of W * rank_bound over subsets of the rows of a swept family."""
        return ExactSums(self.weight * self.table.rank_bound)


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


def family_twist_values(config: MomentConfig) -> Family:
    """The twists by every D != 0 inside the weight support with W(D/T) > 0
    that pass the filters, with their weights, ascending in D.  W is
    evaluated in one call over the twists the filters keep; sign filtering
    happens later, once root numbers exist."""
    twists = filter_twists(config.curve, config.support_ds(), config.squarefree_only, config.coprime_to_2N)
    family = Family(twists, weight_eval(config.weight, twists.D / config.T))
    return family.select(family.weight > 0.0)


def sweep_family(config: MomentConfig, primes: PrimeTable) -> Family:
    """Evaluate the explicit formula on every family member, ascending in D.

    The sign filter reads the root-number column before any prime-side work;
    the kept rows are evaluated as one batch.  Raises EmptyFamilyError when
    no twist survives.
    """
    family = family_twist_values(config)
    if config.sign != "any":
        family = family.select(family.twists.root_number == (1 if config.sign == "plus" else -1))
    if not len(family):
        raise EmptyFamilyError(
            f"no twist passes the filters for T={config.T}, support "
            f"({config.weight.support_lo}, {config.weight.support_hi})"
        )
    return replace(family, table=evaluate_reports(family.twists, config.lam, primes))


@dataclass(frozen=True)
class MomentRow:
    k: int
    x: float
    T: float
    filter_flags: str
    weighted_count: float
    family_size: int
    empirical_moment: float
    theoretical_bound: float

    @property
    def ratio(self) -> float:
        return self.empirical_moment / self.theoretical_bound

    def record(self) -> dict:
        """The output record: the fields in order, then the ratio."""
        return {**asdict(self), "ratio": self.ratio}


def weighted_moment(config: MomentConfig, family: Family) -> MomentRow:
    """Empirical weighted k-th moment of total_S/lambda over a swept family
    (nonempty, as sweep_family returns it)."""
    wsum = family.weight_sums.total
    if config.k == 1:  # b ** 1 is b: bound_sums saves a split, 1 ms of a 4,000-twist sweep
        msum = family.bound_sums.total
    else:
        powered = np.array([b ** config.k for b in family.table.rank_bound.tolist()], dtype=float)
        msum = exact_sum(powered * family.weight)
    return MomentRow(
        k=config.k,
        x=config.x,
        T=float(config.T),
        filter_flags=config.filter_flags(),
        weighted_count=wsum,
        family_size=len(family),
        empirical_moment=msum / wsum,
        theoretical_bound=theoretical_moment_bound(config.k),
    )


def sign_partition_stats(family: Family) -> dict:
    """Per-root-number averages of the rank bound plus the Markov-type
    fraction estimators, over a swept family.

    Writing A+ for the average bound over even twists, ranks there are even,
    so sum r >= 2 * (count with r >= 2) and the rank-0 fraction is at least
    1 - A+/2.  Over odd twists ranks are odd, sum (r - 1) >= 2 * (count with
    r >= 3), so the rank-1 fraction is at least (3 - A-)/2.  Both estimators
    are conservative because the rank bound majorizes the rank under GRH.
    Rows with root number 0 are counted as "undefined"; on a family without
    the squarefree and coprime filters that holds every unclean twist.
    """
    classes = (("plus", 1), ("minus", -1), ("undefined", 0))
    masks = [family.twists.root_number == sign for _, sign in classes]
    wsums = family.weight_sums.sums(masks)
    bsums = family.bound_sums.sums(masks)
    out: dict = {
        "family_size": len(family),
        "weighted_count": family.weight_sums.total,
        "derivation": (
            "rank0_fraction_lb = 1 - avg/2 (even ranks, Markov at 2); "
            "rank1_fraction_lb = (3 - avg)/2 (odd ranks, Markov at 3)"
        ),
    }
    for (name, sign), sel, wsum, bsum in zip(classes, masks, wsums, bsums):
        size = int(np.count_nonzero(sel))
        rec = {
            "family_size": size,
            "weighted_count": wsum,
            "avg_rank_bound": bsum / wsum if size else None,
        }
        if size and sign == 1:
            rec["rank0_fraction_lb"] = max(0.0, 1.0 - rec["avg_rank_bound"] / 2.0)
        if size and sign == -1:
            rec["rank1_fraction_lb"] = max(0.0, (3.0 - rec["avg_rank_bound"]) / 2.0)
        out[name] = rec
    return out


def empirical_rank_tail(family: Family, R: float) -> float:
    """Weighted fraction of a swept family with rank_bound >= R."""
    (tail,) = family.weight_sums.sums([family.table.rank_bound >= R])
    return tail / family.weight_sums.total
