"""Weighted moment statistics of the explicit formula over a twist family.

The moment functional per twist is (total_S / lambda)^k, which by the
explicit formula equals [r_an + sum over nonzero-height zeros of sinc^2]^k.
Families are selected by a one-sided smooth weight W(D/T), optionally
restricted to squarefree D coprime to 2N (the regime where conductors are
exact and root numbers are defined).

A family is walked once, in consecutive windows of D (family_windows):
per window one squarefree sieve, W over the twists the filters keep, the
rows of weight 0 and of the other sign dropped, one batched prime side, and
the rows folded into the exact sums the statistics read (FamilySums,
carried across windows as integers: the floats math.fsum gives over the
whole family).  No object is built per twist, and no column outlives its
window.  What stays per element in Python is what numpy does not round as
libm does: math.exp in W, math.log of each exact conductor, and the k-th
power.
"""

from __future__ import annotations

import math
from collections import namedtuple
from math import comb, fsum
from typing import Iterator, Optional

import numpy as np

from .arith import ExactSums, PrimeTable, ResidueTables
from .curve import CurveModel, filter_twists
from .explicit_formula import ExplicitFormulaTable, evaluate_reports, twist_windows
from .kernel import SmoothWeight, weight_eval

__all__ = [
    "MomentConfig",
    "MomentRow",
    "FamilySums",
    "EmptyFamilyError",
    "X_k",
    "theoretical_moment_bound",
    "rank_density_bound",
    "lowzero_density_bound",
    "filter_twists",
    "family_windows",
    "sweep_family",
    "weighted_moment",
    "sign_partition_stats",
    "empirical_rank_tail",
    "GOLDFELD_K1",
    "HEATH_BROWN_K1",
    "RANK_DENSITY_BASE",
    "LOWZERO_DENSITY_BASE",
    "SINC_HALF_SQUARED",
    "RANK_TAIL_LEVELS",
]

# Reference constants for the k = 1 comparisons and the density bounds.
GOLDFELD_K1 = 3.25
HEATH_BROWN_K1 = 1.5
RANK_DENSITY_BASE = 1.44467
LOWZERO_DENSITY_BASE = 1.402408
SINC_HALF_SQUARED = 0.9193953884  # (sin(1/2) / (1/2))^2

# The root-number classes of sign_partition_stats; the levels R of empirical_rank_tail.
ROOT_CLASSES = (("plus", 1), ("minus", -1), ("undefined", 0))
RANK_TAIL_LEVELS = (0, 1, 2)


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


class MomentConfig(namedtuple("MomentConfig", "curve k x weight T squarefree_only coprime_to_2N sign")):
    """Parameters of one family sweep.

    T defaults to X_k(x, k).  A sign filter requires the squarefree and
    coprimality filters since the root number is only defined there.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates too

    def __new__(
        cls,
        curve: CurveModel,
        k: int,
        x: float,
        weight: SmoothWeight,
        T: Optional[float] = None,
        squarefree_only: bool = True,
        coprime_to_2N: bool = True,
        sign: str = "any",  # any | plus | minus
    ):
        if k < 1:
            raise ValueError(f"k must be a positive integer, got {k}")
        if not x > math.e:
            raise ValueError(f"x must exceed e, got {x}")
        if sign not in ("any", "plus", "minus"):
            raise ValueError(f"sign must be any/plus/minus, got {sign!r}")
        if sign != "any" and not (squarefree_only and coprime_to_2N):
            raise ValueError(
                "sign filters need squarefree_only and coprime_to_2N "
                "(root numbers are defined only there)"
            )
        if T is None:
            T = X_k(x, k)
        if not T >= 1.0:
            raise ValueError(f"family scale T must be >= 1, got {T}")
        return super().__new__(cls, curve, k, x, weight, T, squarefree_only, coprime_to_2N, sign)

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


class FamilySums:
    """The exact sums (arith.ExactSums) a swept family's statistics read, its
    rows added a window at a time: with B the rank bound and W the weight, the
    count, W, W*B and, for k > 1, W*B^k over every row; per root number (+1,
    -1, 0) the count, W and W*B; and W over the rows with B >= R, R in
    RANK_TAIL_LEVELS."""

    def __init__(self, k: int):
        self.k, self.size, self.class_sizes = k, 0, [0] * len(ROOT_CLASSES)
        self.weight = ExactSums(1 + len(ROOT_CLASSES) + len(RANK_TAIL_LEVELS))  # all, classes, tails
        self.bound = ExactSums(1 + len(ROOT_CLASSES))  # all, classes
        self.power = ExactSums(1)

    def add(self, weight: np.ndarray, table: ExplicitFormulaTable) -> None:
        """Fold in the rows of one evaluated window, weight aligned with table."""
        bound = table.rank_bound
        classes = [table.twists.root_number == sign for _, sign in ROOT_CLASSES]
        self.size += len(table)
        self.class_sizes = [n + int(np.count_nonzero(sel)) for n, sel in zip(self.class_sizes, classes)]
        self.weight.add(weight, [None, *classes, *(bound >= R for R in RANK_TAIL_LEVELS)])
        self.bound.add(weight * bound, [None, *classes])
        if self.k > 1:
            self.power.add(np.array([b**self.k for b in bound.tolist()], dtype=float) * weight, [None])


def family_windows(config: MomentConfig, primes: PrimeTable) -> Iterator[tuple]:
    """(weight, table) per window (twist_windows) of the twists by every D != 0
    in the weight support with W(D/T) > 0 that pass the filters, sign included,
    ascending in D.  W is one call over the twists a window's filters keep; the
    sign filter reads the root numbers before any prime-side work."""
    flags = (config.squarefree_only, config.coprime_to_2N)
    tables = ResidueTables()  # each residue table built once for every window
    for twists in twist_windows(config.curve, config.support_ds(), *flags, config.x):
        weight = weight_eval(config.weight, twists.D / config.T)
        keep = weight > 0.0
        if config.sign != "any":
            keep &= twists.root_number == (1 if config.sign == "plus" else -1)
        if keep.any():
            yield weight[keep], evaluate_reports(twists.select(keep), config.lam, primes, tables)


def sweep_family(config: MomentConfig, primes: PrimeTable) -> FamilySums:
    """The sums of the family (family_windows), each window folded in as it
    is evaluated.  Raises EmptyFamilyError when no twist survives."""
    sums = FamilySums(config.k)
    for weight, table in family_windows(config, primes):
        sums.add(weight, table)
    if not sums.size:
        raise EmptyFamilyError(
            f"no twist passes the filters for T={config.T}, support "
            f"({config.weight.support_lo}, {config.weight.support_hi})"
        )
    return sums


class MomentRow(
    namedtuple(
        "MomentRow",
        "k x T filter_flags weighted_count family_size empirical_moment theoretical_bound",
    )
):
    __slots__ = ()

    @property
    def ratio(self) -> float:
        return self.empirical_moment / self.theoretical_bound

    def record(self) -> dict:
        """The output record: the fields in order, then the ratio."""
        return {**self._asdict(), "ratio": self.ratio}


def weighted_moment(config: MomentConfig, family: FamilySums) -> MomentRow:
    """Empirical weighted k-th moment of total_S/lambda over a swept family
    (nonempty, as sweep_family returns it)."""
    wsum = family.weight.totals()[0]
    msum = (family.power if config.k > 1 else family.bound).totals()[0]
    return MomentRow(
        k=config.k,
        x=config.x,
        T=float(config.T),
        filter_flags=config.filter_flags(),
        weighted_count=wsum,
        family_size=family.size,
        empirical_moment=msum / wsum,
        theoretical_bound=theoretical_moment_bound(config.k),
    )


def sign_partition_stats(family: FamilySums) -> dict:
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
    weights = family.weight.totals()
    bounds = family.bound.totals()
    out: dict = {
        "family_size": family.size,
        "weighted_count": weights[0],
        "derivation": (
            "rank0_fraction_lb = 1 - avg/2 (even ranks, Markov at 2); "
            "rank1_fraction_lb = (3 - avg)/2 (odd ranks, Markov at 3)"
        ),
    }
    for i, (name, sign) in enumerate(ROOT_CLASSES):
        size, wsum, bsum = family.class_sizes[i], weights[1 + i], bounds[1 + i]
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


def empirical_rank_tail(family: FamilySums, R: float) -> float:
    """Weighted fraction of a swept family with rank_bound >= R, for R in
    RANK_TAIL_LEVELS (ValueError otherwise)."""
    weights = family.weight.totals()
    return weights[1 + len(ROOT_CLASSES) + RANK_TAIL_LEVELS.index(R)] / weights[0]
