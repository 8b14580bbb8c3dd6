"""Numerical verification of the auxiliary identities at desk scale.

Identity checks (Gauss sums, the CRT-factored character sum, Poisson
summation) compare an independent enumeration or quadrature against a
closed form at tight tolerances.  Average and envelope checks (Rankin
averages, Fourier decay, the truncated multivariable Q-sums and their bound
shapes) compare against asymptotic targets with fitted constants; a
violation within 10x of a fitted envelope is reported as a warning, beyond
10x as a failure.
"""

from __future__ import annotations

import cmath
import math
import random
from collections import Counter
from math import fsum, gcd
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .arith import (
    PrimeTable,
    _factorisation,
    _squares_mod,
    euler_phi,
    is_squarefree,
    kronecker,
    mobius,
    parity_decompose,
)
from .kernel import (
    SmoothWeight,
    _require_wl_params,
    triangle,
    weight_eval,
    weight_fourier,
    weight_fourier_derivative,
    weight_l_eval,
)

# curve and explicit_formula load inside the checks that read a_p (Rankin,
# Hasse, Q-sum, step1, logderiv), so the Gauss, j-sum and Poisson checks do
# not pay for them
if TYPE_CHECKING:
    from .curve import CurveModel

__all__ = [
    "CheckResult",
    "PoissonTruncationError",
    "rankin_linear_check",
    "rankin_square_check",
    "hasse_check",
    "gauss_sum_check",
    "jsum_crt_check",
    "poisson_check",
    "poisson_required_truncation",
    "wl_decay_check",
    "fit_weight_gamma",
    "q_term",
    "q_sum",
    "step1_sum",
    "logderiv_partial",
    "run_suite",
    "SUITE_GROUPS",
]

SOFT_FAIL_FACTOR = 10.0  # envelope violations beyond this factor are fatal


class CheckResult:
    """Outcome of one verification check.

    ``passed`` is a pure function of computed, reference and the check's
    declared tolerance; ``note`` carries soft-pass warnings (an envelope
    exceeded by less than SOFT_FAIL_FACTOR).
    """

    __slots__ = ("name", "computed", "reference", "ratio_or_error", "passed", "parameters", "note")

    def __init__(self, name, computed, reference, ratio_or_error, passed, parameters=None, note=""):
        self.name, self.computed, self.reference = name, computed, reference
        self.ratio_or_error, self.passed, self.note = ratio_or_error, passed, note
        self.parameters = {} if parameters is None else parameters

    def to_json_dict(self) -> dict:
        def enc(v):
            if isinstance(v, complex):
                return {"re": v.real, "im": v.imag}
            return v

        return {
            "name": self.name,
            "computed": enc(self.computed),
            "reference": enc(self.reference),
            "ratio_or_error": self.ratio_or_error,
            "pass": self.passed,
            "parameters": self.parameters,
            "note": self.note,
        }


# ---------------------------------------------------------------------------
# Rankin-Selberg averages


def rankin_linear_check(curve: CurveModel, x: float, primes: PrimeTable) -> CheckResult:
    """sum_{p<x} c_{p^2} (log p)/p against -x.

    The ratio tends to 1 as x grows; the [0.75, 1.25] pass band is
    calibrated for x = 1e5 and convergence is slow below that.
    """
    from .curve import cpm
    from .explicit_formula import _require_table

    if not x >= 1e3:
        raise ValueError(f"rankin_linear_check needs x >= 1e3, got {x}")
    _require_table(primes, math.log(x))
    pf = primes.below(x).astype(float)
    computed = fsum((cpm(curve, primes, x, 2) * np.log(pf) / pf).tolist())
    reference = -x
    ratio = computed / reference
    return CheckResult(
        name=f"rankin_linear[{curve.label},x={x:g}]",
        computed=computed,
        reference=reference,
        ratio_or_error=ratio,
        passed=0.75 <= ratio <= 1.25,
        parameters={"curve": curve.label, "x": x, "band": [0.75, 1.25]},
    )


def rankin_square_check(curve: CurveModel, lam: float, primes: PrimeTable) -> CheckResult:
    """sum_p a_p^2 (log p)^2 / p^2 * F(log p / lam)^2 against lam^2 / 12.

    Band [0.7, 1.3], calibrated at lam = log(1e5).
    """
    from .curve import ap_array
    from .explicit_formula import _require_table

    cutoff = _require_table(primes, lam)
    ps = primes.below(cutoff)
    aps = ap_array(curve, primes, cutoff).astype(float)
    pf = ps.astype(float)
    lp = np.log(pf)
    fv = triangle(lp / lam)
    computed = fsum((aps * aps * lp * lp / (pf * pf) * fv * fv).tolist())
    reference = lam * lam / 12.0
    ratio = computed / reference
    return CheckResult(
        name=f"rankin_square[{curve.label},lam={lam:.4g}]",
        computed=computed,
        reference=reference,
        ratio_or_error=ratio,
        passed=0.7 <= ratio <= 1.3,
        parameters={"curve": curve.label, "lam": lam, "band": [0.7, 1.3]},
    )


def hasse_check(curve: CurveModel, x: float, primes: PrimeTable) -> CheckResult:
    """Hasse's bound a_p^2 <= 4p, in integers, at every prime p < x of the
    ap_array table; reports the largest a_p^2 / (4p)."""
    from .curve import ap_array

    ps = primes.below(x)
    aps = ap_array(curve, primes, x)
    computed = float((aps * aps / (4.0 * ps)).max(initial=0.0))
    return CheckResult(
        name=f"hasse[{curve.label},x={x:g}]",
        computed=computed,
        reference=1.0,
        ratio_or_error=computed,
        passed=bool(np.all(aps * aps <= 4 * ps)),
        parameters={"curve": curve.label, "x": x, "primes": int(ps.size)},
    )


# ---------------------------------------------------------------------------
# Quadratic Gauss sums and the CRT-factored character sum


def _chi_table(q: int) -> np.ndarray:
    """(j|q) for j = 0 .. q - 1 and an odd q >= 1: the product over the
    p^k || q of the residue table _squares_mod(p) at j mod p, to the k."""
    j = np.arange(q)
    chi = np.ones(q, dtype=np.int64)
    for p, k in _factorisation(q):
        chi *= _squares_mod(p)[j % p] ** k
    return chi


def gauss_sum_check(q: int, m: int, _chi: Optional[np.ndarray] = None) -> CheckResult:
    """Direct enumeration of sum_j (j|q) e(mj/q) over the residue tables
    (_chi_table; a caller passing _chi checked q squarefree) against the
    classical (m|q) * eps_q * sqrt(q), eps_q = 1 (q = 1 mod 4) or i.
    """
    if q < 1 or q % 2 == 0:
        raise ValueError(f"modulus must be odd and positive, got {q}")
    if _chi is None and not is_squarefree(q):
        raise ValueError(f"modulus must be squarefree, got {q}")
    chi = _chi if _chi is not None else _chi_table(q)
    j = np.arange(q)
    computed = complex(np.sum(chi * np.exp(2j * np.pi * m / q * j)))
    eps = 1.0 if q % 4 == 1 else 1j
    reference = kronecker(m, q) * eps * math.sqrt(q)
    err = abs(computed - reference)
    tol = 1e-9 * math.sqrt(q)
    return CheckResult(
        name=f"gauss[q={q},m={m}]",
        computed=computed,
        reference=reference,
        ratio_or_error=err,
        passed=err <= tol,
        parameters={"q": q, "m": m, "tol": tol},
    )


def jsum_crt_check(tuple_primes: Sequence[int], m: int) -> CheckResult:
    """The j-sum of the Poisson step against its CRT factorization.

    Enumerated side: sum over j mod pi1*pi2 of prod_i (j|p_i) * e(mj/(pi1*pi2)),
    the product character (from the residue tables) carrying the implicit
    coprimality to pi1.  Closed side, for delta_2 = gcd(pi2, m):

        0                                                if delta_2 > 1,
        mu(pi1') phi(delta_1) (pi1|pi2) (m|pi2) eps * sqrt(pi2)  otherwise,

    with delta_1 = gcd(pi1, m), pi1' = pi1/delta_1 and the classical
    eps in {1, i}.  (The textbook display of this factorization quotes
    delta_1 for the Ramanujan factor and drops the unit (pi1|pi2); the
    enumeration is the ground truth and fixes both.)  Requires pi2 > 1 and
    odd: tuples come from sums over odd primes, so 2 may appear only with
    even multiplicity.
    """
    if m == 0:
        raise ValueError("m must be nonzero")
    pd = parity_decompose(tuple_primes)
    if pd.pi2 == 1:
        raise ValueError("square product (pi2 = 1) is filtered out")
    if pd.pi2 % 2 == 0:
        raise ValueError("pi2 must be odd (2 may only appear with even multiplicity)")
    Q = pd.pi1 * pd.pi2
    j = np.arange(Q)
    total = np.ones(Q, dtype=np.int64)
    for p, e in sorted(Counter(int(t) for t in tuple_primes).items()):
        total *= _squares_mod(p)[j % p] if e % 2 else j % p != 0
    computed = complex(np.sum(total * np.exp(2j * np.pi * m / Q * j)))

    delta1 = gcd(pd.pi1, abs(m))
    delta2 = gcd(pd.pi2, abs(m))
    if delta2 > 1:
        reference = 0j
    else:
        pi1p = pd.pi1 // delta1
        eps = 1.0 if pd.pi2 % 4 == 1 else 1j
        reference = (
            mobius(pi1p)
            * euler_phi(delta1)
            * kronecker(pd.pi1, pd.pi2)
            * kronecker(m, pd.pi2)
            * eps
            * math.sqrt(pd.pi2)
        )
    err = abs(computed - reference)
    tol = 1e-9 * math.sqrt(Q)
    return CheckResult(
        name=f"jsum[{tuple(int(t) for t in tuple_primes)},m={m}]",
        computed=computed,
        reference=reference,
        ratio_or_error=err,
        passed=err <= tol,
        parameters={
            "pi1": pd.pi1,
            "pi2": pd.pi2,
            "delta1": delta1,
            "delta2": delta2,
            "tol": tol,
        },
    )


# ---------------------------------------------------------------------------
# Poisson summation and Fourier decay of the weight


class PoissonTruncationError(ValueError):
    """The requested truncation leaves a tail above the 1e-8 target."""

    def __init__(self, required: int, got: int):
        super().__init__(
            f"truncation {got} insufficient: the decay bound needs at least {required} terms"
        )
        self.required = required


# Fitted constants, computed once per process: the key starts with the name
# of the check the constant belongs to.
_FITS: Dict[tuple, float] = {}


def _fitted(key: tuple, compute: Callable[[], float]) -> float:
    """The constant cached under ``key``, computed on first use."""
    if key not in _FITS:
        _FITS[key] = compute()
    return _FITS[key]


_GAMMA_HEADROOM = 4.0  # covers the 2^l slack between the fitted l=0 shape and l <= 3
_GAMMA_GRID = (
    0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 12.0,
    14.0, 16.0, 20.0, 24.0, 32.0, 48.0, 64.0, 96.0,
)
# Decay rate k of the envelope gamma * lfac * min(1, |t|^-k).  Only the 'exp'
# bump has a transform (kernel.weight_fourier), so there is one rate.  That
# C^inf bump decays faster than any power, but past t ~ 75 its transform nears
# the roundoff of a double-precision quadrature (~1e-15, the floor of QAWO;
# 1.8e-18 at 96); at k = 8 that level times 96^8 stays far below the fitted
# peak near t = 9, so the fit follows the transform, not the roundoff at the
# top of the grid.
_DECAY_RATE = 8


def _decay_shape(t: float) -> float:
    """min(1, |t|^-k) with the decay rate k = _DECAY_RATE."""
    return min(1.0, abs(t) ** -_DECAY_RATE) if t else 1.0


def fit_weight_gamma(w: SmoothWeight) -> float:
    """Fit the decay constant gamma so that |W|, |hat(W_0)| and
    |hat(W_0)'| all stay below gamma * min(1, |t|^-k), with the decay rate
    k = _DECAY_RATE (8).

    Fitted once per support on a fixed grid (with headroom for the
    l-dependent factors), then frozen; used by the decay and truncation
    bounds.
    """

    def fit() -> float:
        base = SmoothWeight(w.support_lo, w.support_hi, w.shape)
        gamma = 1.0  # |W| <= 1 on its support inside [-1, 1]
        for t in _GAMMA_GRID:
            shape = _decay_shape(t)
            gamma = max(
                gamma,
                abs(weight_fourier(base, t, 0)) / shape,
                abs(weight_fourier_derivative(base, t, 0)) / shape,
            )
        return gamma * _GAMMA_HEADROOM

    return _fitted(("gamma", w.support_lo, w.support_hi, w.shape), fit)


def _l_factor(w: SmoothWeight, l: int) -> float:
    if l == 0:
        return 1.0
    x, X_k = _require_wl_params(w, l)
    return max(1, l**3) * (math.log(X_k) + math.log(x)) ** l


def poisson_required_truncation(w: SmoothWeight, l: int, q: int, j: int = 0) -> int:
    """Smallest transform-side truncation M whose tail
    sum_{|m| > M} (T/q) |hat(W_l)(T m / q)| stays below 1e-8.

    With the envelope gamma * lfac * |t|^-k of ``fit_weight_gamma`` the tail
    is at most 2 gamma lfac (q/T)^(k-1) M^(1-k) / (k-1), so

        M = ceil((q/T) * (2 gamma lfac 1e8 / (k-1))^(1/(k-1))),

    and at least ceil(q/T) + 1 so that every tail frequency is >= 1, where
    the envelope applies.  The sampled side sums the support exactly and
    needs no truncation, so M does not depend on j (kept for callers).
    """
    if w.X_k is None:
        raise ValueError("the weight needs X_k (the lattice scale T)")
    T = w.X_k
    k = _DECAY_RATE
    gamma = fit_weight_gamma(w)
    m_tail = math.ceil(q / T * (2.0 * gamma * _l_factor(w, l) * 1e8 / (k - 1)) ** (1.0 / (k - 1)))
    return max(m_tail, math.ceil(q / T) + 1)


def poisson_check(
    w: SmoothWeight,
    l: int,
    q: int,
    j: int,
    truncation: int,
    fourier_cache: Optional[Dict[int, complex]] = None,
) -> CheckResult:
    """Two-sided Poisson summation identity

        sum_m W_l((j + m q)/T)  =  (T/q) sum_m hat(W_l)(T m / q) e(m j / q)

    with T = X_k.  The left side is exact: W_l vanishes outside its support,
    so it sums the lattice points of the support and nothing else.
    ``truncation`` bounds the right side, |m| <= truncation; one whose tail
    estimate exceeds 1e-8 (see ``poisson_required_truncation``) is refused.
    A cache mapping m >= 0 to hat(W_l)(T m / q) may be shared across j for
    fixed (weight, l, q).
    """
    if q < 1:
        raise ValueError(f"q must be positive, got {q}")
    required = poisson_required_truncation(w, l, q, j)
    if truncation < required:
        raise PoissonTruncationError(required=required, got=truncation)
    T = w.X_k
    # every m whose point (j + m q)/T can lie in the support (lo, hi)
    ms = np.arange(math.floor((T * w.support_lo - j) / q), math.ceil((T * w.support_hi - j) / q) + 1)
    lhs = fsum(weight_l_eval(w, (j + ms * q) / T, l).tolist())

    if fourier_cache is None:
        fourier_cache = {}
    rhs = 0j
    for m in range(0, truncation + 1):
        val = fourier_cache.get(m)
        if val is None:
            val = weight_fourier(w, T * m / q, l)
            fourier_cache[m] = val
        if m == 0:
            rhs += val
        else:
            z = cmath.exp(2j * math.pi * m * j / q)
            rhs += val * z + val.conjugate() * z.conjugate()
    rhs *= T / q
    err = abs(lhs - rhs)
    tol = 1e-6 * max(1.0, abs(rhs))
    return CheckResult(
        name=f"poisson[q={q},j={j},l={l}]",
        computed=lhs,
        reference=rhs,
        ratio_or_error=err,
        passed=err <= tol,
        parameters={"q": q, "j": j, "l": l, "T": T, "truncation": truncation},
    )


_DECAY_GRID = (0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 12.0, 20.0, 35.0, 60.0, 100.0)


def wl_decay_check(w: SmoothWeight, l: int, x: float, X_k: float) -> CheckResult:
    """|W|, |hat(W_l)| and |hat(W_l)'| against
    gamma * l^3 * (log X_k + log x)^l * min(1, |t|^-k) on |t| <= 100,
    with gamma from ``fit_weight_gamma`` and k = _DECAY_RATE."""
    wl = SmoothWeight(w.support_lo, w.support_hi, w.shape, l, x, X_k)
    gamma = fit_weight_gamma(w)
    lfac = _l_factor(wl, l)
    worst = 0.0
    worst_at = 0.0
    for t, weight in zip(_DECAY_GRID, weight_eval(wl, np.array(_DECAY_GRID)).tolist()):
        bound = gamma * lfac * _decay_shape(t)
        measured = max(
            abs(weight),
            abs(weight_fourier(wl, t, l)),
            abs(weight_fourier_derivative(wl, t, l)),
        )
        if measured / bound > worst:
            worst = measured / bound
            worst_at = t
    return CheckResult(
        name=f"wl_decay[l={l}]",
        computed=worst,
        reference=1.0,
        ratio_or_error=worst,
        passed=worst <= 1.0,
        parameters={"l": l, "x": x, "X_k": X_k, "gamma": gamma, "worst_at": worst_at},
    )


# ---------------------------------------------------------------------------
# Truncated multivariable sums


def _sorted_beta_product(tuple_primes: Sequence[int], beta_map: Dict[int, float]) -> float:
    # ascending-prime fold keeps the product bitwise identical for every
    # ordering of the same multiset
    prod = 1.0
    for p in sorted(int(t) for t in tuple_primes):
        prod *= beta_map.get(p, 0.0)
    return prod


def _pi1_divisors(pi1_primes: Sequence[int]) -> List[int]:
    divs = [1]
    for p in pi1_primes:
        divs += [d * p for d in divs]
    return sorted(divs)


def q_term(
    tuple_primes: Sequence[int], n: int, sign: int, beta_map: Dict[int, float]
) -> float:
    """One term of the conditional multivariable sum:

        Q(p_1..p_r, n) = beta_{p_1} ... beta_{p_r}
                         * sum_{d1 | pi1} (sign * n * d1 | pi2) / sqrt(pi1/d1).

    ``beta_map`` maps each prime p < x to its weight from ``beta_array``; a
    prime it lacks lies at or past the cutoff x, where the weight is 0.
    Requires every p_j coprime to n and pi2 > 1 (square products are the
    unconditional regime and are filtered out).
    """
    if n == 0:
        raise ValueError("n must be nonzero")
    if sign not in (1, -1):
        raise ValueError("sign must be +-1")
    pd = parity_decompose(tuple_primes)
    if pd.pi2 == 1:
        raise ValueError("square product (pi2 = 1) is filtered out of the Q-sum")
    for p in tuple_primes:
        if n % int(p) == 0:
            raise ValueError(f"prime {p} divides n = {n}")
    bprod = _sorted_beta_product(tuple_primes, beta_map)
    if bprod == 0.0:
        return 0.0
    counts = Counter(int(t) for t in tuple_primes)
    pi1_primes = sorted(p for p, e in counts.items() if e % 2 == 0)
    dsum = fsum(
        kronecker(sign * n * d1, pd.pi2) / math.sqrt(pd.pi1 // d1)
        for d1 in _pi1_divisors(pi1_primes)
    )
    return bprod * dsum


def _beta_map(curve: CurveModel, x: float, primes: PrimeTable) -> Dict[int, float]:
    from .explicit_formula import beta_array

    ps = primes.below(x)
    betas = beta_array(curve, x, primes)
    return {int(p): float(b) for p, b in zip(ps, betas)}


def _tuples_upto(plist: List[int], r: int, U: float, prefix: tuple = (), prod: int = 1):
    """Ordered r-tuples of entries from the ascending plist with product <= U."""
    for p in plist:
        if prod * p > U:
            break
        if r == 1:
            yield prefix + (p,)
        else:
            yield from _tuples_upto(plist, r - 1, U, prefix + (p,), prod * p)


def _fit_envelope(values: List[float], shapes: List[float], floor: float) -> float:
    c = floor
    for v, s in zip(values, shapes):
        c = max(c, abs(v) / s)
    return c


def _envelope_check(name: str, computed, reference: float, parameters: dict) -> CheckResult:
    """|computed| against a fitted envelope: within it passes, within
    SOFT_FAIL_FACTOR times it passes with a warning, beyond that fails."""
    ratio = abs(computed) / reference
    return CheckResult(
        name=name,
        computed=computed,
        reference=reference,
        ratio_or_error=ratio,
        passed=ratio <= SOFT_FAIL_FACTOR,
        parameters=parameters,
        note="" if ratio <= 1.0 else f"envelope exceeded by {ratio:.2f}x (soft)",
    )


def q_sum(
    r: int,
    n: int,
    U: float,
    x: float,
    curve: CurveModel,
    primes: PrimeTable,
    sign: int = 1,
) -> CheckResult:
    """Exact enumeration of sum over p_1..p_r <= U (pi2 > 1, p_j coprime
    to n) of Q(p_1..p_r, n) against the fitted envelope

        c^r (log N + 3 log|n| + 3 log(U+2))^r (log x)^(2r+1)

    with c fitted once at r = 1 (so r = 1 passes by construction and
    r > 1 exercises the bound shape).  Soft pass: a violation within 10x
    is a warning, beyond 10x a failure.
    """
    if r > 3:
        raise ValueError("cost refusal: q_sum enumerates r <= 3 only")
    if r < 1:
        raise ValueError("r must be positive")
    if n == 0:
        raise ValueError("n must be nonzero")
    if U > x**r * (1 + 1e-9):
        raise ValueError(f"U = {U} exceeds x^r = {x**r}")
    bmap = _beta_map(curve, x, primes)
    all_primes = sorted(bmap)

    def raw(rr: int, nn: int, UU: float) -> float:
        plist = [p for p in all_primes if nn % p != 0]
        terms = []
        for tup in _tuples_upto(plist, rr, UU):
            if parity_decompose(tup).pi2 == 1:
                continue
            terms.append(q_term(tup, nn, sign, bmap))
        return fsum(terms)

    logx = math.log(x)
    logn_shape = lambda nn, UU: (
        math.log(curve.conductor) + 3.0 * math.log(abs(nn)) + 3.0 * math.log(UU + 2.0)
    )

    def fit() -> float:
        vals, shapes = [], []
        for nn in (1, 2, 5):
            for UU in (x, math.sqrt(x) + 2):
                vals.append(raw(1, nn, UU))
                shapes.append(logn_shape(nn, UU) * logx**3)
        return _fit_envelope(vals, shapes, floor=0.02)

    c = _fitted(("qsum", curve, primes.limit, float(x), sign), fit)
    return _envelope_check(
        f"qsum[r={r},n={n},U={U:g}]",
        raw(r, n, U),
        c**r * logn_shape(n, U) ** r * logx ** (2 * r + 1),
        {"r": r, "n": n, "U": U, "x": x, "sign": sign, "c_fitted": c},
    )


def step1_sum(r: int, U: float, x: float, curve: CurveModel, primes: PrimeTable) -> CheckResult:
    """Exact enumeration of sum over p_1..p_r <= U of beta_{p_1}...beta_{p_r}
    against the fitted envelope (eps e)^r (log N + log(U+2))^r (log x)^(2r+1).
    Soft pass as in q_sum."""
    if r > 3:
        raise ValueError("cost refusal: step1_sum enumerates r <= 3 only")
    if r < 1:
        raise ValueError("r must be positive")
    if U > x**r * (1 + 1e-9):
        raise ValueError(f"U = {U} exceeds x^r = {x**r}")
    bmap = _beta_map(curve, x, primes)
    plist = sorted(bmap)

    def raw(rr: int, UU: float) -> float:
        return fsum(
            _sorted_beta_product(tup, bmap) for tup in _tuples_upto(plist, rr, UU)
        )

    logx = math.log(x)
    shape = lambda UU: (math.log(curve.conductor) + math.log(UU + 2.0)) * logx**3

    def fit() -> float:
        cal_u = [x, math.sqrt(x) + 2, min(x * x, primes.limit)]
        return _fit_envelope([raw(1, u) for u in cal_u], [shape(u) for u in cal_u], floor=0.02)

    ee = _fitted(("step1", curve, primes.limit, float(x)), fit)
    return _envelope_check(
        f"step1[r={r},U={U:g}]",
        raw(r, U),
        ee**r * ((math.log(curve.conductor) + math.log(U + 2.0)) ** r) * logx ** (2 * r + 1),
        {"r": r, "U": U, "x": x, "eps_e_fitted": ee},
    )


def logderiv_partial(
    curve: CurveModel, sigma: float, t: float, x: float, primes: PrimeTable
) -> CheckResult:
    """|sum_{p<x} a_p (log p) p^(-s) F(log p / log x)| at s = sigma + it
    against the fitted envelope eps (log N + log(|s|+2)) log^2 x,
    for 1 + 1/log x <= sigma <= 2.  Soft pass."""
    from .curve import ap_array
    from .explicit_formula import _require_table

    logx = math.log(x)
    if not (1.0 + 1.0 / logx - 1e-12 <= sigma <= 2.0 + 1e-12):
        raise ValueError(f"sigma must lie in [1 + 1/log x, 2], got {sigma}")
    _require_table(primes, logx)
    lp = np.log(primes.below(x).astype(float))
    alp = ap_array(curve, primes, x) * lp
    fv = triangle(lp / logx)

    def partial(s: complex) -> complex:
        terms = alp * np.exp(-s * lp) * fv
        return complex(fsum(terms.real.tolist()), fsum(terms.imag.tolist()))

    def shape(s: complex) -> float:
        return (math.log(curve.conductor) + math.log(abs(s) + 2.0)) * logx * logx

    def fit() -> float:
        s0 = complex(1.0 + 1.0 / logx, 0.0)
        return max(abs(partial(s0)) / shape(s0), 1e-3)

    eps = _fitted(("logderiv", curve, primes.limit, float(x)), fit)
    s = complex(sigma, t)
    return _envelope_check(
        f"logderiv[sigma={sigma:.4g},t={t:g}]",
        partial(s),
        eps * shape(s),
        {"sigma": sigma, "t": t, "x": x, "eps_fitted": eps},
    )


# ---------------------------------------------------------------------------
# Default suite

SUITE_GROUPS = ("rankin", "hasse", "gauss", "jsum", "poisson", "wl_decay", "qsum", "step1", "logderiv")


def _default_weight(T: float, x: float, l: int = 0) -> SmoothWeight:
    return SmoothWeight(0.5, 1.0, shape="exp", l=l, x=x, X_k=T)


def _random_jsum_case(rng: random.Random) -> Tuple[Tuple[int, ...], int]:
    odd_primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    while True:
        r = rng.choice([2, 3, 4])
        tup = tuple(rng.choice(odd_primes) for _ in range(r))
        pd = parity_decompose(tup)
        if pd.pi2 > 1 and pd.pi1 * pd.pi2 <= 10_000:
            m = rng.randint(1, 60) * rng.choice([1, -1])
            return tup, m


def _selects(only: Optional[str], group: str) -> bool:
    """Whether `only` (None: every group) names a prefix of group or a check in it."""
    return only is None or group.startswith(only) or only.startswith(group)


def validate_suite_group(only: Optional[str]) -> None:
    """Raise for an `only` filter that matches no suite group."""
    if not any(_selects(only, g) for g in SUITE_GROUPS):
        raise ValueError(f"unknown check name {only!r}; groups: {', '.join(SUITE_GROUPS)}")


def run_suite(
    curves: Sequence[CurveModel],
    primes: PrimeTable,
    x: float = 1e5,
    seed: int = 1,
    only: Optional[str] = None,
) -> List[CheckResult]:
    """The default verification suite.

    ``only`` restricts to checks whose name starts with the given prefix
    (e.g. 'gauss'); it must match one of SUITE_GROUPS.
    """
    validate_suite_group(only)
    results: List[CheckResult] = []

    if _selects(only, "rankin"):
        for curve in curves:
            results.append(rankin_linear_check(curve, x, primes))
            results.append(rankin_square_check(curve, math.log(x), primes))

    if _selects(only, "hasse"):
        for curve in curves:  # at the rankin group's x: its a_p table, cached
            results.append(hasse_check(curve, x, primes))

    if _selects(only, "gauss"):
        for q in range(1, 121, 2):
            if not is_squarefree(q):
                continue
            chi = _chi_table(q)
            worst = max(
                (gauss_sum_check(q, m, _chi=chi) for m in range(1, max(q, 2)) if gcd(m, q) == 1),
                key=lambda r: r.ratio_or_error,
            )
            worst.name = f"gauss[q={q},worst_m]"
            results.append(worst)

    if _selects(only, "jsum"):
        rng = random.Random(seed)
        for _ in range(40):
            tup, m = _random_jsum_case(rng)
            results.append(jsum_crt_check(tup, m))
        # forced vanishing cases
        results.append(jsum_crt_check((3, 3, 5), 15))  # pi1*pi2 | m
        results.append(jsum_crt_check((3, 5), 5))  # delta2 > 1

    if _selects(only, "poisson"):
        for q in range(1, 13):
            T = float(max(400, 150 * q))
            for l in (0, 1):
                w = _default_weight(T, x=100.0, l=l)
                cache: Dict[int, complex] = {}
                trunc = poisson_required_truncation(w, l, q)
                worst = max(
                    (poisson_check(w, l, q, j, trunc, fourier_cache=cache) for j in range(q)),
                    key=lambda r: r.ratio_or_error,
                )
                worst.name = f"poisson[q={q},l={l},worst_j]"
                results.append(worst)

    if _selects(only, "wl_decay"):
        w = _default_weight(1000.0, x=100.0)
        for l in (1, 2, 3):
            results.append(wl_decay_check(w, l, x=100.0, X_k=1000.0))

    if _selects(only, "qsum"):
        for curve in curves:
            for r in (1, 2):
                for n in (1, 7):
                    results.append(q_sum(r, n, min(2000.0, 1000.0**r), 1000.0, curve, primes))

    if _selects(only, "step1"):
        for curve in curves:
            for r in (1, 2, 3):
                results.append(step1_sum(r, min(2000.0, 1000.0**r), 1000.0, curve, primes))

    if _selects(only, "logderiv"):
        for curve in curves:
            logx = math.log(1e4)
            for sigma, t in ((1.0 + 1.0 / logx, 0.0), (1.0 + 1.0 / logx, 10.0), (1.5, 3.0), (2.0, 0.0)):
                results.append(logderiv_partial(curve, sigma, t, 1e4, primes))

    return results
