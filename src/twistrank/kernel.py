"""Test functions and transforms for the explicit formula.

The triangle kernel F(x) = max(0, 1 - |x|) scaled to F_lambda(x) =
F(x/lambda) has Mellin transform lambda * sinc^2(lambda t / 2) on the
critical line: nonnegative, which is what turns the explicit formula into
a rank bound.  Its archimedean integral has a closed form (a rapidly
convergent series), which is all the explicit-formula path needs.  The
smooth family weight W is a C^3 (in fact C^inf for the exponential shape)
bump on (lo, hi), and W_l multiplies in the logarithmic factor
(log(t^2 X_k^2) + (log x)/2)^l whose Fourier transform drives the
Poisson-summation step.  W has one array path; a float is a 0-d array.

The Fourier transforms of W_l are one numpy trapezoid rule with exact
phases, for the 'exp' bump only: the paper uses W through Poisson summation
over D, which ``verify`` checks for that bump, and ``sweep`` reads W alone,
so the 'poly' bump has no transform.  Nothing here integrates with scipy.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from typing import Optional, Union

import numpy as np

# No function here uses scipy.  The import stays because the benchmark reads
# the scipy version from sys.modules["scipy"] after each command it runs.
import scipy

__all__ = [
    "TriangleKernel",
    "SmoothWeight",
    "triangle",
    "archimedean_integral",
    "weight_eval",
    "weight_l_eval",
    "weight_fourier",
    "weight_fourier_derivative",
]

ArrayLike = Union[float, np.ndarray]


class TriangleKernel(namedtuple("TriangleKernel", "lam")):
    """Triangle kernel at scale lam (lam = log x in the main pipeline)."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates too

    def __new__(cls, lam: float):
        if not lam >= 1.0:
            raise ValueError(f"kernel scale must be >= 1, got {lam}")
        return super().__new__(cls, lam)


def triangle(x: ArrayLike) -> ArrayLike:
    """F(x) = max(0, 1 - |x|), elementwise (a float gives a numpy float)."""
    return np.maximum(0.0, 1.0 - np.abs(x))


EULER_GAMMA = 0.5772156649015329
ZETA_2 = 1.6449340668482264  # pi^2 / 6


def archimedean_integral(kernel: TriangleKernel) -> float:
    """int_0^inf (F(t/lambda)/(e^t - 1) - 1/(t e^t)) dt in closed form.

    Splitting F(t/lambda) = 1 - t/lambda on (0, lambda) and 0 beyond,

        I(lambda) = gamma - (pi^2/6 - sum_n e^(-n lambda) (lambda/n + 1/n^2)) / lambda
                    + log(1 - e^(-lambda)),

    from int_0^inf (1/(e^t - 1) - e^(-t)/t) dt = gamma (Euler-Mascheroni),
    the series for int_0^lambda t/(e^t - 1) dt and int_lambda^inf
    dt/(e^t - 1) = -log(1 - e^(-lambda)).  The series is summed with
    math.fsum until its terms fall below 1e-18, about 40 terms at lambda = 1
    and fewer beyond; the result is within 2e-16 absolute of the exact value
    for lambda >= 1 (the tests hold it to a 40-digit evaluation and to
    adaptive quadrature).  It tends to gamma - pi^2/(6 lambda) as lambda
    grows, with remainder e^(-lambda)/lambda + O(e^(-2 lambda)).
    """
    lam = kernel.lam
    # int_0^lam t/(e^t - 1) dt = pi^2/6 - sum_n e^(-n lam) (lam/n + 1/n^2)
    terms = []
    for n in itertools.count(1):
        term = math.exp(-n * lam) * (lam / n + 1.0 / (n * n))
        if term < 1e-18:
            break
        terms.append(term)
    return EULER_GAMMA - (ZETA_2 - math.fsum(terms)) / lam + math.log1p(-math.exp(-lam))


class SmoothWeight(namedtuple("SmoothWeight", "support_lo support_hi shape l x X_k")):
    """Nonnegative C^3 bump supported on (lo, hi), normalized to peak 1.

    Supports must satisfy 0 < lo < hi <= 1 or -1 <= lo < hi < 0, keeping the
    weight away from 0 so the logarithmic factor in W_l stays finite.
    shape 'exp' is the C^inf bump exp(-1/((t-lo)(hi-t))); shape 'poly' is
    ((t-lo)(hi-t))^4, exactly C^3 at the endpoints.  Both can be evaluated;
    only 'exp' has a Fourier transform (see ``weight_fourier``).

    l, x and X_k parametrize W_l(t) = (log(t^2 X_k^2) + (log x)/2)^l W(t);
    they may be omitted when only W itself is needed (l = 0).
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates too

    def __new__(
        cls,
        support_lo: float,
        support_hi: float,
        shape: str = "exp",
        l: int = 0,
        x: Optional[float] = None,
        X_k: Optional[float] = None,
    ):
        lo, hi = support_lo, support_hi
        ok_pos = 0.0 < lo < hi <= 1.0
        ok_neg = -1.0 <= lo < hi < 0.0
        if not (ok_pos or ok_neg):
            raise ValueError(
                f"support must satisfy 0 < lo < hi <= 1 or -1 <= lo < hi < 0, got ({lo}, {hi})"
            )
        if shape not in ("exp", "poly"):
            raise ValueError(f"unknown weight shape {shape!r}")
        if l < 0:
            raise ValueError("l must be nonnegative")
        if x is not None and not x > 1.0:
            raise ValueError("scale x must exceed 1")
        if X_k is not None and not X_k > 0.0:
            raise ValueError("scale X_k must be positive")
        return super().__new__(cls, support_lo, support_hi, shape, l, x, X_k)


def weight_eval(w: SmoothWeight, t: ArrayLike) -> ArrayLike:
    """W(t): 0 outside (lo, hi), smooth positive bump with peak 1 inside,
    elementwise (a float gives a numpy float), through libm per element:
    np.exp is 1 ulp further from the exact value at some points."""
    lo, hi = w.support_lo, w.support_hi
    width = hi - lo
    t = np.asarray(t, dtype=float)
    inside = (t > lo) & (t < hi)
    prod = (t[inside] - lo) * (hi - t[inside])
    out = np.zeros(t.shape)
    if w.shape == "exp":
        out[inside] = list(map(math.exp, (4.0 / width**2 - 1.0 / prod).tolist()))
    else:
        out[inside] = [v**4 for v in (prod / (width * width / 4.0)).tolist()]
    return out[()]


def _require_wl_params(w: SmoothWeight, l: int) -> tuple:
    if l == 0:
        return (w.x, w.X_k)
    if w.x is None or w.X_k is None:
        raise ValueError("W_l with l > 0 needs the x and X_k scale parameters")
    return (w.x, w.X_k)


def weight_l_eval(w: SmoothWeight, t: np.ndarray, l: Optional[int] = None) -> np.ndarray:
    """W_l(t) = (log(t^2 X_k^2) + (log x)/2)^l * W(t) for an array of t.

    Well defined everywhere because W vanishes on a neighborhood of 0.
    """
    if l is None:
        l = w.l
    base = weight_eval(w, t)
    if l == 0:
        return base
    x, X_k = _require_wl_params(w, l)
    out = np.zeros_like(base)
    nz = base != 0.0
    ts = t[nz]
    out[nz] = (np.log(ts * ts * X_k * X_k) + 0.5 * math.log(x)) ** l * base[nz]
    return out


# Quadrature nodes one transform may use: each costs about 200 bytes while
# the sum is formed, so this bounds a call near 200 MB.
_MAX_NODES = 1 << 20


def _trapezoid_nodes(lo: float, hi: float, freq: float):
    """Step h and indices j of the trapezoid nodes lo + h j, j = 1..n-1.

    With h = width/n the trapezoid sum is the transform plus its aliases at
    freq - k n/width (k != 0).  Beyond a gap G from 0, |hat(W_l)| falls like
    exp(4/width^2 - sqrt(4 pi G / width)) (a saddle point at the essential
    singularity of each end), and G is set so that this exponent is -55:
    G = 200 at width 0.5, where |hat(W)| is 1.8e-18 at 96 and 5.7e-24 at 150.
    Any n >= (|freq| + G) width keeps every alias G away from 0; far above
    the gap a count from 3 G width up that puts freq between two multiples
    of n/width, both G away, does as well, so no frequency needs more than
    about (|freq| + G) width or 3 G width nodes, whichever is less.
    """
    width = hi - lo
    gap = (4.0 / width + 55.0 * width) ** 2 / (4.0 * math.pi)  # G * width: cycles over the support
    span = abs(freq) * width
    n = math.ceil(span + gap)
    for m in range(math.ceil(3.0 * gap), n):
        if gap <= span % m <= m - gap:
            n = m
            break
    if n > _MAX_NODES:
        raise ValueError(
            f"the transform of a weight on ({lo}, {hi}) needs {n} quadrature nodes, more than "
            f"{_MAX_NODES}: the support is too narrow"
        )
    return width / n, np.arange(1, n)


def _split(a):
    """a = hi + lo with hi holding the top 26 bits (Veltkamp)."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _two_product(a, b):
    """(p, e) with p = fl(a b) and p + e = a b exactly (Dekker)."""
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _frac(x):
    """x minus its nearest integer; exact for a float."""
    return x - np.rint(x)


def _cycles(freq: float, lo: float, h: float, j: np.ndarray) -> np.ndarray:
    """freq (lo + h j) mod 1, in [-1/2, 1/2], with an error of a few ulps.

    The phase is taken from the node's definition, not from its rounded
    value: one ulp of a node times 2 pi freq would cost about 1e-15 at
    freq = 400.  Every product is split so that it is exact (j < 2^26,
    which _MAX_NODES ensures).
    """
    po, eo = _two_product(freq, lo)
    ph, eh = _two_product(freq, h)
    hh, hl = _split(ph)
    steps = _frac(hh * j) + _frac(hl * j) + eh * j
    return _frac(_frac(po) + eo + steps)


def _transform(w: SmoothWeight, freq: float, l: int, moment: int) -> complex:
    """int t^moment W_l(t) e^(-2 pi i freq t) dt for the 'exp' bump.

    The trapezoid sum of h f(t) e^(-2 pi i freq t) at t = lo + h j, summed
    with math.fsum, so no BLAS decides the result.  Its error falls faster
    than any power of h only because W is C^inf and flat at both ends; the
    C^3 'poly' bump would leave an algebraic one, and no command takes its
    transform, so it is refused here, where every transform passes.
    """
    if w.shape != "exp":
        raise ValueError(f"the Fourier transform of W is implemented for the 'exp' bump only, not {w.shape!r}")
    lo = w.support_lo
    h, j = _trapezoid_nodes(lo, w.support_hi, freq)
    t = lo + h * j
    terms = h * t**moment * weight_l_eval(w, t, l)
    angle = 2.0 * math.pi * _cycles(freq, lo, h, j)
    return complex(math.fsum((terms * np.cos(angle)).tolist()), -math.fsum((terms * np.sin(angle)).tolist()))


def weight_fourier(w: SmoothWeight, freq: float, l: int = 0) -> complex:
    """Fourier transform hat(W_l)(freq) = int W_l(t) e^(-2 pi i freq t) dt.

    The trapezoid rule with exact phases (see _transform), at most about
    (|freq| + G) width or 3 G width nodes (G = (4/width^2 + 55)^2 width /
    (4 pi)), so 100 + |freq|/2 up to |freq| = 400 and about 300 beyond at
    the suite's width 0.5.  Only the 'exp' bump has a transform: the
    Poisson step of ``verify`` is checked for it, and ``sweep`` reads W,
    never hat(W), so a 'poly' weight raises ValueError.  So does a call
    that would need more than _MAX_NODES nodes (a width below about 2e-3).
    For the support (0.5, 1), l <= 3 and |freq| <= 800 it is within
    1e-15 (1 + int |W_l|) of a 30-digit reference, and within 4e-12 of QAWO
    quadrature out to 4.2e5.  Narrow 'exp' supports lose digits to W
    itself, the exponential of a difference of two numbers near 4/width^2.
    """
    _require_wl_params(w, l)
    return _transform(w, freq, l, 0)


def weight_fourier_derivative(w: SmoothWeight, freq: float, l: int = 0) -> complex:
    """d/dfreq of hat(W_l): the transform of -2 pi i t W_l(t), by the
    method and to the accuracy of ``weight_fourier``."""
    _require_wl_params(w, l)
    return -2j * math.pi * _transform(w, freq, l, 1)
