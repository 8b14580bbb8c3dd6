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

The Fourier transforms of W_l are numpy quadrature with exact phases (the
trapezoid rule for the 'exp' bump, Gauss-Legendre panels or an endpoint
expansion for 'poly'); nothing here integrates with scipy.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from functools import lru_cache
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
    ((t-lo)(hi-t))^4, exactly C^3 at the endpoints.

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


def _check_node_count(count: int, lo: float, hi: float) -> None:
    if count > _MAX_NODES:
        raise ValueError(
            f"the transform of a weight on ({lo}, {hi}) needs {count} quadrature nodes, more than "
            f"{_MAX_NODES}: the support is too narrow or too close to 0"
        )


def _trapezoid_nodes(lo: float, hi: float, freq: float):
    """Uniform trapezoid nodes lo + h j, j = 1..n-1, for the C^inf 'exp' bump.

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
    _check_node_count(n, lo, hi)
    h = width / n
    return np.array([lo]), h, np.arange(1, n), np.array([h])


@lru_cache(maxsize=None)
def _gauss_legendre() -> tuple:
    """16-point Gauss-Legendre nodes and weights on [-1, 1], made on first
    use so that importing this module does not load numpy.polynomial.

    A panel of the 'poly' rule spans at most half a cycle and lies no closer
    to 0 (the log singularity of W_l) than its own width, so 16 points leave
    an error far below double rounding.
    """
    return np.polynomial.legendre.leggauss(16)


def _gauss_panel_nodes(lo: float, hi: float, freq: float):
    """Composite Gauss-Legendre nodes o_i + h j, j = 0..P-1, for 'poly'.

    On its closed support W_l is a polynomial times a power of log|t|, which
    is analytic there, so Gauss-Legendre panels converge geometrically.  P
    gives about 2 panels per cycle, and keeps each panel within its own
    width of the support's end nearest 0.
    """
    width = hi - lo
    panels = max(math.ceil(2.0 * abs(freq) * width), math.ceil(width / min(abs(lo), abs(hi))))
    _check_node_count(16 * panels, lo, hi)
    h = width / panels
    x, wx = _gauss_legendre()
    return lo + 0.5 * h * (1.0 + x), h, np.arange(panels), 0.5 * h * wx


# Quadrature nodes o_i + h j and weights w_i of W_l's transform, per shape.
_NODE_RULE = {"exp": _trapezoid_nodes, "poly": _gauss_panel_nodes}


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


def _cycles(freq: float, offsets: np.ndarray, h: float, j: np.ndarray) -> np.ndarray:
    """freq (o_i + h j) mod 1, in [-1/2, 1/2], with an error of a few ulps.

    The phase is taken from the node's definition, not from its rounded
    value: one ulp of a node times 2 pi freq would cost about 1e-15 at
    freq = 400.  Every product is split so that it is exact (j < 2^26,
    which _MAX_NODES ensures).
    """
    po, eo = _two_product(freq, offsets)
    ph, eh = _two_product(freq, h)
    hh, hl = _split(ph)
    steps = _frac(hh * j) + _frac(hl * j) + eh * j
    return _frac((_frac(po) + eo)[:, None] + steps)


# Terms of the 'poly' endpoint expansion.  It is used where 2 pi |freq| d
# reaches twice their number (d: the distance from the support to 0), and
# there the last term is below (2e)^-40 of the first.
_SERIES_TERMS = 40


def _endpoint_taylor(w: SmoothWeight, l: int, moment: int, end: float) -> np.ndarray:
    """Taylor coefficients in s of t^moment W_l(t) at t = end + s, 'poly' shape.

    W is the polynomial ((t - lo)(hi - t))^4 / (width/2)^8, and the log
    factor log(t^2 X_k^2) + (log x)/2 is its value at end minus
    2 sum_k (-s/end)^k / k, which converges for |s| < |end|.
    """
    lo, hi = w.support_lo, w.support_hi
    n = _SERIES_TERMS
    quad = np.array([(end - lo) * (hi - end), hi + lo - 2.0 * end, -1.0]) / (0.5 * (hi - lo)) ** 2
    square = np.convolve(quad, quad)
    coef = np.zeros(n)
    coef[:9] = np.convolve(square, square)
    if l:
        k = np.arange(1, n)
        log_factor = np.concatenate(
            ([math.log(end * end * w.X_k * w.X_k) + 0.5 * math.log(w.x)], -2.0 * (-1.0 / end) ** k / k)
        )
        for _ in range(l):
            coef = np.convolve(coef, log_factor)[:n]
    if moment:
        coef = np.convolve(coef, [end, 1.0])[:n]
    return coef


def _endpoint_expansion(w: SmoothWeight, freq: float, l: int, moment: int) -> complex:
    """int f(t) e^(-i u t) dt over the support, u = 2 pi freq and f =
    t^moment W_l, by repeated integration by parts:

        sum_k (f^(k)(lo) e^(-i u lo) - f^(k)(hi) e^(-i u hi)) / (i u)^(k+1).

    f is analytic on a disc of radius d about each end, so f^(k) grows like
    k! / d^k and the terms fall like k! / (u d)^k; the first nonzero one is
    the jump of the fourth derivative of the C^3 bump.
    """
    u = 2.0 * math.pi * freq
    k = np.arange(_SERIES_TERMS)
    scale = np.cumprod(np.maximum(k, 1) / (1j * u))  # k! / (i u)^(k+1)
    ends = np.array([w.support_lo, w.support_hi])
    phase = np.exp(-2j * math.pi * _cycles(freq, ends, 0.0, np.zeros(1)).ravel())
    lo_terms = phase[0] * scale * _endpoint_taylor(w, l, moment, w.support_lo)
    hi_terms = -phase[1] * scale * _endpoint_taylor(w, l, moment, w.support_hi)
    terms = np.concatenate((lo_terms, hi_terms))
    return complex(math.fsum(terms.real.tolist()), math.fsum(terms.imag.tolist()))


def _transform(w: SmoothWeight, freq: float, l: int, moment: int) -> complex:
    """int t^moment W_l(t) e^(-2 pi i freq t) dt.

    sum_i w_i f(t_i) e^(-2 pi i freq t_i) over the nodes of the shape's rule
    in _NODE_RULE, or for 'poly' at high frequency the endpoint expansion.
    Both are summed with math.fsum, so no BLAS decides the result.
    """
    lo, hi = w.support_lo, w.support_hi
    if w.shape == "poly" and 2.0 * math.pi * abs(freq) * min(abs(lo), abs(hi)) >= 2 * _SERIES_TERMS:
        return _endpoint_expansion(w, freq, l, moment)
    offsets, h, j, weights = _NODE_RULE[w.shape](lo, hi, freq)
    t = offsets[:, None] + h * j
    terms = (weights[:, None] * t**moment * weight_l_eval(w, t, l)).ravel()
    angle = 2.0 * math.pi * _cycles(freq, offsets, h, j).ravel()
    return complex(math.fsum((terms * np.cos(angle)).tolist()), -math.fsum((terms * np.sin(angle)).tolist()))


def weight_fourier(w: SmoothWeight, freq: float, l: int = 0) -> complex:
    """Fourier transform hat(W_l)(freq) = int W_l(t) e^(-2 pi i freq t) dt.

    numpy quadrature with exact phases (see _transform):
    - 'exp': the trapezoid rule, at most about (|freq| + G) width or 3 G
      width nodes (G = (4/width^2 + 55)^2 width / (4 pi)), so 100 + |freq|/2
      up to |freq| = 400 and about 300 beyond at the suite's width 0.5;
    - 'poly': Gauss-Legendre panels, 16 max(2 |freq|, 1/d) width nodes with
      d the distance from the support to 0, up to 2 pi |freq| d = 80; above
      it a 40-term endpoint expansion of fixed cost.
    A call that would need more than _MAX_NODES nodes (an 'exp' width below
    about 2e-3, a 'poly' support very close to 0) raises ValueError.
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
