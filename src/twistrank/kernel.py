"""Test functions and transforms for the explicit formula.

The triangle kernel F(x) = max(0, 1 - |x|) scaled to F_lambda(x) =
F(x/lambda) has Mellin transform lambda * sinc^2(lambda t / 2) on the
critical line: nonnegative, which is what turns the explicit formula into
a rank bound.  Its archimedean integral has a closed form (a rapidly
convergent series), which is all the explicit-formula path needs.  The
smooth family weight W is a C^3 (in fact C^inf for the exponential shape)
bump on (lo, hi), and W_l multiplies in the logarithmic factor
(log(t^2 X_k^2) + (log x)/2)^l whose Fourier transform drives the
Poisson-summation step.

Quadrature is for verification only: mellin_phi_quadrature and the Fourier
transforms use scipy.integrate, which scipy loads on their first call, so a
process that only evaluates the explicit formula never imports it.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Union

import numpy as np
import scipy  # scipy.integrate loads on first use, in the verification functions only

__all__ = [
    "TriangleKernel",
    "SmoothWeight",
    "triangle",
    "mellin_phi",
    "mellin_phi_quadrature",
    "archimedean_integral",
    "weight_eval",
    "weight_l_eval",
    "weight_fourier",
    "weight_fourier_derivative",
]

ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class TriangleKernel:
    """Triangle kernel at scale lam (lam = log x in the main pipeline)."""

    lam: float

    def __post_init__(self) -> None:
        if not self.lam >= 1.0:
            raise ValueError(f"kernel scale must be >= 1, got {self.lam}")


def triangle(x: ArrayLike) -> ArrayLike:
    """F(x) = max(0, 1 - |x|)."""
    if isinstance(x, np.ndarray):
        return np.maximum(0.0, 1.0 - np.abs(x))
    return max(0.0, 1.0 - abs(x))


def mellin_phi(kernel: TriangleKernel, t: float) -> float:
    """Closed-form Mellin transform on the critical line s = 1 + it:

        Phi_lambda(1 + it) = lambda * (sin(lambda t / 2) / (lambda t / 2))^2

    with the limit lambda at t = 0.  Always >= 0.
    """
    lam = kernel.lam
    u = 0.5 * lam * t
    if abs(u) < 1e-8:
        # sinc(u)^2 = 1 - u^2/3 + O(u^4)
        return lam * (1.0 - u * u / 3.0)
    s = math.sin(u) / u
    return lam * s * s


def mellin_phi_quadrature(kernel: TriangleKernel, u: complex) -> complex:
    """The defining integral int F_lambda(x) e^((u-1)x) dx by quadrature.

    Absolute tolerance ~1e-10 on the critical line Re(u) = 1 (the oracle
    regime); off the line the integrand grows like e^(|Re(u)-1| lambda) and
    accuracy degrades to relative.  Requires Re(u) in [0, 2].
    """
    if not 0.0 <= u.real <= 2.0:
        raise ValueError(f"Re(u) must lie in [0, 2], got {u.real}")
    lam = kernel.lam
    w = complex(u) - 1.0

    def f_re(x: float) -> float:
        return (1.0 - abs(x) / lam) * math.exp(w.real * x) * math.cos(w.imag * x)

    def f_im(x: float) -> float:
        return (1.0 - abs(x) / lam) * math.exp(w.real * x) * math.sin(w.imag * x)

    kw = dict(epsabs=1e-12, epsrel=1e-12, limit=400, points=[0.0])
    re = scipy.integrate.quad(f_re, -lam, lam, **kw)[0]
    im = scipy.integrate.quad(f_im, -lam, lam, **kw)[0]
    return complex(re, im)


EULER_GAMMA = 0.5772156649015329
ZETA_2 = 1.6449340668482264  # pi^2 / 6


@lru_cache(maxsize=None)
def _arch_cached(lam: float) -> float:
    # int_0^lam t/(e^t - 1) dt = pi^2/6 - sum_n e^(-n lam) (lam/n + 1/n^2)
    terms = []
    for n in itertools.count(1):
        term = math.exp(-n * lam) * (lam / n + 1.0 / (n * n))
        if term < 1e-18:
            break
        terms.append(term)
    return EULER_GAMMA - (ZETA_2 - math.fsum(terms)) / lam + math.log1p(-math.exp(-lam))


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
    return _arch_cached(float(kernel.lam))


@dataclass(frozen=True)
class SmoothWeight:
    """Nonnegative C^3 bump supported on (lo, hi), normalized to peak 1.

    Supports must satisfy 0 < lo < hi <= 1 or -1 <= lo < hi < 0, keeping the
    weight away from 0 so the logarithmic factor in W_l stays finite.
    shape 'exp' is the C^inf bump exp(-1/((t-lo)(hi-t))); shape 'poly' is
    ((t-lo)(hi-t))^4, exactly C^3 at the endpoints.

    l, x and X_k parametrize W_l(t) = (log(t^2 X_k^2) + (log x)/2)^l W(t);
    they may be omitted when only W itself is needed (l = 0).
    """

    support_lo: float
    support_hi: float
    shape: str = "exp"
    l: int = 0
    x: Optional[float] = None
    X_k: Optional[float] = None

    def __post_init__(self) -> None:
        lo, hi = self.support_lo, self.support_hi
        ok_pos = 0.0 < lo < hi <= 1.0
        ok_neg = -1.0 <= lo < hi < 0.0
        if not (ok_pos or ok_neg):
            raise ValueError(
                f"support must satisfy 0 < lo < hi <= 1 or -1 <= lo < hi < 0, got ({lo}, {hi})"
            )
        if self.shape not in ("exp", "poly"):
            raise ValueError(f"unknown weight shape {self.shape!r}")
        if self.l < 0:
            raise ValueError("l must be nonnegative")
        if self.x is not None and not self.x > 1.0:
            raise ValueError("scale x must exceed 1")
        if self.X_k is not None and not self.X_k > 0.0:
            raise ValueError("scale X_k must be positive")


def weight_eval(w: SmoothWeight, t: ArrayLike) -> ArrayLike:
    """W(t): 0 outside (lo, hi), smooth positive bump with peak 1 inside."""
    lo, hi = w.support_lo, w.support_hi
    width = hi - lo
    if isinstance(t, np.ndarray):
        inside = (t > lo) & (t < hi)
        out = np.zeros_like(t, dtype=float)
        ts = t[inside]
        prod = (ts - lo) * (hi - ts)
        if w.shape == "exp":
            out[inside] = np.exp(4.0 / width**2 - 1.0 / prod)
        else:
            out[inside] = (prod / (width * width / 4.0)) ** 4
        return out
    if not lo < t < hi:
        return 0.0
    prod = (t - lo) * (hi - t)
    if w.shape == "exp":
        return math.exp(4.0 / width**2 - 1.0 / prod)
    return (prod / (width * width / 4.0)) ** 4


def _require_wl_params(w: SmoothWeight, l: int) -> tuple:
    if l == 0:
        return (w.x, w.X_k)
    if w.x is None or w.X_k is None:
        raise ValueError("W_l with l > 0 needs the x and X_k scale parameters")
    return (w.x, w.X_k)


def weight_l_eval(w: SmoothWeight, t: ArrayLike, l: Optional[int] = None) -> ArrayLike:
    """W_l(t) = (log(t^2 X_k^2) + (log x)/2)^l * W(t).

    Well defined everywhere because W vanishes on a neighborhood of 0.
    """
    if l is None:
        l = w.l
    base = weight_eval(w, t)
    if l == 0:
        return base
    x, X_k = _require_wl_params(w, l)
    half_logx = 0.5 * math.log(x)
    if isinstance(t, np.ndarray):
        out = np.zeros_like(base)
        nz = base != 0.0
        ts = t[nz]
        out[nz] = (np.log(ts * ts * X_k * X_k) + half_logx) ** l * base[nz]
        return out
    if base == 0.0:
        return 0.0
    return (math.log(t * t * X_k * X_k) + half_logx) ** l * base


_QUAD_KW = dict(epsabs=1e-13, epsrel=1e-13, limit=400)


def _oscillatory_transform(f, lo: float, hi: float, freq: float) -> complex:
    """int f(t) e^(-2 pi i freq t) dt over [lo, hi] via QAWO.

    The 1e-13 request can trip scipy's roundoff heuristic for large
    frequencies even though the result is good to ~1e-11, far inside every
    tolerance declared downstream (tightest is 1e-9); that warning is
    silenced here.
    """
    quad = scipy.integrate.quad
    if freq == 0.0:
        return complex(quad(f, lo, hi, **_QUAD_KW)[0], 0.0)
    wvar = 2.0 * math.pi * freq
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
        re = quad(f, lo, hi, weight="cos", wvar=wvar, **_QUAD_KW)[0]
        im = -quad(f, lo, hi, weight="sin", wvar=wvar, **_QUAD_KW)[0]
    return complex(re, im)


def weight_fourier(w: SmoothWeight, freq: float, l: int = 0) -> complex:
    """Fourier transform hat(W_l)(freq) = int W_l(t) e^(-2 pi i freq t) dt.

    Oscillatory quadrature keeps the accuracy near 1e-10 absolute even for
    thousands of cycles across the support.
    """
    _require_wl_params(w, l)
    return _oscillatory_transform(
        lambda t: weight_l_eval(w, t, l), w.support_lo, w.support_hi, freq
    )


def weight_fourier_derivative(w: SmoothWeight, freq: float, l: int = 0) -> complex:
    """d/dfreq of hat(W_l): the transform of -2 pi i t W_l(t)."""
    _require_wl_params(w, l)

    def g(t: float) -> float:
        return -2.0 * math.pi * t * weight_l_eval(w, t, l)

    # hat(W_l)'(u) = i * int g(t) e^(-2 pi i u t) dt
    return _oscillatory_transform(g, w.support_lo, w.support_hi, freq) * 1j
