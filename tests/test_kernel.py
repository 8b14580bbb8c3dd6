import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import exp1

from twistrank.kernel import (
    SmoothWeight,
    TriangleKernel,
    archimedean_integral,
    triangle,
    weight_eval,
    weight_fourier,
    weight_fourier_derivative,
    weight_l_eval,
)

from conftest import mellin_phi, mellin_phi_quadrature


class TestTriangle:
    def test_values(self):
        assert triangle(0.0) == 1.0
        assert triangle(1.0) == 0.0 == triangle(-1.0)
        assert triangle(0.25) == 0.75
        assert triangle(3.0) == 0.0

    def test_even_lipschitz_support(self):
        ts = np.linspace(-2, 2, 801)
        vals = triangle(ts)
        assert np.allclose(vals, triangle(-ts))
        assert np.all(np.abs(np.diff(vals)) <= np.diff(ts) * (1 + 1e-12))
        assert np.all(vals[np.abs(ts) >= 1] == 0)

    def test_kernel_scale_validated(self):
        with pytest.raises(ValueError):
            TriangleKernel(0.5)
        TriangleKernel(1.0)


class TestMellin:
    def test_closed_form_values(self):
        k = TriangleKernel(2.0)
        assert mellin_phi(k, 0.0) == 2.0
        assert abs(mellin_phi(k, 1.0) - 2 * math.sin(1.0) ** 2) < 1e-15
        # zero of sinc at lambda t / 2 = pi
        assert abs(mellin_phi(k, math.pi)) < 1e-15

    def test_nonnegative(self):
        for lam in (1.0, 2.0, 5.0, 10.0):
            k = TriangleKernel(lam)
            for t in np.linspace(-10, 10, 401):
                assert mellin_phi(k, float(t)) >= 0.0

    def test_quadrature_at_one(self):
        for lam in (1.0, 3.0, 7.5):
            k = TriangleKernel(lam)
            v = mellin_phi_quadrature(k, 1.0 + 0j)
            assert abs(v - lam) < 1e-9
            assert abs(v.imag) < 1e-10

    def test_quadrature_matches_closed_form(self):
        for lam in (1.0, 5.0):
            k = TriangleKernel(lam)
            for t in (-3.7, -0.4, 0.0, 0.9, 6.3):
                v = mellin_phi_quadrature(k, complex(1.0, t))
                assert abs(v - mellin_phi(k, t)) < 1e-8

    def test_conjugate_pair_real(self):
        k = TriangleKernel(2.0)
        up = mellin_phi_quadrature(k, 1 + 0.7j)
        dn = mellin_phi_quadrature(k, 1 - 0.7j)
        assert abs(up - dn.conjugate()) < 1e-10
        assert abs(up.imag) < 1e-10

    def test_domain(self):
        with pytest.raises(ValueError):
            mellin_phi_quadrature(TriangleKernel(1.0), 2.5 + 0j)


def trapezoid_oracle(lam, n=2_000_000):
    """Independent fixed-grid evaluation of the archimedean integral."""
    ts = np.linspace(1e-9, lam, n)
    f = (1 - ts / lam) / np.expm1(ts) - np.exp(-ts) / ts
    head = float(np.trapezoid(f, ts))
    # tail: int_lam^inf -e^-t / t dt by the same rule on a long grid
    tt = np.linspace(lam, lam + 60.0, 400_000)
    tail = float(np.trapezoid(-np.exp(-tt) / tt, tt))
    return head + tail


def quadrature_oracle(lam):
    """Adaptive quadrature on (0, lam) plus the exponential-integral tail:
    on (lam, inf) the kernel vanishes and the integrand is -e^(-t)/t."""

    def integrand(t):
        if t < 1e-8:
            return 0.5 - 1.0 / lam  # the limit at t -> 0+
        return (1.0 - t / lam) / math.expm1(t) - math.exp(-t) / t

    head = quad(integrand, 0.0, lam, epsabs=1e-13, epsrel=1e-13, limit=400)[0]
    return head - float(exp1(lam))


# 200 log-spaced scales over the CLI's range of lambda = log x, x <= 1e8
ORACLE_LAMS = [float(v) for v in np.geomspace(1.0, math.log(1e8), 200)]


class TestArchimedean:
    def test_integrand_limit(self):
        # limit of F(t/lam)/(e^t - 1) - 1/(t e^t) at t -> 0+ is 1/2 - 1/lam
        for lam in (1.0, 2.0, 10.0):
            t = 1e-7
            val = (1 - t / lam) / math.expm1(t) - math.exp(-t) / t
            assert abs(val - (0.5 - 1.0 / lam)) < 1e-6

    def test_against_trapezoid_oracle(self):
        assert abs(archimedean_integral(TriangleKernel(1.0)) - trapezoid_oracle(1.0)) < 1e-7

    def test_bounded_on_lambda_range(self):
        for lam in np.linspace(1.0, 50.0, 25):
            v = archimedean_integral(TriangleKernel(float(lam)))
            assert -1.0 < v < 1.0

    def test_large_lambda_tends_to_euler_gamma(self):
        # I(lam) = gamma - pi^2/(6 lam) + O(e^-lam / lam): the kernel deficit
        # int t/(lam (e^t - 1)) contributes pi^2/(6 lam)
        for lam in (20.0, 40.0):
            v = archimedean_integral(TriangleKernel(lam))
            target = 0.5772156649015329 - math.pi**2 / (6 * lam)
            assert abs(v - target) < 1e-7

    def test_against_quadrature_oracle(self):
        worst = max(
            abs(archimedean_integral(TriangleKernel(lam)) - quadrature_oracle(lam))
            for lam in ORACLE_LAMS
        )
        assert worst <= 1e-13

    def test_against_mpmath_series(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            worst = 0.0
            for lam in ORACLE_LAMS:
                L = mpmath.mpf(lam)
                series = mpmath.nsum(lambda n: mpmath.exp(-n * L) * (L / n + 1 / n**2), [1, mpmath.inf])
                exact = (
                    mpmath.euler
                    - (mpmath.pi**2 / 6 - series) / L
                    + mpmath.log(1 - mpmath.exp(-L))
                )
                got = archimedean_integral(TriangleKernel(lam))
                worst = max(worst, abs(float(mpmath.mpf(got) - exact)))
        assert worst <= 2e-16


class TestSmoothWeight:
    def test_support_validation(self):
        SmoothWeight(0.5, 1.0)
        SmoothWeight(-1.0, -0.5)
        for lo, hi in ((0.0, 1.0), (-0.5, 0.5), (0.7, 0.7), (0.5, 1.2)):
            with pytest.raises(ValueError):
                SmoothWeight(lo, hi)
        with pytest.raises(ValueError):
            SmoothWeight(0.5, 1.0, shape="box")

    @pytest.mark.parametrize("shape", ["exp", "poly"])
    def test_bump_values(self, shape):
        w = SmoothWeight(0.5, 1.0, shape=shape)
        assert weight_eval(w, 0.5) == 0.0
        assert weight_eval(w, 1.0) == 0.0
        assert weight_eval(w, 0.49) == 0.0
        assert weight_eval(w, 2.0) == 0.0
        assert abs(weight_eval(w, 0.75) - 1.0) < 1e-12
        assert 0 < weight_eval(w, 0.6) < 1

    @pytest.mark.parametrize("shape", ["exp", "poly"])
    def test_third_derivative_continuity(self, shape):
        # adjacent-sample jumps of the third difference quotient scale with
        # the step for a continuous third derivative; a jump discontinuity
        # would leave them constant under refinement
        w = SmoothWeight(0.5, 1.0, shape=shape)

        def max_jump(h):
            ts = np.arange(0.45, 1.05, h)
            vals = weight_eval(w, ts)
            d3 = (-vals[:-6] + 3 * vals[2:-4] - 3 * vals[4:-2] + vals[6:]) / (
                2 * h
            ) ** 3
            return float(np.abs(np.diff(d3)).max())

        coarse, fine = max_jump(2e-4), max_jump(1e-4)
        assert fine < 0.75 * coarse

    def test_negative_support(self):
        w = SmoothWeight(-1.0, -0.5)
        assert weight_eval(w, -0.75) == pytest.approx(1.0, abs=1e-12)
        assert weight_eval(w, 0.75) == 0.0

    def test_array_scalar_agree(self):
        w = SmoothWeight(0.5, 1.0)
        ts = np.linspace(0, 1.2, 50)
        arr = weight_eval(w, ts)
        for t, v in zip(ts, arr):
            # one path: test_libm_per_element holds the bits
            assert weight_eval(w, float(t)) == pytest.approx(v, rel=1e-14, abs=1e-300)

    @pytest.mark.parametrize("shape", ["exp", "poly"])
    @pytest.mark.parametrize("lo, hi", [(0.5, 1.0), (0.05, 0.3), (-1.0, -0.5), (-0.9, -0.2)])
    def test_libm_per_element(self, shape, lo, hi):
        # an array and a float both give, bit for bit, the bump in Python
        # floats through libm; np.exp is 1 ulp off math.exp at some points
        def bump(t):
            if not lo < t < hi:
                return 0.0
            prod = (t - lo) * (hi - t)
            if shape == "exp":
                return math.exp(4.0 / (hi - lo) ** 2 - 1.0 / prod)
            return (prod / ((hi - lo) * (hi - lo) / 4.0)) ** 4

        w = SmoothWeight(lo, hi, shape=shape)
        pad = 0.1 * (hi - lo)
        ts = np.concatenate(([lo, hi], np.linspace(lo - pad, hi + pad, 20_002)))
        expected = [repr(bump(t)) for t in ts.tolist()]
        assert [repr(v) for v in weight_eval(w, ts).tolist()] == expected
        assert [repr(v) for v in weight_eval(w, ts.reshape(3, -1)).ravel().tolist()] == expected
        for t in ts[::401].tolist():
            v = weight_eval(w, t)
            assert type(v) is np.float64 and repr(float(v)) == repr(bump(t))


class TestWeightL:
    def test_l_zero_is_plain_weight(self):
        w = SmoothWeight(0.5, 1.0)
        ts = np.array([0.3, 0.6, 0.9, 1.5])
        assert weight_l_eval(w, ts, 0).tolist() == weight_eval(w, ts).tolist()

    def test_outside_support_zero(self):
        w = SmoothWeight(0.5, 1.0, l=2, x=math.e, X_k=math.e)
        assert weight_l_eval(w, np.array([0.1, 0.0])).tolist() == [0.0, 0.0]  # no log(0) blowup

    def test_log_factor_value(self):
        w = SmoothWeight(0.5, 1.0, l=1, x=math.e**2, X_k=5.0)
        t = 0.75
        expected = (math.log(t * t * 25.0) + 1.0) * weight_eval(w, t)
        assert weight_l_eval(w, np.array([t]))[0] == pytest.approx(expected, rel=1e-14)

    def test_missing_parameters_rejected(self):
        w = SmoothWeight(0.5, 1.0)
        with pytest.raises(ValueError):
            weight_l_eval(w, np.array([0.6]), 1)


class TestWeightFourier:
    def test_zero_frequency_positive(self):
        w = SmoothWeight(0.5, 1.0)
        v = weight_fourier(w, 0.0, 0)
        assert v.imag == 0.0 and v.real > 0.0

    def test_conjugate_symmetry(self):
        w = SmoothWeight(0.5, 1.0)
        for u in (0.3, 1.7, 12.0):
            a = weight_fourier(w, u, 0)
            b = weight_fourier(w, -u, 0)
            assert abs(a - b.conjugate()) < 1e-12

    def test_against_riemann_sum(self):
        w = SmoothWeight(0.5, 1.0)
        ts = np.linspace(0.5, 1.0, 200_001)
        for u in (0.0, 2.3):
            vals = weight_eval(w, ts) * np.exp(-2j * np.pi * u * ts)
            ref = complex(np.trapezoid(vals, ts))
            assert abs(weight_fourier(w, u, 0) - ref) < 1e-9

    @pytest.mark.parametrize("lo, hi, shape", [(0.999, 1.0, "exp")])
    def test_refuses_transforms_beyond_node_budget(self, lo, hi, shape):
        # a width of 1e-3 would need 1.3e6 trapezoid nodes; it is refused
        # before any node array is made
        w = SmoothWeight(lo, hi, shape=shape)
        with pytest.raises(ValueError, match="quadrature nodes"):
            weight_fourier(w, 1.0)
        with pytest.raises(ValueError, match="quadrature nodes"):
            weight_fourier_derivative(w, 1.0)
        accepted = SmoothWeight(0.99, 1.0)  # width 1e-2: 1.3e4 nodes
        assert weight_fourier(accepted, 1.0) != 0

    def test_derivative_matches_finite_difference(self):
        w = SmoothWeight(0.5, 1.0)
        u, h = 1.3, 1e-5
        fd = (weight_fourier(w, u + h, 0) - weight_fourier(w, u - h, 0)) / (2 * h)
        assert abs(weight_fourier_derivative(w, u, 0) - fd) < 1e-6


def mpmath_transforms(mpmath, freq, ls):
    """hat(W_l)(freq) and hat(W_l)'(freq) at 30 digits for the 'exp' weight
    on (0.5, 1) with x = 100 and X_k = 1000, with int |W_l| and int |2 pi t W_l|.

    Composite 24-point Gauss-Legendre in mpmath, one panel per cycle and at
    least 32: on these frequencies it agrees with mpmath's adaptive
    tanh-sinh quadrature to 3e-30.  Returns {l: (transform, derivative,
    int |W_l|, int |2 pi t W_l|)} as Python complex and float.
    """
    mp = mpmath.mp
    with mpmath.workdps(30):
        lo, hi = mp.mpf(0.5), mp.mpf(1)
        width = hi - lo
        panels = max(32, int(mp.ceil(freq * width)))
        h = width / panels
        rule = mpmath.calculus.quadrature.GaussLegendre(mp)
        nodes = [((x + 1) * h / 2, wx * h / 2) for x, wx in rule.get_nodes(-1, 1, 4, mp.prec)]
        turn = -2 * mp.pi * mp.mpf(freq)
        node_phase = [mp.expj(turn * c) for c, _ in nodes]
        log_scale = 2 * mp.log(1000) + mp.log(100) / 2
        sums = {l: [mp.mpc(0), mp.mpc(0), mp.mpf(0), mp.mpf(0)] for l in ls}
        for k in range(panels):
            a = lo + k * h
            panel_phase = mp.expj(turn * a)
            for (c, wc), z in zip(nodes, node_phase):
                t = a + c
                prod = (t - lo) * (hi - t)
                bump = mp.exp(4 / width**2 - 1 / prod)
                for l in ls:
                    v = (2 * mp.log(t) + log_scale) ** l * bump * wc
                    acc = sums[l]
                    acc[0] += v * z * panel_phase
                    acc[1] += t * v * z * panel_phase
                    acc[2] += v
                    acc[3] += t * v
        return {
            l: (complex(a0), complex(-2j * mp.pi * a1), float(a2), float(2 * mp.pi * a3))
            for l, (a0, a1, a2, a3) in sums.items()
        }


class TestWeightFourierReference:
    @pytest.mark.parametrize("shape", ["exp"])
    def test_against_mpmath(self, shape):
        # the trapezoid within 2e-14 (1 + int |g|) of the 30-digit value,
        # g the integrand
        mpmath = pytest.importorskip("mpmath")
        for freq in (0.0, 3.0, 24.0, 96.0, 400.0):
            for l, (ref, dref, mass, dmass) in mpmath_transforms(mpmath, freq, (0, 2)).items():
                w = SmoothWeight(0.5, 1.0, shape=shape, l=l, x=100.0, X_k=1000.0)
                assert abs(weight_fourier(w, freq, l) - ref) <= 2e-14 * (1.0 + mass), (freq, l)
                assert abs(weight_fourier_derivative(w, freq, l) - dref) <= 2e-14 * (1.0 + dmass), (freq, l)
