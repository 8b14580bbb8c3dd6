import cmath
import functools
import json
import math
from math import fsum, gcd

import numpy as np
import pytest

import twistrank.curve as curve_mod
import twistrank.explicit_formula as ef_mod
import twistrank.verification_lab as vl
from twistrank.arith import kronecker, parity_decompose
from twistrank.cli import EXIT_VERIFY, main
from twistrank.curve import ap_array
from twistrank.explicit_formula import InsufficientPrimeTable
from twistrank.kernel import SmoothWeight, weight_eval, weight_fourier, weight_fourier_derivative, weight_l_eval
from twistrank.verification_lab import (
    PoissonTruncationError,
    _chi_table,
    fit_weight_gamma,
    gauss_sum_check,
    grh_checks,
    jsum_crt_check,
    poisson_check,
    poisson_required_truncation,
    rankin_linear_check,
    rankin_square_check,
    run_suite,
    wl_decay_check,
)

from conftest import qawo_weight_fourier, qawo_weight_fourier_derivative


class TestRankin:
    def test_linear_near_one_at_1e4(self, cm_curve, ncm_curve, primes_1e4):
        for curve in (cm_curve, ncm_curve):
            res = rankin_linear_check(curve, 1e4, primes_1e4)
            assert res.passed
            assert 0.9 <= res.ratio_or_error <= 1.1

    def test_linear_substitution_identity(self, ncm_curve, primes_1e4):
        # replacing c_{p^2} by a_p^2 - 2p at good primes reproduces the sum
        x = 3000.0
        res = rankin_linear_check(ncm_curve, x, primes_1e4)
        ps = primes_1e4.below(x)
        aps = ap_array(ncm_curve, primes_1e4, x)
        terms = []
        for p, a in zip(ps, aps):
            p, a = int(p), int(a)
            c2 = a * a - 2 * p if ncm_curve.conductor % p else a * a
            terms.append(c2 * math.log(p) / p)
        assert res.computed == pytest.approx(fsum(terms), abs=1e-10)

    def test_square_band_ncm_at_1e4(self, ncm_curve, primes_1e4):
        res = rankin_square_check(ncm_curve, math.log(1e4), primes_1e4)
        assert res.passed

    def test_lambda_scaling(self, ncm_curve, primes_1e4):
        # doubling lambda roughly quadruples the square sum
        small = rankin_square_check(ncm_curve, math.log(90.0), primes_1e4)
        big = rankin_square_check(ncm_curve, 2 * math.log(90.0), primes_1e4)
        growth = big.computed / small.computed
        assert 2.5 <= growth <= 5.5

    def test_domain(self, cm_curve, primes_1e3):
        with pytest.raises(ValueError):
            rankin_linear_check(cm_curve, 100.0, primes_1e3)


class TestHasse:
    def test_catalog_curves_pass(self, cm_curve, ncm_curve, primes_1e4):
        for curve in (cm_curve, ncm_curve):
            res = vl.hasse_check(curve, 1e4, primes_1e4)
            aps = ap_array(curve, primes_1e4, 1e4).tolist()
            worst = max(a * a / (4 * p) for p, a in zip(primes_1e4.below(1e4).tolist(), aps))
            assert res.passed and res.computed == worst < 1.0, curve.label
            assert res.parameters["primes"] == 1229

    def test_doctored_table_fails(self, ncm_curve, primes_1e4, monkeypatch):
        # one a_p just past 2 sqrt(p), at the last prime below 1e4 (9973)
        real = curve_mod.ap_array

        def doctored(curve, primes, bound):
            aps = real(curve, primes, bound).copy()
            aps[-1] = math.isqrt(4 * 9973) + 1
            return aps

        monkeypatch.setattr(curve_mod, "ap_array", doctored)
        res = vl.hasse_check(ncm_curve, 1e4, primes_1e4)
        assert not res.passed and 1.0 < res.computed < 1.01


class TestGrh:
    def test_catalog_curves_pass(self, cm_curve, ncm_curve, primes_1e5):
        # rows per class, and rows with root number -1: cm32-like's are 0 at
        # D = 3 mod 4, where its root number is not settled
        counts = {"cm32-like": [(162, 82), (162, 0)], "ncm37": [(158, 80), (158, 78)]}
        for curve in (cm_curve, ncm_curve):
            results = grh_checks(curve, 1e5, primes_1e5)
            assert [r.name for r in results] == [f"grh[{curve.label},D={r}mod4,x=100000]" for r in (1, 3)]
            assert [(r.parameters["rows"], r.parameters["rows_w_minus"]) for r in results] == counts[curve.label]
            for res in results:
                p = res.parameters
                assert res.passed and res.computed == p["min_total_S"] > 0.1, res.name
                bound = p["min_rank_bound_w_minus"]
                assert (bound is None) == (p["rows_w_minus"] == 0)
                margin = res.computed if bound is None else min(res.computed, bound - 1.0)
                assert res.ratio_or_error == margin >= 0.006, res.name

    @pytest.mark.parametrize("factor", [-1, 10], ids=["negated", "times10"])
    def test_wrong_table_fails(self, factor, cm_curve, ncm_curve, primes_1e5, tmp_path, capsys, monkeypatch):
        # a_p negated or scaled: no other group of verify reads the sign of
        # a_p, and the grh group fails every class of both curves
        real = curve_mod.ap_array

        def wrong(curve, primes, bound):
            return factor * real(curve, primes, bound)

        monkeypatch.setattr(curve_mod, "ap_array", wrong)
        monkeypatch.setattr(ef_mod, "ap_array", wrong)
        results = run_suite([cm_curve, ncm_curve], primes_1e5, x=1e5, only="grh")
        assert len(results) == 4 and not any(r.passed for r in results)
        assert {r.parameters["curve"] for r in results} == {"cm32-like", "ncm37"}
        out = tmp_path / "grh.jsonl"
        assert main(["verify", "--only", "grh", "--out", str(out)]) == EXIT_VERIFY
        capsys.readouterr()
        summary = json.loads(out.read_text().splitlines()[-1])["summary"]
        assert summary == {"checks": 4, "passed": 0, "failed": 4, "warnings": 0}


class TestGaussSums:
    def test_examples(self):
        res5 = gauss_sum_check(5, 1)
        assert res5.passed and abs(res5.computed - math.sqrt(5)) < 1e-9
        res3 = gauss_sum_check(3, 1)
        assert res3.passed and abs(res3.computed - 1j * math.sqrt(3)) < 1e-9
        res1 = gauss_sum_check(1, 1)
        assert res1.passed and abs(res1.computed - 1.0) < 1e-12

    def test_character_argument(self):
        # (2|5) = -1 flips the sign
        res = gauss_sum_check(5, 2)
        assert res.passed and abs(res.computed + math.sqrt(5)) < 1e-9

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            gauss_sum_check(4, 1)
        with pytest.raises(ValueError):
            gauss_sum_check(9, 1)

    def test_tables_match_scalar_symbol(self):
        # the enumerated side's (j|q), from the residue tables of the primes
        # of q, against the scalar kronecker, squarefree q or not
        for q in range(1, 200, 2):
            assert _chi_table(q).tolist() == [kronecker(j, q) for j in range(q)], q

    def test_given_table_skips_squarefree_check(self):
        # a caller passing _chi vouches for q; without it q = 9 is refused
        res = gauss_sum_check(9, 1, _chi=_chi_table(9))
        assert not res.passed  # (j|9) is the principal character mod 3

    def test_moderate_sweep(self):
        for q in (15, 21, 35, 105):
            for m in range(1, q):
                if gcd(m, q) != 1:
                    continue
                assert gauss_sum_check(q, m).passed


class TestJsum:
    def test_matches_enumeration(self):
        cases = [
            ((3, 3, 5), 1),
            ((3, 5, 7), 1),
            ((3, 3, 5), 2),
            ((5, 5, 3, 3, 7), 2),
            ((7, 7, 11), 7),
            ((7, 7, 11), -14),
            ((2, 2, 7), 3),
            ((3, 3, 3, 5), 2),
        ]
        for tup, m in cases:
            res = jsum_crt_check(tup, m)
            assert res.passed, (tup, m, res.ratio_or_error)

    def test_vanishing_when_modulus_divides_m(self):
        res = jsum_crt_check((3, 3, 5), 15)  # pi1 * pi2 = 15 | m
        assert res.passed
        assert abs(res.computed) <= 1e-9 * math.sqrt(15)
        assert res.reference == 0

    def test_vanishing_delta2(self):
        res = jsum_crt_check((3, 5), 5)  # delta_2 = 5 > 1
        assert res.passed
        assert abs(res.computed) <= 1e-9 * math.sqrt(15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            jsum_crt_check((3, 3), 1)  # square product
        with pytest.raises(ValueError):
            jsum_crt_check((2, 7), 1)  # pi2 even
        with pytest.raises(ValueError):
            jsum_crt_check((3, 5), 0)

    def test_random_cases(self):
        import random

        rng = random.Random(123)
        odd = [3, 5, 7, 11, 13]
        done = 0
        while done < 40:
            tup = tuple(rng.choice(odd) for _ in range(rng.choice([2, 3, 4])))
            pd = parity_decompose(tup)
            if pd.pi2 == 1 or pd.pi1 * pd.pi2 > 10_000:
                continue
            m = rng.randint(1, 40) * rng.choice([1, -1])
            assert jsum_crt_check(tup, m).passed, (tup, m)
            done += 1


@pytest.fixture(scope="module")
def default_weight():
    return SmoothWeight(0.5, 1.0, shape="exp", l=0, x=100.0, X_k=600.0)


class TestPoisson:
    def test_identity_small(self, default_weight):
        for q, l in ((7, 0), (7, 1), (12, 1), (1, 0)):
            w = SmoothWeight(0.5, 1.0, shape="exp", l=l, x=100.0, X_k=600.0)
            trunc = poisson_required_truncation(w, l, q)
            for j in (0, 3 % q):
                res = poisson_check(w, l, q, j, trunc)
                assert res.passed, (q, l, j, res.ratio_or_error)

    def test_truncation_refusal(self, default_weight):
        # the exp weight needs only a few transform terms; one fewer is refused
        required = poisson_required_truncation(default_weight, 0, 5)
        with pytest.raises(PoissonTruncationError) as err:
            poisson_check(default_weight, 0, 5, 0, required - 1)
        assert err.value.required == required
        # the C^3 poly weight has no transform, so no truncation is long enough
        poly = SmoothWeight(0.5, 1.0, shape="poly", l=0, x=100.0, X_k=600.0)
        with pytest.raises(ValueError, match="'poly'"):
            poisson_check(poly, 0, 5, 0, 10**6)

    def test_periodicity_in_j(self, default_weight):
        q = 9
        trunc = poisson_required_truncation(default_weight, 0, q) + q
        a = poisson_check(default_weight, 0, q, 2, trunc)
        b = poisson_check(default_weight, 0, q, 2 + q, trunc)
        assert abs(a.computed - b.computed) < 1e-9
        assert abs(a.reference - b.reference) < 1e-9

    def test_zero_frequency_dominates_for_huge_ratio(self):
        # q = 1, huge T/q: the m = 0 term carries the whole transform side
        from twistrank.kernel import weight_fourier

        w = SmoothWeight(0.5, 1.0, shape="exp", l=0, x=100.0, X_k=2000.0)
        trunc = poisson_required_truncation(w, 0, 1)
        res = poisson_check(w, 0, 1, 0, trunc)
        lead = 2000.0 * weight_fourier(w, 0.0, 0).real
        assert res.passed
        assert res.computed == pytest.approx(lead, rel=1e-3)

    def test_truncation_refuses_l_without_x(self):
        # W_l with l > 0 needs x as well as X_k (kernel._require_wl_params)
        w = SmoothWeight(0.5, 1.0, shape="exp", l=0, X_k=600.0)
        assert poisson_required_truncation(w, 0, 5) > 0
        with pytest.raises(ValueError, match="W_l with l > 0 needs the x and X_k scale parameters"):
            poisson_required_truncation(w, 1, 5)


_POLY = SmoothWeight(0.5, 1.0, shape="poly", l=1, x=100.0, X_k=600.0)


class TestPolyWeight:
    """The C^3 'poly' bump is evaluated (sweep --weight poly) but has no
    Fourier transform: every entry point that needs one refuses it."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda w: weight_fourier(w, 3.0, 1),
            lambda w: weight_fourier_derivative(w, 3.0, 1),
            fit_weight_gamma,
            lambda w: poisson_required_truncation(w, 1, 5),
            lambda w: poisson_check(w, 1, 5, 0, 10**6),
            lambda w: wl_decay_check(w, 1, 100.0, 600.0),
        ],
        ids=[
            "weight_fourier",
            "weight_fourier_derivative",
            "fit_weight_gamma",
            "poisson_required_truncation",
            "poisson_check",
            "wl_decay_check",
        ],
    )
    def test_transform_refused(self, call):
        with pytest.raises(ValueError, match="'exp' bump only, not 'poly'"):
            call(_POLY)

    def test_weight_still_evaluates(self):
        ts = np.array([0.4, 0.6, 0.75, 1.0])
        bump = ((0.6 - 0.5) * (1.0 - 0.6) / 0.0625) ** 4
        assert weight_eval(_POLY, ts).tolist() == [0.0, bump, 1.0, 0.0]
        log_factor = math.log(0.36 * 600.0**2) + 0.5 * math.log(100.0)
        assert weight_l_eval(_POLY, ts)[1] == pytest.approx(log_factor * bump, rel=1e-14)


# A gamma fit for a |t|^-3 envelope on this grid, with 4x headroom: the
# longer truncation that the short |t|^-8 one is checked against.
_T3_GRID = (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 48.0, 64.0, 96.0)


@functools.lru_cache(maxsize=None)
def t3_gamma(shape):
    base = SmoothWeight(0.5, 1.0, shape=shape)
    gamma = 1.0
    for t in _T3_GRID:
        env = min(1.0, t**-3) if t else 1.0
        gamma = max(
            gamma,
            abs(weight_fourier(base, t)) / env,
            abs(weight_fourier_derivative(base, t)) / env,
        )
    return 4.0 * gamma


def log_factor(l, x, X_k):
    return 1.0 if l == 0 else l**3 * (math.log(X_k) + math.log(x)) ** l


def t3_truncation(w, l, q, j):
    """One length for both sides from the |t|^-3 envelope: full lattice
    coverage of the support, and a transform tail below 1e-8."""
    T = w.X_k
    m_support = max(abs(math.floor((T * w.support_lo - j) / q)), abs(math.ceil((T * w.support_hi - j) / q))) + 1
    m_tail = math.ceil(q / T * math.sqrt(t3_gamma(w.shape) * log_factor(l, w.x, T) * 1e8))
    return max(m_support, m_tail, math.ceil(q / T) + 1)


def full_transform_side(w, l, q, j, M, cache):
    """(T/q) sum_{|m| <= M} hat(W_l)(T m / q) e(m j / q), every term by
    its own transform (negative frequencies too), summed with fsum."""
    terms = []
    for m in range(-M, M + 1):
        if m not in cache:
            cache[m] = weight_fourier(w, w.X_k * m / q, l)
        terms.append(cache[m] * cmath.exp(2j * math.pi * m * j / q))
    return w.X_k / q * complex(fsum(z.real for z in terms), fsum(z.imag for z in terms))


class TestPoissonOracle:
    """The short transform side against the |t|^-3-length sum, and the exact
    sampled side against a lattice sum over -M..M."""

    @pytest.mark.parametrize(
        "shape,q,l,T",
        [("exp", 1, 0, 600.0), ("exp", 7, 1, 4200.0)],
    )
    def test_matches_full_length_sums(self, shape, q, l, T):
        w = SmoothWeight(0.5, 1.0, shape=shape, l=l, x=100.0, X_k=T)
        trunc = poisson_required_truncation(w, l, q)
        cache = {}
        for j in sorted({0, q // 2, q - 1}):
            M = t3_truncation(w, l, q, j)
            assert trunc < M
            res = poisson_check(w, l, q, j, trunc)
            assert res.passed
            assert abs(res.reference - full_transform_side(w, l, q, j, M, cache)) <= 1e-8
            ms = np.arange(-M, M + 1)
            assert res.computed == fsum(weight_l_eval(w, (j + ms * q) / T, l).tolist())


# Dense frequencies out to 4.2e5, beyond the highest one (4.13e5) that the
# |t|^-3 truncation evaluated in the acceptance range, measured by the QAWO
# oracle.  QAWO is good to about 1e-11 absolute; past t ~ 60 it returns
# roundoff for the exp weight, which no |t|^-8 envelope can bound.
_DENSE_GRID = np.concatenate([np.arange(0.0, 64.0, 0.25), np.geomspace(64.0, 4.2e5, 60)])
_QAWO_FLOOR = 1e-11


@pytest.mark.parametrize("shape,k", [("exp", 8)])
def test_envelope_bounds_qawo_on_dense_grid(shape, k):
    gamma = fit_weight_gamma(SmoothWeight(0.5, 1.0, shape=shape))
    for l in range(4):
        w = SmoothWeight(0.5, 1.0, shape=shape, l=l, x=100.0, X_k=600.0)
        lfac = log_factor(l, 100.0, 600.0)
        worst = 0.0
        for t in _DENSE_GRID:
            env = gamma * lfac * (min(1.0, t**-k) if t else 1.0)
            measured = max(abs(qawo_weight_fourier(w, t, l)), abs(qawo_weight_fourier_derivative(w, t, l)))
            worst = max(worst, measured / max(env, _QAWO_FLOOR))
        assert worst <= 1.0, (shape, l, worst)
        if l == 0:
            # the fit grid catches the l = 0 peak (near t = 9) within 10 %,
            # leaving the 4x headroom to the l factors
            assert worst <= 1.1 / 4.0, (shape, worst)


def _suite_transform_cases():
    """(weight, l, frequency) for every transform the default suite asks
    for: the gamma fit, the decay checks and the Poisson block (T m / q)."""
    cases = [(SmoothWeight(0.5, 1.0), 0, t) for t in vl._GAMMA_GRID]
    for l in (1, 2, 3):
        w = SmoothWeight(0.5, 1.0, l=l, x=100.0, X_k=1000.0)
        cases += [(w, l, t) for t in vl._DECAY_GRID]
    for q in range(1, 13):
        T = float(max(400, 150 * q))
        for l in (0, 1):
            w = vl._default_weight(T, x=100.0, l=l)
            cases += [(w, l, T * m / q) for m in range(poisson_required_truncation(w, l, q) + 1)]
    return cases


def test_transforms_match_qawo_on_suite_frequencies():
    # both are within 2e-14 (1 + int |g|) of a 30-digit reference on these
    # grids (g the integrand), so they agree to twice that; int |g| is
    # hat(W_l)(0) for the transform and |hat(W_l)'(0)| for the derivative,
    # as W_l >= 0 on a positive support
    worst = 0.0
    for w, l, t in _suite_transform_cases():
        scale = (1.0 + weight_fourier(w, 0.0, l).real, 1.0 + abs(weight_fourier_derivative(w, 0.0, l)))
        got = (weight_fourier(w, t, l), weight_fourier_derivative(w, t, l))
        want = (qawo_weight_fourier(w, t, l), qawo_weight_fourier_derivative(w, t, l))
        for g, o, sc in zip(got, want, scale):
            worst = max(worst, abs(g - o) / (4e-14 * sc))
    assert worst <= 1.0, worst


@pytest.mark.parametrize("shape", ["exp"])
def test_transforms_match_qawo_at_high_frequency(shape):
    # the trapezoid at a count far below |freq| * width, out to the dense
    # grid's reach; QAWO is good to about 1e-11 absolute there
    for l in range(4):
        w = SmoothWeight(0.5, 1.0, shape=shape, l=l, x=100.0, X_k=600.0)
        for t in np.geomspace(20.0, 4.2e5, 25):
            assert abs(weight_fourier(w, t, l) - qawo_weight_fourier(w, t, l)) <= 1e-11, (l, t)
            assert abs(weight_fourier_derivative(w, t, l) - qawo_weight_fourier_derivative(w, t, l)) <= 1e-11


class TestDecay:
    def test_gamma_positive_and_cached(self, default_weight):
        g1 = fit_weight_gamma(default_weight)
        g2 = fit_weight_gamma(default_weight)
        assert g1 == g2 > 0

    def test_decay_bound_holds(self, default_weight):
        for l in (1, 2, 3):
            res = wl_decay_check(default_weight, l, x=100.0, X_k=600.0)
            assert res.passed, (l, res.ratio_or_error)

    def test_measured_decay_rate(self, default_weight):
        # |hat(W_0)| at t = 20 is at least 4x smaller than at t = 10
        # (t^-3 predicts 8x; allow 2x slack)
        from twistrank.kernel import weight_fourier

        a = abs(weight_fourier(default_weight, 10.0, 0))
        b = abs(weight_fourier(default_weight, 20.0, 0))
        assert b <= a / 4.0


@pytest.mark.parametrize(
    "call",
    [
        lambda c, t: rankin_linear_check(c, 1e4, t),
        lambda c, t: rankin_square_check(c, math.log(1e4), t),
        lambda c, t: grh_checks(c, 1e4, t),
    ],
    ids=["rankin_linear", "rankin_square", "grh"],
)
def test_short_prime_table_refused(ncm_curve, primes_1e3, call):
    # a table that stops below x = 1e4 is refused, never summed as far as it goes
    with pytest.raises(InsufficientPrimeTable) as err:
        call(ncm_curve, primes_1e3)
    assert (err.value.required, err.value.limit) == (10_000, primes_1e3.limit)


class TestSuite:
    def test_groups_filter(self, cm_curve, primes_1e4):
        res = run_suite([cm_curve], primes_1e4, x=1e4, only="gauss")
        assert res and all(r.name.startswith("gauss") for r in res)
        assert all(r.passed for r in res)

    def test_unknown_group_rejected(self, cm_curve, primes_1e4):
        with pytest.raises(ValueError):
            run_suite([cm_curve], primes_1e4, only="nonsense")

    def test_jsum_group_deterministic(self, cm_curve, primes_1e4):
        a = run_suite([cm_curve], primes_1e4, only="jsum", seed=5)
        b = run_suite([cm_curve], primes_1e4, only="jsum", seed=5)
        assert [r.name for r in a] == [r.name for r in b]
        assert all(r.passed for r in a)
