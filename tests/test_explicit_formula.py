import math

import pytest

from twistrank.curve import TwistedCurve, cpm
from twistrank.explicit_formula import (
    CSV_COLUMNS,
    InsufficientPrimeTable,
    R_sum,
    beta_p,
    ef_total,
    f_term,
    prime_side,
    report_record,
    twisted_upper_bound,
)
from twistrank.kernel import TriangleKernel, triangle

from conftest import brute_point_count


class TestBeta:
    def test_vanishes_at_cutoff(self, cm_curve):
        assert beta_p(cm_curve, 101, 100.0) == 0.0
        assert beta_p(cm_curve, 997, 100.0) == 0.0

    def test_zero_trace(self, cm_curve):
        assert beta_p(cm_curve, 3, 100.0) == 0.0  # a_3 = 0

    def test_bound(self, ncm_curve, primes_1e3):
        x = 500.0
        for p in (int(q) for q in primes_1e3.primes if q < 500):
            assert abs(beta_p(ncm_curve, p, x)) <= 2 * math.log(p) / math.sqrt(p) + 1e-12

    def test_value(self, cm_curve):
        # a_5 = 2
        x = 100.0
        expected = 2 * math.log(5) / 5 * (1 - math.log(5) / math.log(100))
        assert beta_p(cm_curve, 5, x) == pytest.approx(expected, rel=1e-14)


class TestFTerm:
    def test_values(self):
        assert f_term(100.0, 1) == pytest.approx(0.5 * math.log(100))
        assert f_term(math.e**2, math.e) == pytest.approx(3.0)
        for d in (3, -17, 40):
            assert f_term(50.0, d) == f_term(50.0, -d)

    def test_domain(self):
        with pytest.raises(ValueError):
            f_term(100.0, 0)
        with pytest.raises(ValueError):
            f_term(1.0, 5)


def legendre_table(p):
    if p == 2:
        return {0: 0, 1: 1, 3: -1, 5: -1, 7: 1}
    tab = {}
    for d in range(p):
        if d == 0:
            tab[d] = 0
        else:
            tab[d] = 1 if pow(d, (p - 1) // 2, p) == 1 else -1
    return tab


class TestRSum:
    def test_trivial_cases(self, cm_curve, primes_1e4):
        # x below the first prime: empty sum
        assert R_sum(cm_curve, 7, 1.5, primes_1e4) == 0.0

    def test_square_D_gives_plain_beta_sum(self, ncm_curve, primes_1e4):
        x = 200.0
        # D = 9 is coprime to every p < x except 3, where beta enters with
        # character 0; compare against the direct sum with (9|p)
        from twistrank.arith import kronecker
        from twistrank.explicit_formula import beta_array

        betas = beta_array(ncm_curve, x, primes_1e4)
        ps = primes_1e4.below(x)
        direct = 2 * math.fsum(
            float(b) * kronecker(9, int(p)) for b, p in zip(betas, ps)
        )
        assert R_sum(ncm_curve, 9, x, primes_1e4) == direct

    def test_against_term_by_term_bruteforce(self, ncm_curve, primes_1e4):
        x = 100.0
        logx = math.log(x)
        for D in (7, -11, 15, 21):
            terms = []
            for p in (int(q) for q in primes_1e4.primes if q < x):
                if D % 2 != 0 and p == 2:
                    chi = legendre_table(2)[D % 8]
                else:
                    chi = legendre_table(p).get(D % p, 0) if p > 2 else 0
                a = p + 1 - brute_point_count(ncm_curve.A, ncm_curve.B, p) if p > 3 else (
                    ncm_curve.a2 if p == 2 else ncm_curve.a3
                )
                terms.append(a * math.log(p) / p * max(0.0, 1 - math.log(p) / logx) * chi)
            brute = 2 * math.fsum(terms)
            assert R_sum(ncm_curve, D, x, primes_1e4) == pytest.approx(brute, abs=1e-12)

    def test_insufficient_table(self, cm_curve, primes_1e3):
        with pytest.raises(InsufficientPrimeTable) as err:
            R_sum(cm_curve, 5, 1e5, primes_1e3)
        assert err.value.required == 100000


class TestPrimeSide:
    def test_trivial_twist_matches_base_sum(self, ncm_curve, primes_1e4):
        kern = TriangleKernel(math.log(2000.0))
        m1, m2, tail = prime_side(TwistedCurve(ncm_curve, 1), kern, primes_1e4)
        # base m=1 sum computed independently
        lam = kern.lam
        expect = math.fsum(
            cpm(ncm_curve, int(p), 1) * math.log(int(p)) / int(p) * triangle(math.log(int(p)) / lam)
            for p in primes_1e4.primes
            if int(p) < 2000
        )
        assert m1 == pytest.approx(expect, abs=1e-12)

    def test_insufficient_table_names_limit(self, cm_curve, primes_1e3):
        kern = TriangleKernel(math.log(50_000.0))
        with pytest.raises(InsufficientPrimeTable) as err:
            prime_side(TwistedCurve(cm_curve, 5), kern, primes_1e3)
        assert err.value.required == 50_000

    def test_tail_bound(self, cm_curve, ncm_curve, primes_1e4):
        # |tail| stays below the absolute constant 3 fixed by the dominating
        # series sum 2 log n / n^(3/2)
        for curve in (cm_curve, ncm_curve):
            for D in (1, -3, 5, 12):
                for x in (100.0, 1e4):
                    kern = TriangleKernel(math.log(x))
                    _, _, tail = prime_side(TwistedCurve(curve, D), kern, primes_1e4)
                    assert abs(tail) <= 3.0

    def test_tail_bound_large_lambda(self, cm_curve, ncm_curve, primes_1e4):
        # at lam = log(1e6) only p < 100 contribute to m >= 3; recompute the
        # tail definition directly without the m = 1 cost
        from twistrank.explicit_formula import _twist_cpm

        lam = math.log(1e6)
        for curve in (cm_curve, ncm_curve):
            tw = TwistedCurve(curve, -7)
            terms = []
            for p in (int(q) for q in primes_1e4.primes if q < 101):
                pm, m = p**3, 3
                while pm < 1e6:
                    terms.append(
                        _twist_cpm(tw, p, m) * math.log(p) / pm * triangle(m * math.log(p) / lam)
                    )
                    pm *= p
                    m += 1
            assert abs(math.fsum(terms)) <= 3.0


class TestPrimeSideOracle:
    """prime_side against the direct term-by-term sum over every p^m."""

    @staticmethod
    def _direct(tw, lam, primes):
        from twistrank.explicit_formula import _twist_cpm

        cutoff = math.exp(lam)
        sums = ([], [], [])
        for p in (int(q) for q in primes.below(cutoff)):
            lp = math.log(p)
            # the m = 1 weight (log p)/p F is formed before the coefficient
            # multiplies it, as in the vectorized beta_p
            sums[0].append(_twist_cpm(tw, p, 1) * (lp / p * triangle(lp / lam)))
            pm, m = p * p, 2
            while pm < cutoff:
                term = _twist_cpm(tw, p, m) * lp / pm * triangle(m * lp / lam)
                sums[min(m, 3) - 1].append(term)
                pm *= p
                m += 1
        return tuple(math.fsum(t) for t in sums)

    @pytest.mark.parametrize("x", [30.0, 200.0, 1e3, 1e4])
    def test_matches_direct_sum(self, cm_curve, ncm_curve, primes_1e4, x, monkeypatch):
        # every D in [-300, 300]: non-squarefree, even and D sharing a prime
        # with N included.  a_p is memoized for speed only; it is a pure
        # function of (curve, p).
        import functools

        import twistrank.curve as curve_mod

        monkeypatch.setattr(curve_mod, "ap", functools.lru_cache(maxsize=None)(curve_mod.ap))
        lam = math.log(x)
        kern = TriangleKernel(lam)
        for curve in (cm_curve, ncm_curve):
            for D in range(-300, 301):
                if D == 0:
                    continue
                tw = TwistedCurve(curve, D)
                got = prime_side(tw, kern, primes_1e4)
                assert repr(got) == repr(self._direct(tw, lam, primes_1e4)), (curve.label, x, D)


class TestEfTotal:
    def test_trivial_twist_exact_conductor(self, ncm_curve, primes_1e4):
        kern = TriangleKernel(math.log(1000.0))
        rep = ef_total(TwistedCurve(ncm_curve, 1), kern, primes_1e4)
        assert rep.log_conductor == math.log(37)
        assert rep.conductor_exact
        assert rep.root_number == ncm_curve.root_number

    def test_field_identity_reconstructs(self, cm_curve, primes_1e4):
        kern = TriangleKernel(math.log(5000.0))
        for D in (1, -3, 10, 21):
            rep = ef_total(TwistedCurve(cm_curve, D), kern, primes_1e4)
            rebuilt = rep.log_conductor - 2.0 * (
                rep.prime_sum_m1 + rep.prime_sum_m2 + rep.prime_sum_tail
            ) - rep.archimedean
            assert rebuilt == rep.total_S
            assert rep.rank_bound == rep.total_S / rep.lam

    def test_minus_D_shares_even_data(self, ncm_curve, primes_1e4):
        kern = TriangleKernel(math.log(2000.0))
        a = ef_total(TwistedCurve(ncm_curve, 13), kern, primes_1e4)
        b = ef_total(TwistedCurve(ncm_curve, -13), kern, primes_1e4)
        assert a.log_conductor == b.log_conductor
        assert a.archimedean == b.archimedean
        # m = 2 differs only at p = 2 through the character at 2
        assert a.prime_sum_m2 == pytest.approx(b.prime_sum_m2, abs=0.5)

    def test_rank_bound_scaling(self, cm_curve, primes_1e4):
        kern = TriangleKernel(math.log(1000.0))
        rep = ef_total(TwistedCurve(cm_curve, 5), kern, primes_1e4)
        assert rep.rank_bound == rep.total_S / math.log(1000.0)

    def test_twisted_upper_bound_majorizes(self, cm_curve, primes_1e4):
        # the coarse bound drops the m>=2 terms and replaces log N by
        # 2log|D| + lambda/2; for clean twists of the shipped curves it
        # stays above total_S once |D| is moderately large
        kern = TriangleKernel(math.log(1000.0))
        for D in (-103, 101, 145):
            rep = ef_total(TwistedCurve(cm_curve, D), kern, primes_1e4)
            assert twisted_upper_bound(rep) >= rep.total_S - 1.0


class TestSerialization:
    def test_csv_columns_and_roundtrip(self, cm_curve, primes_1e4):
        kern = TriangleKernel(math.log(500.0))
        reports = [ef_total(TwistedCurve(cm_curve, D), kern, primes_1e4) for D in (1, -3)]
        record = report_record(reports[0])
        assert list(record)[: len(CSV_COLUMNS)] == CSV_COLUMNS
        assert record["D"] == 1
        assert record["rank_bound"] == reports[0].rank_bound
        assert record["conductor_exact"] is True  # the writer spells it true

    def test_json(self, cm_curve, primes_1e4):
        kern = TriangleKernel(math.log(500.0))
        reports = [ef_total(TwistedCurve(cm_curve, 5), kern, primes_1e4)]
        data = [report_record(r) for r in reports]
        assert data[0]["D"] == 5
        assert data[0]["rank_bound"] == reports[0].rank_bound
        assert list(data[0]) == CSV_COLUMNS + ["twisted_upper_bound"]
        assert data[0]["twisted_upper_bound"] == twisted_upper_bound(reports[0])
