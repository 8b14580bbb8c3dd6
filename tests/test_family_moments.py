import math
import sys
from dataclasses import replace

import pytest

import twistrank.family_moments as fm
import twistrank.kernel as kernel_mod
from twistrank import arith
from twistrank.arith import is_squarefree
from twistrank.explicit_formula import prime_sides
from twistrank.family_moments import (
    EmptyFamilyError,
    MomentConfig,
    X_k,
    empirical_rank_tail,
    family_twist_values,
    filter_twists,
    lowzero_density_bound,
    rank_density_bound,
    sign_partition_stats,
    sweep_family,
    theoretical_moment_bound,
    weighted_moment,
    SINC_HALF_SQUARED,
)
from twistrank.kernel import SmoothWeight, weight_eval


@pytest.fixture(scope="module")
def small_config(cm_curve):
    return MomentConfig(
        curve=cm_curve,
        k=1,
        x=200.0,
        weight=SmoothWeight(0.5, 1.0),
        T=420.0,
    )


@pytest.fixture(scope="module")
def small_rows(small_config, primes_1e4):
    return sweep_family(small_config, primes_1e4)


@pytest.fixture(scope="module")
def neg_config(cm_curve):
    return MomentConfig(
        curve=cm_curve, k=1, x=200.0, weight=SmoothWeight(-1.0, -0.5), T=420.0
    )


@pytest.fixture(scope="module")
def neg_rows(neg_config, primes_1e4):
    return sweep_family(neg_config, primes_1e4)


class TestScaleAndConstants:
    def test_X_k_values(self):
        assert X_k(math.e, 1) == pytest.approx(math.e**0.5, rel=1e-12)
        assert X_k(math.e, 2) == pytest.approx(math.e, rel=1e-12)

    def test_X_k_monotone(self):
        xs = [3.0, 5.0, 10.0, 100.0]
        for k in (1, 2, 3):
            vals = [X_k(x, k) for x in xs]
            assert vals == sorted(vals)
        for x in (3.0, 10.0):
            vals = [X_k(x, k) for k in (1, 2, 3, 4)]
            assert vals == sorted(vals)

    def test_theoretical_bound_exact_at_one(self):
        assert theoretical_moment_bound(1) == 1.5

    def test_theoretical_bound_k2(self):
        assert theoretical_moment_bound(2) == pytest.approx(6.25 + 1.0 / 3.0, rel=1e-15)

    def test_theoretical_bound_matches_direct_formula(self):
        s = 1.0 / math.sqrt(3.0)
        for k in range(1, 12):
            direct = 0.5 * ((k + 0.5 + s) ** k + (k + 0.5 - s) ** k)
            assert theoretical_moment_bound(k) == pytest.approx(direct, rel=1e-12)
            assert theoretical_moment_bound(k) > (k + 0.5 - s) ** k

    def test_rank_density_bound(self):
        assert rank_density_bound(1e-9) == pytest.approx(0.5, rel=1e-6)
        assert rank_density_bound(1.0) == pytest.approx(0.5 / 1.44467, rel=1e-12)
        assert rank_density_bound(1.0) == pytest.approx(0.3460998, abs=1e-7)
        vals = [rank_density_bound(r) for r in (0.5, 1.0, 2.0, 4.0)]
        assert vals == sorted(vals, reverse=True)
        with pytest.raises(ValueError):
            rank_density_bound(0.0)

    def test_lowzero_density_bound(self):
        assert lowzero_density_bound(1) == pytest.approx(1.0 / 1.402408, rel=1e-12)
        assert lowzero_density_bound(1) == pytest.approx(0.7130593, abs=1e-6)
        with pytest.raises(ValueError):
            lowzero_density_bound(0)

    def test_sinc_threshold_constant(self):
        # the quoted 10-digit constant is off by 1.4e-10 in its last digit
        # from the recomputed (sin(1/2)/(1/2))^2
        assert abs((math.sin(0.5) / 0.5) ** 2 - SINC_HALF_SQUARED) < 5e-10


class TestConfigAndFamily:
    def test_config_validation(self, cm_curve):
        w = SmoothWeight(0.5, 1.0)
        with pytest.raises(ValueError):
            MomentConfig(curve=cm_curve, k=0, x=100.0, weight=w)
        with pytest.raises(ValueError):
            MomentConfig(curve=cm_curve, k=1, x=2.0, weight=w)
        with pytest.raises(ValueError):
            MomentConfig(curve=cm_curve, k=1, x=100.0, weight=w, sign="plus", squarefree_only=False)
        cfg = MomentConfig(curve=cm_curve, k=2, x=100.0, weight=w)
        assert cfg.T == pytest.approx(X_k(100.0, 2))

    def test_family_values_filters(self, cm_curve):
        cfg = MomentConfig(curve=cm_curve, k=1, x=100.0, weight=SmoothWeight(0.5, 1.0), T=100.0)
        pairs = family_twist_values(cfg)
        assert pairs
        for t, w in pairs:
            assert 50.0 < t.D < 100.0
            assert is_squarefree(t.D) and math.gcd(t.D, 2 * cm_curve.conductor) == 1
            assert t.base == cm_curve and w == weight_eval(cfg.weight, t.D / cfg.T) > 0.0

    def test_negative_support_selects_negative_D(self, cm_curve):
        cfg = MomentConfig(
            curve=cm_curve, k=1, x=100.0, weight=SmoothWeight(-1.0, -0.5), T=100.0
        )
        ds = [t.D for t, _ in family_twist_values(cfg)]
        assert ds and all(-100.0 < d < -50.0 for d in ds)

    def test_unfiltered_range_includes_even(self, cm_curve):
        cfg = MomentConfig(
            curve=cm_curve,
            k=1,
            x=100.0,
            weight=SmoothWeight(0.5, 1.0),
            T=60.0,
            squarefree_only=False,
            coprime_to_2N=False,
        )
        ds = [t.D for t, _ in family_twist_values(cfg)]
        assert any(d % 2 == 0 for d in ds)

    @pytest.mark.parametrize("squarefree", [True, False])
    @pytest.mark.parametrize("coprime", [True, False])
    def test_filter_matches_brute_force(self, catalog, squarefree, coprime):
        for curve in catalog.values():
            n2 = 2 * curve.conductor
            expected = [
                D
                for D in range(-300, 301)
                if D != 0
                and (not squarefree or is_squarefree(abs(D)))
                and (not coprime or math.gcd(D, n2) == 1)
            ]
            twists = filter_twists(curve, range(-300, 301), squarefree, coprime)
            assert [t.D for t in twists] == expected
            assert all(t.base == curve and t.squarefree == is_squarefree(abs(t.D)) for t in twists)
            # d_K = 12 for D = 12 and 3, and d_K = -4 for D = 4 and -1: only
            # the squarefree kernel tells the non-squarefree D apart
            kept = {t.D for t in filter_twists(curve, (12, -12, 4, -4, 3, -1), squarefree, False)}
            assert kept == ({3, -1} if squarefree else {12, -12, 4, -4, 3, -1})
            # input order, not sorted order
            back = filter_twists(curve, range(300, -301, -1), squarefree, coprime)
            assert [t.D for t in back] == expected[::-1]

    def test_sweep_work_counts(self, cm_curve, primes_1e4, monkeypatch):
        # W once per D of the support, one factorisation per D that passes
        # the gcd test, and no separate squarefree test
        calls = {"weight_eval": [], "fundamental_discriminant": [], "is_squarefree": []}

        def counted(name, fn):
            def wrapper(*args):
                calls[name].append(args)
                return fn(*args)

            return wrapper

        cfg = MomentConfig(
            curve=cm_curve, k=1, x=200.0, weight=SmoothWeight(0.5, 1.0), T=420.0, sign="plus"
        )
        support = range(211, 420)  # 0.5 < D/T < 1
        candidates = [D for D in support if weight_eval(cfg.weight, D / cfg.T) > 0.0]
        coprime = [D for D in candidates if math.gcd(D, 2 * cm_curve.conductor) == 1]
        # wrapped in every twistrank namespace that binds the function
        for name in calls:
            original = getattr(arith, name, None) or getattr(kernel_mod, name)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("twistrank") and getattr(mod, name, None) is original:
                    monkeypatch.setattr(mod, name, counted(name, original))
        rows = sweep_family(cfg, primes_1e4)
        assert [u for _, u in calls["weight_eval"]] == [D / cfg.T for D in support]
        assert [D for (D,) in calls["fundamental_discriminant"]] == coprime
        assert calls["is_squarefree"] == []
        assert rows and len(rows) < len(coprime)


class TestWeightedMoment:
    def test_degenerate_single_twist(self, cm_curve, primes_1e4):
        # support forced around a single integer: moment = rank_bound^k
        cfg = MomentConfig(
            curve=cm_curve, k=2, x=200.0, weight=SmoothWeight(0.9, 1.0), T=14.0
        )
        assert [t.D for t, _ in family_twist_values(cfg)] == [13]
        rows = sweep_family(cfg, primes_1e4)
        moment = weighted_moment(cfg, rows)
        assert moment.empirical_moment == pytest.approx(
            rows[0].report.rank_bound ** 2, rel=1e-14
        )
        assert moment.family_size == 1

    def test_two_pass_recomputation(self, small_config, small_rows):
        moment = weighted_moment(small_config, small_rows)
        num = math.fsum(
            r.report.rank_bound ** small_config.k * r.weight for r in small_rows
        )
        den = math.fsum(r.weight for r in small_rows)
        assert moment.empirical_moment == pytest.approx(num / den, abs=1e-10)
        assert moment.weighted_count == den
        assert moment.theoretical_bound == 1.5

    def test_weight_scaling_invariance(self, small_config, small_rows):
        scaled = [replace(r, weight=7.25 * r.weight) for r in small_rows]
        t0 = weighted_moment(small_config, small_rows)
        t1 = weighted_moment(small_config, scaled)
        assert t1.empirical_moment == pytest.approx(t0.empirical_moment, rel=1e-12)
        assert t1.weighted_count == pytest.approx(7.25 * t0.weighted_count, rel=1e-12)

    def test_empty_family(self, cm_curve, primes_1e4):
        cfg = MomentConfig(
            curve=cm_curve, k=1, x=200.0, weight=SmoothWeight(0.9, 1.0), T=2.0
        )
        with pytest.raises(EmptyFamilyError):
            sweep_family(cfg, primes_1e4)

    def test_csv_has_fixed_columns(self, small_config, small_rows):
        moment = weighted_moment(small_config, small_rows)
        record = moment.record()
        header = ",".join(record)
        assert header == "k,x,T,filter_flags,weighted_count,family_size,empirical_moment,theoretical_bound,ratio"
        assert record["ratio"] == moment.empirical_moment / moment.theoretical_bound
        assert record["filter_flags"] == "squarefree+coprime+sign=any"


class TestPartitionAndTail:
    # for the even-conductor curve the defined root numbers on a one-sided
    # family all share the sign of D, so odd twists live in negative support
    def test_partition_covers_family(self, small_rows):
        stats = sign_partition_stats(small_rows)
        total = (
            stats["plus"]["family_size"]
            + stats["minus"]["family_size"]
            + stats["undefined"]["family_size"]
        )
        assert total == stats["family_size"] == len(small_rows)

    def test_odd_twists_bounded_below(self, neg_rows):
        stats = sign_partition_stats(neg_rows)
        assert stats["minus"]["family_size"] > 0
        assert stats["minus"]["avg_rank_bound"] >= 0.9

    def test_estimator_algebra(self, small_rows, neg_rows):
        plus = sign_partition_stats(small_rows)["plus"]
        assert plus["family_size"] > 0
        assert plus["rank0_fraction_lb"] == pytest.approx(
            max(0.0, 1.0 - plus["avg_rank_bound"] / 2.0)
        )
        minus = sign_partition_stats(neg_rows)["minus"]
        assert minus["rank1_fraction_lb"] == pytest.approx(
            max(0.0, (3.0 - minus["avg_rank_bound"]) / 2.0)
        )

    def test_rank_tail_monotone(self, small_rows):
        vals = [empirical_rank_tail(small_rows, r) for r in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert vals[0] == 1.0
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert empirical_rank_tail(small_rows, math.inf) == 0.0

    def test_sign_filter_consistency(self, cm_curve, primes_1e4):
        base = MomentConfig(
            curve=cm_curve, k=1, x=200.0, weight=SmoothWeight(0.5, 1.0), T=420.0
        )
        plus_cfg = MomentConfig(
            curve=cm_curve, k=1, x=200.0, weight=SmoothWeight(0.5, 1.0), T=420.0, sign="plus"
        )
        all_rows = sweep_family(base, primes_1e4)
        plus_rows = sweep_family(plus_cfg, primes_1e4)
        assert {r.D for r in plus_rows} == {
            r.D for r in all_rows if r.report.root_number == 1
        }


    def test_sign_filter_precedes_prime_side(self, ncm_curve, primes_1e4, monkeypatch):
        # the batched prime side sees each kept row once and never a twist
        # of the other sign
        evaluated = []

        def counting_prime_sides(twists, kernel, primes):
            evaluated.extend(twists)
            return prime_sides(twists, kernel, primes)

        monkeypatch.setattr(fm, "prime_sides", counting_prime_sides)
        cfg = MomentConfig(
            curve=ncm_curve, k=1, x=200.0, weight=SmoothWeight(0.5, 1.0), T=420.0, sign="plus"
        )
        rows = sweep_family(cfg, primes_1e4)
        assert [t.D for t in evaluated] == [r.D for r in rows]
        assert all(t.root_number == 1 for t in evaluated)
        assert len(rows) < len(family_twist_values(cfg))

    def test_empty_after_sign_filter(self, cm_curve, primes_1e4, monkeypatch):
        # on the even-conductor curve every defined sign in a positive family
        # is +1, so a minus sweep is empty before any prime-side work
        monkeypatch.setattr(fm, "prime_sides", None)
        cfg = MomentConfig(
            curve=cm_curve, k=1, x=200.0, weight=SmoothWeight(0.5, 1.0), T=420.0, sign="minus"
        )
        assert family_twist_values(cfg)
        with pytest.raises(EmptyFamilyError):
            sweep_family(cfg, primes_1e4)
