import math
import sys

import numpy as np
import pytest

import twistrank.explicit_formula as ef
import twistrank.kernel as kernel_mod
from twistrank import arith
from twistrank.arith import is_squarefree
from twistrank.explicit_formula import prime_sides
from twistrank.family_moments import (
    RANK_TAIL_LEVELS,
    EmptyFamilyError,
    FamilySums,
    MomentConfig,
    X_k,
    empirical_rank_tail,
    family_windows,
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

from conftest import trial_twist_invariants


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


def family_columns(config, primes):
    """(D, W, rank_bound, root_number) of the swept family, every window's rows joined."""
    rows = [(t.twists.D, w, t.rank_bound, t.twists.root_number) for w, t in family_windows(config, primes)]
    return tuple(np.concatenate(column) for column in zip(*rows))


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

    def test_family_values_filters(self, cm_curve, primes_1e4):
        cfg = MomentConfig(curve=cm_curve, k=1, x=100.0, weight=SmoothWeight(0.5, 1.0), T=100.0)
        assert all(table.twists.base == cm_curve for _, table in family_windows(cfg, primes_1e4))
        ds, weights, _, _ = family_columns(cfg, primes_1e4)
        assert ds.size
        for D, w in zip(ds.tolist(), weights.tolist()):
            assert 50.0 < D < 100.0
            assert is_squarefree(D) and math.gcd(D, 2 * cm_curve.conductor) == 1
            assert w == weight_eval(cfg.weight, D / cfg.T) > 0.0

    def test_negative_support_selects_negative_D(self, cm_curve, primes_1e4):
        cfg = MomentConfig(
            curve=cm_curve, k=1, x=100.0, weight=SmoothWeight(-1.0, -0.5), T=100.0
        )
        ds = family_columns(cfg, primes_1e4)[0].tolist()
        assert ds and all(-100.0 < d < -50.0 for d in ds)

    def test_unfiltered_range_includes_even(self, cm_curve, primes_1e4):
        cfg = MomentConfig(
            curve=cm_curve,
            k=1,
            x=100.0,
            weight=SmoothWeight(0.5, 1.0),
            T=60.0,
            squarefree_only=False,
            coprime_to_2N=False,
        )
        ds = family_columns(cfg, primes_1e4)[0].tolist()
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
            assert twists.D.tolist() == expected
            assert twists.base == curve
            assert twists.squarefree.tolist() == [is_squarefree(abs(D)) for D in expected]
            # d_K = 12 for D = 12 and 3, and d_K = -4 for D = 4 and -1: only
            # the squarefree kernel tells the non-squarefree D apart
            kept = set(filter_twists(curve, range(-12, 13), squarefree, False).D.tolist())
            assert kept & {12, -12, 4, -4, 3, -1} == ({3, -1} if squarefree else {12, -12, 4, -4, 3, -1})
            # consecutive ascending D only: the sieve runs over an interval
            with pytest.raises(ValueError):
                filter_twists(curve, range(300, -301, -1), squarefree, coprime)

    def test_sweep_work_counts(self, cm_curve, primes_1e4, monkeypatch, capsys):
        # W in one call over the twists the filters keep (before the sign
        # filter), one squarefree sieve over the support (a family of one
        # window), and on the sweep
        # and ef-report paths no factorisation but the conductor's (for the
        # root numbers)
        calls = {"weight_eval": [], "squarefree_kernels": [], "_factorisation": []}

        def counted(name, fn):
            def wrapper(*args):
                calls[name].append(args)
                return fn(*args)

            return wrapper

        cfg = MomentConfig(
            curve=cm_curve, k=1, x=200.0, weight=SmoothWeight(0.5, 1.0), T=420.0, sign="plus"
        )
        support = range(211, 420)  # 0.5 < D/T < 1
        coprime = [D for D in support if math.gcd(D, 2 * cm_curve.conductor) == 1]
        kept = [D for D in coprime if is_squarefree(D)]
        # wrapped in every twistrank namespace that binds the function
        for name in calls:
            original = getattr(arith, name, None) or getattr(kernel_mod, name)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("twistrank") and getattr(mod, name, None) is original:
                    monkeypatch.setattr(mod, name, counted(name, original))
        family = sweep_family(cfg, primes_1e4)
        [(_, u)] = calls["weight_eval"]
        assert u.tolist() == [D / cfg.T for D in kept]
        [(lo, hi, _)] = calls["squarefree_kernels"]
        assert (lo, hi) == (211, 419)
        assert 0 < family.size < len(coprime)
        from twistrank.cli import main

        args = ["ef-report", "--curve", "ncm37", "--x", "200", "--dmin", "-300", "--dmax", "300"]
        assert main(args) == 0 and main(args + ["--squarefree", "--coprime"]) == 0
        assert main(["sweep", "--curve", "cm32-like", "--x", "200", "--T", "420"]) == 0
        capsys.readouterr()
        assert set(calls["_factorisation"]) == {(37,), (cm_curve.conductor,)}


class TestWeightedMoment:
    def test_degenerate_single_twist(self, cm_curve, primes_1e4):
        # support forced around a single integer: moment = rank_bound^k
        cfg = MomentConfig(
            curve=cm_curve, k=2, x=200.0, weight=SmoothWeight(0.9, 1.0), T=14.0
        )
        ds, _, bounds, _ = family_columns(cfg, primes_1e4)
        assert ds.tolist() == [13]
        moment = weighted_moment(cfg, sweep_family(cfg, primes_1e4))
        assert moment.empirical_moment == pytest.approx(bounds[0] ** 2, rel=1e-14)
        assert moment.family_size == 1

    def test_two_pass_recomputation(self, small_config, small_rows, primes_1e4):
        moment = weighted_moment(small_config, small_rows)
        _, weights, bounds, _ = (column.tolist() for column in family_columns(small_config, primes_1e4))
        num = math.fsum(b ** small_config.k * w for b, w in zip(bounds, weights))
        den = math.fsum(weights)
        assert moment.empirical_moment == pytest.approx(num / den, abs=1e-10)
        assert moment.weighted_count == den
        assert moment.theoretical_bound == 1.5

    def test_weight_scaling_invariance(self, small_config, small_rows, primes_1e4):
        scaled = FamilySums(small_config.k)
        for weight, table in family_windows(small_config, primes_1e4):
            scaled.add(7.25 * weight, table)
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
        assert total == stats["family_size"] == small_rows.size

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

    def test_rank_tail_monotone(self, small_config, small_rows, primes_1e4):
        vals = [empirical_rank_tail(small_rows, r) for r in RANK_TAIL_LEVELS]
        assert vals[0] == 1.0
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        # each tail is the exact weighted share, as fsum over the rows gives it
        _, weights, bounds, _ = family_columns(small_config, primes_1e4)
        for r, val in zip(RANK_TAIL_LEVELS, vals):
            assert val == math.fsum(weights[bounds >= r].tolist()) / math.fsum(weights.tolist())
        # the sums hold no other level
        with pytest.raises(ValueError):
            empirical_rank_tail(small_rows, 0.5)

    def test_sign_filter_consistency(self, cm_curve, primes_1e4):
        base = MomentConfig(
            curve=cm_curve, k=1, x=200.0, weight=SmoothWeight(0.5, 1.0), T=420.0
        )
        plus_cfg = MomentConfig(
            curve=cm_curve, k=1, x=200.0, weight=SmoothWeight(0.5, 1.0), T=420.0, sign="plus"
        )
        ds, _, bounds, roots = family_columns(base, primes_1e4)
        plus_ds, _, plus_bounds, _ = family_columns(plus_cfg, primes_1e4)
        plus = roots == 1
        assert plus_ds.tolist() == ds[plus].tolist()
        assert plus_bounds.tolist() == bounds[plus].tolist()


    def test_sign_filter_precedes_prime_sides(self, ncm_curve, primes_1e4, monkeypatch):
        # the batched prime side sees each kept row once and never a twist
        # of the other sign
        evaluated = []

        def counting_prime_sides(curve, ds, *rest):
            evaluated.extend(ds.tolist())
            return prime_sides(curve, ds, *rest)

        monkeypatch.setattr(ef, "prime_sides", counting_prime_sides)
        cfg = MomentConfig(
            curve=ncm_curve, k=1, x=200.0, weight=SmoothWeight(0.5, 1.0), T=420.0, sign="plus"
        )
        ds = family_columns(cfg, primes_1e4)[0].tolist()
        assert evaluated == ds
        assert all(trial_twist_invariants(ncm_curve, D)["root_number"] == 1 for D in evaluated)
        assert len(ds) < sweep_family(cfg._replace(sign="any"), primes_1e4).size

    def test_empty_after_sign_filter(self, cm_curve, primes_1e4, monkeypatch):
        # on the even-conductor curve every defined sign in a positive family
        # is +1, so a minus sweep is empty before any prime-side work
        monkeypatch.setattr(ef, "prime_sides", None)
        cfg = MomentConfig(
            curve=cm_curve, k=1, x=200.0, weight=SmoothWeight(0.5, 1.0), T=420.0, sign="minus"
        )
        assert len(filter_twists(cm_curve, cfg.support_ds(), True, True))
        with pytest.raises(EmptyFamilyError):
            sweep_family(cfg, primes_1e4)
