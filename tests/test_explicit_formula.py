import math
from collections import Counter

import numpy as np
import pytest

import twistrank.explicit_formula as ef
from twistrank import arith
from twistrank.arith import sieve_primes
from twistrank.curve import ap_array, twist_columns
from twistrank.explicit_formula import (
    CSV_COLUMNS,
    InsufficientPrimeTable,
    beta_array,
    evaluate_reports,
    prime_sides,
)
from twistrank.cli import main
from twistrank.family_moments import MomentConfig, filter_twists, sweep_family
from twistrank.kernel import SmoothWeight, TriangleKernel, triangle

from conftest import (
    cpm_reference,
    fsum_prime_sides,
    one_row_prime_sides,
    one_twist,
    trial_twist_invariants,
    twist_cpm,
)


class TestBeta:
    def test_vanishes_at_cutoff(self, cm_curve, primes_1e3):
        # beta_p is 0 from p = x on: the array holds only the primes p < x
        assert beta_array(cm_curve, 100.0, primes_1e3).size == 25
        assert beta_array(cm_curve, 101.0, primes_1e3).size == 25  # 101 itself is out
        assert beta_array(cm_curve, 1.5, primes_1e3).size == 0

    def test_zero_trace(self, cm_curve, primes_1e3):
        betas = beta_array(cm_curve, 100.0, primes_1e3)
        assert betas[1] == 0.0  # p = 3, a_3 = 0

    def test_bound(self, ncm_curve, primes_1e3):
        x = 500.0
        betas = beta_array(ncm_curve, x, primes_1e3)
        for p, b in zip(primes_1e3.below(x).tolist(), betas.tolist()):
            assert abs(b) <= 2 * math.log(p) / math.sqrt(p) + 1e-12

    def test_value(self, cm_curve, primes_1e3):
        # a_5 = 2
        x = 100.0
        expected = 2 * math.log(5) / 5 * (1 - math.log(5) / math.log(100))
        assert beta_array(cm_curve, x, primes_1e3)[2] == pytest.approx(expected, rel=1e-14)


class TestPrimeSide:
    def test_trivial_twist_matches_base_sum(self, ncm_curve, primes_1e4):
        kern = TriangleKernel(math.log(2000.0))
        m1, m2, tail = one_row_prime_sides(ncm_curve, 1, kern, primes_1e4)
        # base m=1 sum computed independently
        lam = kern.lam
        expect = math.fsum(
            a * math.log(p) / p * triangle(math.log(p) / lam)
            for p, a in zip(primes_1e4.below(2000).tolist(), ap_array(ncm_curve, primes_1e4, 2000).tolist())
        )
        assert m1 == pytest.approx(expect, abs=1e-12)

    def test_insufficient_table_names_limit(self, cm_curve, primes_1e3):
        kern = TriangleKernel(math.log(50_000.0))
        with pytest.raises(InsufficientPrimeTable) as err:
            prime_sides(cm_curve, [5], kern, primes_1e3)
        assert err.value.required == 50_000

    def test_tail_bound(self, cm_curve, ncm_curve, primes_1e4):
        # |tail| stays below the absolute constant 3 fixed by the dominating
        # series sum 2 log n / n^(3/2)
        for curve in (cm_curve, ncm_curve):
            for x in (100.0, 1e4):
                kern = TriangleKernel(math.log(x))
                tails = prime_sides(curve, [1, -3, 5, 12], kern, primes_1e4)[2]
                assert (abs(tails) <= 3.0).all()

    def test_tail_bound_large_lambda(self, cm_curve, ncm_curve, primes_1e4):
        # at lam = log(1e6) only p < 100 contribute to m >= 3; recompute the
        # tail definition directly without the m = 1 cost
        lam = math.log(1e6)
        for curve in (cm_curve, ncm_curve):
            terms = []
            for p in (int(q) for q in primes_1e4.primes if q < 101):
                pm, m = p**3, 3
                while pm < 1e6:
                    terms.append(
                        twist_cpm(curve, -7, p, m) * math.log(p) / pm * triangle(m * math.log(p) / lam)
                    )
                    pm *= p
                    m += 1
            assert abs(math.fsum(terms)) <= 3.0


class TestPrimeSideOracle:
    """prime_sides against the direct term-by-term sum over every p^m."""

    @staticmethod
    def _direct(curve, D, lam, primes):
        cutoff = math.exp(lam)
        sums = ([], [], [])
        for p in (int(q) for q in primes.below(cutoff)):
            lp = math.log(p)
            # the m = 1 weight (log p)/p F is formed before the coefficient
            # multiplies it, as in beta_array
            sums[0].append(twist_cpm(curve, D, p, 1) * (lp / p * triangle(lp / lam)))
            pm, m = p * p, 2
            while pm < cutoff:
                term = twist_cpm(curve, D, p, m) * lp / pm * triangle(m * lp / lam)
                sums[min(m, 3) - 1].append(term)
                pm *= p
                m += 1
        return tuple(math.fsum(t) for t in sums)

    def _check_every_twist(self, curves, x, primes):
        # every D in [-300, 300]: non-squarefree, even and D sharing a prime
        # with N included, in one batch per curve
        lam = math.log(x)
        kern = TriangleKernel(lam)
        ds = [D for D in range(-300, 301) if D]
        for curve in curves:
            got = prime_sides(curve, ds, kern, primes).T.tolist()
            for D, row in zip(ds, got):
                assert repr(tuple(row)) == repr(self._direct(curve, D, lam, primes)), (curve.label, x, D)

    @pytest.mark.parametrize("x", [30.0, 200.0, 1e3, 1e4])
    def test_matches_direct_sum(self, cm_curve, ncm_curve, primes_1e4, x):
        self._check_every_twist((cm_curve, ncm_curve), x, primes_1e4)

    @pytest.mark.parametrize("x", [30.0, 1e3])
    def test_matches_direct_sum_3_and_larger_primes_divide_N(self, bad3_curve, primes_1e4, x):
        # N = 3 * 5 * 7: the twisted model's a_3 metadata and its nodes at
        # 5 and 7 against the character rule of the plan
        self._check_every_twist((bad3_curve,), x, primes_1e4)


class TestExactProduct:
    """_Group.add_products at the bounds of its exactness argument."""

    def test_limb_sums_and_product_are_exact_at_their_bounds(self):
        # terms +-(1 - 2^-53) split into limbs +-(2^30 - 1) and +-(2^23 - 1):
        # an m = 1 group over a full block of _BLOCK_CELLS columns, and an
        # m >= 3 group holding 12 terms of each parity (m = 3..26) at each
        # of its 16 columns, whose limb sums reach 12 (2^30 - 1); one row
        # of characters all +1, where the partial sums grow the most, and
        # one of random signs, against the same sums in Python integers
        n, top = ef._BLOCK_CELLS, (1 << 53) - 1
        rng = np.random.default_rng(2012)
        chi = np.array([np.ones(n), rng.choice([-1, 1], size=n)], dtype=np.int8)
        m1 = (np.arange(n), np.ones(n, dtype=np.int64), rng.choice([-1, 1], size=n))
        odd_even = np.r_[3:27:2, 4:27:2]
        m3 = (np.repeat(np.arange(16), 24), np.tile(odd_even, 16), np.repeat(rng.choice([-1, 1], 32), 12))
        for column, power, sign in (m1, m3):
            group = ef._group(column, power, sign * math.ldexp(top, -53))
            sums = np.zeros((2, 2), dtype=np.int64)
            group.add_products(sums, 0, chi)
            expected = [
                [
                    sum(int(row[c]) ** int(m) * int(s) * limb for c, m, s in zip(column, power, sign))
                    for limb in (top & ((1 << 30) - 1), top >> 30)
                ]
                for row in chi
            ]
            assert (group.emin, sums.tolist()) == (-53, expected)


class TestBatchInvariance:
    """prime_sides and evaluate_reports over a batch against one-row calls,
    with chunks of twists and blocks of primes shrunk so that a few hundred
    twists cross each of their boundaries."""

    X = 100.0

    @pytest.fixture
    def chunk(self, monkeypatch):
        # chunks of one span of e^lambda = 100 at the density of the D;
        # blocks of 4 primes
        monkeypatch.setattr(ef, "_CHUNK_ROWS", 1)
        monkeypatch.setattr(ef, "_CHUNK_SPAN_PER_PRIME", 1)
        monkeypatch.setattr(ef, "_BLOCK_PRIMES", 4)
        monkeypatch.setattr(ef, "_BLOCK_CELLS", 100)
        return 100

    @staticmethod
    def _one_by_one(curve, ds, kern, primes):
        return [one_row_prime_sides(curve, D, kern, primes) for D in ds]

    def test_batch_lengths_around_the_chunk(self, ncm_curve, primes_1e4, chunk):
        kern = TriangleKernel(math.log(self.X))
        ds = [D for D in range(-chunk, chunk) if D]
        # the shortest prefix of ds that _chunks splits in two
        split = next(n for n in range(1, len(ds)) if len(list(ef._chunks(np.array(ds[:n]), chunk))) == 2)
        assert chunk - 2 <= split <= chunk + 2
        for n in (0, 1, split - 2, split - 1, split, split + 1):
            count = len(list(ef._chunks(np.array(ds[:n], dtype=np.int64), chunk)))
            assert count == (0 if n == 0 else 1 if n < split else 2), n
            got = prime_sides(ncm_curve, ds[:n], kern, primes_1e4)
            assert got.shape == (3, n)
            expected = self._one_by_one(ncm_curve, ds[:n], kern, primes_1e4)
            assert repr([tuple(c) for c in got.T.tolist()]) == repr(expected), n

    def test_mixed_curves_in_input_order(self, cm_curve, ncm_curve, bad3_curve, primes_1e4, chunk):
        # each curve over more than a chunk of twists in descending order, and
        # the table of a run of twists against one-row tables
        kern = TriangleKernel(math.log(self.X))
        half = 3 * chunk // 2 + 9
        ds = [D for D in range(half, -half, -1) if D]
        for curve in (ncm_curve, cm_curve, bad3_curve):
            got = prime_sides(curve, ds, kern, primes_1e4)
            expected = self._one_by_one(curve, ds, kern, primes_1e4)
            assert repr([tuple(c) for c in got.T.tolist()]) == repr(expected), curve.label
            twists = filter_twists(curve, range(-half, half), False, False)
            table = evaluate_reports(twists, kern.lam, primes_1e4)
            assert twists.D.tolist() == [D for D in range(-half, half) if D]
            expected = [one_twist(curve, D, kern.lam, primes_1e4) for D in twists.D.tolist()]
            assert repr(list(table.records())) == repr(expected), curve.label

    def test_windows_are_whole_chunks_of_one_pass(self, ncm_curve, chunk, monkeypatch):
        # windows of at least _WINDOW_D = 250 D and whole chunk spans (100 D
        # at x = 100), in order: together the twists of one filter_twists
        # pass, split at chunk boundaries
        monkeypatch.setattr(ef, "_WINDOW_D", 250)
        ds = range(-1234, 1000)
        windows = list(ef.twist_windows(ncm_curve, ds, True, True, self.X))
        whole = filter_twists(ncm_curve, ds, True, True)
        assert np.concatenate([w.D for w in windows]).tolist() == whole.D.tolist()
        for i, w in enumerate(windows):
            assert ds.start + 300 * i <= w.D.min() and w.D.max() < ds.start + 300 * (i + 1)
            assert len(list(ef._chunks(w.D, chunk))) <= 3
        assert len(windows) == 8


class TestResidueTables:
    """prime_sides keeps its residue tables in one arith.ResidueTables per
    call: each table is built at most once while the held tables fit in
    _HELD_TABLE_BYTES, and none outlives the call."""

    X = 1000.0
    DS = range(1, 6001)  # two chunks at x = 1e3

    @pytest.fixture
    def builds(self, ncm_curve, primes_1e4, monkeypatch):
        ap_array(ncm_curve, primes_1e4, self.X)  # the exhaustive sums of the a_p table build tables too
        counts = Counter()
        original = arith._squares_mod

        def counting(p):
            counts[p] += 1
            return original(p)

        monkeypatch.setattr(arith, "_squares_mod", counting)
        return counts

    def _chunks(self):
        return len(list(ef._chunks(np.asarray(self.DS, dtype=np.int64), int(self.X))))

    def test_each_table_built_once_per_call(self, ncm_curve, primes_1e4, builds):
        assert self._chunks() == 2
        kern = TriangleKernel(math.log(self.X))
        prime_sides(ncm_curve, self.DS, kern, primes_1e4)
        assert builds and set(builds.values()) == {1}
        once = set(builds)
        prime_sides(ncm_curve, self.DS, kern, primes_1e4)  # no process-wide store: built again
        assert builds == Counter(dict.fromkeys(once, 2))

    def test_a_family_builds_each_table_once(self, ncm_curve, primes_1e4, builds, monkeypatch, tmp_path):
        # a sweep's windows and an ef-report's share one ResidueTables: three
        # windows of 4,000 D at x = 1e3, each table of the prime side built
        # once (the root numbers read the table of 37 once a window)
        monkeypatch.setattr(ef, "_WINDOW_D", 1000)
        config = MomentConfig(curve=ncm_curve, k=1, x=self.X, weight=SmoothWeight(0.5, 1.0), T=24000.0)
        assert len(list(ef.twist_windows(ncm_curve, config.support_ds(), True, True, self.X))) == 3
        assert sweep_family(config, primes_1e4).size
        assert builds and set(builds.values()) - {builds[37]} == {1}
        builds.clear()
        out = tmp_path / "ef.csv"
        assert main(["ef-report", "--curve", "ncm37", "--x", "1000", "--dmin", "1", "--dmax", "12000", "--out", str(out)]) == 0
        assert builds and set(builds.values()) - {builds[37]} == {1}

    def test_tables_past_the_bound_are_built_per_chunk(self, ncm_curve, primes_1e4, builds, monkeypatch):
        kern = TriangleKernel(math.log(self.X))
        expected = prime_sides(ncm_curve, self.DS, kern, primes_1e4)
        builds.clear()
        monkeypatch.setattr(arith, "_HELD_TABLE_BYTES", 4096)
        got = prime_sides(ncm_curve, self.DS, kern, primes_1e4)
        assert repr(got.tolist()) == repr(expected.tolist())
        # the tables are read in ascending p: the small ones are held, the
        # ones past 4096 bytes in all are built again in the second chunk
        held = [p for p in sorted(builds) if builds[p] == 1]
        assert held == sorted(builds)[: len(held)] and 0 < sum(held) <= 4096
        assert set(builds.values()) == {1, self._chunks()}


class TestColumnarOracle:
    """The columnar path against the per-twist references of conftest: the
    trial-division invariants and the math.fsum prime side."""

    DS = range(-3000, 3001)

    @pytest.fixture(scope="class")
    def primes_5e4(self):
        return sieve_primes(50_000)

    @pytest.mark.parametrize("x", [30.0, 1e3, 1e4, 5e4])
    def test_sums_repr_equal_to_fsum(self, catalog, primes_5e4, x):
        kern = TriangleKernel(math.log(x))
        ds = [D for D in self.DS if D]
        for curve in catalog.values():
            got = prime_sides(curve, ds, kern, primes_5e4)
            expected = fsum_prime_sides(curve, kern.lam, primes_5e4, ds)
            assert repr([tuple(c) for c in got.T.tolist()]) == repr(expected), curve.label

    @staticmethod
    def _check_sums(curve, ds, x, primes):
        kern = TriangleKernel(math.log(x))
        got = prime_sides(curve, ds, kern, primes)
        assert got.shape == (3, len(ds))
        expected = fsum_prime_sides(curve, kern.lam, primes, list(ds))
        assert repr([tuple(c) for c in got.T.tolist()]) == repr(expected), (curve.label, x, len(ds))

    @pytest.mark.parametrize("lo", [-(10**9), -40, 1, 4977, 10**6 + 1, 10**12])
    def test_windows_shorter_than_the_largest_prime(self, catalog, primes_1e4, lo):
        # spans of 1 to 700 D against primes to 9,973: arith.legendre_matrix
        # reads the primes up to 16 times the rows from tables laid over
        # the span, the others by reciprocity near 0 and by Euler's
        # criterion far from it
        for curve in catalog.values():
            for width in (1, 2, 24, 81, 700):
                self._check_sums(curve, range(lo, lo + width), 1e4, primes_1e4)

    def test_row_counts_at_chunk_and_block_boundaries(self, ncm_curve, primes_1e4):
        # consecutive D at x = 1e3: one chunk up to `chunk` rows, two above
        lam = math.log(1e3)
        top = int(ef._prime_plan(ncm_curve, lam, primes_1e4, ef._require_table(primes_1e4, lam)).columns[-1])
        chunk = max(ef._CHUNK_ROWS, ef._CHUNK_SPAN_PER_PRIME * top)
        for n in (chunk - 1, chunk, chunk + 1):
            ds = range(-(n // 2), n - n // 2)
            assert len(ds) == n and len(list(ef._chunks(np.arange(n), top))) == (1 if n <= chunk else 2)
            self._check_sums(ncm_curve, ds, 1e3, primes_1e4)
        # sparse D at x = 1e4 (Euler's criterion): the odd primes fit one
        # block of _BLOCK_CELLS cells up to `rows` rows, two blocks above
        lam = math.log(1e4)
        plan = ef._prime_plan(ncm_curve, lam, primes_1e4, ef._require_table(primes_1e4, lam))
        rows = ef._BLOCK_CELLS // int((plan.columns > 2).sum())
        for n in (rows - 1, rows, rows + 1):
            ds = [10**9 + 1000 * k for k in range(n)]
            blocks = list(ef._character_blocks(plan.columns, np.array(ds)))
            assert [first for first, _ in blocks][:2] == [0, 1] and len(blocks) == (2 if n <= rows else 3)
            self._check_sums(ncm_curve, ds, 1e4, primes_1e4)

    def test_sign_filtered_rows(self, catalog, primes_1e4):
        # the twists of one root number: squarefree, coprime to 2N and
        # non-contiguous, as a sweep with --sign evaluates them (both signs
        # of D, since cm32-like's root number depends on the sign of D only)
        for curve in catalog.values():
            twists = filter_twists(curve, range(-3000, 3000), True, True)
            for sign in (1, -1):
                ds = twists.D[twists.root_number == sign]
                assert 0 < ds.size < 6000 and np.diff(ds).max() > 1
                self._check_sums(curve, ds.tolist(), 1e3, primes_1e4)

    def test_cm_curve_reads_only_primes_with_a_term(self, cm_curve, primes_1e4):
        # a_p = 0 at the p = 3 mod 4 for the CM curve: those columns are
        # dropped unless p^2 < x gives a term c_{p^2} = -2p (p <= 31)
        lam = math.log(1e3)
        plan = ef._prime_plan(cm_curve, lam, primes_1e4, ef._require_table(primes_1e4, lam))
        ps = primes_1e4.below(1e3).tolist()
        higher = {p for p in ps if any(cpm_reference(cm_curve, p, m) for m in range(2, 10) if p**m < 1e3)}
        expected = [p for p, a in zip(ps, ap_array(cm_curve, primes_1e4, 1e3).tolist()) if a or p in higher]
        assert plan.columns.tolist() == expected
        assert (len(ps), plan.columns.size) == (168, 86)
        assert {3, 7, 11, 31} <= higher and 43 not in plan.columns.tolist()
        self._check_sums(cm_curve, range(-2000, 2000), 1e3, primes_1e4)

    def test_consecutive_D_near_1e6_at_1e4(self, catalog, primes_1e4):
        for curve in catalog.values():
            self._check_sums(curve, range(10**6 - 1500, 10**6 + 1500), 1e4, primes_1e4)

    @staticmethod
    def _check_invariants(twists, curve):
        ref = [trial_twist_invariants(curve, D) for D in twists.D.tolist()]
        for name in ("kernel", "fundamental_disc", "squarefree", "coprime", "conductor_exact", "root_number"):
            assert getattr(twists, name).tolist() == [r[name] for r in ref], name
        assert list(twists.conductor_bounds()) == [r["conductor_bound"] for r in ref]

    @pytest.mark.parametrize("filtered", [True, False])
    def test_invariants_equal_trial_division(self, catalog, filtered):
        for curve in catalog.values():
            twists = filter_twists(curve, self.DS, filtered, filtered)
            expected = [
                D
                for D in self.DS
                if D and (not filtered or trial_twist_invariants(curve, D)["conductor_exact"])
            ]
            assert twists.D.tolist() == expected
            self._check_invariants(twists, curve)

    def test_invariants_near_1e12(self, catalog, primes_1e4):
        # includes 10^12 = 2^12 5^12, and the same window of negative D
        for curve in catalog.values():
            for lo in (10**12 - 150, -(10**12) - 150):
                twists = filter_twists(curve, range(lo, lo + 301), False, False)
                self._check_invariants(twists, curve)
                kern = TriangleKernel(math.log(1e3))
                got = prime_sides(curve, twists.D, kern, primes_1e4)
                expected = fsum_prime_sides(curve, kern.lam, primes_1e4, twists.D.tolist())
                assert repr([tuple(c) for c in got.T.tolist()]) == repr(expected)


class TestCharacterAtTwo:
    """chi_D(2) = (D|2) for D = 1 mod 4 and 0 otherwise, whether or not 2 | N."""

    @pytest.mark.parametrize("conductor", [105, 210])
    def test_pinned_through_the_prime_sides(self, bad3_curve, primes_1e3, conductor):
        # x = 3: p = 2 is the only prime power below e^lambda, so prime_m1 is
        # chi_D(2) c_2 times a weight; x = 5: prime_m2 is the p^m = 4 term
        # alone (c_4 = a_2^2 = 1 when 2 | N, a_2^2 - 4 = -3 otherwise)
        curve = bad3_curve._replace(conductor=conductor)
        at3, at5 = TriangleKernel(math.log(3.0)), TriangleKernel(math.log(5.0))
        m1_base = one_row_prime_sides(curve, 1, at3, primes_1e3)[0]
        m2_base = one_row_prime_sides(curve, 1, at5, primes_1e3)[1]
        assert m1_base != 0.0 and m2_base != 0.0
        ds = [d for d in range(-16, 17) if d]
        m1s = prime_sides(curve, ds, at3, primes_1e3)[0].tolist()
        m2s = prime_sides(curve, ds, at5, primes_1e3)[1].tolist()
        for D, m1, m2 in zip(ds, m1s, m2s):
            chi = {1: 1, 5: -1}.get(D % 8, 0)  # D = 3 mod 4 and even D: 0
            assert (m1, m2) == (chi * m1_base, chi * chi * m2_base), D


class TestEfTotal:
    """The explicit-formula total of one-row tables."""

    def test_trivial_twist_exact_conductor(self, ncm_curve, primes_1e4):
        rec = one_twist(ncm_curve, 1, math.log(1000.0), primes_1e4)
        assert rec["log_conductor"] == math.log(37)
        assert rec["conductor_exact"]
        assert rec["root_number"] == ncm_curve.root_number

    def test_field_identity_reconstructs(self, cm_curve, primes_1e4):
        for D in (1, -3, 10, 21):
            rec = one_twist(cm_curve, D, math.log(5000.0), primes_1e4)
            rebuilt = rec["log_conductor"] - 2.0 * (
                rec["prime_m1"] + rec["prime_m2"] + rec["prime_tail"]
            ) - rec["archimedean"]
            assert rebuilt == rec["total_S"]
            assert rec["rank_bound"] == rec["total_S"] / rec["lambda"]

    def test_minus_D_shares_even_data(self, ncm_curve, primes_1e4):
        a = one_twist(ncm_curve, 13, math.log(2000.0), primes_1e4)
        b = one_twist(ncm_curve, -13, math.log(2000.0), primes_1e4)
        # chi_-13 has conductor |d_K| = 52, as -13 = 3 mod 4, and 37 is odd
        assert (a["log_conductor"], b["log_conductor"]) == (math.log(37 * 13**2), math.log(37 * 52**2))
        assert a["archimedean"] == b["archimedean"]
        # m = 2 differs only at p = 2 through the character at 2
        assert a["prime_m2"] == pytest.approx(b["prime_m2"], abs=0.5)

    def test_rank_bound_scaling(self, cm_curve, primes_1e4):
        rec = one_twist(cm_curve, 5, math.log(1000.0), primes_1e4)
        assert rec["rank_bound"] == rec["total_S"] / math.log(1000.0)

    @pytest.mark.parametrize("lo", [-60, 3 * 997**2 - 60])
    def test_row_prime_side_is_its_kernels(self, ncm_curve, primes_1e4, monkeypatch, lo):
        # E_{d m^2} is isomorphic to E_d over Q (x = m^2 X, y = m^3 Y): a row
        # at a non-squarefree D carries the prime side of its kernel d,
        # the terms at 2 and at the primes of m included; blocks of 4
        # primes put the primes of m (997 at D = 3 * 997^2) in later blocks
        monkeypatch.setattr(ef, "_BLOCK_PRIMES", 4)
        monkeypatch.setattr(ef, "_BLOCK_CELLS", 100)
        lam = math.log(1000.0)
        twists = filter_twists(ncm_curve, range(lo, lo + 121), False, False)
        assert (twists.kernel != twists.D).sum() > 40
        records = list(evaluate_reports(twists, lam, primes_1e4).records())
        columns = ("prime_m1", "prime_m2", "prime_tail")
        for D, d, rec in zip(twists.D.tolist(), twists.kernel.tolist(), records):
            at_kernel = one_twist(ncm_curve, d, lam, primes_1e4)
            assert repr([rec[c] for c in columns]) == repr([at_kernel[c] for c in columns]), D

    def test_twisted_upper_bound_majorizes(self, cm_curve, primes_1e4):
        # the coarse bound drops the m>=2 terms and replaces log N by
        # 2log|D| + lambda/2; for clean twists of the shipped curves it
        # stays above total_S once |D| is moderately large
        for D in (-103, 101, 145):
            rec = one_twist(cm_curve, D, math.log(1000.0), primes_1e4)
            assert rec["twisted_upper_bound"] >= rec["total_S"] - 1.0


class TestSerialization:
    def test_csv_columns_and_roundtrip(self, cm_curve, primes_1e4):
        kern = TriangleKernel(math.log(500.0))
        table = evaluate_reports(filter_twists(cm_curve, range(-3, 2), False, False), kern.lam, primes_1e4)
        records = list(table.records())
        assert [r["D"] for r in records] == [-3, -2, -1, 1]
        record = records[-1]
        assert list(record)[: len(CSV_COLUMNS)] == CSV_COLUMNS
        assert record["rank_bound"] == one_twist(cm_curve, 1, kern.lam, primes_1e4)["rank_bound"]
        assert record["conductor_exact"] is True  # the writer spells it true
        # Python scalars only, as csv and json need
        assert {type(v) for r in records for v in r.values()} == {int, float, bool}

    def test_json(self, cm_curve, primes_1e4):
        kern = TriangleKernel(math.log(500.0))
        data = list(evaluate_reports(twist_columns(cm_curve, range(5, 6)), kern.lam, primes_1e4).records())
        assert data[0]["D"] == 5
        assert list(data[0]) == CSV_COLUMNS + ["twisted_upper_bound"]
        # the coarse bound 2 log|D| + lambda/2 - 2*(m=1 sum), in JSON only
        expected = 2.0 * math.log(5) + 0.5 * kern.lam - 2.0 * data[0]["prime_m1"]
        assert data[0]["twisted_upper_bound"] == expected
