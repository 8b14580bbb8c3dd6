import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twistrank import arith
from twistrank.arith import (
    ParityDecomposition,
    euler_phi,
    is_prime,
    is_squarefree,
    kronecker,
    legendre_matrix,
    mobius,
    parity_decompose,
    sieve_primes,
    squarefree_kernels,
)

from conftest import factor_trial, fundamental_discriminant, squarefree_part

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def trial_division_primes(limit):
    out = []
    for n in range(2, limit + 1):
        d = 2
        while d * d <= n:
            if n % d == 0:
                break
            d += 1
        else:
            out.append(n)
    return out


def mobius_sieve(limit):
    """Independent linear-sieve oracle for the Mobius function."""
    mu = np.ones(limit + 1, dtype=np.int64)
    primes = sieve_primes(limit).primes if limit >= 2 else []
    for p in primes:
        p = int(p)
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
    return mu


class TestSieve:
    def test_small_cases(self):
        assert sieve_primes(10).primes.tolist() == [2, 3, 5, 7]
        assert sieve_primes(2).primes.tolist() == [2]

    def test_limit_below_two_rejected(self):
        with pytest.raises(ValueError):
            sieve_primes(1)

    def test_against_trial_division(self):
        expected = trial_division_primes(2_000)
        assert sieve_primes(2_000).primes.tolist() == expected

    def test_count_1e5_matches_trial_division_count(self):
        # pi(1e5) = 9592, recomputed here from scratch
        expected = len(trial_division_primes(100_000))
        assert expected == 9592
        assert len(sieve_primes(100_000)) == 9592

    def test_count_1e6(self):
        table = sieve_primes(1_000_000)
        assert len(table) == 78498

    def test_segmentation_invariance(self, monkeypatch):
        a = sieve_primes(50_000).primes
        monkeypatch.setattr(arith, "_SEGMENT_SIZE", 1024)
        b = sieve_primes(50_000).primes
        monkeypatch.setattr(arith, "_SEGMENT_SIZE", 37 * 41)
        c = sieve_primes(50_000).primes
        assert np.array_equal(a, b)
        assert np.array_equal(a, c)

    def test_elements_are_prime_and_increasing(self):
        table = sieve_primes(100_000)
        ps = table.primes
        assert ps[0] == 2
        assert np.all(np.diff(ps) > 0)
        sample = list(ps[:50]) + list(ps[-50:]) + list(ps[::997])
        assert all(is_prime(int(p)) for p in sample)

    def test_below_is_strict(self):
        table = sieve_primes(100)
        assert table.below(7).tolist() == [2, 3, 5]
        assert table.below(7.5).tolist() == [2, 3, 5, 7]
        # searchsorted on the left is exact for every kind of bound: ints,
        # floats, np.int64, one ulp either side and exp(log p)
        big = sieve_primes(100_000)
        ps = big.primes.tolist()
        for i in range(0, len(ps), 97):
            p = ps[i]
            near = (math.nextafter(p, 0), math.nextafter(p, math.inf), math.exp(math.log(p)))
            for bound in (p, float(p), np.int64(p), p - 0.5, p + 0.5, *near):
                assert big.below(bound).size == (i + 1 if bound > p else i)


class TestKronecker:
    def test_examples(self):
        assert kronecker(5, 11) == 1  # 5 is a QR mod 11
        assert kronecker(-1, 7) == -1
        for a in range(-30, 31):
            assert kronecker(a, 1) == 1

    def test_euler_criterion(self, primes_1e3):
        for p in (int(q) for q in primes_1e3.primes if q % 2 == 1 and q < 500):
            for d in range(-200, 201):
                if d % p == 0:
                    continue
                euler = pow(d % p, (p - 1) // 2, p)
                expected = 1 if euler == 1 else -1
                assert kronecker(d, p) == expected, (d, p)

    def test_legendre_matrix_matches_kronecker(self, primes_1e4, monkeypatch):
        ps = primes_1e4.primes[1:]  # every odd prime below 1e4
        ds = [1, -1, 2, -3, 5, -7, 12, 30, -97, 3 * 7 * 11 * 13, -(10**8 + 7), 2 * 9973]
        ds += [0, -5 * 9973, -math.prod(range(3, 32, 2)), 9973 * 9967 * 7919]  # multiples of p
        expected = [[kronecker(d, int(p)) for p in ps] for d in ds]
        # batches of len(ds), 1 and all-table rows: below TABLE_P_PER_ROW
        # * rows a prime reads the residue table, above it Euler's criterion
        all_table = -(-int(ps[-1]) // arith.TABLE_P_PER_ROW)
        assert len(ds) < all_table
        got = legendre_matrix(ds, ps)
        assert got.dtype == np.int8 and got.shape == (len(ds), ps.size)
        assert got.tolist() == expected
        for i, d in enumerate(ds):
            assert legendre_matrix([d], ps).tolist() == [expected[i]], d
        filler = list(range(-all_table, 0))
        big = legendre_matrix(ds + filler, ps)
        assert big[: len(ds)].tolist() == expected
        for d, row in list(zip(filler, big[len(ds) :].tolist()))[::97]:
            assert row == [kronecker(d, int(p)) for p in ps], d
        with pytest.raises(OverflowError):  # d is int64: the twists' D stay below 1e16
            legendre_matrix([1, 2**63], ps)

        # reciprocity rows: 16 rows over a non-contiguous set of primes below
        # 2000, so that the tables stop at 16 * 16 = 256 and a row whose odd
        # part is at most 16 times the columns left is read by reciprocity
        odd = ps[ps < 2000]
        sub = odd[np.arange(odd.size) % 3 != 1]
        rows = 16
        limit = arith.TABLE_P_PER_ROW * int((sub > arith.TABLE_P_PER_ROW * rows).sum())
        below = limit - 1  # the largest odd part that qualifies (limit is even)
        above = next(q for q in range(int(sub[-1]) + 1, limit) if arith.is_prime(q))  # above every column
        ds = [0, 1, -1, 2, -8, 9 * 25, -27 * 49 * 4, int(sub[-1]) * 4, -int(sub[7]) ** 2]
        ds += [above, -2 * above, below, -4 * below, below + 2, -(below + 2), 2**40 * (below + 2)]
        assert len(ds) == rows
        seen = []
        original = arith._reciprocity_symbols

        def recording(d, cols, tables):
            seen.extend(d.tolist())
            return original(d, cols, tables)

        monkeypatch.setattr(arith, "_reciprocity_symbols", recording)
        got = legendre_matrix(ds, sub)
        assert got.tolist() == [[kronecker(d, int(p)) for p in sub] for d in ds]
        assert set(seen) == set(ds[1:13]), seen  # not 0, nor the odd parts above the limit
        for d in ds:  # one row: fewer table columns, so every nonzero row qualifies
            assert legendre_matrix([d], sub).tolist() == [[kronecker(d, int(p)) for p in sub]], d

    @pytest.mark.parametrize("lo", [-(10**12) - 7, -5000, -1, 0, 1, 999_983, 10**15 + 3])
    def test_legendre_matrix_dense_rows_read_tables_over_their_span(self, primes_1e4, lo, monkeypatch):
        # 700 rows, unsorted and repeated, over a span of 10,000 (at most 16
        # times the rows): every prime reads its table laid end to end over
        # the span, with no d mod p; primes below, inside and above the
        # span, and above 4096
        ps = primes_1e4.primes[1:]
        ps = np.concatenate((ps[:30], ps[ps > 4096][:5], ps[-3:]))
        off = np.random.default_rng(7).permutation(10_000)[:700]
        off[:4] = (0, 9_999, 5, 5)
        ds = (lo + off).tolist()
        expected = [[kronecker(d, int(p)) for p in ps] for d in ds]
        original = arith._residues
        calls = []
        monkeypatch.setattr(arith, "_residues", lambda d, cols: calls.append(d.size) or original(d, cols))
        got = legendre_matrix(ds, ps)
        assert got.dtype == np.int8 and got.shape == (len(ds), ps.size)
        assert got.tolist() == expected and not calls
        # the same rows spread 100 times wider read d mod p in the tables
        sparse = [lo + 100 * t for t in off.tolist()]
        assert legendre_matrix(sparse, ps).tolist() == [[kronecker(d, int(p)) for p in ps] for d in sparse]
        assert calls == [len(ds)]
        assert legendre_matrix(ds[:0], ps).shape == (0, ps.size)
        assert legendre_matrix(ds, ps[:0]).shape == (len(ds), 0)

    def test_zero_and_negative_denominators(self):
        assert kronecker(1, 0) == 1
        assert kronecker(-1, 0) == 1
        assert kronecker(5, 0) == 0
        assert kronecker(3, -1) == 1
        assert kronecker(-3, -1) == -1
        # (a|-n) = (a|-1)(a|n)
        for a in (-7, -2, 3, 10):
            for n in (3, 8, 15):
                assert kronecker(a, -n) == kronecker(a, -1) * kronecker(a, n)

    @given(
        st.integers(min_value=-100, max_value=100),
        st.integers(min_value=-100, max_value=100),
        st.integers(min_value=1, max_value=100),
    )
    @settings(max_examples=300, deadline=None)
    def test_multiplicative_in_numerator(self, a, b, k):
        n = 2 * k + 1  # odd modulus
        assert kronecker(a, n) * kronecker(b, n) == kronecker(a * b, n)

    @given(
        st.integers(min_value=-60, max_value=60),
        st.integers(min_value=-40, max_value=40),
        st.integers(min_value=-40, max_value=40),
    )
    @settings(max_examples=300, deadline=None)
    def test_multiplicative_in_denominator(self, a, m, n):
        # the one exception of the Kronecker symbol: a = -1 with one of m, n
        # zero, where (-1|0) = 1 while the other factor (-1|m) is -1 for
        # m < 0 and for m = 3 mod 4 (pinned in test_denominator_exception)
        assume(not (a == -1 and m * n == 0))
        assert kronecker(a, m) * kronecker(a, n) == kronecker(a, m * n)

    def test_denominator_exception(self):
        # (-1|0) = 1 and (-1|-1) = -1, so (-1|0)(-1|-1) != (-1|0 * -1)
        assert kronecker(-1, 0) == 1
        assert kronecker(-1, -1) == -1
        assert kronecker(-1, 0) * kronecker(-1, -1) == -kronecker(-1, 0)
        # and (-1|3) = -1, so (-1|3)(-1|0) != (-1|3 * 0); (-1|5) = 1 keeps it
        assert kronecker(-1, 3) * kronecker(-1, 0) == -kronecker(-1, 0)
        assert kronecker(-1, 5) * kronecker(-1, 0) == kronecker(-1, 0)
        # for a <= -2, (a|0) = 0 and the identity holds
        assert kronecker(-2, 0) * kronecker(-2, -1) == kronecker(-2, 0) == 0


class TestSquaresMod:
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 29, 31, 101])
    def test_table_across_chunk_boundaries(self, p, monkeypatch):
        # squares of 7 residues a step: r = 1 .. (p - 1) / 2 takes one step
        # up to p = 13, crosses a boundary at 17, ends on one at 29 and
        # takes three or more steps from 31 on
        monkeypatch.setattr(arith, "_CHAR_SUM_CHUNK", 7)
        table = arith._squares_mod(p)
        assert table.dtype == np.int8 and not table.flags.writeable
        assert table.tolist() == [kronecker(r, p) for r in range(p)]


class TestMobiusSquarefree:
    def test_examples(self):
        assert mobius(1) == 1
        assert mobius(12) == 0
        assert mobius(30) == -1
        assert squarefree_part(45) == 5
        assert squarefree_part(1) == 1
        for p in SMALL_PRIMES:
            assert squarefree_part(p) == p

    def test_mobius_against_sieve_oracle(self):
        mu = mobius_sieve(200_000)
        for n in range(1, 5_000):
            assert mobius(n) == mu[n]
        rng = np.random.default_rng(7)
        for n in rng.integers(1, 200_000, size=400):
            assert mobius(int(n)) == mu[int(n)]

    def test_squarefree_part_leaves_square_cofactor(self):
        for n in range(1, 3_000):
            s = squarefree_part(n)
            assert n % s == 0
            q = n // s
            r = math.isqrt(q)
            assert r * r == q
            assert is_squarefree(s)

    def test_rejects_nonpositive(self):
        for fn in (mobius, squarefree_part, euler_phi):
            with pytest.raises(ValueError):
                fn(0)

    def test_factorisation_against_trial_division_to_1e12(self):
        # mobius and euler_phi read arith._factorisation (vectorized trial
        # division over the odd part); the conftest trial division is an
        # independent oracle, past the sieve oracle's 2e5: squares of
        # primes near 1e6 and prime cofactors above 1e6 included
        rng = np.random.default_rng(12)
        ns = [int(n) for n in rng.integers(1, 10**12, size=40)]
        ns += [int(n) for n in rng.integers(2 * 10**5, 10**7, size=40)]
        ns += [999983**2, 1000003**2, 8 * 999983**2, 999983 * 1000003, 12 * 1000003, 2**39, 10**12 - 11, 10**12]
        for n in ns:
            factors = list(factor_trial(n))
            assert arith._factorisation(n) == factors, n
            mu = 0 if any(e > 1 for _, e in factors) else (-1) ** len(factors)
            phi = math.prod(p ** (e - 1) * (p - 1) for p, e in factors)
            assert (mobius(n), euler_phi(n)) == (mu, phi), n

    def test_euler_phi_small(self):
        brute = lambda n: sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        for n in list(range(1, 200)) + [720, 1024, 9973]:
            assert euler_phi(n) == brute(n)


class TestParityDecomposition:
    def test_examples(self):
        assert parity_decompose((3, 3, 5)) == ParityDecomposition(pi=45, pi1=3, pi2=5)
        assert parity_decompose((3, 5, 7)) == ParityDecomposition(pi=105, pi1=1, pi2=105)
        assert parity_decompose((3, 3)) == ParityDecomposition(pi=9, pi1=3, pi2=1)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            parity_decompose(())
        with pytest.raises(ValueError):
            parity_decompose((4, 3))

    @given(st.lists(st.sampled_from(SMALL_PRIMES), min_size=1, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_invariants(self, tup):
        pd = parity_decompose(tup)
        pi = math.prod(tup)
        assert pd.pi == pi
        assert math.gcd(pd.pi1, pd.pi2) == 1
        assert pd.pi2 == squarefree_part(pi)
        assert is_squarefree(pd.pi1) and is_squarefree(pd.pi2)
        root = math.isqrt(pi)
        assert (pd.pi2 == 1) == (root * root == pi)
        assert pd.pi1 * pd.pi2 == squarefree_part(pi) * pd.pi1  # radical split


class TestFundamentalDiscriminant:
    def test_values(self):
        assert fundamental_discriminant(1) == 1
        assert fundamental_discriminant(5) == 5
        assert fundamental_discriminant(-3) == -3
        assert fundamental_discriminant(3) == 12
        assert fundamental_discriminant(-1) == -4
        assert fundamental_discriminant(8) == 8  # kernel 2, 2 % 4 != 1
        assert fundamental_discriminant(9) == 1
        assert fundamental_discriminant(12) == 12  # kernel 3

    def test_always_a_discriminant(self):
        for d in range(-300, 301):
            if d == 0:
                continue
            fd = fundamental_discriminant(d)
            assert fd % 4 in (0, 1)


def _signed_squarefree_part(d):
    return 0 if d == 0 else (1 if d > 0 else -1) * squarefree_part(abs(d))


class TestSquarefreeKernels:
    @pytest.mark.parametrize(
        "lo, hi",
        [(-3000, 3000), (0, 0), (1, 1), (-1, -1), (-16, -16), (-5, 5),
         (10**12 - 200, 10**12 + 200), (-(10**12) - 100, -(10**12) + 100),
         # 3 5^2 7^2 11^2: three squares in one d
         (3 * 25 * 49 * 121 - 3, 3 * 25 * 49 * 121 + 3)],
    )  # fmt: skip
    def test_against_trial_division(self, lo, hi):
        got = squarefree_kernels(lo, hi)
        assert got.dtype == np.int64
        assert got.tolist() == [_signed_squarefree_part(d) for d in range(lo, hi + 1)]

    def test_shared_large_square_factors(self):
        # 1009^2 1013^2 and 1019^2 have at most one multiple in the window,
        # and 1009^2 1013^2 is the one d both hit
        d = 1009**2 * 1013**2
        got = squarefree_kernels(d - 3, d + 3)
        assert got.tolist() == [_signed_squarefree_part(n) for n in range(d - 3, d + 3 + 1)]
        assert got[3] == 1

    def test_cap(self):
        assert squarefree_kernels(5, 4).size == 0
        assert squarefree_kernels(10**16, 10**16).tolist() == [1]
        with pytest.raises(ValueError):
            squarefree_kernels(10**16, 10**16 + 1)
        with pytest.raises(ValueError):
            squarefree_kernels(-(10**16) - 1, 0)


def exact_sum(values):
    """The sum of every row of values by arith.ExactSums, one window."""
    sums = arith.ExactSums(1)
    sums.add(values, [None])
    return sums.totals()[0]


class TestExactSum:
    """The fixed-point sums against math.fsum, repr for repr."""

    @staticmethod
    def _matrix_sums(values, signs):
        emin, count = arith.fixed_point_scale(values)
        limbs = arith.fixed_point_limbs(values, emin, count)
        return arith.round_fixed_point((signs @ limbs).astype(np.int64), emin).tolist()

    @staticmethod
    def _fsum_rows(values, signs):
        return [math.fsum((values * row)[row != 0].tolist()) for row in signs]

    def test_random_signs_and_spread_exponents(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            n = int(rng.integers(1, 300))
            values = rng.choice((-1.0, 1.0), n) * np.ldexp(rng.random(n) + 0.5, rng.integers(-60, 11, n))
            signs = rng.integers(-1, 2, (50, n)).astype(np.int8)
            assert repr(self._matrix_sums(values, signs)) == repr(self._fsum_rows(values, signs))
            assert repr(exact_sum(values)) == repr(math.fsum(values.tolist()))

    def test_exact_cancellation_is_zero(self):
        values = np.array([0.1, 2.0**-60, -0.1, 1e3, -(2.0**-60), -1e3])
        assert self._matrix_sums(values, np.ones((1, 6), dtype=np.int8)) == [0.0]
        assert repr(exact_sum(values)) == "0.0" == repr(math.fsum(values.tolist()))
        assert exact_sum(np.array([-0.0, 0.0])) == 0.0

    @pytest.mark.parametrize(
        "values",
        [
            [1.0, 2.0**-53],  # halfway, to even: down
            [1.0 + 2.0**-52, 2.0**-53],  # halfway, to even: up
            [1.0, 2.0**-53, 2.0**-60],  # just above halfway
            [1.0, 2.0**-53, -(2.0**-60)],  # just below halfway
            [-1.0, -(2.0**-53)],
            [2.0**10, 2.0**-43, 2.0**-60],
            [2.0**10 + 2.0**-42, 2.0**-43, -(2.0**-60), 2.0**-60],
        ],
    )
    def test_halfway_ties(self, values):
        values = np.array(values)
        ones = np.ones((1, values.size), dtype=np.int8)
        assert repr(self._matrix_sums(values, ones)) == repr([math.fsum(values.tolist())])
        assert repr(exact_sum(values)) == repr(math.fsum(values.tolist()))

    def test_subnormal_and_wide_ranges(self):
        rng = np.random.default_rng(17)
        for lo, hi in ((-1074, -1000), (-1074, 1000), (-200, 1000)):
            values = rng.choice((-1.0, 1.0), 400) * np.ldexp(rng.random(400) + 0.5, rng.integers(lo, hi, 400))
            assert repr(exact_sum(values)) == repr(math.fsum(values.tolist()))
        tiny = np.array([5e-324, 5e-324, -1e-323 * 0.5])
        assert repr(exact_sum(tiny)) == repr(math.fsum(tiny.tolist()))

    def test_windows_add_as_integers(self):
        # subsets summed a window at a time, each window at its own scale,
        # give math.fsum over the whole column
        rng = np.random.default_rng(19)
        for lo, hi in ((-1074, -1000), (-60, 11), (-1074, 1000)):
            values = rng.choice((-1.0, 1.0), 900) * np.ldexp(rng.random(900) + 0.5, rng.integers(lo, hi, 900))
            masks = [None, values > 0, np.abs(values) < 1e-300]
            sums = arith.ExactSums(len(masks))
            for start in range(0, values.size, 97):
                window = slice(start, start + 97)
                sums.add(values[window], [None if m is None else m[window] for m in masks])
            expected = [math.fsum((values if m is None else values[m]).tolist()) for m in masks]
            assert repr(sums.totals()) == repr(expected)
        # windows of normal values whose total is subnormal
        sums = arith.ExactSums(1)
        for window in ([2.0**-1000, 3 * 2.0**-1074], [-(2.0**-1000)], [5 * 2.0**-1074]):
            sums.add(np.array(window), [None])
        whole = [2.0**-1000, 3 * 2.0**-1074, -(2.0**-1000), 5 * 2.0**-1074]
        assert sums.totals() == [math.fsum(whole)] == [2.0**-1071]

    def test_subnormal_totals_round_once(self):
        # sets whose total is subnormal, against math.fsum
        rng = np.random.default_rng(23)
        for _ in range(2000):
            n = int(rng.integers(1, 12))
            values = rng.choice((-1.0, 1.0), n) * np.ldexp(rng.random(n), rng.integers(-1074, -1022, n))
            assert repr(exact_sum(values)) == repr(math.fsum(values.tolist()))
