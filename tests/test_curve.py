import hashlib
import math

import numpy as np
import pytest

import twistrank.curve as curve_mod
from twistrank import arith
from twistrank.arith import is_prime, is_squarefree, kronecker
from twistrank.curve import (
    CurveModel,
    MissingBadPrimeData,
    _LANES,
    _ap_char_sum,
    _ap_lanes,
    _ap_values,
    _hasse_orders,
    _kronecker_minus_n,
    ap_array,
    cpm,
    load_catalog,
    twist_columns,
)
from twistrank.family_moments import filter_twists

from conftest import brute_point_count, cm32_like_ap, cpm_reference, one_prime_ap, twisted_model


def _ec_add(P, Q, a, p):
    """P + Q on y^2 = x^3 + a x + b over F_p, in affine coordinates with
    Python integers.  None is the point at infinity; b is not needed by the
    group law.  The scalar group law, kept as an oracle for the lanes."""
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def _ec_mul(n, P, a, p):
    """n P for n >= 0 by double-and-add."""
    R = None
    while n:
        if n & 1:
            R = _ec_add(R, P, a, p)
        P = _ec_add(P, P, a, p)
        n >>= 1
    return R


def long_model_count(p, a1, a2, a3, a4, a6):
    """#E(F_p) for y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6, by brute
    force over all (x, y) pairs."""
    n = 1  # point at infinity
    for x in range(p):
        for y in range(p):
            lhs = (y * y + a1 * x * y + a3 * y) % p
            rhs = (x**3 + a2 * x * x + a4 * x + a6) % p
            if lhs == rhs:
                n += 1
    return n


class TestCatalogMetadata:
    def test_ncm37_small_prime_metadata_against_long_model(self, ncm_curve):
        # the short model is singular mod 2, so a_2 comes from the long
        # minimal model y^2 + y = x^3 - x of the same curve
        assert 2 + 1 - long_model_count(2, 0, 0, 1, -1, 0) == ncm_curve.a2 == -2
        assert 3 + 1 - long_model_count(3, 0, 0, 1, -1, 0) == ncm_curve.a3 == -3
        # good reduction at 3: the short model must agree with the metadata
        assert 3 + 1 - brute_point_count(ncm_curve.A, ncm_curve.B, 3) == -3

    def test_cm_curve_metadata(self, cm_curve):
        # additive reduction at 2 (4 | N), so a_2 = 0 by definition
        assert cm_curve.conductor % 4 == 0
        assert cm_curve.a2 == 0
        # good at 3: exhaustive count
        assert 3 + 1 - brute_point_count(1, 0, 3) == cm_curve.a3 == 0

    def test_nonsplit_multiplicative_at_37(self, ncm_curve):
        # smooth points of the reduced long model: p - a_p for
        # multiplicative reduction; the node of y^2 + y = x^3 - x mod 37
        # sits at (5, 18)
        p = 37
        smooth = long_model_count(p, 0, 0, 1, -1, 0) - 1
        assert one_prime_ap(ncm_curve, p) == p - smooth == -1

    def test_catalog_parsing(self, tmp_path):
        path = tmp_path / "c.cat"
        path.write_text("# comment\nfoo, 1, 2, 30, -1, 0, 1  # trailing\n\n")
        cat = load_catalog(path)
        assert cat["foo"].B == 2 and cat["foo"].a3 == 1

    def test_catalog_errors(self, tmp_path):
        bad = tmp_path / "bad.cat"
        bad.write_text("foo, 1, 2, 30\n")
        with pytest.raises(ValueError, match="7 fields"):
            load_catalog(bad)
        bad.write_text("foo, 1, 2, 30, -1, 0, x\n")
        with pytest.raises(ValueError, match="non-integer"):
            load_catalog(bad)
        bad.write_text("foo, 1, 0, 64, 1, 0, 0\nfoo, 1, 0, 64, 1, 0, 0\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_catalog(bad)

    def test_model_validation(self):
        with pytest.raises(ValueError, match="singular"):
            CurveModel(A=0, B=0, conductor=1, root_number=1)
        with pytest.raises(ValueError, match="root number"):
            CurveModel(A=1, B=0, conductor=64, root_number=2)


class TestAp:
    def test_examples(self, cm_curve, primes_1e3):
        assert ap_array(cm_curve, primes_1e3, 6).tolist() == [0, 0, 2]  # a_2, a_3, a_5

    def test_point_counts(self, cm_curve, ncm_curve, extra_curve, primes_1e3):
        for curve in (cm_curve, ncm_curve, extra_curve):
            disc = 4 * curve.A**3 + 27 * curve.B**2
            for p, a in zip(primes_1e3.below(300).tolist(), ap_array(curve, primes_1e3, 300).tolist()):
                if (2 * disc) % p == 0:
                    continue
                assert p + 1 - a == brute_point_count(curve.A, curve.B, p)

    @pytest.mark.parametrize("p", [5, 7, 13, 29, 101])
    def test_char_sum_across_chunk_boundaries(self, cm_curve, ncm_curve, extra_curve, p, monkeypatch):
        # x and the squares in steps of 7 (_ap_char_sum reads the step from
        # arith at call time): one step at p = 5 and 7, several past them
        monkeypatch.setattr(arith, "_CHAR_SUM_CHUNK", 7)
        for curve in (cm_curve, ncm_curve, extra_curve):
            if (2 * (4 * curve.A**3 + 27 * curve.B**2)) % p:
                assert _ap_char_sum(curve.A, curve.B, p) == p + 1 - brute_point_count(curve.A, curve.B, p)

    def test_cm32_like_closed_form_below_1e6(self, cm_curve, monkeypatch):
        # every a_p of y^2 = x^3 + x below 1e6 against the closed form of the
        # CM curve; a fresh cache, so the whole table is computed here
        monkeypatch.setattr(curve_mod, "_AP_CACHE", {})
        primes = arith.sieve_primes(1_000_000)
        ps = primes.primes
        assert ps.size == 78_498
        expected = np.concatenate(([cm_curve.a2, cm_curve.a3], cm32_like_ap(ps[2:])))
        assert np.array_equal(ap_array(cm_curve, primes, 1_000_000), expected)

    def test_hasse_bound(self, cm_curve, ncm_curve, primes_1e3):
        for curve in (cm_curve, ncm_curve):
            for p, a in zip(primes_1e3.primes.tolist(), ap_array(curve, primes_1e3, 1e3).tolist()):
                if curve.discriminant % p == 0:
                    continue
                assert abs(a) <= 2 * math.sqrt(p)

    def test_missing_bad_prime_data(self, primes_1e3):
        curve = CurveModel(A=1, B=1, conductor=1, root_number=1)
        with pytest.raises(MissingBadPrimeData):
            ap_array(curve, primes_1e3, 3)

    def test_rejects_primes_above_lane_bound(self, ncm_curve):
        # int64 lanes hold every intermediate value only for p < 2^31; the
        # largest prime below it is exact
        p = 2**31 - 1
        assert _certified_ap(ncm_curve.A, ncm_curve.B, p, one_prime_ap(ncm_curve, p))
        with pytest.raises(ValueError, match="2\\^31"):
            one_prime_ap(ncm_curve, 2**31 + 11)

    def test_ap_array_matches_scalar(self, ncm_curve, primes_1e3):
        # the table against one-prime calls of its kernel
        arr = ap_array(ncm_curve, primes_1e3, 200)
        ps = primes_1e3.below(200)
        assert len(arr) == len(ps)
        for p, a in zip(ps, arr):
            assert int(a) == one_prime_ap(ncm_curve, int(p))
        # cache returns a consistent prefix after a larger request
        arr2 = ap_array(ncm_curve, primes_1e3, 500)
        assert arr2[: len(arr)].tolist() == arr.tolist()


# y^2 = x^3 - x: full 2-torsion on E and on every quadratic twist, so the
# group exponent is often small; the hardest of the test curves for BSGS.
X3_MINUS_X = CurveModel(A=-1, B=0, conductor=32, root_number=1, label="x3-x", a2=0, a3=0)


def _good_primes(curve, ps):
    disc = 4 * curve.A**3 + 27 * curve.B**2
    return [p for p in ps if p > 3 and disc % p != 0]


def _certified_ap(A, B, p, a):
    """Whether a is a_p of y^2 = x^3 + A x + B at a good prime p, by point
    orders in Python integers: for c = f(x0) != 0, P = (c x0, c^2) lies on
    E (c a square) or its twist, whose order is p + 1 - a or p + 1 + a.  That
    order must kill P, and an order of P above 4 sqrt(p) leaves one multiple
    in the Hasse interval."""
    for x0 in range(1, 50):
        c = (x0**3 + A * x0 + B) % p
        if c == 0:
            continue
        P, a_c = (c * x0 % p, c * c % p), A * c * c % p
        n = p + 1 - a if pow(c, (p - 1) // 2, p) == 1 else p + 1 + a
        if _ec_mul(n, P, a_c, p) is not None:
            return False
        order, rest, q = n, n, 2
        while rest > 1:
            if q * q > rest:
                q = rest
            if rest % q == 0:
                while rest % q == 0:
                    rest //= q
                while order % q == 0 and _ec_mul(order // q, P, a_c, p) is None:
                    order //= q
            q += 1
        if order * order > 16 * p:
            return True
    return False


class TestApBsgs:
    """Shanks-Mestre a_p in numpy lanes against the exhaustive character sum
    (the oracle)."""

    def test_every_good_prime_below_1e4(self, cm_curve, ncm_curve, extra_curve, primes_1e4):
        ps = [int(p) for p in primes_1e4.primes]
        for curve in (cm_curve, ncm_curve, extra_curve, X3_MINUS_X):
            good = np.array(_good_primes(curve, ps))
            exact = np.array([_ap_char_sum(curve.A, curve.B, p) for p in good.tolist()])
            vals, settled = _ap_lanes(curve.A, curve.B, good)
            assert (vals[settled] == exact[settled]).all(), curve.label
            # the path of ap and ap_array, the exhaustive sum included
            assert (_ap_values(curve, good) == exact).all(), curve.label
            fallbacks = good[~settled].tolist()
            for p in fallbacks:
                assert one_prime_ap(curve, p) == _ap_char_sum(curve.A, curve.B, p), (curve.label, p)
            # points of the twist settle what E alone leaves open, so only
            # tiny primes reach the exhaustive sum
            assert all(p < 100 for p in fallbacks), (curve.label, fallbacks)

    @pytest.mark.parametrize("start", [100_000, 1_000_000])
    def test_sampled_primes_near(self, start, cm_curve, ncm_curve, extra_curve):
        ps = [p for p in range(start, start + 200) if is_prime(p)]
        assert len(ps) >= 8
        for curve in (cm_curve, ncm_curve, extra_curve, X3_MINUS_X):
            good = np.array(_good_primes(curve, ps))
            vals, settled = _ap_lanes(curve.A, curve.B, good)
            assert settled.all(), curve.label
            assert vals.tolist() == [_ap_char_sum(curve.A, curve.B, p) for p in good.tolist()]

    def test_sampled_primes_below_cap(self, cm_curve, ncm_curve, extra_curve):
        # products of residues near 2^53 in int64; the exhaustive sum would
        # need gigabytes here, so point orders in Python integers are the
        # oracle
        ps = [p for p in range(10**8 - 200, 10**8) if is_prime(p)]
        assert len(ps) >= 8
        for curve in (cm_curve, ncm_curve, extra_curve, X3_MINUS_X):
            vals, settled = _ap_lanes(curve.A, curve.B, np.array(ps))
            assert settled.all(), curve.label
            for p, a in zip(ps, vals.tolist()):
                assert abs(a) <= 2 * math.sqrt(p)
                assert _certified_ap(curve.A, curve.B, p, a), (curve.label, p, a)
                assert not _certified_ap(curve.A, curve.B, p, a + 2), (curve.label, p)

    def test_cm_supersingular_primes(self, cm_curve, primes_1e5):
        # y^2 = x^3 + x has CM by Z[i]: a_p = 0 for every p = 3 mod 4, a
        # closed form independent of any point count
        ps = primes_1e5.primes[(primes_1e5.primes > 3) & (primes_1e5.primes % 4 == 3)]
        vals, settled = _ap_lanes(cm_curve.A, cm_curve.B, ps)
        assert settled.all()
        assert not vals.any(), ps[vals != 0]

    def test_pinned_two_torsion_primes(self, cm_curve):
        # E(F_p) has full 2-torsion and a small exponent at these primes, so
        # baby steps meet 2-torsion points (test_hasse_orders_exact checks
        # every point with x < 400 at both)
        pinned = ((8161, 162), (9857, 178))
        vals, settled = _ap_lanes(cm_curve.A, cm_curve.B, np.array([p for p, _ in pinned]))
        assert settled.all()
        for (p, a), got in zip(pinned, vals.tolist()):
            assert _ap_char_sum(cm_curve.A, cm_curve.B, p) == a
            assert got == a
            assert one_prime_ap(cm_curve, p) == a

    @pytest.mark.parametrize("A, B, p", [(1, 0, 8161), (1, 0, 9857), (-1, 0, 9601), (-16, 16, 1009)])
    def test_hasse_orders_exact(self, A, B, p):
        # every affine point with x < 400, one lane each: the candidate set
        # of a valid lane is exactly {k : (p + 1 + k) P = O, |k| <= T} found
        # by walking the interval, and an invalid lane has order <= 2m
        T = math.isqrt(4 * p)
        m = max(1, math.isqrt(T))
        roots = {y * y % p: y for y in range(p)}
        fx = {x: (x**3 + A * x + B) % p for x in range(min(p, 400))}
        points = [(x, roots[f]) for x, f in fx.items() if f in roots]
        xs, ys = (np.array(c) for c in zip(*points))
        valid, lane, k, _ = _hasse_orders(np.full(xs.size, p), np.full(xs.size, A % p), xs, ys, np.ones_like(xs))
        seen_small = False
        for i, P in enumerate(points):
            if not valid[i]:
                seen_small = True
                assert any(_ec_mul(n, P, A % p, p) is None for n in range(1, 2 * m + 1))
                continue
            want = []
            Q = _ec_mul(p + 1 - T, P, A % p, p)
            for kk in range(-T, T + 1):
                if Q is None:
                    want.append(kk)
                Q = _ec_add(Q, P, A % p, p)
            assert sorted(k[lane == i].tolist()) == want, (P, want)
        assert seen_small  # the 2-torsion points at least

    @pytest.mark.parametrize("p", [1423, 1621, 2053, 2161])
    def test_giant_walk_through_o(self, ncm_curve, p):
        # at these primes -a_p is a multiple of s = 2m + 1, at giant row 6,
        # 4, 7 and 5 of 2 span + 1, so the walk of every point of E(F_p) of
        # order above 2m meets O with two steps after it: the first adds sP
        # to O, the second doubles sP (P1 = P2); every candidate set is
        # checked by walking the interval, and holds -a_p of the exhaustive
        # sum
        A, B = ncm_curve.A % p, ncm_curve.B % p
        T = math.isqrt(4 * p)
        m = math.isqrt(T)
        s = 2 * m + 1
        span = (T + m) // s
        a_p = _ap_char_sum(A, B, p)
        roots = {y * y % p: y for y in range(1, p)}
        points = []
        for x in range(p):
            P = (x, roots.get((x**3 + A * x + B) % p))
            if P[1] is None or any(_ec_mul(j, P, A, p) is None for j in range(2, 2 * m + 1)):
                continue  # a valid lane needs ord(P) > 2m
            G, sP = _ec_mul(p + 1 - span * s, P, A, p), _ec_mul(s, P, A, p)
            for i in range(2 * span - 1):  # rows 0 .. 2 span - 2
                if G is None:
                    points.append(P)
                    break
                G = _ec_add(G, sP, A, p)
            if len(points) == 6:
                break
        xs, ys = (np.array(c) for c in zip(*points))
        valid, lane, k, _ = _hasse_orders(np.full(xs.size, p), np.full(xs.size, A), xs, ys, np.ones_like(xs))
        assert len(points) == 6 and valid.all()
        for i in range(len(points)):
            want = []
            Q = _ec_mul(p + 1 - T, points[i], A, p)
            for kk in range(-T, T + 1):
                if Q is None:
                    want.append(kk)
                Q = _ec_add(Q, points[i], A, p)
            assert sorted(k[lane == i].tolist()) == want, points[i]
            assert -a_p in want

    def test_ambiguous_candidates_use_exhaustive_sum(self, cm_curve):
        # at tiny p the Hasse interval holds several multiples of every
        # point order, on E and on its twist alike
        ps = [5, 13, 17, 29]
        _, settled = _ap_lanes(cm_curve.A, cm_curve.B, np.array(ps))
        assert not settled.any()
        for p in ps:
            exact = _ap_char_sum(cm_curve.A, cm_curve.B, p)
            assert one_prime_ap(cm_curve, p) == exact == p + 1 - brute_point_count(1, 0, p)

    def test_points_of_the_missing_curve_settle(self, monkeypatch, cm_curve):
        # every usable try x0 = n * _BSGS_STRIDE (n < 12) gives a square c
        # at these primes, so all its points lie on E, whose small exponent
        # leaves 3 and 2 candidates; a point of the twist settles them
        ps = [23113201, 29660737]
        for p in ps:
            cs = [(x0**3 + x0) % p for x0 in (n * curve_mod._BSGS_STRIDE % p for n in range(curve_mod._BSGS_TRIES))]
            assert {pow(c, (p - 1) // 2, p) for c in cs if c} == {1}

        def refuse(A, B, p):
            raise AssertionError(f"exhaustive sum at p = {p}")

        monkeypatch.setattr(curve_mod, "_ap_char_sum", refuse)
        vals = _ap_values(cm_curve, np.array(ps)).tolist()
        for p, a in zip(ps, vals):
            assert _certified_ap(cm_curve.A, cm_curve.B, p, a), (p, a)
            assert not _certified_ap(cm_curve.A, cm_curve.B, p, -a), p
        # y^2 = x^3 + x at p = 1 mod 4: a_p = +-2a with p = a^2 + b^2, a odd
        assert [p - (a // 2) ** 2 for p, a in zip(ps, vals)] == [3400**2, 2436**2]

    def test_block_invariance(self, monkeypatch, primes_1e4):
        # the first _LANES + 1 good primes of x^3 - x hold lanes that settle
        # on their first try, lanes that need several and lanes that fall
        # back; a prime's a_p must not depend on the block it shares
        curve = X3_MINUS_X
        good = np.array(_good_primes(curve, [int(p) for p in primes_1e4.primes])[: _LANES + 1])
        exact = np.array([_ap_char_sum(curve.A, curve.B, p) for p in good.tolist()])
        for n in (1, _LANES - 1, _LANES, _LANES + 1):
            assert (_ap_values(curve, good[:n]) == exact[:n]).all(), n
        assert (_ap_values(curve, good[::-1]) == exact[::-1]).all()
        _, settled = _ap_lanes(curve.A, curve.B, good[:_LANES])
        monkeypatch.setattr(curve_mod, "_BSGS_TRIES", 2)  # try 0 has c = B = 0
        _, at_once = _ap_lanes(curve.A, curve.B, good[:_LANES])
        monkeypatch.undo()
        kinds = (at_once, settled & ~at_once, ~settled)
        assert all(kind.any() for kind in kinds)
        for kind in kinds:  # one-lane blocks
            for p, a in list(zip(good[:_LANES][kind].tolist(), exact[:_LANES][kind].tolist()))[:40]:
                assert _ap_values(curve, np.array([p])).tolist() == [a], p

    def test_table_prefix_with_bad_primes(self, monkeypatch, bad3_curve, primes_1e3):
        # 2 and 3 from metadata, 5 and 7 bad (the node rule), the rest in
        # lanes: every split of the table into calls and chunks agrees
        ps = primes_1e3.below(400)
        want = [one_prime_ap(bad3_curve, p) for p in ps.tolist()]
        assert want[:2] == [bad3_curve.a2, bad3_curve.a3]
        steps = CurveModel(A=-3, B=12, conductor=105, root_number=1, label="steps", a2=1, a3=-1)
        for bound in (3, 4, 6, 8, 100, 400):
            got = ap_array(steps, primes_1e3, bound)
            assert got.tolist() == want[: got.size], bound
        monkeypatch.setattr(curve_mod, "_AP_CHUNK", 7)
        chunked = CurveModel(A=-3, B=12, conductor=105, root_number=1, label="chunks", a2=1, a3=-1)
        assert ap_array(chunked, primes_1e3, 400).tolist() == want


# sha256 of ap_array to 1e5 as little-endian int64: every kernel must give
# these tables bit for bit.
AP_1E5_SHA256 = {
    "cm32-like": "ddf4e1c6b90b7b5a02e480abc31ef9aa0929ece3eeecb9ae82d5de1dfde2921a",
    "ncm37": "3a0ef9aa932a1cfa24d37549f7a6fd9e3c28703e3bbc261b53df6102d4d180fd",
}


def test_ap_table_digests(catalog, primes_1e5):
    for label, want in AP_1E5_SHA256.items():
        curve = catalog[label]
        table = CurveModel(curve.A, curve.B, curve.conductor, curve.root_number, "digest", curve.a2, curve.a3)
        vals = ap_array(table, primes_1e5, 1e5)  # a fresh cache entry: the whole table
        assert vals.size == 9592
        assert hashlib.sha256(vals.astype("<i8").tobytes()).hexdigest() == want, label


class TestCpm:
    def test_reads_ap_array_cache(self, monkeypatch, primes_1e3):
        curve = CurveModel(A=3, B=7, conductor=1, root_number=1, label="cpm-cache", a2=0, a3=0)
        aps = ap_array(curve, primes_1e3, 500)
        calls = []
        original = curve_mod._ap_values

        def counting(c, ps):
            calls.append(ps.tolist())
            return original(c, ps)

        monkeypatch.setattr(curve_mod, "_ap_values", counting)
        ps = primes_1e3.below(500)
        assert (cpm(curve, primes_1e3, 500, 2) == aps * aps - 2 * ps).all()
        assert calls == []
        assert cpm(curve, primes_1e3, 1000, 2).size == primes_1e3.primes.size  # beyond the table
        assert calls == [primes_1e3.primes[ps.size :].tolist()]

    def test_recurrence_identity(self, cm_curve, ncm_curve, primes_1e4):
        # every prime below 1e4, the bad ones (2 for cm32-like, 37 for
        # ncm37) included, against the recurrence in Python integers
        for curve, bad in ((cm_curve, 2), (ncm_curve, 37)):
            assert curve.conductor % bad == 0
            ps = primes_1e4.primes.tolist()
            for m in range(1, 9):
                got = cpm(curve, primes_1e4, 1e4, m)
                assert got.dtype == np.int64
                assert got.tolist() == [cpm_reference(curve, p, m) for p in ps], (curve.label, m)

    def test_example_cm_p5(self, cm_curve, primes_1e3):
        # c_4 = a_2^2 at the bad prime 2, a_3^2 - 6 and a_5^2 - 10
        assert cpm(cm_curve, primes_1e3, 6, 2).tolist() == [0, -6, -6]

    def test_bad_prime_powers(self, ncm_curve, primes_1e3):
        assert ap_array(ncm_curve, primes_1e3, 38)[-1] == -1
        assert cpm(ncm_curve, primes_1e3, 38, 3)[-1] == -1  # (-1)^3

    def test_hasse_bound_prime_powers(self, cm_curve, ncm_curve, primes_1e4):
        # |c_{p^m}| <= 2 p^(m/2) at good p, in integers (a_p = 0 gives equality
        # at even m)
        for curve in (cm_curve, ncm_curve):
            ps = primes_1e4.primes.tolist()
            for m in range(1, 9):
                for p, c in zip(ps, cpm(curve, primes_1e4, 1e4, m).tolist()):
                    assert curve.conductor % p == 0 or c * c <= 4 * p**m, (curve.label, p, m)

    def test_m_validation(self, cm_curve, primes_1e3):
        with pytest.raises(ValueError):
            cpm(cm_curve, primes_1e3, 6, 0)


class TestTwisting:
    def test_twisted_model_fields(self, cm_curve, ncm_curve):
        model = twisted_model(cm_curve, -3)
        assert (model.A, model.B) == (9, 0)
        model2 = twisted_model(CurveModel(A=2, B=5, conductor=11, root_number=1, a2=0, a3=0), 3)
        assert (model2.A, model2.B) == (18, 135)
        # metadata: a_p(E) times the character of d_K, and 0 when p | D
        by5 = twisted_model(ncm_curve, 5)
        assert (by5.a2, by5.a3) == (2, 3)
        assert twisted_model(ncm_curve, 3).a2 == 0  # d_K = 12
        assert twisted_model(ncm_curve, 6).a3 == 0

    def test_zero_row(self, cm_curve):
        # D = 0 is a row of the columns, but no twist: no filter keeps it
        row = twist_columns(cm_curve, range(0, 1))
        assert row.D.tolist() == [0]
        assert row.kernel.tolist() == [0] and row.root_number.tolist() == [0]
        assert row.squarefree.tolist() == [False] and row.conductor_exact.tolist() == [False]
        for flags in ((False, False), (True, True)):
            assert len(filter_twists(cm_curve, range(0, 1), *flags)) == 0

    def test_character_rule_matches_twisted_model(self, cm_curve, ncm_curve, bad3_curve, primes_1e3):
        # a_p(E_D) = (D|p) a_p(E) at every p > 3, bad primes of the model
        # (the node moves to D x0) and p | D included
        ps = np.array([int(q) for q in primes_1e3.primes if 3 < q < 200])
        for curve in (cm_curve, ncm_curve, bad3_curve):
            base = _ap_values(curve, ps)
            for D in [d for d in range(-20, 21) if d]:
                model = twisted_model(curve, D)
                chi = np.array([kronecker(D, p) for p in ps.tolist()])
                assert (_ap_values(model, ps) == chi * base).all(), (curve.label, D)

    def test_p_divides_D(self, ncm_curve):
        model = twisted_model(ncm_curve, 15)
        assert _ap_values(model, np.array([3, 5])).tolist() == [0, 0]

    def test_square_twist_restores_ap(self, ncm_curve, primes_1e3):
        model = twisted_model(ncm_curve, 25)
        ps = np.array([7, 11, 13, 17])
        assert (_ap_values(model, ps) == _ap_values(ncm_curve, ps)).all()

    def test_sign_flip(self, ncm_curve):
        model = twisted_model(ncm_curve, 3)
        ps = np.array([7, 11, 13])
        chi = np.array([kronecker(3, p) for p in ps.tolist()])
        assert (_ap_values(model, ps) == _ap_values(ncm_curve, ps) * chi).all()

    def test_conductor_bound(self, cm_curve, ncm_curve):
        tw = twist_columns(ncm_curve, range(1, 6))  # D = 1..5
        bounds = list(tw.conductor_bounds())
        assert bounds[0] == 37
        assert tw.conductor_exact[4] and bounds[4] == 37 * 25
        assert not tw.conductor_exact[3]
        assert bounds[3] <= 2**8 * 3**5 * 37 * 16
        # D = 4 is a square twist: same curve, so the bound must cover N_E
        assert bounds[3] >= 37

    def test_root_number(self, cm_curve, ncm_curve):
        tw = twist_columns(ncm_curve, range(-60, 61))
        roots = dict(zip(tw.D.tolist(), tw.root_number.tolist()))
        assert roots[1] == ncm_curve.root_number
        # odd conductor: the relation is defined for every clean D
        seen = set()
        for D in range(-60, 61):
            if D == 0 or not is_squarefree(abs(D)):
                continue
            if math.gcd(D, 2 * ncm_curve.conductor) != 1:
                continue
            seen.add(roots[D])
            assert roots[D] in (-1, 1)
        assert seen == {-1, 1}

    def test_kronecker_minus_n_matches_scalar_symbol(self):
        # (a|-1) (a|2)^e prod (a|q)^k over the odd q^k || n against the
        # scalar kronecker, on odd, even and mixed n with 2-parts up to 2^10,
        # and at the largest prime below the cap, read by Euler's criterion
        moduli = [1, 2, 3, 4, 8, 9, 11, 37, 45, 64, 96, 243, 1024, 1155, 3072, 13312, 30030, 119808, 120120]
        moduli.append(2999999929)
        rng = np.random.default_rng(27)
        a = np.concatenate(
            (
                rng.integers(-(10**15), 10**15, size=3000),
                rng.integers(-(10**4), 10**4, size=3000),
                np.arange(-1500, 1500),
            )
        )
        for n in moduli:
            got = _kronecker_minus_n(a, n)
            assert got.tolist() == [kronecker(v, -n) for v in a.tolist()], n
        assert _kronecker_minus_n(a[:0], 37).tolist() == []
        with pytest.raises(ValueError, match="conductor below 3000000000, got 3000000019"):
            _kronecker_minus_n(a, 3000000019)

    def test_root_number_even_conductor_degenerate(self, cm_curve):
        # chi_D ramifies at 2 for D = 3 mod 4, and -N is even: undetermined
        tw = twist_columns(cm_curve, range(-3, 6))
        roots = dict(zip(tw.D.tolist(), tw.root_number.tolist()))
        assert (roots[3], roots[-3], roots[5]) == (0, -1, 1)

    def test_root_number_domainis_clean(self, ncm_curve):
        # D = 4 is not squarefree and D = 37 divides N: no sign is determined
        tw = twist_columns(ncm_curve, range(4, 38))
        for i in (0, 33):  # D = 4 and D = 37
            assert not tw.conductor_exact[i]
            assert tw.root_number[i] == 0
