"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one [ACCEPTANCE] pass/fail line.  The headline asymptotics
live far beyond desk scale, so acceptance is property-based plus
exact-identity checks, with the finite reference constants reproduced
exactly.
"""

import contextlib
import hashlib
import json
import math
import os
import subprocess
import sys
from math import gcd
from pathlib import Path

import numpy as np
import pytest

import twistrank
from twistrank.arith import is_squarefree, kronecker, parity_decompose
from twistrank.cli import main as cli_main
from twistrank.curve import ap_array, cpm
from twistrank.explicit_formula import evaluate_reports
from twistrank.family_moments import filter_twists, theoretical_moment_bound
from twistrank.kernel import SmoothWeight, TriangleKernel
from twistrank.verification_lab import (
    _chi_table,
    gauss_sum_check,
    jsum_crt_check,
    poisson_check,
    poisson_required_truncation,
    q_sum,
    rankin_linear_check,
    rankin_square_check,
    step1_sum,
)

from conftest import brute_point_count, mellin_phi, mellin_phi_quadrature
from test_verification_lab import oracle_qsum, oracle_step1


@contextlib.contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] {name}: FAIL")
        raise
    else:
        print(f"[ACCEPTANCE] {name}: PASS")


def test_exact_arithmetic(cm_curve, ncm_curve, extra_curve, primes_1e3):
    with criterion("exact arithmetic: a_p point counts and Euler criterion"):
        for curve in (cm_curve, ncm_curve, extra_curve):
            disc2 = 2 * (4 * curve.A**3 + 27 * curve.B**2)
            for p, a in zip(primes_1e3.primes.tolist(), ap_array(curve, primes_1e3, 1e3).tolist()):
                if disc2 % p == 0:
                    continue
                assert p + 1 - a == brute_point_count(curve.A, curve.B, p)
        for p in (int(q) for q in primes_1e3.primes if 2 < q < 500):
            for d in range(-200, 201):
                if d % p == 0:
                    continue
                euler = 1 if pow(d % p, (p - 1) // 2, p) == 1 else -1
                assert kronecker(d, p) == euler


def test_coefficient_identities(cm_curve, ncm_curve, primes_1e3):
    with criterion("coefficient identities: c_{p^2} = a_p^2 - 2p and Hasse bound"):
        for curve in (cm_curve, ncm_curve):
            ps = primes_1e3.below(500)
            good = curve.conductor % ps != 0
            a = ap_array(curve, primes_1e3, 500)
            assert (cpm(curve, primes_1e3, 500, 2) == a * a - 2 * ps)[good].all()
            for m in range(1, 6):
                assert (np.abs(cpm(curve, primes_1e3, 500, m)) <= 2 * ps ** (m / 2) + 1e-9)[good].all()


def test_kernel_transform_grid():
    with criterion("kernel transform: closed form vs Mellin quadrature to 1e-8"):
        for lam in (1.0, 2.0, 5.0, 10.0, 20.0):
            kern = TriangleKernel(lam)
            for t in np.arange(-10.0, 10.0 + 1e-9, 0.1):
                t = float(t)
                closed = mellin_phi(kern, t)
                quadr = mellin_phi_quadrature(kern, complex(1.0, t))
                assert abs(quadr - closed) <= 1e-8
                assert closed >= 0.0


def test_gauss_sums_full_range():
    with criterion("Gauss sums: enumeration vs closed form, q <= 500"):
        for q in range(1, 501, 2):
            if not is_squarefree(q):
                continue
            chi = _chi_table(q)
            for m in range(1, max(q, 2)):
                if gcd(m, q) != 1:
                    continue
                res = gauss_sum_check(q, m, _chi=chi)
                assert res.passed, (q, m, res.ratio_or_error)


def test_jsum_crt_cases():
    with criterion("CRT-factored j-sums: 200 random cases plus vanishing"):
        import random

        rng = random.Random(20240131)
        odd = [3, 5, 7, 11, 13, 17, 19, 23]
        done = 0
        while done < 200:
            r = rng.choice([2, 3, 4, 5])
            tup = tuple(rng.choice(odd) for _ in range(r))
            pd = parity_decompose(tup)
            if pd.pi2 == 1 or pd.pi1 * pd.pi2 > 10_000:
                continue
            m = rng.randint(1, 80) * rng.choice([1, -1])
            res = jsum_crt_check(tup, m)
            assert res.passed, (tup, m, res.ratio_or_error)
            done += 1
        # exact vanishing: modulus divides m, and delta_2 > 1
        for tup, m in (((3, 3, 5), 15), ((3, 3, 5), -30), ((5, 7), 7), ((3, 3, 7, 5), 21)):
            res = jsum_crt_check(tup, m)
            pd = parity_decompose(tup)
            assert abs(res.computed) <= 1e-9 * math.sqrt(pd.pi1 * pd.pi2)
            assert res.passed


def test_poisson_summation_range():
    with criterion("Poisson summation: q <= 50, l in {0, 1}, 1e-6 relative"):
        for q in range(1, 51):
            T = float(180 * q)
            for l in (0, 1):
                w = SmoothWeight(0.5, 1.0, shape="exp", l=l, x=100.0, X_k=T)
                trunc = max(poisson_required_truncation(w, l, q, j) for j in range(q))
                cache = {}
                for j in range(q):
                    res = poisson_check(w, l, q, j, trunc, fourier_cache=cache)
                    assert res.passed, (q, l, j, res.ratio_or_error)


def test_rankin_averages(cm_curve, ncm_curve, primes_1e5):
    with criterion("Rankin averages: bands at 1e5 and ratio trend over 1e3..1e5"):
        for curve in (cm_curve, ncm_curve):
            lin = {}
            sq = {}
            for x in (1e3, 1e4, 1e5):
                lin[x] = rankin_linear_check(curve, x, primes_1e5).ratio_or_error
                sq[x] = rankin_square_check(curve, math.log(x), primes_1e5).ratio_or_error
            # bands at x = 1e5 (the calibrated scale)
            assert 0.75 <= lin[1e5] <= 1.25
            assert 0.7 <= sq[1e5] <= 1.3
            # ratios move toward 1 within the +-0.1 noise band
            for series in (lin, sq):
                assert abs(series[1e4] - 1) <= abs(series[1e3] - 1) + 0.1
                assert abs(series[1e5] - 1) <= abs(series[1e4] - 1) + 0.1


def test_grh_positivity_proxy(cm_curve, primes_1e4):
    with criterion("GRH positivity proxy: |D| <= 2000 sweep at lambda = log 1e4"):
        twists = filter_twists(cm_curve, range(-2000, 2001), True, True)
        table = evaluate_reports(twists, math.log(1e4), primes_1e4)
        # the clean D, chosen independently of the filter
        clean = [
            D
            for D in range(-2000, 2001)
            if D and is_squarefree(abs(D)) and gcd(D, 2 * cm_curve.conductor) == 1
        ]
        assert table.twists.D.tolist() == clean
        n_odd = 0
        for D, bound, root in zip(clean, table.rank_bound.tolist(), table.twists.root_number.tolist()):
            assert bound >= -0.1, (D, bound)
            if root == -1:
                n_odd += 1
                assert bound >= 0.9, (D, bound)
        assert len(clean) > 1000 and n_odd > 200  # the sweep is not vacuous


def test_grh_invariants_odd_conductor(ncm_curve, primes_1e5):
    # under GRH total_S >= 0 (every Phi_lambda(rho) >= 0) and, where the
    # root number is -1, rank_bound >= 1 (a zero at 1/2 adds Phi(1) = lambda);
    # at D = 3 mod 4 both hold only with the conductor 37 * (4D)^2
    with criterion("GRH invariants: clean ncm37 twists |D| <= 400 at lambda = log 1e5"):
        twists = filter_twists(ncm_curve, range(-400, 401), True, True)
        table = evaluate_reports(twists, math.log(1e5), primes_1e5)
        roots = table.twists.root_number
        assert (table.total_S >= 0.0).all(), table.total_S.min()
        assert (table.rank_bound[roots == -1] >= 1.0).all(), table.rank_bound[roots == -1].min()
        three = table.twists.D % 4 == 3
        assert (three.sum(), (three & (roots == -1)).sum()) == (158, 78)  # not vacuous


def test_reference_constants(tmp_path):
    with criterion("reference constants echoed exactly"):
        assert theoretical_moment_bound(1) == 1.5
        out = tmp_path / "sweep.csv"
        code = cli_main(
            ["sweep", "--curve", "cm32-like", "--x", "200", "--k", "1", "--T", "420", "--out", str(out)]
        )
        assert code == 0
        side = json.loads((tmp_path / "sweep.csv.refs.json").read_text())
        assert side["heath_brown_k1"] == 1.5
        assert side["goldfeld_k1"] == 3.25
        assert side["rank_density_base"] == 1.44467
        assert side["lowzero_density_base"] == 1.402408
        assert side["sinc_half_squared"] == 0.9193953884


def test_qsum_step1_enumerations(ncm_curve, primes_1e4):
    with criterion("Q-sum and Step-I enumerations: oracle-exact, envelopes soft-pass"):
        x = 1000.0
        for r in (1, 2, 3):
            U = min(1e4, x**r)  # the sums require U <= x^r
            res = step1_sum(r, U, x, ncm_curve, primes_1e4)
            assert res.computed == oracle_step1(ncm_curve, r, U, x, primes_1e4)
            assert res.passed
            assert res.ratio_or_error <= 10.0
        for r in (1, 2, 3):
            U = min(1e4, x**r)
            for n in (1, 7):
                res = q_sum(r, n, U, x, ncm_curve, primes_1e4)
                assert res.computed == oracle_qsum(ncm_curve, r, n, U, x, primes_1e4)
                assert res.passed
                assert res.ratio_or_error <= 10.0


def test_default_verify_suite_exit_zero(tmp_path, capsys, primes_1e5, cm_curve, ncm_curve):
    with criterion("default verification suite: exit 0 on the shipped catalog"):
        # warm the shared coefficient cache so the in-process CLI run reuses it
        from twistrank.curve import ap_array

        ap_array(cm_curve, primes_1e5, 1e5)
        ap_array(ncm_curve, primes_1e5, 1e5)
        out = tmp_path / "verify.jsonl"
        code = cli_main(["verify", "--seed", "1", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        records = [json.loads(l) for l in out.read_text().splitlines()]
        assert records[-1]["summary"]["failed"] == 0
        assert records[-1]["summary"]["checks"] > 50


def test_determinism_across_threads(tmp_path):
    with criterion("determinism: threads 1 vs 8 agree, reruns byte-identical"):
        args = [
            "sweep",
            "--curve",
            "cm32-like",
            "--x",
            "200",
            "--k",
            "1",
            "--T",
            "420",
        ]
        paths = {}
        for threads in (1, 8):
            out = tmp_path / f"t{threads}.csv"
            code = cli_main(args + ["--threads", str(threads), "--out", str(out)])
            assert code == 0
            paths[threads] = out
        rows1 = paths[1].read_text().splitlines()
        rows8 = paths[8].read_text().splitlines()
        assert rows1[0] == rows8[0]
        for a, b in zip(rows1[1:], rows8[1:]):
            for ca, cb in zip(a.split(","), b.split(",")):
                try:
                    assert abs(float(ca) - float(cb)) <= 1e-10
                except ValueError:
                    assert ca == cb
        # byte-identical rerun at the same thread count
        again = tmp_path / "again.csv"
        assert cli_main(args + ["--threads", "8", "--out", str(again)]) == 0
        assert again.read_bytes() == paths[8].read_bytes()
        assert (tmp_path / "t1.csv.refs.json").read_bytes() == (
            tmp_path / "t8.csv.refs.json"
        ).read_bytes()


@pytest.mark.parametrize(
    "args",
    [
        ["sweep", "--curve", "cm32-like", "--x", "1000", "--T", "20000"],
        ["ef-report", "--curve", "ncm37", "--x", "50000", "--dmin", "-40", "--dmax", "40"],
        ["ap-table", "--curve", "ncm37", "--limit", "100000"],
        ["ef-report", "--curve", "ncm37", "--x", "1e5", "--dmin", "-400", "--dmax", "400"],
    ],
    ids=["sweep", "ef-report", "ap-table", "ef-report-801-rows"],
)
def test_determinism_across_blas_threads(tmp_path, args):
    # fresh processes, since OpenBLAS reads its thread count once, at load;
    # the 801 rows of the last case meet prime_sides' float64 product in
    # blocks of 801 rows by 81 primes
    with criterion(f"determinism: {args[0]} bytes equal at 1 and 2 BLAS threads"):
        src = str(Path(twistrank.__file__).resolve().parents[1])
        digests = {}
        for threads in ("1", "2"):
            out = tmp_path / f"blas{threads}.csv"
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "twistrank.cli", *args, "--out", str(out)],
                capture_output=True,
                env=env,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            outputs = sorted(tmp_path.glob(f"{out.name}*"))  # a sweep also writes .refs.json
            digests[threads] = [hashlib.sha256(f.read_bytes()).hexdigest() for f in outputs]
        assert digests["1"] == digests["2"]
        assert len(digests["1"]) == (2 if args[0] == "sweep" else 1)
