import functools
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from twistrank.arith import _euler_symbols, _powmod, kronecker, sieve_primes
from twistrank.curve import CurveModel, _ap_values, ap_array, builtin_catalog, twist_columns
from twistrank.explicit_formula import evaluate_reports, prime_sides
from twistrank.kernel import triangle


@pytest.fixture(autouse=True)
def ap_cache_home(tmp_path, monkeypatch):
    """Every test, and every CLI process it starts, keeps its on-disk a_p
    tables (curve._ap_path) in an empty directory of its own, never in
    ~/.cache: a test that computes a table computes it."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg-cache"))
    return tmp_path / "xdg-cache"


@pytest.fixture(scope="session")
def catalog():
    return builtin_catalog()


@pytest.fixture(scope="session")
def cm_curve(catalog):
    return catalog["cm32-like"]


@pytest.fixture(scope="session")
def ncm_curve(catalog):
    return catalog["ncm37"]


@pytest.fixture(scope="session")
def extra_curve():
    # y^2 = x^3 + 2x + 3; model discriminant -16 * 275, bad model primes
    # {2, 5, 11}.  Metadata: conductor is a placeholder covering the bad
    # primes; a_3 = 0 by the exhaustive count over F_3 (points (0,0), (1,0),
    # (2,0) and infinity).
    return CurveModel(A=2, B=3, conductor=550, root_number=1, label="aux275", a2=0, a3=0)


@pytest.fixture(scope="session")
def bad3_curve():
    # y^2 = x^3 - 3x + 12; 4A^3 + 27B^2 = 2^2 3^3 5 7, so the model is
    # multiplicative at 5 and 7.  Metadata: conductor 105 = 3 * 5 * 7 with
    # a_3 = -1 (multiplicative at 3) and a good a_2 = 1; placeholders that
    # put 3 and two primes > 3 into N.
    return CurveModel(A=-3, B=12, conductor=105, root_number=1, label="bad3", a2=1, a3=-1)


@pytest.fixture(scope="session")
def primes_1e3():
    return sieve_primes(1_000)


@pytest.fixture(scope="session")
def primes_1e4():
    return sieve_primes(10_000)


@pytest.fixture(scope="session")
def primes_1e5():
    return sieve_primes(100_000)


def brute_point_count(A: int, B: int, p: int) -> int:
    """#E(F_p) by counting y-solutions per x, independent of any character
    machinery: histogram the squares, then read off multiplicities."""
    ys = np.arange(p, dtype=np.int64)
    sq_count = np.bincount((ys * ys) % p, minlength=p)
    xs = np.arange(p, dtype=np.int64)
    fx = ((xs * xs % p + A % p) * xs + B % p) % p
    return int(sq_count[fx].sum()) + 1


def cm32_like_ap(ps: np.ndarray) -> np.ndarray:
    """a_p of y^2 = x^3 + x at odd primes p < 3e9, in closed form (Ireland
    and Rosen, A Classical Introduction to Modern Number Theory, ch. 18 §4):
    0 at p = 3 mod 4; at p = 1 mod 4, p = a^2 + b^2 with b even and
    a = 1 mod 4, and a_p = 2a.  The square root i of -1 mod p is c^((p-1)/4)
    for a non-residue c; Euclid on (p, i), stopped at the first remainder
    below sqrt(p), leaves one of a, b (Hermite-Serret)."""
    ps = np.asarray(ps, dtype=np.int64)
    out = np.zeros_like(ps)
    split = ps[ps % 4 == 1]
    root = np.zeros_like(split)
    for c in range(2, 1000):
        todo = root == 0
        if not todo.any():
            break
        q = split[todo]
        r = _powmod(np.full_like(q, c), (q - 1) // 4, q)
        root[todo] = np.where(r * r % q == q - 1, r, 0)
    assert root.all()
    prev, rem = split.copy(), root
    while (big := rem * rem > split).any():
        prev[big], rem[big] = rem[big], prev[big] % rem[big]
    other = np.rint(np.sqrt((split - rem * rem).astype(float))).astype(np.int64)
    assert (rem * rem + other * other == split).all()
    odd = np.where(rem % 2 == 1, rem, other)
    out[ps % 4 == 1] = 2 * np.where(odd % 4 == 1, odd, -odd)
    return out


def twisted_model(curve, D: int) -> CurveModel:
    """E_D as its own Weierstrass model y^2 = x^3 + A D^2 x + B D^3.

    At 2 and 3 the metadata is a_p(E) times the character of the
    fundamental discriminant d_K of Q(sqrt(D)) (0 where the twist ramifies),
    and 0 when p | D.  d_K and the conductor (the twist's bound, as a
    placeholder, beside the base's root number) come from the trial-division
    reference trial_twist_invariants, not from twist_columns.
    """
    twist = trial_twist_invariants(curve, D)

    def small(p, meta):
        if meta is None:
            return None
        return 0 if D % p == 0 else meta * kronecker(twist["fundamental_disc"], p)

    return CurveModel(
        A=curve.A * D**2,
        B=curve.B * D**3,
        conductor=twist["conductor_bound"],
        root_number=curve.root_number,
        label=f"{curve.label or 'curve'}[D={D}]",
        a2=small(2, curve.a2),
        a3=small(3, curve.a3),
    )


# The primes whose a_p the scalar references read from the ap_array table.
REFERENCE_PRIME_LIMIT = 100_000


@functools.lru_cache(maxsize=None)
def _ap_by_prime(curve) -> dict:
    primes = sieve_primes(REFERENCE_PRIME_LIMIT)
    return dict(zip(primes.primes.tolist(), ap_array(curve, primes, REFERENCE_PRIME_LIMIT).tolist()))


def table_ap(curve, p: int) -> int:
    """a_p of the curve at one prime p < REFERENCE_PRIME_LIMIT, read from its
    ap_array table."""
    return _ap_by_prime(curve)[p]


def one_prime_ap(curve, p: int) -> int:
    """a_p of the model at the one prime p, a one-prime call of the kernel
    behind ap_array (no table, no cache): for the twisted models."""
    return int(_ap_values(curve, np.array([p], dtype=np.int64))[0])


def cpm_reference(curve, p: int, m: int) -> int:
    """c_{p^m}(E) by the scalar power-sum recurrence in Python integers, the
    oracle for curve.cpm: at good p, c_{p^m} = a_p c_{p^(m-1)} - p c_{p^(m-2)}
    with c_p = a_p and c_{p^2} = a_p^2 - 2p; at bad p (p | N), a_p^m."""
    a = table_ap(curve, p)
    if curve.conductor % p == 0:
        return a**m
    if m == 1:
        return a
    prev, cur = a, a * a - 2 * p
    for _ in range(m - 2):
        prev, cur = cur, a * cur - p * prev
    return cur


def twist_cpm(curve, D: int, p: int, m: int) -> int:
    """c_{p^m}(E_D), with the twisted model wherever E_D may be bad at p.

    Where E_D is good at p by the character -- p coprime to 2ND, or p = 2
    coprime to ND with D = 1 mod 4 -- it is (D|p)^m c_{p^m}(E).  At every
    other p, a_p(E_D) comes from ``twisted_model`` and c_{p^m}(E_D) =
    a_p(E_D)^m.
    """
    if (2 * curve.conductor * D) % p or (p == 2 and (curve.conductor * D) % 2 and D % 4 == 1):
        return kronecker(D, p) ** m * cpm_reference(curve, p, m)
    return one_prime_ap(twisted_model(curve, D), p) ** m


def one_row_prime_sides(curve, D: int, kernel, primes) -> tuple:
    """prime_sides of the one twist by D, as a tuple of Python floats."""
    return tuple(prime_sides(curve, [D], kernel, primes)[:, 0].tolist())


def one_twist(curve, D: int, lam: float, primes) -> dict:
    """The output record of the one twist by D: the one-row table."""
    return next(evaluate_reports(twist_columns(curve, range(D, D + 1)), lam, primes).records())


def factor_trial(n: int):
    """Yield (prime, exponent) pairs by trial division over 2, 3 and the
    6k +- 1; n <= ~1e12.  The scalar oracle of arith's factorisation,
    independent of it."""
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            yield p, e
    d = 5
    step = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            yield d, e
        d += step
        step = 6 - step  # alternate +2, +4 over 6k+-1
    if n > 1:
        yield n, 1


def squarefree_part(n: int) -> int:
    """Product of the primes dividing n to an odd power, by trial division:
    the scalar oracle of arith.squarefree_kernels.  n / squarefree_part(n)
    is always a perfect square."""
    if n < 1:
        raise ValueError(f"squarefree_part needs n >= 1, got {n}")
    out = 1
    for p, e in factor_trial(n):
        if e % 2:
            out *= p
    return out


def fundamental_discriminant(d: int) -> int:
    """Discriminant of Q(sqrt(d)): the squarefree kernel d0 = sign(d)
    squarefree_part(|d|) when d0 = 1 mod 4, and 4 d0 otherwise; the scalar
    oracle of twist_columns' fundamental_disc.  For square d the kernel is
    1 (the trivial field)."""
    if d == 0:
        raise ValueError("no discriminant for d = 0")
    d0 = squarefree_part(abs(d))
    if d < 0:
        d0 = -d0
    return d0 if d0 % 4 == 1 else 4 * d0


def trial_twist_invariants(curve, D: int) -> dict:
    """The invariants of the twist by D != 0 from one trial-division
    factorisation of D (fundamental_discriminant): the per-D reference for
    twist_columns' sieve."""
    disc = fundamental_discriminant(D)
    kernel = disc if disc % 4 == 1 else disc // 4  # sign(D) times the squarefree part of |D|
    squarefree = kernel == D
    coprime = math.gcd(D, 2 * curve.conductor) == 1
    clean = squarefree and coprime
    return {
        "kernel": kernel,
        "fundamental_disc": disc,
        "squarefree": squarefree,
        "coprime": coprime,
        "conductor_exact": clean,
        "root_number": curve.root_number * kronecker(disc, -curve.conductor) if clean else 0,
        "conductor_bound": (
            curve.conductor * (disc if math.gcd(disc, curve.conductor) == 1 else D) ** 2
            if clean
            else 2**8 * 3**5 * curve.conductor * kernel**2
        ),
    }


def plan_terms(curve, lam: float, primes) -> list:
    """The nonzero terms c_{p^m}(E) (log p)/p^m F(m log p / lambda) with
    p^m < e^lambda, as (p, m, term) arrays for m = 1, m = 2 and m >= 3:
    a_p from the ap_array table and c_{p^m} from cpm_reference, each term
    in explicit_formula's operand order (at m = 1, a_p times (log p)/p F
    with np.log; at m >= 2, c log p / p^m F with libm log)."""
    cutoff = math.exp(lam)
    ps = primes.below(cutoff)
    lp = np.log(ps.astype(float))
    m1 = ap_array(curve, primes, cutoff) * (lp / ps.astype(float) * triangle(lp / lam))
    terms = [[(p, 1, t) for p, t in zip(ps.tolist(), m1.tolist())], [], []]
    for p in ps.tolist():
        lp, m = math.log(p), 2
        while p**m < cutoff:
            term = cpm_reference(curve, p, m) * lp / p**m * triangle(m * lp / lam)
            terms[min(m, 3) - 1].append((p, m, term))
            m += 1
    dtypes = (np.int64, np.int64, float)
    return [
        tuple(np.array([g[i] for g in group if g[2] != 0.0], dtype=dt) for i, dt in enumerate(dtypes))
        for group in terms
    ]


def fsum_prime_sides(curve, lam: float, primes, ds) -> list:
    """(m1, m2, tail) per D of ds by compensated summation, the reference for
    the exact fixed-point sums of explicit_formula.prime_sides: each twist's
    plan_terms, times its characters at their primes (kronecker at 2,
    Euler's criterion on every cell at the odd primes, none of the residue
    tables or reciprocity rows of arith.legendre_matrix), summed by one
    math.fsum per group."""
    groups = plan_terms(curve, lam, primes)
    columns = np.unique(np.concatenate([p for p, _, _ in groups]))
    groups = [(np.searchsorted(columns, p), m, t) for p, m, t in groups]
    out = []
    odd = columns[columns > 2]
    for start in range(0, len(ds), 256):
        block = list(ds[start : start + 256])
        chi = np.empty((len(block), columns.size), dtype=np.int64)
        if odd.size < columns.size:  # 2 leads
            chi[:, 0] = [kronecker(D, 2) if D % 4 == 1 else 0 for D in block]
        residues = np.array(block, dtype=np.int64)[:, None] % odd
        chi[:, columns.size - odd.size :] = _euler_symbols(residues, odd)
        for row in chi:
            sums = []
            for column, m, terms in groups:
                s = row[column] ** m
                sums.append(math.fsum((terms * s)[s != 0].tolist()))
            out.append(tuple(sums))
    return out


def mellin_phi(kernel, t: float) -> float:
    """Closed-form Mellin transform of the triangle kernel on the critical
    line s = 1 + it:

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


def mellin_phi_quadrature(kernel, u: complex) -> complex:
    """The defining integral int F_lambda(x) e^((u-1)x) dx by quadrature,
    the oracle for ``mellin_phi``.

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
    re = quad(f_re, -lam, lam, **kw)[0]
    im = quad(f_im, -lam, lam, **kw)[0]
    return complex(re, im)


_QAWO_KW = dict(epsabs=1e-13, epsrel=1e-13, limit=400)


def qawo_transform(f, lo: float, hi: float, freq: float) -> complex:
    """int f(t) e^(-2 pi i freq t) dt over [lo, hi] by QUADPACK's QAWO, the
    oracle for the numpy transforms of ``twistrank.kernel``.

    The 1e-13 request can trip scipy's roundoff heuristic for large
    frequencies even though the result is good to ~1e-11; that warning is
    silenced here.
    """
    if freq == 0.0:
        return complex(quad(f, lo, hi, **_QAWO_KW)[0], 0.0)
    wvar = 2.0 * math.pi * freq
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        re = quad(f, lo, hi, weight="cos", wvar=wvar, **_QAWO_KW)[0]
        im = -quad(f, lo, hi, weight="sin", wvar=wvar, **_QAWO_KW)[0]
    return complex(re, im)


def _weight_l_at(w, t: float, l: int) -> float:
    """W_l(t) = (log(t^2 X_k^2) + (log x)/2)^l W(t) at one point in Python
    floats, from the bump's own formula (see SmoothWeight), not from the
    code it checks; scalar, as a one-element array per QUADPACK call costs
    it ten times the time."""
    lo, hi = w.support_lo, w.support_hi
    if not lo < t < hi:
        return 0.0
    prod = (t - lo) * (hi - t)
    if w.shape == "exp":
        base = math.exp(4.0 / (hi - lo) ** 2 - 1.0 / prod)
    else:
        base = (4.0 * prod / (hi - lo) ** 2) ** 4
    if l == 0:
        return base
    return (math.log(t * t * w.X_k * w.X_k) + 0.5 * math.log(w.x)) ** l * base


def qawo_weight_fourier(w, freq: float, l: int = 0) -> complex:
    """hat(W_l)(freq) by QAWO."""
    return qawo_transform(lambda t: _weight_l_at(w, t, l), w.support_lo, w.support_hi, freq)


def qawo_weight_fourier_derivative(w, freq: float, l: int = 0) -> complex:
    """hat(W_l)'(freq) = i * (transform of -2 pi t W_l) by QAWO."""

    def g(t):
        return -2.0 * math.pi * t * _weight_l_at(w, t, l)

    return 1j * qawo_transform(g, w.support_lo, w.support_hi, freq)
