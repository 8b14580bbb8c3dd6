"""Both sides of Weil's explicit formula for a quadratic twist.

For the twist E_D with kernel scale lambda the identity reads

    sum_rho Phi_lambda(rho) = log N_(E_D)
                              - 2 sum_{p^m} c_{p^m}(E_D) (log p)/p^m F(m log p / lambda)
                              - 2 log 2pi - 2 * (archimedean integral).

The zero side is never located; it is defined by the prime-side equality,
and under GRH every Phi_lambda(rho) is nonnegative with Phi_lambda(1) =
lambda, so total_S / lambda upper-bounds the analytic rank.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import chain
from typing import Dict, Iterator, Optional, Sequence

import numpy as np

from .arith import (
    TABLE_P_PER_ROW,
    PrimeTable,
    ResidueTables,
    _column_rows,
    _euler_symbols,
    fixed_point_limbs,
    fixed_point_scale,
    legendre_matrix,
    round_fixed_point,
    sieve_primes,
)
from .curve import CurveModel, Twists, ap_array, cpm, filter_twists
from .kernel import TriangleKernel, archimedean_integral, triangle

__all__ = [
    "ExplicitFormulaTable",
    "InsufficientPrimeTable",
    "prime_sides",
    "character_reads",
    "evaluate_reports",
    "twist_windows",
    "beta_array",
    "CSV_COLUMNS",
]


class InsufficientPrimeTable(ValueError):
    """The prime table does not reach the cutoff e^lambda."""

    def __init__(self, required: int, limit: int):
        super().__init__(
            f"prime table reaches {limit} but the kernel needs all primes below {required}"
        )
        self.required = required
        self.limit = limit


CSV_COLUMNS = [
    "D",
    "lambda",
    "log_conductor",
    "conductor_exact",
    "prime_m1",
    "prime_m2",
    "prime_tail",
    "archimedean",
    "total_S",
    "rank_bound",
    "root_number",
]


def _require_table(primes: PrimeTable, lam: float) -> float:
    """The cutoff e^lambda, once the table is known to hold every prime below it."""
    cutoff = math.exp(lam)
    if primes.limit + 0.5 < cutoff * (1.0 - 1e-12):
        required = math.ceil(cutoff - 1e-6 * max(1.0, cutoff))
        raise InsufficientPrimeTable(required=required, limit=primes.limit)
    return cutoff


def beta_array(curve: CurveModel, x: float, primes: PrimeTable) -> np.ndarray:
    """The prime weights a_p (log p)/p F(log p / log x) for all p < x, as a
    float array aligned with primes.below(x)."""
    _require_table(primes, math.log(x))
    ps = primes.below(x)
    aps = ap_array(curve, primes, x).astype(float)
    lp = np.log(ps.astype(float))
    fv = triangle(lp / math.log(x))
    return aps * lp / ps.astype(float) * fv


class _Group(namedtuple("_Group", "emin odd even")):
    """One group of the plan (m = 1, m = 2 or m >= 3) in the fixed point of
    arith.fixed_point_limbs (units of 2^emin): odd[j] and even[j] sum the
    limbs of its terms c_{p^m}(E) (log p)/p^m F(m log p / lambda) with odd
    and even m at plan column j, as float64 integers, up to the last such
    column.  Below e^lambda <= 1e8 a column holds at most 12 terms of one
    parity (p = 2, m <= 26), so every sum is below 12 * 2^30 < 2^34."""

    __slots__ = ()

    def add_products(self, sums: np.ndarray, first: int, chi: np.ndarray) -> None:
        """Add to the int64 sums chi_D(p)^m times the limb sums of the columns
        chi holds (chi's column j is the plan's column first + j), one float64
        product per parity of m.  A block has at most _BLOCK_CELLS = 2^16
        columns, so every partial sum is an integer below 2^16 * 2^34 = 2^50:
        exact in any order the BLAS adds, at any thread count."""
        for limbs, square in ((self.odd, False), (self.even, True)):
            w = min(chi.shape[1], len(limbs) - first)
            if w > 0:
                b = chi[:, :w].astype(np.float64)
                sums += ((b * b if square else b) @ limbs[first : first + w]).astype(np.int64)


class _PrimePlan(namedtuple("_PrimePlan", "columns groups")):
    """The part of prime_sides that does not depend on D.

    ``groups`` holds, for m = 1, m = 2 and m >= 3, each p^m < e^lambda whose
    term is nonzero (c_{p^m}(E) != 0).  At every prime, 2 and those dividing
    N included, c_{p^m}(E_D) = chi_D(p)^m c_{p^m}(E), so a twist only flips
    the sign of a term or zeroes it.  ``columns`` holds the primes of those
    terms, ascending: the only primes whose character a twist needs.
    """

    __slots__ = ()


def _group(column: np.ndarray, power: np.ndarray, terms: np.ndarray) -> _Group:
    emin, count = fixed_point_scale(terms)
    limbs = fixed_point_limbs(terms, emin, count)
    parts = []
    for at in (power % 2 == 1, power % 2 == 0):
        part = np.zeros((column[at].max(initial=-1) + 1, count))
        np.add.at(part, column[at], limbs[at])
        parts.append(part)
    return _Group(emin, *parts)


def _prime_plan(E: CurveModel, lam: float, primes: PrimeTable, cutoff: float) -> _PrimePlan:
    ps = primes.below(cutoff)
    aps = ap_array(E, primes, cutoff)
    lp = np.log(ps.astype(float))
    weights = lp / ps.astype(float) * triangle(lp / lam)  # (log p)/p F, before a_p multiplies it
    first = np.flatnonzero(aps)
    raw = [(first, np.ones(first.size, dtype=np.int8), aps[first] * weights[first])]
    # index, m and c_{p^m} of the terms with m >= 2, from an empty part
    higher = [(first[:0], first[:0].astype(np.int8), first[:0])]
    m = 2
    while 2**m < cutoff:
        c = cpm(E, primes, cutoff ** (1 / m) + 1, m)
        # a zero coefficient adds +0.0 for every twist
        (index,) = np.nonzero((c != 0) & (ps[: c.size] ** m < cutoff))
        higher.append((index, np.full(index.size, m, dtype=np.int8), c[index]))
        m += 1
    index, power, c = (np.concatenate(part) for part in zip(*higher))
    p = ps[index]
    lp = np.array(list(map(math.log, p.tolist())))  # libm: np.log rounds some integers differently
    term = c * lp / p**power * triangle(power * lp / lam)  # c (log p)/p^m F(m log p / lambda)
    raw += [(index[at], power[at], term[at]) for at in (power == 2, power >= 3)]
    raw = [(i[t != 0.0], m[t != 0.0], t[t != 0.0]) for i, m, t in raw]  # F = 0 at the cutoff adds nothing
    used = np.zeros(ps.size, dtype=bool)
    for index, _, _ in raw:
        used[index] = True
    column = np.cumsum(used)
    column -= 1  # the column of each used prime
    groups = tuple(_group(column[i], m, t) for i, m, t in raw)
    return _PrimePlan(columns=ps[used], groups=groups)


# A chunk of prime_sides spans about this many times e^lambda, at the
# density of its D, and holds at least _CHUNK_ROWS rows: 2,048
# rows put every prime up to 32,768 in arith.legendre_matrix's table rule,
# D at a density of 1/16 or more (a sieve and a sign filter keep about
# 1/5) read each prime's table laid end to end over the span, each table
# over four periods or more.  Each chunk's limb sums are rounded before the
# next, so its arrays are O(rows), not O(family): about 150 bytes a row
# (int64 limb sums of 3 groups of 3 limbs, int8 characters and their
# float64 copy, the int64 offsets legendre_matrix reads them at), 2 MB at
# the 14,199 rows of a chunk of the k = 1 ncm37 sweep at x = 1e4 and 23 MB
# at the 156,600 rows of x = 1e5, whose whole run peaks at 273 MB RSS.
_CHUNK_SPAN_PER_PRIME = 4
_CHUNK_ROWS = 1 << 11
# Cells of one block of characters (one arith.legendre_matrix call), at
# least _BLOCK_PRIMES primes wide.  A short window of D wants wide blocks:
# a row is read by reciprocity only if its odd part is at most 16 times the
# block's primes left to it.  The prime side of 800 D near 0 at x = 1e5
# took 0.50-0.64 s in blocks of 2^14 cells (20 primes) and 0.17-0.20 s in
# blocks of 2^16 (81 primes); 24 D at x = 5e4 took 3.7-4.9 ms (numpy 2.4,
# x86-64).  Narrower blocks cost more per cell than they save: the product
# took 5.9 ns a cell at 3 primes and 1.1 ns at 8 (17,500 rows, one thread).
_BLOCK_CELLS = 1 << 16
_BLOCK_PRIMES = 8

# chi_D(2) by D mod 8: (D|2) for D = 1 mod 4, 0 otherwise
_CHI_AT_2 = np.array([0, 1, 0, 0, 0, -1, 0, 0], dtype=np.int8)


def _character_blocks(
    ps: np.ndarray, ds: np.ndarray, kernels=None, tables: Optional[ResidueTables] = None
) -> Iterator[tuple]:
    """(first, chi) covering the characters chi_d(p) for the kernel d of
    every D of ds (kernels, aligned with ds; ds if None) and p of ps
    (ascending; 2 leads if present): chi holds every row and the columns
    first .. first + chi.shape[1] - 1 of ps, at most _BLOCK_CELLS cells (or
    _BLOCK_PRIMES columns, if that is more).  At 2 the character is read
    off d mod 8, at the odd primes by arith.legendre_matrix over the D
    (dense where the kernels are not), which picks a way for each prime and
    keeps residue tables in tables (per block if None); at D = d m^2 the
    cells of the primes of m, where (D|p) = 0 and not (d|p), take Euler's
    criterion, sought among the D sorted by m^2.
    """
    kernels = ds if kernels is None else kernels
    first = int(ps.size > 0 and ps[0] == 2)
    if first:
        yield 0, _CHI_AT_2[kernels & 7][:, None]
    moved = np.flatnonzero(kernels != ds)
    moved = moved[np.argsort(ds[moved] // kernels[moved])]
    square = ds[moved] // kernels[moved]  # m^2, ascending
    width = max(_BLOCK_PRIMES, _BLOCK_CELLS // max(1, ds.size))
    for c in range(first, ps.size, width):
        block = ps[c : c + width]
        chi = legendre_matrix(ds, block, tables)
        at = np.searchsorted(square, block[0] ** 2)
        row, col = np.nonzero(square[at:, None] % block**2 == 0)
        row, p = moved[at + row], block[col]
        chi[row, col] = _euler_symbols(kernels[row] % p, p)
        yield c, chi


def character_reads(rows: int, max_d: int, top: float) -> Dict[str, float]:
    """How prime_sides reads the characters of `rows` consecutive D with |D|
    up to max_d at the primes up to top: the number of primes, about
    top / log(top) of them, by way ("table", "reciprocity", "euler").  A
    chunk of min(rows, max(_CHUNK_ROWS, _CHUNK_SPAN_PER_PRIME * top)) rows
    reads from residue tables the primes up to TABLE_P_PER_ROW times its
    rows; the others come in blocks of _BLOCK_CELLS cells, by reciprocity
    if max_d is at most TABLE_P_PER_ROW times a block's primes, by Euler's
    criterion otherwise (arith.legendre_matrix)."""

    def count(y: float) -> float:
        return y / math.log(max(y, 3.0))

    chunk = min(rows, max(_CHUNK_ROWS, math.ceil(_CHUNK_SPAN_PER_PRIME * top)))
    table = count(min(top, TABLE_P_PER_ROW * chunk))
    rest = max(count(top) - table, 0.0)
    width = max(_BLOCK_PRIMES, _BLOCK_CELLS // max(1, chunk))
    reads = {"table": table, "reciprocity": 0.0, "euler": 0.0}
    reads["reciprocity" if max_d <= TABLE_P_PER_ROW * min(rest, width) else "euler"] = rest
    return reads


def _chunks(ds: np.ndarray, top: float) -> Iterator[tuple]:
    """(start, rows) of the chunks of ds, of equal length up to one row,
    each spanning about _CHUNK_SPAN_PER_PRIME * top at the density of ds."""
    if not ds.size:
        return
    density = ds.size / (int(ds.max()) - int(ds.min()) + 1)
    step = max(_CHUNK_ROWS, math.ceil(_CHUNK_SPAN_PER_PRIME * top * density))
    count = -(-ds.size // step)
    step = -(-ds.size // count)
    for start in range(0, ds.size, step):
        yield start, step


def prime_sides(
    curve: CurveModel, ds: Sequence[int], kernel: TriangleKernel, primes: PrimeTable, kernels=None, tables=None
) -> np.ndarray:
    """The m = 1, m = 2 and m >= 3 partial sums of the prime side of the
    twists of curve by each D of ds, as the rows of a (3, len(ds)) array.

    Each is sum over p^m < e^lambda of c_{p^m}(E_D) (log p)/p^m *
    F(m log p / lambda), without the overall factor 2.  Everything but the
    character comes from the per-(curve, lambda) plan, and characters are
    evaluated only at the plan's columns, the primes with a nonzero term.
    The twists go in chunks of rows (_chunks), each spanning a few times
    e^lambda, and the characters of a chunk in blocks of primes
    (_character_blocks), reading the residue tables kept in tables (one
    per call if None).  The sum is exact fixed point: the plan holds each
    group's terms as integer multiples of 2^emin in limbs summed per prime
    and parity of m (_Group), a block of characters times those adds each
    twist's integers exactly, and arith.round_fixed_point rounds them once
    per chunk, so each result is the correctly rounded sum of the twist's
    terms, the float math.fsum gives, whatever the order or the batching.

    The character is chi_D(p) = (D|p) at odd p and, at p = 2, (D|2) for
    D = 1 mod 4 and 0 otherwise.  At a bad prime p > 3 the twisted model
    moves the node to D x0, so a_p(E_D) = (D|p) a_p(E); at 2 and 3 the
    twist's local data is chi_{d_K}(p) a_p(E) with d_K the discriminant of
    Q(sqrt(D)), which is the same character.  The twist by D = d m^2 is the
    twist by its kernel d: given kernels (Twists.kernel), D takes chi_d.
    """
    cutoff = _require_table(primes, kernel.lam)
    plan = _prime_plan(curve, kernel.lam, primes, cutoff)
    ds = np.asarray(ds, dtype=np.int64)
    kernels = ds if kernels is None else np.asarray(kernels, dtype=np.int64)
    out = np.empty((3, ds.size))
    tables = ResidueTables() if tables is None else tables  # a prime's table serves every chunk
    for start, step in _chunks(ds, cutoff):
        chunk = ds[start : start + step]
        sums = [np.zeros((chunk.size, g.odd.shape[1]), dtype=np.int64) for g in plan.groups]
        for first, chi in _character_blocks(plan.columns, chunk, kernels[start : start + step], tables):
            for g, s in zip(plan.groups, sums):
                g.add_products(s, first, chi)
        for g, s, row in zip(plan.groups, sums, out):
            row[start : start + chunk.size] = round_fixed_point(s, g.emin)
    return out


class ExplicitFormulaTable(
    namedtuple(
        "ExplicitFormulaTable",
        "twists lam log_conductor prime_sum_m1 prime_sum_m2 prime_sum_tail archimedean total_S rank_bound",
    )
):
    """The explicit-formula decomposition of a batch of twists as columns:
    row i belongs to twists.D[i] (lam and archimedean are one number per
    batch).  Each row's total_S reconstructs exactly as
    log_conductor - 2*(prime_sum_m1 + prime_sum_m2 + prime_sum_tail) -
    archimedean, where archimedean = 2*integral + 2*log(2pi); root numbers
    and conductor_exact are the twists' columns (see Twists)."""

    __slots__ = ()

    def __len__(self) -> int:  # the rows, not the fields: no _replace
        return len(self.twists)

    def columns(self) -> Dict[str, np.ndarray]:
        """The output columns by name, one entry per row: the CSV_COLUMNS
        (lambda and archimedean broadcast, not copied), then the coarse bound
        2 log|D| + lambda/2 - 2*(m=1 sum) that only the JSON output carries
        (twisted_upper_bound: log(D^2) for the conductor, no higher powers),
        libm's log of each |D| taken a block of rows at a time."""
        t, n, m1 = self.twists, len(self), self.prime_sum_m1
        bound = np.fromiter(map(math.log, map(abs, chain.from_iterable(_column_rows(t.D)))), float, n)
        bound *= 2.0  # in place, one column held: 2 log|D| + lambda/2 - 2*m1, in the scalar's order
        bound += 0.5 * self.lam
        bound -= 2.0 * m1
        columns = (t.D, np.broadcast_to(self.lam, n), self.log_conductor, t.conductor_exact, m1)
        columns += (self.prime_sum_m2, self.prime_sum_tail, np.broadcast_to(self.archimedean, n), self.total_S)
        columns += (self.rank_bound, t.root_number, bound)
        return dict(zip(CSV_COLUMNS + ["twisted_upper_bound"], columns))

    def records(self) -> Iterator[dict]:
        """The rows of columns() as dicts of Python scalars, made a block of
        rows at a time (arith._column_rows)."""
        columns = self.columns()
        return (dict(zip(columns, row)) for row in _column_rows(*columns.values()))


# D per window of twist_windows, at least: a window's columns, about 100
# bytes per candidate D, are all a sweep or an ef-report holds of its family.
_WINDOW_D = 1 << 18


def twist_windows(curve: CurveModel, ds: range, squarefree: bool, coprime: bool, x: float) -> Iterator[Twists]:
    """filter_twists over consecutive windows of ds (consecutive, ascending),
    each at least _WINDOW_D D and whole chunks of prime_sides at e^lambda = x
    (_CHUNK_SPAN_PER_PRIME * x D each), the chunks one pass would make; the
    squarefree sieve's base primes, to sqrt(max |D|), are sieved once."""
    span = math.ceil(_CHUNK_SPAN_PER_PRIME * x)
    width = -(-_WINDOW_D // span) * span
    top = max(abs(ds[0]), abs(ds[-1])) if ds else 0
    base = sieve_primes(max(math.isqrt(top), 2)).primes
    for start in range(0, len(ds), width):
        yield filter_twists(curve, ds[start : start + width], squarefree, coprime, base)


def evaluate_reports(twists: Twists, lam: float, primes: PrimeTable, tables=None) -> ExplicitFormulaTable:
    """The explicit-formula columns of a batch of twists, from one
    prime_sides call (given the residue tables): total_S = log_conductor -
    2*(m1 + m2 + tail) - archimedean and rank_bound = total_S / lambda,
    evaluated row by row in IEEE arithmetic exactly as for one twist.
    log_conductor is math.log of each exact integer conductor bound, a block
    of rows at a time.  A row's prime side is that of its squarefree kernel
    d, as x = m^2 X, y = m^3 Y makes E_{d m^2} and E_d isomorphic over Q;
    prime_sides runs over the D, dense in their span where the kernels of a
    window far from 0 are not."""
    kernel = TriangleKernel(lam)
    m1, m2, tail = prime_sides(twists.base, twists.D, kernel, primes, twists.kernel, tables)
    log_n = np.fromiter(map(math.log, twists.conductor_bounds()), dtype=float, count=len(twists))
    arch = 2.0 * archimedean_integral(kernel) + 2.0 * math.log(2.0 * math.pi)
    total = log_n - 2.0 * (m1 + m2 + tail) - arch
    return ExplicitFormulaTable(twists, lam, log_n, m1, m2, tail, arch, total, total / lam)

