"""Exact integer arithmetic underpinning every prime sum in the toolkit.

Everything here is pure and deterministic: a segmented Eratosthenes sieve,
the full Kronecker symbol and its batched Legendre matrix, one factoriser
under the Mobius/squarefree helpers, a squarefree-kernel sieve over an
interval, exact fixed-point sums of floats, and the exponent-parity split
of a product of primes into a coprime pair (pi1, pi2) where pi2 collects
the primes of odd exponent.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from typing import Iterator, List, Optional, Sequence

import numpy as np

__all__ = [
    "PrimeTable",
    "ParityDecomposition",
    "sieve_primes",
    "kronecker",
    "legendre_matrix",
    "TABLE_P_PER_ROW",
    "mobius",
    "squarefree_kernels",
    "SQUAREFREE_SIEVE_MAX",
    "is_squarefree",
    "ExactSums",
    "fixed_point_scale",
    "fixed_point_limbs",
    "round_fixed_point",
    "FIXED_POINT_BITS",
    "euler_phi",
    "parity_decompose",
    "is_prime",
]

# Witness set makes Miller-Rabin deterministic for n < 3.3e24, far past the
# <= 1e12 inputs this package handles.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeTable(namedtuple("PrimeTable", "limit primes")):
    """All primes <= limit in ascending order.

    Immutable after construction: the primes array is read-only.
    """

    __slots__ = ()

    def __new__(cls, limit: int, primes: np.ndarray):
        primes.setflags(write=False)
        return super().__new__(cls, limit, primes)

    def __len__(self) -> int:  # the primes, not the fields: no _replace
        return int(self.primes.size)

    def below(self, bound: float) -> np.ndarray:
        """Primes p < bound as a read-only view."""
        return self.primes[: int(np.searchsorted(self.primes, bound, side="left"))]


_ROW_BLOCK = 4096  # rows per block of _column_rows


def _column_rows(*columns: np.ndarray) -> Iterator[tuple]:
    """The rows of equal-length numpy columns as tuples of Python scalars,
    converted _ROW_BLOCK rows at a time: a table written as its rows come
    holds its columns and one block, never a Python list per column."""
    for i in range(0, len(columns[0]), _ROW_BLOCK):
        yield from zip(*(c[i : i + _ROW_BLOCK].tolist() for c in columns))


def _dense_sieve(limit: int) -> np.ndarray:
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask).astype(np.int64)


_SEGMENT_SIZE = 1 << 20


def sieve_primes(limit: int) -> PrimeTable:
    """Segmented sieve of Eratosthenes up to ``limit`` inclusive.

    Segments keep peak memory at O(_SEGMENT_SIZE) booleans plus the base
    primes up to sqrt(limit), so limits up to 1e8 stay modest.

    Raises ValueError for limit < 2 (empty domain).
    """
    if limit < 2:
        raise ValueError(f"prime sieve needs limit >= 2, got {limit}")
    base_limit = max(math.isqrt(limit), 2)
    base = _dense_sieve(base_limit)
    if limit <= base_limit:
        pieces = [base[base <= limit]]
    else:
        pieces = [base]
        lo = base_limit + 1
        while lo <= limit:
            hi = min(lo + _SEGMENT_SIZE, limit + 1)
            mask = np.ones(hi - lo, dtype=bool)
            for p in base:
                p = int(p)
                start = max(p * p, ((lo + p - 1) // p) * p)
                if start < hi:
                    mask[start - lo :: p] = False
            pieces.append(np.flatnonzero(mask).astype(np.int64) + lo)
            lo = hi
    return PrimeTable(limit=limit, primes=np.concatenate(pieces))


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), defined for all integer pairs.

    Agrees with the Jacobi symbol for odd positive n and with the Legendre
    symbol for odd prime n; completely multiplicative in both arguments,
    except in the denominator when a = -1 and one factor is 0 while the other
    is negative ((-1|0)(-1|-1) = -1, but (-1|0) = 1).
    Conventions: (a|0) = 1 iff a = +-1; (a|-1) = -1 iff a < 0;
    (a|2) = 0 for even a, else +1 for a = +-1 mod 8 and -1 for a = +-3 mod 8.
    """
    if n == 0:
        return 1 if a in (1, -1) else 0
    if n < 0:
        acc = -1 if a < 0 else 1
        n = -n
    else:
        acc = 1
    twos = 0
    while n % 2 == 0:
        n //= 2
        twos += 1
    if twos:
        if a % 2 == 0:
            return 0
        if twos % 2 == 1 and a % 8 in (3, 5):
            acc = -acc
    # Jacobi loop on odd positive n via quadratic reciprocity.
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                acc = -acc
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            acc = -acc
        a %= n
    return acc if n == 1 else 0


# A prime p reads a residue table when p <= TABLE_P_PER_ROW * rows.  The
# table costs O(p) once and is kept; Euler's criterion costs O(log p) per row
# and call.  Building the table of p took as long as Euler's criterion over
# p/12 rows at p = 997 and p/37 rows at p = 9973 (numpy 2.4, x86-64).  The
# rule mirrored picks the rows read by reciprocity: a row whose odd part n
# is at most TABLE_P_PER_ROW times the columns left to Euler's criterion
# costs O(n) in tables of its prime factors and a few gathers per cell.
# Rows whose span is at most TABLE_P_PER_ROW times their number read each
# table laid end to end over the span, at most TABLE_P_PER_ROW bytes copied
# per cell in place of an int64 d mod p: the 141,983 twists of a k = 1
# ncm37 sweep at x = 1e4 took 1.0-1.2 s that way and 2.0-2.1 s by d mod p,
# in the same chunks and blocks (numpy 2.4, x86-64).
TABLE_P_PER_ROW = 16
# A prime's table lives as long as the ResidueTables of a run of calls, up
# to _HELD_TABLE_BYTES in all, so that no run keeps a table per large
# prime: a k = 1 ncm37 sweep at x = 1e4 holds all 1,221 of its tables (5.7
# MB); at x = 3e4 the 2,020 up to 17,683 are held and the rest built per
# call.
_HELD_TABLE_BYTES = 1 << 24
# Residues per step of a table build and of curve's exhaustive a_p sum.
_CHAR_SUM_CHUNK = 1 << 20
# Reciprocity rows have |d| below this, so |d| and its odd part fit int64.
_RECIPROCITY_D_MAX = 1 << 62


def _residues(d: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """d mod p in [0, p) for every d of d (rows) and p of ps (columns), int64."""
    return d[:, None] % ps


def _squares_mod(p: int) -> np.ndarray:
    """(r|p) for r = 0 .. p - 1 and an odd prime p, read-only: the squares
    mod p read 1, the other nonzero residues -1 and 0 reads 0.  Built
    _CHAR_SUM_CHUNK residues a step."""
    table = np.full(p, -1, dtype=np.int8)
    half = (p + 1) // 2  # r and p - r: one square
    for lo in range(1, half, _CHAR_SUM_CHUNK):
        r = np.arange(lo, min(lo + _CHAR_SUM_CHUNK, half), dtype=np.int64)
        table[r * r % p] = 1
    table[0] = 0
    table.setflags(write=False)
    return table


class ResidueTables:
    """The residue tables _squares_mod(p) of a run of legendre_matrix calls,
    such as the chunks of explicit_formula.prime_sides: each is built once
    and held here while the held tables fit in _HELD_TABLE_BYTES (built
    again at each call beyond that)."""

    def __init__(self) -> None:
        self._held: dict = {}
        self._bytes = 0

    def __getitem__(self, p: int) -> np.ndarray:
        table = self._held.get(p)
        if table is None:
            table = _squares_mod(p)
            if self._bytes + p <= _HELD_TABLE_BYTES:
                self._held[p] = table
                self._bytes += p
        return table


def _table_symbols(d: np.ndarray, ps: np.ndarray, tables: ResidueTables) -> np.ndarray:
    """(d|p) for every d of d (rows) and odd prime p of ps (columns), read
    off the primes' residue tables.  Along consecutive d, (d|p) has period
    p: rows whose span is at most TABLE_P_PER_ROW times their number read
    each prime's table laid end to end over the span, one gather per cell
    and no arithmetic mod p; other rows read d mod p in the tables laid end
    to end."""
    if not (d.size and ps.size):
        return np.empty((d.size, ps.size), dtype=np.int8)
    lo = int(d.min())
    span = int(d.max()) - lo + 1  # Python ints: no int64 overflow
    if span <= TABLE_P_PER_ROW * d.size:
        off = d - lo
        out = np.empty((d.size, ps.size), dtype=np.int8)
        for column, p, start in zip(out.T, ps.tolist(), (lo % ps).tolist()):
            tiled = np.empty(((start + span - 1) // p + 1, p), dtype=np.int8)
            tiled[:] = tables[p]
            column[:] = tiled.reshape(-1)[start:][off]
        return out
    starts = np.cumsum(ps) - ps
    return np.concatenate([tables[p] for p in ps.tolist()])[starts + _residues(d, ps)]


def _powmod(b: np.ndarray, e: np.ndarray, p: np.ndarray) -> np.ndarray:
    """b^e mod p lane by lane for int64 residues b (e and p broadcast
    against b), by right-to-left square-and-multiply; exact while the int64
    product of two residues is, p^2 < 2^63 (p below 3.0e9)."""
    base = b.copy()
    r = np.ones_like(base)
    while e.any():
        r *= np.where(e & 1, base, 1)
        r %= p
        base *= base
        base %= p
        e = e >> 1
    return r


def _euler_symbols(res: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """(r|p) = r^((p-1)/2) mod p over the whole block (p^2 < 2^63)."""
    r = _powmod(res, (ps - 1) // 2, ps)
    return np.where(r > 1, -1, r).astype(np.int8)  # r is 0, 1 or p - 1


def _odd_factors(n: np.ndarray) -> tuple:
    """(row, q, k) for every prime power q^k exactly dividing n[row], n an
    int64 array of odd n >= 1, sorted by row: trial division by the odd
    primes up to sqrt(max n), vectorized over the rows, and the cofactor
    above them, which is 1 or prime."""
    top = int(n.max(initial=1))
    base = _dense_sieve(max(math.isqrt(top), 2))[1:]
    row, j = np.nonzero(n[:, None] % base == 0)
    q = base[j]
    k = np.zeros_like(q)
    v = n[row]
    hit = np.ones(q.size, dtype=bool)
    while hit.any():
        hit = v % q == 0
        v = np.where(hit, v // q, v)
        k += hit
    rest = n.copy()
    np.floor_divide.at(rest, row, q**k)
    (big,) = np.nonzero(rest > 1)
    row = np.concatenate((row, big))
    order = np.argsort(row, kind="stable")
    q = np.concatenate((q, rest[big]))[order]
    k = np.concatenate((k, np.ones_like(big)))[order]
    return row[order], q, k


def _reciprocity_symbols(d: np.ndarray, ps: np.ndarray, tables: ResidueTables) -> np.ndarray:
    """(d|p) for nonzero int64 d with |d| < 2^62 (rows) and odd primes p
    (columns), from d = sign 2^e n with n odd: quadratic reciprocity gives
    (d|p) = (-1|p)^[d < 0] (2|p)^e (-1)^((n-1)/2 (p-1)/2) prod_{q^k || n} (p|q)^k,
    and (p|q) is read off the residue tables of the q (_table_symbols)."""
    a = np.abs(d)
    low = a & -a
    e = np.frexp(low.astype(np.float64))[1] - 1  # exact: low is a power of 2
    n = a // low
    minus = np.where(ps & 2, -1, 1).astype(np.int8)  # (-1|p)
    two = np.where((ps + 2) & 4, -1, 1).astype(np.int8)  # (2|p): -1 at p = 3, 5 mod 8
    signs = np.stack((np.ones_like(minus), minus, two, minus * two))
    out = signs[((d < 0) ^ (n & 3 == 3)) + 2 * (e & 1)]
    row, q, k = _odd_factors(n)
    odd = k % 2 == 1
    if odd.any():
        qs, which = np.unique(q[odd], return_inverse=True)
        symbols = _table_symbols(ps, qs, tables).T  # (p|q), a row per q
        # a row's j-th factor for every row at once: rows are unique per j
        row_odd = row[odd]
        rank = np.arange(row_odd.size) - np.searchsorted(row_odd, row_odd)
        for j in range(int(rank.max()) + 1):
            at = rank == j
            out[row_odd[at]] *= symbols[which[at]]
    for r, f in zip(row[~odd].tolist(), q[~odd].tolist()):  # (p|q)^k = 1 but at p = q
        out[r, ps == f] = 0
    return out


def legendre_matrix(ds: Sequence[int], ps: np.ndarray, tables: Optional[ResidueTables] = None) -> np.ndarray:
    """Legendre symbols (d|p) for every d of ds and every odd prime p of ps,
    as an int8 matrix of shape (len(ds), len(ps)) in {-1, 0, 1}.

    Three ways, each chosen by its cost.  A prime p at most
    TABLE_P_PER_ROW times the number of rows reads, for every row, a table
    of (r|p) over the residues r mod p, built from the squares mod p and
    kept as ResidueTables says (tables, or one for this call if None): at
    d mod p, or, when the rows are dense in their span, laid end to end
    over the span (_table_symbols).  On the other primes, a row d != 0
    whose odd part n is at most TABLE_P_PER_ROW times their number is read
    by quadratic reciprocity off the tables of the primes of n (factored by
    vectorized trial division); every other cell uses Euler's criterion
    over the whole block.  All three are exact: the tables and reciprocity for any odd
    prime p, Euler's criterion for p below 3.0e9, far above the CLI's
    prime-table cap of 1e8.  Every d must fit int64 (OverflowError
    otherwise); the twists' D stay below 1e16.
    """
    ps = np.asarray(ps, dtype=np.int64)
    d = np.asarray(ds, dtype=np.int64)
    tables = ResidueTables() if tables is None else tables
    table = ps <= TABLE_P_PER_ROW * d.size
    if table.all():
        return _table_symbols(d, ps, tables)
    out = np.empty((d.size, ps.size), dtype=np.int8)
    out[:, table] = _table_symbols(d, ps[table], tables)
    ps = ps[~table]
    (cols,) = np.nonzero(~table)
    small = (d != 0) & (d > -_RECIPROCITY_D_MAX) & (d < _RECIPROCITY_D_MAX)
    a = np.abs(np.where(small, d, 1))
    small &= a // (a & -a) <= TABLE_P_PER_ROW * ps.size
    (rows,) = np.nonzero(small)
    if rows.size:
        out[rows[:, None], cols] = _reciprocity_symbols(d[rows], ps, tables)
    (rows,) = np.nonzero(~small)
    if rows.size:
        out[rows[:, None], cols] = _euler_symbols(_residues(d[rows], ps), ps)
    return out


# squarefree_kernels takes its base primes, up to sqrt(max |d|), from
# sieve_primes, whose tables stop at 1e8 in the CLI: so |d| <= 1e16, which also
# keeps every d and q^2 in int64.
SQUAREFREE_SIEVE_MAX = 10**16
# Base primes whose square exceeds the interval length hit at most one d each;
# they are handled in vectorized blocks of this many.
_SIEVE_BLOCK = 1 << 18


def squarefree_kernels(lo: int, hi: int, base: Optional[np.ndarray] = None) -> np.ndarray:
    """The kernel of each d in [lo, hi] as int64: sign(d) times the product of
    the primes to an odd power in d (0 at d = 0), d itself iff d is squarefree.

    A sieve over the interval: each prime q <= sqrt(max |d|) divides q^2 out
    of its multiples for as long as it divides them.  What is left of d has
    no square factor q^2 with q below sqrt(|d|), and so none at all.  Primes
    with several multiples of q^2 in the interval take a strided slice each;
    the others, at most one multiple each, go in vectorized blocks; base, if
    given, holds the q (ascending, and any beyond).  Raises ValueError for
    |d| above SQUAREFREE_SIEVE_MAX.
    """
    if lo > hi:
        return np.empty(0, dtype=np.int64)
    top = max(abs(lo), abs(hi))
    if top > SQUAREFREE_SIEVE_MAX:
        raise ValueError(f"squarefree sieve needs |d| <= {SQUAREFREE_SIEVE_MAX}, got {top}")
    rem = np.arange(lo, hi + 1, dtype=np.int64)
    size = rem.size
    zero = -lo if lo <= 0 <= hi else None
    if zero is not None:
        rem[zero] = 1  # every q^2 divides 0
    if top >= 4:
        root = math.isqrt(top)
        qs = sieve_primes(root).primes if base is None else base[: np.searchsorted(base, root, side="right")]
        several = qs * qs < size
        for q in qs[several].tolist():
            q2 = q * q
            view = rem[(-lo) % q2 :: q2]
            left = np.flatnonzero(view % q2 == 0)  # all but the placeholder at d = 0
            while left.size:
                view[left] //= q2
                left = left[view[left] % q2 == 0]
        single = qs[~several]
        for start in range(0, single.size, _SIEVE_BLOCK):
            q2 = single[start : start + _SIEVE_BLOCK] ** 2
            pos = (-lo) % q2
            hit = pos < size
            pos, q2 = pos[hit], q2[hit]
            while True:
                again = rem[pos] % q2 == 0
                pos, q2 = pos[again], q2[again]
                if not pos.size:
                    break
                np.floor_divide.at(rem, pos, q2)  # applies each q of a shared position
    if zero is not None:
        rem[zero] = 0
    return rem


# Exact sums of floats.  A nonzero float is an integer multiple of
# 2^(its frexp exponent - 53), so a set of them are integer multiples of
# 2^emin, emin their least exponent less 53.  Those integers are split into
# int64 limbs of FIXED_POINT_BITS bits, so a sign matrix times the limbs is
# exact integer arithmetic in any order (the error-free splitting of Ozaki,
# Ogita, Oishi and Rump, "Error-free transformations of matrix
# multiplication...", Numer. Algorithms 2012), and one rounding per row
# follows.  round_fixed_point needs 27 <= FIXED_POINT_BITS <= 30.
FIXED_POINT_BITS = 30
_LIMB_MASK = (1 << FIXED_POINT_BITS) - 1


def fixed_point_scale(values: np.ndarray) -> tuple:
    """(emin, count) for nonzero finite values: each value is an integer
    multiple of 2^emin that count limbs of FIXED_POINT_BITS bits hold."""
    if not values.size:
        return 0, 1
    exp = np.frexp(values)[1]
    width = 53 + int(exp.max()) - int(exp.min())
    return int(exp.min()) - 53, -(-width // FIXED_POINT_BITS)


def _limb_pieces(values: np.ndarray, emin: int) -> tuple:
    """(first, pieces): |values[j]| 2^-emin, an integer of 53 significant
    bits, lies in limbs first[j] .. first[j] + 2, whose parts are
    pieces[:, j] (int64 below 2^FIXED_POINT_BITS, with the value's sign)."""
    mant, exp = np.frexp(values)
    mag = np.ldexp(np.abs(mant), 53).astype(np.uint64)  # |value| = mag 2^(exp - 53)
    first, offset = np.divmod(exp - 53 - emin, FIXED_POINT_BITS)
    offset = offset.astype(np.uint64)
    b = np.uint64(FIXED_POINT_BITS)
    mask = np.uint64(_LIMB_MASK)
    pieces = np.array([(mag << offset) & mask, (mag >> (b - offset)) & mask, mag >> (b + b - offset)])
    pieces = pieces.astype(np.int64)
    return first, np.where(values < 0, -pieces, pieces)


def fixed_point_limbs(values: np.ndarray, emin: int, count: int) -> np.ndarray:
    """The (len(values), count) int64 limbs of nonzero finite values in
    the fixed point of fixed_point_scale: values[j] = 2^emin sum_k
    limbs[j, k] 2^(FIXED_POINT_BITS k) exactly, every |limb| below
    2^FIXED_POINT_BITS and carrying its value's sign."""
    first, pieces = _limb_pieces(values, emin)
    limbs = np.zeros((values.size, count + 2), dtype=np.int64)  # the top two stay zero
    rows = np.arange(values.size)
    for i, piece in enumerate(pieces):
        limbs[rows, first + i] = piece
    return limbs[:, :count]


def _digits(sums: np.ndarray) -> tuple:
    """Base-2^FIXED_POINT_BITS digits in [0, 2^FIXED_POINT_BITS) of each row
    of limb sums, low first, and the signed carry out of the top, which has
    the sign of the row's value."""
    digits = np.empty_like(sums)
    carry = np.zeros(len(sums), dtype=np.int64)
    for k in range(sums.shape[1]):
        t = sums[:, k] + carry
        digits[:, k] = t & _LIMB_MASK
        carry = t >> FIXED_POINT_BITS
    return digits, carry


def round_fixed_point(sums: np.ndarray, emin: int) -> np.ndarray:
    """sum_k sums[:, k] 2^(FIXED_POINT_BITS k + emin) rounded once to the
    nearest float64, ties to even, per row: the float math.fsum returns for
    the values behind the sums (Shewchuk 1997), and 0.0 for an exact zero.

    sums holds int64 limb sums below 2^62 in magnitude.  Each row's
    magnitude is carry-normalised to digits; the top digit, the two below it
    and a sticky bit for everything lower give an int64 T of 61 or 62 bits
    with |value| = T 2^s up to the sticky bit, so the int64-to-float64
    conversion rounds as the exact value rounds, and ldexp scales exactly
    whenever the result is a normal float.
    """
    n = len(sums)
    sign = np.where(_digits(sums)[1] < 0, -1, 1)
    digits, carry = _digits(sums * sign[:, None])
    b = FIXED_POINT_BITS
    # two zero digits below the lowest, so the two under the top always exist
    padded = np.concatenate((np.zeros((n, 2), dtype=np.int64), digits, carry[:, None]), axis=1)
    nonzero = padded != 0
    top = padded.shape[1] - 1 - np.argmax(nonzero[:, ::-1], axis=1)
    rows = np.arange(n)
    lead = padded[rows, top]
    head = lead << b | padded[rows, top - 1]
    under = padded[rows, top - 2]
    lower = np.concatenate((np.zeros((n, 1), dtype=np.int64), np.cumsum(nonzero, axis=1)), axis=1)
    fill = np.minimum(b + 2 - np.frexp(lead.astype(float))[1], b)  # T has 2b + 1 or 2b + 2 bits
    T = head << fill | under >> (b - fill)
    sticky = (lower[rows, top - 2] > 0) | (under & ((1 << (b - fill)) - 1) != 0)
    value = np.ldexp((T | sticky).astype(float), b * (top - 3) - fill + emin)
    return np.where(nonzero.any(axis=1), sign * value, 0.0)


class ExactSums:
    """math.fsum of a float64 column over subsets of its rows, the rows
    added a window at a time (add) and the sums read at the end (totals),
    with no row held past its window.

    A window's nonzero values share the scale of fixed_point_scale, 2^emin,
    and each lies in three consecutive limbs (_limb_pieces).  A subset's
    limb sums are int64 (below 2^30 times the window's rows); they make one
    exact Python integer in units of 2^emin, and the windows add as
    integers at the least emin so far.  Each total then rounds once, by an
    integer true division, which CPython rounds correctly, subnormals
    included: the float math.fsum gives over all the rows added.
    """

    def __init__(self, subsets: int):
        self._ints = [0] * subsets
        self._emin = 0  # the sums are integers in units of 2^_emin

    def add(self, values: np.ndarray, masks: Sequence[Optional[np.ndarray]]) -> None:
        """Add to the i-th sum the rows of values where masks[i], a boolean
        mask, holds (None: every row)."""
        nonzero = values != 0.0
        emin, count = fixed_point_scale(values[nonzero])
        first, pieces = _limb_pieces(values, emin)
        first = np.where(nonzero, first, 0)
        if emin < self._emin:
            self._ints = [s << (self._emin - emin) for s in self._ints]
            self._emin = emin
        for i, mask in enumerate(masks):
            f, p = (first, pieces) if mask is None else (first[mask], pieces[:, mask])
            limbs = np.zeros(count + 2, dtype=np.int64)
            for j, piece in enumerate(p):
                np.add.at(limbs, f + j, piece)
            value = sum(limb << (FIXED_POINT_BITS * j) for j, limb in enumerate(limbs.tolist()))
            self._ints[i] += value << (emin - self._emin)

    def totals(self) -> List[float]:
        """The sums, one float each."""
        scale = 1 << -self._emin
        return [s / scale for s in self._ints]


def _factorisation(n: int) -> list:
    """(p, k) for every prime power p^k exactly dividing n >= 1 (n below
    2^63), p ascending: the power of 2, then _odd_factors on the odd part."""
    twos = (n & -n).bit_length() - 1
    _, q, k = _odd_factors(np.array([n >> twos], dtype=np.int64))
    return [(2, twos)] * (twos > 0) + list(zip(q.tolist(), k.tolist()))


def mobius(n: int) -> int:
    """Mobius function: 0 on square factors, else (-1)^(number of primes)."""
    if n < 1:
        raise ValueError(f"mobius needs n >= 1, got {n}")
    powers = [k for _, k in _factorisation(n)]
    return 0 if max(powers, default=1) > 1 else (-1) ** len(powers)


def is_squarefree(n: int) -> bool:
    if n < 1:
        raise ValueError(f"is_squarefree needs n >= 1, got {n}")
    return mobius(n) != 0


def euler_phi(n: int) -> int:
    """Euler totient, from the factorisation of n."""
    if n < 1:
        raise ValueError(f"euler_phi needs n >= 1, got {n}")
    out = n
    for p, _ in _factorisation(n):
        out = out // p * (p - 1)
    return out


class ParityDecomposition(namedtuple("ParityDecomposition", "pi pi1 pi2")):
    """Split of a product of primes pi by exponent parity.

    pi1 carries the primes of even exponent, pi2 those of odd exponent, so
    gcd(pi1, pi2) = 1, pi2 is the squarefree part of pi, and pi2 = 1 exactly
    when pi is a perfect square.
    """

    __slots__ = ()


def parity_decompose(tuple_primes: Sequence[int]) -> ParityDecomposition:
    """Exponent-parity decomposition of a nonempty tuple of primes."""
    if not tuple_primes:
        raise ValueError("parity_decompose needs a nonempty tuple of primes")
    counts = Counter()
    pi = 1
    for p in tuple_primes:
        p = int(p)
        if not is_prime(p):
            raise ValueError(f"parity_decompose got non-prime entry {p}")
        counts[p] += 1
        pi *= p
    pi1 = 1
    pi2 = 1
    for p, e in counts.items():
        if e % 2 == 0:
            pi1 *= p
        else:
            pi2 *= p
    return ParityDecomposition(pi=pi, pi1=pi1, pi2=pi2)
