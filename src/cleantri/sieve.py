"""The factor sieve walk behind every table and range of imph(n) and T(n):
``factor_blocks`` and its kernel ``_sieve_block`` (see both), with the tables
it fills, the closed-form T kernel and the byte counts its callers charge.
It reads the scalar layer of ``arith``, which, like ``cli``, imports it only
in the bodies that walk, so that no point query loads it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import compress, count
from typing import Callable, Iterator, NamedTuple

from .arith import (IMPH_SIEVE_BOUND, SIEVE_MEMORY_ENV, _expect, _odd_count, _prime_mask, _require,
                    factorize, imph_from_factorization, quad_root_count, sieve_memory_budget)

__all__ = ["factor_blocks", "sieve_table", "spread_odd", "t_closed_block", "walk_bytes",
           "walk_idle_bytes"]

# The odd primes <= sqrt(IMPH_SIEVE_BOUND), which every walk reads, read off
# the mask when this module loads, without numpy and without reading the
# budget, so a malformed CLEANTRI_SIEVE_MEMORY fails only the walks.
_SIEVE_PRIMES = tuple(compress(count(), _prime_mask(math.isqrt(IMPH_SIEVE_BOUND))))[1:]


class _FactorData(NamedTuple):
    """Per-n factor data for one block of the odd n = a, a + 2, ...; entry i
    holds n = a + 2i.  n is squarefree exactly when omega = Omega."""

    imph: np.ndarray  # int64
    omega: np.ndarray  # int8, distinct prime divisors
    big_omega: np.ndarray  # int8, prime divisors with multiplicity
    bad5: np.ndarray  # bool, some prime p = 5 (mod 6) divides n


# Bytes per entry of a block that the factor sieve walk holds at its peak:
# the four fields (8 + 1 + 1 + 1) and, while the block is sieved, the int32
# smooth part (4) and the uint16 counter (2); the counter is unpacked and
# freed before the int32 cofactor (4) is made beside the smooth part.
# Between blocks the walk holds the fields alone, so a caller's own work on
# a block may take eight bytes per entry besides what it charges.  While the
# block is struck it holds 17 bytes an entry, and the kernel's scattered hits
# take at most the 2 left (see ``_SCATTER_PIECE``).
_FIELD_BYTES_PER_N = 11
_FACTOR_SIEVE_BYTES_PER_N = 19

# numpy casts the int32 cofactor to int64 through a buffer of up to 8192
# entries (np.getbufsize()) when the kernel multiplies it into imph, after
# the smooth part is freed; a block of fewer than 16,384 entries holds at
# most the buffer's excess over those 4 bytes an entry besides its 19.
_CAST_BUFFER_BYTES = 8 * 8192

# Bytes a walk holds besides its block: the headers of the block's arrays
# and views, the kernel's closure, the generator's frame, and the spot
# checks' ints and tuples, with the four rows ``_spot_row`` keeps; 3.8 to
# 7.2 KB in the traced peaks of the sums and tables at x <= 2^21 (the rows
# add under 1 KB), and no more after 1,000 blocks than after 100 (see
# ``_spot_check``).
_WALK_OBJECT_BYTES = 8 * 1024

# Entries (odd n) per block of the factor sieve walk, so a block covers twice
# as many numbers.  Smaller blocks pay more per-slice call overhead; larger
# ones hold more, in every walk (a --json range holds up to nine).  Walking
# 0..10^7 on a 2-core Xeon VM (median of 9, sizes interleaved): blocks of
# 2^16, 2^17, 2^18, 2^19 and 2^20 entries took 0.17, 0.15, 0.16, 0.17 and
# 0.18 s (0.36, 0.23, 0.19, 0.19 and 0.19 s when every power struck
# slices): the scatter of the powers of at least a 256th of a block makes
# the walk's time flat in the block length.  2^18 peaks at 5 MB.
_SIEVE_BLOCK = 1 << 18

# The wheel of the kernel: 3^2 * 5 * 7 entries, over which n runs through
# 630 = 2 * 315 numbers, so the entries i and i + 315 of a block hold n and
# n + 630, which 3, 9, 5 and 7 divide alike.
_WHEEL = 315

# A prime power that hits a block of length entries at most about
# length / _SCATTER_HITS times, p^k >= length // _SCATTER_HITS, is struck by
# the kernel's one scatter per block rather than by three slices of its own
# (the large-prime buckets of segmented sieves: T. Oliveira e Silva,
# S. Herzog and S. Pardi, Math. Comp. 83, 2014).
_SCATTER_HITS = 256

# Hits the kernel scatters at once, beside a block of length entries:
# max(length // 16, _SCATTER_PIECE).  Their int64 index and, in turn, an
# int64 temporary and their values take 16 bytes a hit: one byte an entry
# of the two the strikes leave free, or below 2^14 entries the cast buffer's
# room (see ``_CAST_BUFFER_BYTES``).  A power p^k >= 11 hits a block at most
# ceil(length / p^k) times, which fits one such piece.
_SCATTER_PIECE = 1024

# Bytes a scattered power costs its walk: its row of the table (power and
# reach 8 + 8, factors 8 + 4 + 2) and the int64 arrays of the rows that the
# kernel holds at once while it lays out a block's hits (up to five); traced
# walks near the cap, whose table has 2,603 rows in blocks of 64 entries,
# take 70 bytes a row.
_SCATTER_ROW_BYTES = 96

# The walk spot-checks each block at its first and last multiples of this,
# which the wheel's 3 and 5 both strike (at its first and last entries if it
# holds none), and at two fixed by a multiple of the block's start (Knuth's
# golden-ratio hash).
_SPOT_MODULUS = 15
_SPOT_HASH = 0x9E3779B97F4A7C15


def _odd_offset(a: int, m: int) -> int:
    """The index i of the first multiple n = a + 2i of odd m in the odd n =
    a, a + 2, ...: i = -a / 2 (mod m), with (m + 1) / 2 the inverse of 2."""
    return (-a) % m * ((m + 1) // 2) % m


def _repeat_head(head: int, *arrays: np.ndarray) -> None:
    """Copy the first ``head`` entries of each array over the rest of it by
    doubling slices, so that entry i + head gets the value of entry i."""
    for arr in arrays:
        done = head
        while done < len(arr):
            ahead = arr[done : 2 * done]
            ahead[:] = arr[: len(ahead)]
            done *= 2


def _power_update(p: int, pk: int) -> tuple[int, int]:
    """What the power pk of the odd prime p does to the entries it divides:
    the factor of imph (p - 2 for pk = p, p above) and the step of the
    kernel's counter (0x101 for pk = p, 0x111 if also p = 5 (mod 6), and
    0x100 above); the smooth part takes p.  The one definition of both the
    kernel's slices and its scatter table."""
    if pk > p:
        return p, 0x100  # Omega
    step = 0x101  # omega and Omega
    if p % 6 == 5:
        step += 0x10
    return p - 2, step


def _prime_powers(end: int, low: int, high: int) -> Iterator[tuple[int, int]]:
    """(p, p^k) for the odd primes p <= sqrt(end) and their powers p^k <= end
    with low <= p^k < high, but 3, 9, 5 and 7, which come with the wheel: the
    kernel's slices take those below the table's split, the table the rest."""
    for p in _SIEVE_PRIMES:
        if p * p > end or p >= high:
            return
        pk = p
        while pk <= end and pk < high:
            if pk >= low and _WHEEL % pk:
                yield p, pk
            pk *= p


class _Scatter(NamedTuple):
    """The prime powers that a walk's kernel strikes in one scatter per
    block, a row each: those of at least ``split``; the smaller ones strike
    slices.  Built once per walk by ``_scatter_table``."""

    split: int
    power: np.ndarray  # int64, p^k
    reach: np.ndarray  # int64, the least block end it strikes at: max(p^k, p^2)
    imph: np.ndarray  # int64, the factor of imph
    smooth: np.ndarray  # int32, p
    count: np.ndarray  # uint16, the step of the counter


def _scatter_bytes(hi: int, length: int) -> int:
    """Bytes the scatter table of a walk to hi in blocks of ``length`` costs,
    ``_SCATTER_ROW_BYTES`` a row: it grows with the primes up to sqrt(hi)."""
    rows = sum(1 for _ in _prime_powers(hi, length // _SCATTER_HITS, hi + 1))
    return _SCATTER_ROW_BYTES * rows


def _scatter_table(hi: int, length: int) -> _Scatter:
    """The ``_Scatter`` rows of a walk to hi in blocks of ``length`` entries:
    the powers p^k >= split = length // _SCATTER_HITS of ``_prime_powers``,
    with their factors from ``_power_update``."""
    import numpy as np

    split = length // _SCATTER_HITS
    rows = sum(1 for _ in _prime_powers(hi, split, hi + 1))
    table = _Scatter(
        split,
        np.empty(rows, dtype=np.int64),
        np.empty(rows, dtype=np.int64),
        np.empty(rows, dtype=np.int64),
        np.empty(rows, dtype=np.int32),
        np.empty(rows, dtype=np.uint16),
    )
    for i, (p, pk) in enumerate(_prime_powers(hi, split, hi + 1)):
        table.power[i] = pk
        table.reach[i] = max(pk, p * p)
        table.imph[i], table.count[i] = _power_update(p, pk)
        table.smooth[i] = p
    return table


def _scatter(a: int, table: _Scatter, imph: np.ndarray, sm: np.ndarray, count: np.ndarray) -> None:
    """Strike each row of ``table`` whose reach is at most the block's end
    into the kernel's imph, smooth part and counter of the odd n = a + 2i,
    0 <= i < len(imph): the entry index of each hit is built on arrays, and
    ``np.multiply.at`` and ``np.add.at`` apply the rows' factors and steps,
    in pieces of ``max(len // 16, _SCATTER_PIECE)`` hits.
    ``ufunc.at`` applies every update where two rows hit one n (p and q, or
    p^k and p^(k+1)); a plain fancy-index update would keep only one."""
    import numpy as np

    length = len(imph)
    # hit t of the block, counted across the rows, that falls in row r is
    # entry base[r] + p^k t; a row out of reach or whose first multiple lies
    # past the block has no hits
    first = _odd_offset(a, table.power)
    hits = (length - 1 - first) // table.power + 1
    np.maximum(hits, 0, out=hits)
    hits *= table.reach <= a + 2 * length - 2
    # the hits of the rows up to each; np.cumsum would name "accumulate" by a
    # new string on each call, and CPython's type cache keeps up to 4096 such
    ends = np.add.accumulate(hits)
    base = ends - hits
    base *= table.power
    np.subtract(first, base, out=base)
    del first
    piece = max(length // 16, _SCATTER_PIECE)
    total = int(ends[-1]) if len(ends) else 0
    i = done = 0  # the piece's first row and the hits of the rows before it
    while done < total:
        j = int(np.searchsorted(ends, done + piece, side="right"))
        stop = int(ends[j - 1])
        # the piece's last row runs on past its hits to ``piece`` entries,
        # so that a block's peak does not move with its count of hits
        counts = hits[i:j].copy()
        counts[-1] += done + piece - stop
        idx = np.repeat(table.power[i:j], counts)
        idx *= np.arange(done, done + piece)
        idx += np.repeat(base[i:j], counts)
        for target, ufunc, column in (
            (imph, np.multiply, table.imph),
            (sm, np.multiply, table.smooth),
            (count, np.add, table.count),
        ):
            values = np.repeat(column[i:j], counts)
            ufunc.at(target, idx[: stop - done], values[: stop - done])
            del values  # before the next is made
        del idx
        i, done = j, stop


def _sieve_block(a: int, table: _Scatter, f: _FactorData) -> None:
    """Fill the views in ``f`` with the factor data of the odd n = a + 2i,
    0 <= i < len, for odd a; ``table`` is the ``_scatter_table`` of a walk to
    at least a + 2 len - 2.

    Each prime power p^k with p^2 <= end = a + 2 len - 2 and p^k <= end
    multiplies imph by p - 2 for k = 1 and by p above, the int32 smooth part
    by p, and adds to a uint16 counter 0x101 for k = 1, 0x111 if also
    p = 5 (mod 6), and 0x100 above (``_power_update``), at every entry from
    the first odd multiple of p^k at or after a (``_odd_offset``) on, p^k
    apart.  The powers that divide ``_WHEEL``, 3, 9, 5 and 7, strike only
    the block's first ``_WHEEL`` entries, which ``_repeat_head`` then copies
    over the rest of the block.  The others below ``table.split`` strike
    three slices each, and the rows of ``table``, the powers that hit the
    block at most about ``_SCATTER_HITS`` times, strike all together in one
    scatter (``_scatter``).

    The counter packs omega into bits 0-3, the count of primes p = 5 (mod 6)
    into bits 4-7 and Omega into bits 8-15; whole-block steps unpack it into
    omega, Omega and the p = 5 (mod 6) flag.  For odd n <= IMPH_SIEVE_BOUND
    = 10^8, omega <= 7 (3 * 5 * ... * 23 > 10^8), at most 6 primes are
    5 (mod 6) (5 * 11 * 17 * 23 * 29 * 41 * 47 > 10^8) and Omega <= 16
    (3^17 > 10^8), so no field reaches the next; a walk past the cap must
    check these bounds again.

    The cofactor n // (smooth part) is taken once.  On every entry,
    cofactor * smooth part = n is checked, and the cofactor must be 1 or
    exceed isqrt(end), since every prime up to that was struck: the first n
    that fails raises ``InvariantViolation``.  The cofactor is then 1 or a
    single prime q > sqrt(end), which is folded in by a few whole-block
    steps.  The smooth part, the counter and the cofactor are freed on
    return.
    """
    import numpy as np

    imph, omega, big_omega, bad5 = f
    length = len(imph)
    end = a + 2 * length - 2
    sm = np.empty(length, dtype=np.int32)  # n <= IMPH_SIEVE_BOUND < 2^31
    count = np.empty(length, dtype=np.uint16)

    def strike(p: int, pk: int, stop: int) -> None:
        start = _odd_offset(a, pk)
        if start >= stop:
            return
        factor, step = _power_update(p, pk)
        imph[start:stop:pk] *= factor
        count[start:stop:pk] += step
        sm[start:stop:pk] *= p

    head = min(length, _WHEEL)
    imph[:head] = 1
    sm[:head] = 1
    count[:head] = 0
    for p, pk in ((3, 3), (3, 9), (5, 5), (7, 7)):
        strike(p, pk, head)
    _repeat_head(head, imph, sm, count)
    for p, pk in _prime_powers(end, 0, table.split):
        strike(p, pk, length)

    _scatter(a, table, imph, sm, count)

    np.copyto(omega, count, casting="unsafe")  # the low byte: omega and the p = 5 (mod 6) count
    count >>= 8
    np.copyto(big_omega, count, casting="unsafe")
    del count
    np.greater(omega, 0xF, out=bad5)  # a prime p = 5 (mod 6) was counted
    omega &= 0xF

    cof = np.arange(a, end + 1, 2, dtype=np.int32)
    with np.errstate(divide="ignore"):  # a zero smooth part gives cofactor 0, refused below
        np.divmod(cof, sm, out=(cof, sm))  # n // sm and n % sm, in place
    left = np.flatnonzero(sm)  # the n that their smooth part does not divide
    del sm
    # every prime up to isqrt(end) was struck, so the cofactor is 1 or above it
    root = math.isqrt(end)
    big = np.greater(cof, root)
    above = np.count_nonzero(big)
    np.greater(cof, 1, out=big)
    if len(left) or np.count_nonzero(cof) < length or above < np.count_nonzero(big):
        msg = "sieved cofactor({0}) = {1} times smooth part is not {0}"
        if not len(left):
            msg = "sieved cofactor({0}) = {1} is neither 1 nor above {2}"
            left = np.flatnonzero((cof <= root) & (cof != 1))
        i = int(left[0])
        n = a + 2 * i
        _expect(False, n, ("sieve", "cofactor"), msg, n, cof[i], root)
    big = big.view(np.int8)  # 0 or 1, added below with no casting buffer
    omega += big
    big_omega += big
    del big
    cof -= 2
    imph *= np.abs(cof, out=cof)  # q - 2 for a prime cofactor, 1 for cofactor 1
    rem = cof // 6  # |q - 2| mod 6 by a floor division, far cheaper than np.remainder
    rem *= -6
    rem += cof
    del cof
    bad5 |= rem == 3  # q - 2 = 3 (mod 6) iff q = 5 (mod 6)


def _empty_factor_data(length: int) -> _FactorData:
    """Uninitialised factor data arrays, for _sieve_block to fill."""
    import numpy as np

    return _FactorData(
        np.empty(length, dtype=np.int64),
        np.empty(length, dtype=np.int8),
        np.empty(length, dtype=np.int8),
        np.empty(length, dtype=bool),
    )


def _block_length(lo: int, hi: int) -> int:
    """Entries of a block of the walk over lo..hi: its odd n, at most ``_SIEVE_BLOCK``."""
    return min(_odd_count(lo, hi), _SIEVE_BLOCK)


def walk_bytes(lo: int, hi: int) -> int:
    """Bytes the factor sieve walk over lo..hi holds at its peak: the four
    fields of one block, the bytes it leaves free between blocks
    (``walk_idle_bytes``), its scatter table (``_scatter_bytes``) and
    ``_WALK_OBJECT_BYTES``; refused first for hi past the sieve cap."""
    _require(hi <= IMPH_SIEVE_BOUND, "sieve capped at {}, got {}", IMPH_SIEVE_BOUND, hi)
    length = _block_length(lo, hi)
    fields = _FIELD_BYTES_PER_N * length
    return fields + walk_idle_bytes(lo, hi) + _scatter_bytes(hi, length) + _WALK_OBJECT_BYTES


def walk_idle_bytes(lo: int, hi: int) -> int:
    """Bytes of ``walk_bytes(lo, hi)`` that the walk leaves free between
    blocks, when it holds the four fields and its scatter table alone: the
    smooth part, counter and cofactor of the kernel and the room of its cast
    buffer.  A caller's work on a block, done before it asks for the next,
    may take them."""
    length = _block_length(lo, hi)
    kernel = (_FACTOR_SIEVE_BYTES_PER_N - _FIELD_BYTES_PER_N) * length
    return kernel + max(0, _CAST_BUFFER_BYTES - 4 * length)


def _spot_indices(a: int, length: int) -> tuple[int, int, int, int]:
    """The entries of a block of ``length`` odd n = a + 2i that the walk
    spot-checks: its first and last n divisible by ``_SPOT_MODULUS`` (its
    first and last entries if it holds none), and two fixed by a hash of a."""
    h = a * _SPOT_HASH
    first = _odd_offset(a, _SPOT_MODULUS)
    if first < length:
        last = first + (length - 1 - first) // _SPOT_MODULUS * _SPOT_MODULUS
    else:
        first, last = 0, length - 1
    return (first, last, h % length, (h >> 32) % length)


def _spot_check(a: int, f: tuple[np.ndarray, ...], names: tuple[str, ...] = _FactorData._fields,
                start: int = 0) -> None:
    """Compare the sieved fields ``f`` of a block of the odd n = a + 2i with
    the row of one ``factorize(n)`` (``_spot_row``), from its entry
    ``start`` on, at each of the block's ``_spot_indices``, field by field:
    imph, omega, Omega and the p = 5 (mod 6) flag for the walk, T(n) for
    ``t_closed_block``; raise ``InvariantViolation`` at the first that differs.

    It builds no tuple from a generator, nor does the walk: CPython sizes
    such a tuple by a guess and shrinks it, so it is freed into the free list
    of a smaller size than it came from.  Those lists keep up to 2000 tuples
    a size, and with such tuples the walk's traced bytes grew by 100 to 260
    bytes a block over its first few thousand blocks.
    """
    msg = "sieved {}({}) = {}, factorize gives {}"
    for i in _spot_indices(a, len(f[0])):
        n = a + 2 * i
        for name, sieved, value in zip(names, f, _spot_row(n)[start:]):
            _expect(sieved[i] == value, n, ("sieve", "factorize"), msg, name, n, sieved[i], value)


@lru_cache(maxsize=4)
def _spot_row(n: int) -> tuple[int, int, int, bool, int]:
    """The factor row of odd n (imph, omega, Omega and the p = 5 (mod 6) flag,
    in ``_FactorData``'s order) and T(n) by the closed form
    (imph + 2 rho + 3) / 6, from one ``factorize(n)``; kept for the four
    ``_spot_indices`` of the block the walk checked last, so the T check of
    that block factorizes nothing again.  Five ints whatever n's factors:
    four kept factorizations grow with omega(n), and so did a walk's traced
    bytes from block to block."""
    fac = factorize(n)
    imph = imph_from_factorization(fac)
    bad5 = any(p % 6 == 5 for p, _ in fac.factors)
    return imph, fac.omega, fac.big_omega, bad5, (imph + 2 * quad_root_count(fac) + 3) // 6


def factor_blocks(lo: int, hi: int, holding: int = 0) -> Iterator[tuple[int, _FactorData]]:
    """Yield (a, data) for consecutive blocks of the odd n = a + 2i,
    0 <= i < len(data.imph), covering the odd n with 0 <= lo <= n <= hi:
    imph, omega, Omega and the p = 5 (mod 6) flag, sieved by ``_sieve_block``
    and spot-checked against ``factorize`` by ``_spot_check``.  Even n have imph
    and T zero; the walk does not sieve them.

    The package's one factor sieve walk.  One block's arrays are reused for
    the next, so read each block before asking for the next; a caller may
    overwrite them.  The walk holds one block (``_FACTOR_SIEVE_BYTES_PER_N``
    bytes an entry at its peak), its scatter table and ``_WALK_OBJECT_BYTES``,
    whatever the range's length; it reads the primes from ``_SIEVE_PRIMES``,
    built once at import, and builds the table from them when it starts.
    Those bytes and the ``holding`` bytes the caller keeps beside the walk are
    checked against the cap and the memory budget when this is called, before
    anything is allocated.
    """
    need = holding + walk_bytes(lo, hi)
    length = _block_length(lo, hi)
    budget = sieve_memory_budget()
    msg = "sieve of {}..{} needs {} bytes, budget is {}; raise {} to at least {}"
    _require(need <= budget, msg, lo, hi, need, budget, SIEVE_MEMORY_ENV, need)

    def walk() -> Iterator[tuple[int, _FactorData]]:
        if not length:
            return
        table = _scatter_table(hi, length)
        block = _empty_factor_data(length)
        for a in range(lo | 1, hi + 1, 2 * length):
            view = _FactorData(*[arr[: (hi - a) // 2 + 1] for arr in block])  # see _spot_check
            _sieve_block(a, table, view)
            _spot_check(a, view)
            yield a, view

    return walk()


def spread_odd(odd: np.ndarray, a: int, out: np.ndarray, i: int) -> np.ndarray:
    """Lay odd[k], the value at the odd n = a + 2k, over ``out``, which holds
    the consecutive n = i, i + 1, ... (i >= a - 1), with 0 at the even n,
    where imph and T vanish; returns ``out``, written in place."""
    at_odd = out[(a - i) % 2 :: 2]
    at_odd[:] = odd[(i - a + 1) // 2 :][: len(at_odd)]
    out[(a - i + 1) % 2 :: 2] = 0
    return out


def sieve_table(x: int, values: Callable[[int, _FactorData], np.ndarray]) -> np.ndarray:
    """The int64 table t[n] for 0 <= n <= x: values(a, data)[i] at the odd
    n = a + 2i of the blocks (a, data) of the walk, and 0 at even n; the
    table is charged to the walk."""
    import numpy as np

    _require(x >= 1, "bound must be positive, got {}", x)
    blocks = factor_blocks(0, x, holding=8 * (x + 1))
    table = np.empty(x + 1, dtype=np.int64)
    table[0] = 0
    for a, f in blocks:
        spread_odd(values(a, f), a, table[a : a + 2 * len(f.imph)], a)
    return table


def t_closed_block(a: int, f: _FactorData) -> np.ndarray:
    """T(n) for the odd n = a + 2i of a block of the walk, in f.imph's array.

    Applies the scalar closed form 6 T(n) = imph(n) + 2 rho(n) + 3 to a whole
    block, with imph(n), omega(n) and the p = 5 (mod 6) flag from the factor
    sieve.  By the rule of ``arith.quad_root_count``, 2 rho(n) is 0 when
    9 | n or some p = 5 (mod 6) divides n, 2^omega(n) when 3 | n otherwise,
    and 2^(omega(n) + 1) in the remaining case.  f.imph is overwritten; the
    int16 root-count array and the uint8 arrays of the divisibility check
    keep the peak within the walk's own figure.  A numerator that 6 does not
    divide raises ``InvariantViolation`` at its n; at the walk's
    ``_spot_indices`` ``_spot_check`` compares the result with the closed
    form of the walk's own ``factorize(n)``, read from ``_spot_row``.
    """
    import numpy as np

    roots = np.left_shift(2, f.omega, dtype=np.int16)  # 2^(omega + 1)
    roots[_odd_offset(a, 3) :: 3] >>= 1
    roots[_odd_offset(a, 9) :: 9] = 0
    roots *= ~f.bad5
    table = f.imph
    table += roots
    table += 3
    del roots
    # numerator - 6 * (numerator // 6) is 0..5, so it is 0 exactly when the
    # two agree mod 256: the multiply-back compares their low bytes alone
    low = table.astype(np.uint8)
    table //= 6
    low -= np.multiply(table, 6, out=np.empty_like(low), casting="unsafe")
    if np.count_nonzero(low):
        n = a + 2 * int(np.flatnonzero(low)[0])
        _expect(False, n, ("closed",), "closed-form numerator of T({}) not divisible by 6", n)
    del low
    _spot_check(a, (table,), ("T",), 4)
    return table
