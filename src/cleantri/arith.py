"""Exact integer arithmetic underpinning the triangle counts.

Everything here is deterministic: factorize trial-divides by the primes
below 1000 and hands the cofactor left to a fixed-witness Miller-Rabin test
and Brent's cycle method (fixed parameters), so repeated runs give identical
output.  It serves 1 <= n < 2^63.

The central object is imph(n), the count of residues x in [1, n] with
gcd(x, n) = gcd(x - 1, n) = 1.  It is multiplicative with
imph(p^e) = p^(e-1) * (p - 2), hence zero on even n.

Only the array routines (the sieves, IP(n) and the six-map table) import
numpy, each inside its own body, so that the scalar routines and the import
of the package never load it.  The other modules follow the same rule.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, count
from typing import Callable, Iterator, NamedTuple

__all__ = [
    "InvariantViolation",
    "Factorization",
    "factorize",
    "is_prime",
    "extended_gcd",
    "mod_inverse",
    "imph",
    "imph_from_factorization",
    "imph_bruteforce",
    "imph_sieve",
    "ip_members",
    "quad_root_count",
    "sieve_memory_budget",
    "six_maps",
    "six_map_table",
]

IMPH_BRUTEFORCE_BOUND = 10**7
IMPH_SIEVE_BOUND = 10**8  # the factor sieve's cap; the default budget serves every x up to it

#: Environment variable holding the sieve memory budget in bytes.
SIEVE_MEMORY_ENV = "CLEANTRI_SIEVE_MEMORY"
_DEFAULT_SIEVE_MEMORY = 1 << 30  # 1 GiB


class InvariantViolation(AssertionError):
    """An internal cross-check failed: two routes disagree, or a result breaks
    an identity.  ``n`` and ``routes`` say where, when known; the CLI exits 3."""

    def __init__(self, message: str, n: int | None = None, routes: tuple[str, ...] = ()):
        super().__init__(message)
        self.n, self.routes = n, routes


def sieve_memory_budget() -> int:
    """Memory budget in bytes for sieve tables (env override, default 1 GiB)."""
    raw = os.environ.get(SIEVE_MEMORY_ENV)
    if raw is None:
        return _DEFAULT_SIEVE_MEMORY
    if not raw.strip().isdecimal() or int(raw) <= 0:
        msg = f"{SIEVE_MEMORY_ENV} must be a positive integer number of bytes, got {raw!r}"
        raise ValueError(msg)
    return int(raw)


# --------------------------------------------------------------------------
# primality / factorization
# --------------------------------------------------------------------------

# Miller-Rabin with the witnesses 2..41 is deterministic below psi_13 =
# 3,317,044,064,679,887,385,961,981 (Sorenson-Webster, Math. Comp. 2017);
# the witnesses 2..37 alone are fooled at psi_12 = 399165290221 * 798330580441.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981

#: factorize serves 1 <= n < FACTORIZE_BOUND; larger n may have two prime
#: factors too big for rho to find in reasonable time.
FACTORIZE_BOUND = 1 << 63

# factorize trial-divides by the primes below this limit; the cofactor left,
# whose prime factors are all >= the limit, goes to Miller-Rabin and rho.
_TRIAL_LIMIT = 1000


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, valid for n < 3.3 * 10^24."""
    if n >= _MR_BOUND:
        raise ValueError(f"primality test is proven only below {_MR_BOUND}, got {n}")
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
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


def _prime_mask(limit: int) -> bytearray:
    """A bytearray of limit + 1 entries (none for limit < 0) in which entry n
    is 1 exactly when n is prime, by Eratosthenes on the odd n alone: each odd
    prime p <= sqrt(limit) strikes p^2, p^2 + 2p, ...

    The package's one prime sieve; it imports no numpy and reads no budget.
    At limit 10^4 it takes well under a millisecond.
    """
    if limit < 2:
        return bytearray(max(limit + 1, 0))
    mask = bytearray([0, 1]) * (limit // 2 + 1)  # 1 at every odd n
    del mask[limit + 1 :]  # in place: a trimmed copy would double the peak
    mask[1:3] = b"\0\1"
    for p in range(3, math.isqrt(limit) + 1, 2):
        if mask[p]:
            mask[p * p :: 2 * p] = bytes(len(range(p * p, limit + 1, 2 * p)))
    return mask


# The odd primes <= sqrt(IMPH_SIEVE_BOUND), which every walk of the factor
# sieve reads, and the primes below _TRIAL_LIMIT, which factorize divides by.
# Both are read off one mask at import, without numpy and without reading the
# budget, so a malformed CLEANTRI_SIEVE_MEMORY fails only the sieves.
_SIEVE_PRIMES = tuple(compress(count(), _prime_mask(math.isqrt(IMPH_SIEVE_BOUND))))[1:]
_TRIAL_PRIMES = (2, *(p for p in _SIEVE_PRIMES if p < _TRIAL_LIMIT))


def _prime_count_bound(limit: int) -> int:
    """An upper bound on the count of primes p <= limit, for limit >= 2:
    1.25506 x / ln x bounds it (Rosser-Schoenfeld 1962)."""
    return int(1.25506 * limit / math.log(limit)) + 1


def _primes_upto_bytes(limit: int) -> int:
    """Bytes _primes_upto(limit) holds at its peak, for limit >= 2: the mask
    and the int64 index array of the primes."""
    return limit + 1 + 8 * _prime_count_bound(limit)


def _primes_upto(limit: int) -> np.ndarray:
    """The primes p <= limit, ascending, as an int64 array read off
    ``_prime_mask``; mask and index array must fit the budget.

    The mask alone holds limit + 1 bytes, so a limit at the budget is refused
    before its byte count, which a float cannot hold past about 10^308.
    """
    import numpy as np

    if limit >= 2:
        budget = sieve_memory_budget()
        if limit >= budget or _primes_upto_bytes(limit) > budget:
            raise ValueError(f"prime sieve to {limit} exceeds the memory budget")
    return np.flatnonzero(np.frombuffer(_prime_mask(limit), bool))


def _brent_rho(n: int) -> int:
    """Brent's variant of Pollard rho with a fixed parameter sweep.

    n must be composite and free of prime factors below the trial limit
    (1000), as factorize's cofactors are; prime powers such as 1009^2 split
    too.  Returns a nontrivial divisor; deterministic because the (x0, c) pairs
    are tried in a fixed order.
    """
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")  # pragma: no cover


@dataclass(frozen=True)
class Factorization:
    """n together with its prime factorization as ordered (prime, exponent) pairs."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        prod = 1
        prev = 0
        for p, e in self.factors:
            if p <= prev:
                raise ValueError("primes must be strictly increasing")
            if e < 1:
                raise ValueError("exponents must be positive")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            prev = p
            prod *= p**e
        if prod != self.n:
            raise ValueError(f"factors multiply to {prod}, not {self.n}")

    @property
    def omega(self) -> int:
        """Number of distinct prime divisors."""
        return len(self.factors)

    @property
    def big_omega(self) -> int:
        """Number of prime divisors counted with multiplicity."""
        return sum(e for _, e in self.factors)

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


def factorize(n: int) -> Factorization:
    """Factor n deterministically; valid for 1 <= n < 2^63, ValueError beyond."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    if n >= FACTORIZE_BOUND:
        raise ValueError(f"factorize is capped below 2^63, got {n}")
    factors: dict[int, int] = {}
    m = n
    for p in _TRIAL_PRIMES:
        if p * p > m:
            break
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
    stack = [m] if m > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
        else:
            d = _brent_rho(m)
            stack.append(d)
            stack.append(m // d)
    return Factorization(n, tuple(sorted(factors.items())))


# --------------------------------------------------------------------------
# gcd machinery
# --------------------------------------------------------------------------


def extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b) > 0.

    Plain iterative extended Euclid; the Bezout pair is the small one the
    algorithm produces, e.g. (3, 5) -> (1, 2, -1) and (0, 7) -> (7, 0, 1).
    """
    if a == 0 and b == 0:
        raise ValueError("gcd(0, 0) is undefined")
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def mod_inverse(a: int, n: int) -> int:
    """Inverse of a modulo n, in [0, n); requires gcd(a, n) = 1."""
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    try:
        return pow(a, -1, n)
    except ValueError:
        raise ValueError(f"{a} is not invertible mod {n} (gcd = {math.gcd(a, n)})") from None


# --------------------------------------------------------------------------
# imph
# --------------------------------------------------------------------------


def imph_from_factorization(f: Factorization) -> int:
    """imph(n) = prod p^(e-1) * (p - 2) over the prime factorization."""
    value = 1
    for p, e in f.factors:
        value *= p ** (e - 1) * (p - 2)
    return value


def quad_root_count(f: Factorization) -> int:
    """rho(n), the number of roots of y^2 - y + 1 = 0 mod odd n, from its
    factorization.

    Multiplicative by CRT, with four cases per prime power p^e: 1 for 3^1,
    0 for 3^e with e >= 2, 0 for p = 5 (mod 6) and 2 for p = 1 (mod 6).
    n = 1 gives 1 (the single residue class).
    """
    if f.n % 2 == 0:
        raise ValueError(f"n must be odd, got {f.n}")
    count = 1
    for p, e in f.factors:
        if p % 6 == 5 or (p == 3 and e > 1):
            return 0
        if p % 6 == 1:
            count *= 2
    return count


def imph(n: int) -> int:
    """Count of x in [1, n] with gcd(x, n) = gcd(x - 1, n) = 1, via the closed form."""
    if n > 1 and n % 2 == 0:
        return 0
    return imph_from_factorization(factorize(n))


def imph_bruteforce(n: int) -> int:
    """Independent oracle for imph: direct double-gcd scan of the residues."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n > IMPH_BRUTEFORCE_BOUND:
        raise ValueError(f"brute-force oracle capped at {IMPH_BRUTEFORCE_BOUND}, got {n}")
    return sum(
        1 for x in range(1, n + 1) if math.gcd(x, n) == 1 and math.gcd(x - 1, n) == 1
    )


def _ip_members_and_phi(n: int) -> tuple[np.ndarray, int]:
    """The members of IP(n), increasing, and phi(n), from one gcd pass.

    x is a member when x and x - 1 are both units; x - 1 is the previous
    entry of the unit mask, and for x = 1 it is 0 = n, the last entry.
    """
    import numpy as np

    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n > IMPH_BRUTEFORCE_BOUND:
        raise ValueError(f"IP enumeration capped at {IMPH_BRUTEFORCE_BOUND}, got {n}")
    unit = np.gcd(np.arange(1, n + 1, dtype=np.int64), n) == 1
    return np.flatnonzero(unit & np.roll(unit, 1)) + 1, int(unit.sum())


def ip_members(n: int) -> np.ndarray:
    """Members of IP(n) as an increasing int64 array (empty for even n > 1),
    read off one gcd pass over the residues."""
    return _ip_members_and_phi(n)[0]


def _six_images(m, a, b, n):
    """The residue maps g1..g6 of m mod n, in [1, n], from a = m^-1, b = (1 - m)^-1:
    m, m^-1, 1 - m, 1 - m^-1, (1 - m)^-1 and (1 - m^-1)^-1 = 1 - (1 - m)^-1.
    Works alike on ints and int64 arrays."""
    return tuple((v - 1) % n + 1 for v in (m, a, 1 - m, 1 - a, b, 1 - b))


def six_maps(m: int, n: int) -> tuple[int, int, int, int, int, int]:
    """The images g1(m)..g6(m) mod n, each in [1, n]; m and 1 - m must be units."""
    return _six_images(m, mod_inverse(m, n), mod_inverse(1 - m, n), n)


def six_map_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The members of IP(n) and the (6, imph(n)) table of their images g1..g6.

    The inverses are m^(phi(n) - 1) mod n by square-and-multiply over the
    whole member array, with phi(n) counted off the unit mask, so no
    factorization is used; products stay below n^2 <= 10^14.  Every inverse
    is checked before the table is built.  m -> n + 1 - m reverses the sorted
    members, so (1 - m)^-1 is m^-1 reversed.
    """
    import numpy as np

    members, phi = _ip_members_and_phi(n)
    inv = np.full_like(members, 1 % n)
    base = members.copy()
    e = phi - 1
    while e:
        if e & 1:
            inv *= base
            inv %= n
        e >>= 1
        if e:
            base *= base
            base %= n
    wrong = members * inv % n != 1
    if n > 1 and wrong.any():
        msg = f"{members[wrong][0]} times its computed inverse is not 1 mod {n}"
        raise InvariantViolation(msg, n, ("six-map",))
    return members, np.stack(_six_images(members, inv, inv[::-1], n))


class _FactorData(NamedTuple):
    """Per-n factor data for one block of the odd n = a, a + 2, ...; entry i
    holds n = a + 2i.  n is squarefree exactly when omega = Omega."""

    imph: np.ndarray  # int64
    omega: np.ndarray  # int8, distinct prime divisors
    big_omega: np.ndarray  # int8, prime divisors with multiplicity
    bad5: np.ndarray  # bool, some prime p = 5 (mod 6) divides n


# Bytes per entry of a block that the factor sieve walk holds at its peak:
# the four fields (8 + 1 + 1 + 1) and, while the block is sieved, the int32
# cofactor (4) and one bool mask (1).  Between blocks the walk holds the
# fields alone, so a caller's own work on a block may take five bytes per
# entry besides what it charges.
_FACTOR_SIEVE_BYTES_PER_N = 16

# numpy casts the int32 cofactor to int64 through a buffer of 8192 entries
# (np.getbufsize()) when the kernel multiplies it into imph, after the mask
# is freed; a block of fewer entries holds the difference besides its 16 B.
_CAST_BUFFER_BYTES = 8 * 8192

# Bytes a walk holds besides its block, whatever its range: the headers of the
# block's arrays and views, the generator's frame and the spot checks' ints;
# 2.4 to 4.2 KB in the traced peaks of the sums and tables at x <= 2^21.
_WALK_OBJECT_BYTES = 6 * 1024

# Entries (odd n) per block of the factor sieve walk, so a block covers twice
# as many numbers.  Smaller blocks pay more per-slice call overhead; larger
# ones hold more, in every walk (a --json range holds up to nine).  Walking
# 0..10^7 on a 2-core Xeon VM (median of 5): blocks of 2^16, 2^17, 2^18,
# 2^19 and 2^20 entries took 0.48, 0.35, 0.29, 0.26 and 0.23 s, and one
# whole-range block 0.41 s; 2^18 peaks at 4 MB, 2^20 at 16 MB.
_SIEVE_BLOCK = 1 << 18

# The walk spot-checks each block at its first and last entries and at two
# fixed by this multiple of the block's start (Knuth's golden-ratio hash).
_SPOT_HASH = 0x9E3779B97F4A7C15


def _odd_offset(a: int, m: int) -> int:
    """The index i of the first multiple n = a + 2i of odd m in the odd n =
    a, a + 2, ...: i = -a / 2 (mod m), with (m + 1) / 2 the inverse of 2."""
    return (-a) % m * ((m + 1) // 2) % m


def _sieve_block(a: int, primes: tuple[int, ...], f: _FactorData) -> None:
    """Fill the views in ``f`` with the factor data of the odd n = a + 2i,
    0 <= i < len, for odd a; ``primes`` holds, ascending, at least the odd
    primes <= sqrt(a + 2 len - 2), and not 2.

    Each such prime p is sliced once per power p^k in range, with stride p^k
    from the first odd multiple of p^k at or after a (``_odd_offset``),
    dividing the cofactor cof[i] = a + 2i by p alongside the multiplicative
    data.  Afterwards cof[i] is 1 or a single prime q > sqrt(a + 2i), which
    is folded in with a few whole-block steps that reuse the cofactor in
    place; besides it they need one bool mask of the block's length.  Both
    are freed on return.
    """
    import numpy as np

    imph, omega, big_omega, bad5 = f
    imph.fill(1)
    omega.fill(0)
    big_omega.fill(0)
    bad5.fill(False)
    cof = np.full(len(imph), 2, dtype=np.int32)  # n <= IMPH_SIEVE_BOUND < 2^31
    cof[0] = a
    np.cumsum(cof, out=cof, dtype=np.int32)  # a, a + 2, ...: no second array, no cast buffer
    end = a + 2 * len(cof) - 2
    for p in primes:
        if p * p > end:
            break
        start = _odd_offset(a, p)
        imph[start::p] *= p - 2
        omega[start::p] += 1
        if p % 6 == 5:
            bad5[start::p] = True
        pk = p
        while pk <= end:
            if pk > p:
                start = _odd_offset(a, pk)
                imph[start::pk] *= p
            cof[start::pk] //= p
            big_omega[start::pk] += 1
            pk *= p
    big = (cof > 1).view(np.int8)  # 0 or 1, added below with no casting buffer
    omega += big
    big_omega += big
    del big
    cof -= 2
    imph *= np.abs(cof, out=cof)  # q - 2 for a prime cofactor, 1 for cofactor 1
    bad5 |= np.remainder(cof, 6, out=cof) == 3  # q - 2 = 3 (mod 6) iff q = 5 (mod 6)


def _empty_factor_data(length: int) -> _FactorData:
    """Uninitialised factor data arrays, for _sieve_block to fill."""
    import numpy as np

    return _FactorData(
        np.empty(length, dtype=np.int64),
        np.empty(length, dtype=np.int8),
        np.empty(length, dtype=np.int8),
        np.empty(length, dtype=bool),
    )


def _odd_count(lo: int, hi: int) -> int:
    """The count of odd n with lo <= n <= hi, for lo <= hi + 1."""
    return (hi + 1) // 2 - lo // 2


def _walk_bytes(lo: int, hi: int) -> int:
    """Bytes the factor sieve walk over lo..hi holds at its peak: one block
    and ``_WALK_OBJECT_BYTES``; refused first for hi past the sieve cap."""
    if hi > IMPH_SIEVE_BOUND:
        raise ValueError(f"sieve capped at {IMPH_SIEVE_BOUND}, got {hi}")
    length = min(_odd_count(lo, hi), _SIEVE_BLOCK)
    block = _FACTOR_SIEVE_BYTES_PER_N * length + max(0, _CAST_BUFFER_BYTES - length)
    return block + _WALK_OBJECT_BYTES


def _spot_check(a: int, sieved: np.ndarray) -> None:
    """Compare a block's sieved imph of the odd n = a + 2i with ``imph``,
    which factorizes, at its first and last entries and two entries fixed by
    a hash of a; raise ``InvariantViolation`` at the first that differs."""
    h = a * _SPOT_HASH
    for i in (0, len(sieved) - 1, h % len(sieved), (h >> 32) % len(sieved)):
        n = a + 2 * i
        if (want := imph(n)) != sieved[i]:
            msg = f"sieved imph({n}) = {sieved[i]}, factorize gives {want}"
            raise InvariantViolation(msg, n, ("sieve", "factorize"))


def _factor_blocks(lo: int, hi: int, holding: int = 0) -> Iterator[tuple[int, _FactorData]]:
    """Yield (a, data) for consecutive blocks of the odd n = a + 2i,
    0 <= i < len(data.imph), covering the odd n with 0 <= lo <= n <= hi:
    imph, omega, Omega and the p = 5 (mod 6) flag, sieved by ``_sieve_block``
    and spot-checked against ``imph`` by ``_spot_check``.  Even n have imph
    and T zero; the walk does not sieve them.

    The package's one factor sieve walk.  One block's arrays are reused for
    the next, so read each block before asking for the next; a caller may
    overwrite them.  The walk holds one block (``_FACTOR_SIEVE_BYTES_PER_N``
    bytes an entry at its peak) and ``_WALK_OBJECT_BYTES``, whatever the
    range's length; it reads the primes from ``_SIEVE_PRIMES``, built once
    at import.  Those bytes and the ``holding`` bytes the caller keeps beside
    the walk are checked against the cap and the memory budget when this is
    called, before anything is allocated.
    """
    need = holding + _walk_bytes(lo, hi)
    length = min(_odd_count(lo, hi), _SIEVE_BLOCK)
    budget = sieve_memory_budget()
    if need > budget:
        raise ValueError(
            f"sieve of {lo}..{hi} needs {need} bytes, budget is {budget}; "
            f"raise {SIEVE_MEMORY_ENV} to at least {need}"
        )

    def walk() -> Iterator[tuple[int, _FactorData]]:
        if not length:
            return
        block = _empty_factor_data(length)
        for a in range(lo | 1, hi + 1, 2 * length):
            view = _FactorData(*(arr[: (hi - a) // 2 + 1] for arr in block))
            _sieve_block(a, _SIEVE_PRIMES, view)
            _spot_check(a, view.imph)
            yield a, view

    return walk()


def _spread_odd(odd: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Lay the values ``odd`` of the odd n = a, a + 2, ... over ``out``, which
    holds the consecutive n = a, a + 1, ... (2 len(odd) of them, or one
    fewer), with 0 at the even n, where imph and T vanish; returns ``out``."""
    out[::2] = odd
    out[1::2] = 0
    return out


def _sieve_table(x: int, values: Callable[[int, _FactorData], np.ndarray]) -> np.ndarray:
    """The int64 table t[n] for 0 <= n <= x: values(a, data)[i] at the odd
    n = a + 2i of the blocks (a, data) of the walk, and 0 at even n; the
    table is charged to the walk."""
    import numpy as np

    if x < 1:
        raise ValueError(f"bound must be positive, got {x}")
    blocks = _factor_blocks(0, x, holding=8 * (x + 1))
    table = np.empty(x + 1, dtype=np.int64)
    table[0] = 0
    for a, f in blocks:
        _spread_odd(values(a, f), table[a : a + 2 * len(f.imph)])
    return table


def imph_sieve(x: int) -> np.ndarray:
    """Table t with t[n] = imph(n) for 1 <= n <= x (t[0] = 0), from the factor sieve."""
    return _sieve_table(x, lambda a, f: f.imph)


@lru_cache(maxsize=1 << 15)
def _cached_factorization(n: int) -> Factorization:
    """Factorization cache for the hot counting paths.

    Bounded, so a long scalar sweep cannot grow it without limit; a miss
    costs one factorize call, well under a millisecond near 10^12.
    """
    return factorize(n)
