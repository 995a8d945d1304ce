"""Exact integer arithmetic underpinning the triangle counts.

Everything here is deterministic: factorize divides out the primes below
1000 that divide gcd(n, their product) and hands the cofactor left to
Miller-Rabin, with as many prime witnesses as are proven below it, and to
Brent's cycle method (fixed parameters), so repeated runs give identical
output.  It serves 1 <= n < 2^63.

The central object is imph(n), the count of residues x in [1, n] with
gcd(x, n) = gcd(x - 1, n) = 1.  It is multiplicative with
imph(p^e) = p^(e-1) * (p - 2), hence zero on even n.

The factor sieve walk lives in ``sieve``, which ``imph_sieve`` loads.  Only
the array routines (the prime list, IP(n) and the six-map table) import
numpy, each inside its own body, so that the scalar routines and the import
of the package never load it.  The other modules follow the same rule.
"""

from __future__ import annotations

import math
import os
from functools import lru_cache
from itertools import compress, count
from operator import attrgetter
from typing import Iterator

__all__ = [
    "InvariantViolation",
    "Refused",
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
    an identity.  ``n`` and ``routes`` say where, when known; the CLI exits 3.
    Raised by ``_expect`` alone, the one path of every cross-check."""

    def __init__(self, message: str, n: int | None = None, routes: tuple[str, ...] = ()):
        super().__init__(message)
        self.n, self.routes = n, routes


def _expect(ok, n: int | None, routes: tuple[str, ...], message: str, *args) -> None:
    """The package's one cross-check path: unless ``ok``, raise
    ``InvariantViolation(message.format(*args), n, routes)``.  The message is
    formatted only then, as ``factorize`` and the reductions check every call."""
    if not ok:
        raise InvariantViolation(message.format(*args), n, routes)


class Refused(ValueError):
    """An argument or budget check refused its input; the CLI prints
    ``error: <message>`` and exits 2.  Raised by ``_require`` alone (and as
    ``lattice.DegenerateTriangleError``); callers may catch ``ValueError``."""


def _require(ok, message: str, *args) -> None:
    """The package's one refusal path: unless ``ok``, raise
    ``Refused(message.format(*args))``.  The message is formatted only then,
    as ``factorize`` and the reductions check every call."""
    if not ok:
        raise Refused(message.format(*args))


def sieve_memory_budget() -> int:
    """Memory budget in bytes for sieve tables (env override, default 1 GiB)."""
    raw = os.environ.get(SIEVE_MEMORY_ENV)
    if raw is None:
        return _DEFAULT_SIEVE_MEMORY
    msg = "{} must be a positive integer number of bytes, got {!r}"
    _require(raw.strip().isdecimal() and int(raw) > 0, msg, SIEVE_MEMORY_ENV, raw)
    return int(raw)


# --------------------------------------------------------------------------
# primality / factorization
# --------------------------------------------------------------------------

# Miller-Rabin with the first k prime witnesses is proven for every n below
# psi_k, the least odd composite that is a strong pseudoprime to all k of them
# (G. Jaeschke, Math. Comp. 61, 1993; J. Sorenson and J. Webster, Math. Comp.
# 86, 2017); _MR_PSI pairs each psi_k with k, skipping the k whose psi_k
# equals the next one's.  The witnesses 2..37 are fooled at
# psi_12 = 399165290221 * 798330580441, and all 13 at _MR_BOUND = psi_13.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981
_MR_PSI = (
    (2047, 1),
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
    (318_665_857_834_031_151_167_461, 12),
    (_MR_BOUND, 13),
)

#: factorize serves 1 <= n < FACTORIZE_BOUND; larger n may have two prime
#: factors too big for rho to find in reasonable time.
FACTORIZE_BOUND = 1 << 63

# factorize trial-divides by the primes below this limit; the cofactor left,
# whose prime factors are all >= the limit, goes to Miller-Rabin and rho.
_TRIAL_LIMIT = 1000


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, valid for n < psi_13 ~ 3.3 * 10^24.

    n is tested with the first k prime witnesses, k the least with n < psi_k
    (Jaeschke 1993, Sorenson-Webster 2017): five witnesses near 10^12, at
    most twelve below 2^64.
    """
    _require(n < _MR_BOUND, "primality test is proven only below {}, got {}", _MR_BOUND, n)
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    return _miller_rabin(n)


def _miller_rabin(n: int) -> bool:
    """The Miller-Rabin rounds of ``is_prime``, for an n > 1 below psi_13
    with no prime factor among the witnesses, such as factorize's cofactors,
    whose prime factors are all >= the trial limit.  n - 1 = d 2^r, with r
    read off the lowest set bit of n - 1.
    """
    for psi, k in _MR_PSI:
        if n < psi:
            break
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for a in _MR_WITNESSES[:k]:
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


# The primes below _TRIAL_LIMIT, which factorize divides by, with their
# product, whose gcd with n names the ones that divide n.  Read off the mask
# at import, without numpy and without reading the budget, so a malformed
# CLEANTRI_SIEVE_MEMORY fails only the sieves.
_TRIAL_PRIMES = tuple(compress(count(), _prime_mask(_TRIAL_LIMIT - 1)))
_TRIAL_PRODUCT = math.prod(_TRIAL_PRIMES)


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
        ok = limit < budget and _primes_upto_bytes(limit) <= budget
        _require(ok, "prime sieve to {} exceeds the memory budget", limit)
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


_set = object.__setattr__  # sets a field of a record past its refusing __setattr__


class _Record:
    """Base of the package's frozen records.  A subclass states its fields
    once, as ``__slots__``, and ``__init_subclass__`` builds its ``__init__``
    from them: a parameter per field in slot order, defaults only from the
    class's ``_defaults`` mapping, a ``_set`` per field, then the class's
    ``_validate`` check, if it has one, called with the field values.  A
    record equals, and hashes as, the tuple of its fields, but only against
    a record of its own class; its repr reads ``Name(field=value, ...)``;
    its fields cannot be assigned or deleted."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # compiled from source, as collections.namedtuple builds __new__: a
        # generic loop over the fields takes 1.5 to 2 times as long per record
        names = cls.__slots__
        defaults = cls.__dict__.get("_defaults", {})
        params = ", ".join(f"{f}=_defaults[{f!r}]" if f in defaults else f for f in names)
        body = "".join(f"\n    _set(self, {f!r}, {f})" for f in names)
        if hasattr(cls, "_validate"):
            body += f"\n    self._validate({', '.join(names)})"
        namespace = {"__name__": cls.__module__, "_set": _set, "_defaults": defaults}
        exec(f"def __init__(self, {params}):{body}", namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
        cls._values = property(attrgetter(*names))  # every record has two fields or more

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values


class Factorization(_Record):
    """n together with its prime factorization as ordered (prime, exponent) pairs.

    The public constructor validates everything: n >= 1, strictly increasing
    primes, each proven by ``is_prime``, positive exponents and the product.
    ``factorize`` has proven each prime once already, so it builds its result
    through ``_proven``, which checks the product alone.
    """

    __slots__ = ("n", "factors")

    def _validate(self, n: int, factors: tuple[tuple[int, int], ...]) -> None:
        if n < 1:
            raise ValueError(f"n must be positive, got {n}")
        prod = 1
        prev = 0
        for p, e in factors:
            if p <= prev:
                raise ValueError("primes must be strictly increasing")
            if e < 1:
                raise ValueError("exponents must be positive")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            prev = p
            prod *= p**e
        if prod != n:
            raise ValueError(f"factors multiply to {prod}, not {n}")

    @classmethod
    def _proven(cls, n: int, factors: tuple[tuple[int, int], ...]) -> Factorization:
        """The factorization of n by ``factorize``, whose primes are proven
        and sorted; skips ``_validate`` but raises ``InvariantViolation``
        when the factors do not multiply to n."""
        prod = math.prod(p**e for p, e in factors)
        _expect(prod == n, n, ("factorize",), "factors multiply to {}, not {}", prod, n)
        f = cls.__new__(cls)
        _set(f, "n", n)
        _set(f, "factors", factors)
        return f

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
    """Factor n deterministically; valid for 1 <= n < 2^63, ``Refused`` beyond.

    The primes below 1000 that divide g = gcd(n, their product) are divided
    out in increasing order.  The walk stops at the first p with g < p^2:
    every prime factor of g is then >= p, so g is 1 or a trial prime, which
    is divided out at once.  The cofactor left has no prime factor below
    1000; it is split by Brent's rho until the Miller-Rabin rounds of
    ``is_prime`` prove every piece, with the witnesses that Jaeschke (1993)
    and Sorenson-Webster (2017) prove below it.  Each prime is proven once;
    a rho result that is no proper divisor, or factors that do not multiply
    to n, raise ``InvariantViolation``.
    """
    _require(n >= 1, "cannot factor {}", n)
    _require(n < FACTORIZE_BOUND, "factorize is capped below 2^63, got {}", n)
    factors: dict[int, int] = {}
    m = n
    g = math.gcd(m, _TRIAL_PRODUCT)
    for p in _TRIAL_PRIMES:
        if g < p * p:
            break
        if g % p == 0:
            g //= p
            m, factors[p] = _divide_out(m, p)
    if g > 1:
        m, factors[g] = _divide_out(m, g)
    stack = [m] if m > 1 else []
    while stack:
        m = stack.pop()
        if _miller_rabin(m):
            factors[m] = factors.get(m, 0) + 1
        else:
            d = _brent_rho(m)
            ok = 1 < d < m and m % d == 0
            _expect(ok, n, ("factorize",), "rho gave {}, no proper divisor of {}", d, m)
            stack.append(d)
            stack.append(m // d)
    return Factorization._proven(n, tuple(sorted(factors.items())))


def _divide_out(m: int, p: int) -> tuple[int, int]:
    """(m / p^e, e) for the largest e with p^e | m."""
    e = 0
    while m % p == 0:
        m //= p
        e += 1
    return m, e


# --------------------------------------------------------------------------
# gcd machinery
# --------------------------------------------------------------------------


def extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b) > 0.

    Plain iterative extended Euclid; the Bezout pair is the small one the
    algorithm produces, e.g. (3, 5) -> (1, 2, -1) and (0, 7) -> (7, 0, 1).
    """
    _require(a or b, "gcd(0, 0) is undefined")
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
    _require(n >= 1, "modulus must be positive, got {}", n)
    g = math.gcd(a, n)
    _require(g == 1, "{} is not invertible mod {} (gcd = {})", a, n, g)
    return pow(a, -1, n)


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
    _require(f.n % 2, "n must be odd, got {}", f.n)
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
    return imph_from_factorization(_cached_factorization(n))


def imph_bruteforce(n: int) -> int:
    """Independent oracle for imph: direct double-gcd scan of the residues."""
    _require(n >= 1, "n must be positive, got {}", n)
    _require(n <= IMPH_BRUTEFORCE_BOUND, "brute-force oracle capped at {}, got {}",
             IMPH_BRUTEFORCE_BOUND, n)
    return sum(
        1 for x in range(1, n + 1) if math.gcd(x, n) == 1 and math.gcd(x - 1, n) == 1
    )


_UNIT_CHUNK = 1 << 16  # x per step of ``_half_units``: it peaks at 1.3 MB traced, whatever n is
IP_BOUND = 10**5  # the cap of every array over IP(n): its members, the six-map table


def _half_units(n: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The package's one pass over the residues of odd n, 3 <= n <= 10^7.
    As gcd(x, n) = gcd(n - x, n), it covers 1 <= x <= (n - 1)/2 alone, in
    steps of ``_UNIT_CHUNK`` x, each yielded as an int64 array (the caller's)
    with the member flags of IP(n): low marks the members m = x, whose x - 1
    and x are units, and high the members m = n - x, whose x and x + 1 are.

    It strikes the non-units, with no gcd and no prime table.  The primes
    of n are found once per pass, by its own trial up to sqrt(n): one
    remainder of n by 2..isqrt(n) gives the divisors there, and ascending,
    a divisor that divides what is left of n is prime and is divided out
    fully.  What is left past sqrt(n) is 1 or the one prime divisor above
    it; odd n <= 10^7 has at most 7 primes.  Each step strikes the
    multiples of each prime in one slice.  x = 0 is never a unit."""
    import numpy as np

    half = (n - 1) // 2
    ds = np.arange(2, math.isqrt(n) + 1)
    primes, rest = [], n
    for d in ds[n % ds == 0].tolist():
        if rest % d == 0:
            primes.append(d)
            while rest % d == 0:
                rest //= d
    if rest > 1:
        primes.append(rest)
    for lo in range(1, half + 1, _UNIT_CHUNK):
        hi = min(lo + _UNIT_CHUNK, half + 1)  # the flags run over x = lo - 1..hi
        unit = np.ones(hi + 2 - lo, dtype=bool)  # entry i is x = lo - 1 + i
        unit[0] = lo > 1
        for p in primes:
            unit[(1 - lo) % p :: p] = False
        pair = unit[:-1] & unit[1:]  # x - 1 and x, or x and x + 1, both units
        yield np.arange(lo, hi, dtype=np.int64), pair[:-1], pair[1:]


def ip_members(n: int) -> np.ndarray:
    """Members of IP(n) as an increasing int64 array (empty for even n > 1),
    for n <= ``IP_BOUND``: the low x of each step of the half pass ascending,
    then the n - x of its high flags, reversed, so it stays increasing."""
    import numpy as np

    _require(n >= 1, "n must be positive, got {}", n)
    _require(n <= IP_BOUND, "IP enumeration capped at {}, got {}", IP_BOUND, n)
    if n % 2 == 0 or n == 1:
        return np.ones(int(n == 1), dtype=np.int64)  # IP(1) = {1}, IP(even n) = {}
    low, high = [], []
    for x, is_low, is_high in _half_units(n):
        low.append(x[is_low])
        high.append(n - x[is_high])
    return np.concatenate((*low, *(h[::-1] for h in high[::-1])))


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

    The inverses are m^(lambda(n) - 1) mod n by square-and-multiply over the
    whole member array, with Carmichael's lambda(n), the exponent of the unit
    group, from the cached factorization; products stay below n^2 <=
    ``IP_BOUND``^2 = 10^10.  Without members, as at even n, the empty table
    is returned before any factorization.  Every inverse is checked before
    the table is built.  m -> n + 1 - m reverses the sorted members, so
    (1 - m)^-1 is m^-1 reversed.
    """
    import numpy as np

    members = ip_members(n)
    if not members.size:
        return members, np.empty((6, 0), dtype=np.int64)
    inv = np.full_like(members, 1 % n)
    base = members.copy()
    e = math.lcm(*(p ** (k - 1) * (p - 1) for p, k in _cached_factorization(n).factors)) - 1
    while e:
        if e & 1:
            inv *= base
            inv -= inv // n * n  # numpy divides by a scalar faster than it takes %
        e >>= 1
        if e:
            base *= base
            base -= base // n * n
    wrong = members * inv % n != 1
    if n > 1 and wrong.any():
        msg = "{} times its computed inverse is not 1 mod {}"
        _expect(False, n, ("six-map",), msg, members[wrong][0], n)
    return members, np.stack(_six_images(members, inv, inv[::-1], n))


def _odd_count(lo: int, hi: int) -> int:
    """The count of odd n with lo <= n <= hi, for lo <= hi + 1."""
    return (hi + 1) // 2 - lo // 2


def imph_sieve(x: int) -> np.ndarray:
    """Table t with t[n] = imph(n) for 1 <= n <= x (t[0] = 0), from the factor sieve."""
    from . import sieve

    return sieve.sieve_table(x, lambda a, f: f.imph)


@lru_cache(maxsize=1 << 15)
def _cached_factorization(n: int) -> Factorization:
    """Factorization cache for the hot counting paths.

    Bounded, so a long scalar sweep cannot grow it without limit; a miss
    costs one factorize call, well under a millisecond near 10^12.
    """
    return factorize(n)
