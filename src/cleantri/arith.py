"""Exact integer arithmetic underpinning the triangle counts.

Everything here is deterministic: factorize divides out the primes below
1000 that divide gcd(n, their product) and hands the cofactor left to
Miller-Rabin, with as many prime witnesses as are proven below it, and to
Brent's cycle method (fixed parameters), so repeated runs give identical
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
from functools import lru_cache
from itertools import compress, count
from operator import attrgetter
from typing import Callable, Iterator, NamedTuple

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


# The odd primes <= sqrt(IMPH_SIEVE_BOUND), which every walk of the factor
# sieve reads, and the primes below _TRIAL_LIMIT, which factorize divides by,
# with their product, whose gcd with n names the ones that divide n.
# Both are read off one mask at import, without numpy and without reading the
# budget, so a malformed CLEANTRI_SIEVE_MEMORY fails only the sieves.
_SIEVE_PRIMES = tuple(compress(count(), _prime_mask(math.isqrt(IMPH_SIEVE_BOUND))))[1:]
_TRIAL_PRIMES = (2, *(p for p in _SIEVE_PRIMES if p < _TRIAL_LIMIT))
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


_UNIT_CHUNK = 1 << 16  # x per step of ``_half_units``: under 2 MB traced with a caller, whatever n is
IP_BOUND = 10**5  # the cap of every array over IP(n): its members, the six-map table


def _half_units(n: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The package's one gcd pass over the residues of odd n, 3 <= n <= 10^7.
    As gcd(x, n) = gcd(n - x, n), it covers 1 <= x <= (n - 1)/2 alone, in
    steps of ``_UNIT_CHUNK`` x, each yielded as an int64 array (the caller's)
    with the member flags of IP(n): low marks the members m = x, whose x - 1
    and x are units, and high the members m = n - x, whose x and x + 1 are.

    The gcd runs in uint32.  The first step, all of x for n up to
    2 * ``_UNIT_CHUNK`` + 1, takes it on odd x alone: 2 is a unit of odd n,
    so x = 2^j * o has the flag of o, copied in one slice per j."""
    import numpy as np

    half = (n - 1) // 2
    for lo in range(1, half + 1, _UNIT_CHUNK):
        hi = min(lo + _UNIT_CHUNK, half + 1)  # the flags run over x = lo - 1..hi
        first = lo == 1
        xs = np.arange(lo if first else lo - 1, hi + 1, 2 if first else 1, dtype=np.uint32)
        unit = np.gcd(xs, n) == 1
        if first:
            flags, unit = unit, np.empty(hi + 1, dtype=bool)
            unit[1::2] = flags
            unit[0] = False  # gcd(0, n) = n
            step = 2
            while step <= hi:
                even = unit[step :: 2 * step]  # x = step * o for odd o
                even[:] = flags[: even.size]
                step *= 2
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
            inv %= n
        e >>= 1
        if e:
            base *= base
            base %= n
    wrong = members * inv % n != 1
    if n > 1 and wrong.any():
        msg = "{} times its computed inverse is not 1 mod {}"
        _expect(False, n, ("six-map",), msg, members[wrong][0], n)
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
# smooth part (4) and the uint16 counter (2); the counter is unpacked and
# freed before the int32 cofactor (4) is made beside the smooth part.
# Between blocks the walk holds the fields alone, so a caller's own work on
# a block may take eight bytes per entry besides what it charges.  While the
# block is struck it holds 17 bytes an entry, and the kernel's scattered hits
# take at most the 2 left (see ``_SCATTER_PIECE``).
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


def _scattered_powers(hi: int, split: int) -> Iterator[tuple[int, int]]:
    """(p, p^k) for the odd primes p <= sqrt(hi) and their powers
    split <= p^k <= hi, but 3, 9, 5 and 7, which come with the wheel."""
    for p in _SIEVE_PRIMES:
        if p * p > hi:
            return
        pk = p
        while pk <= hi:
            if pk >= split and _WHEEL % pk:
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
    rows = sum(1 for _ in _scattered_powers(hi, length // _SCATTER_HITS))
    return _SCATTER_ROW_BYTES * rows


def _scatter_table(hi: int, length: int) -> _Scatter:
    """The ``_Scatter`` rows of a walk to hi in blocks of ``length`` entries:
    the powers p^k >= length // _SCATTER_HITS of ``_scattered_powers(hi)``,
    with their factors from ``_power_update``."""
    import numpy as np

    split = length // _SCATTER_HITS
    rows = sum(1 for _ in _scattered_powers(hi, split))
    table = _Scatter(
        split,
        np.empty(rows, dtype=np.int64),
        np.empty(rows, dtype=np.int64),
        np.empty(rows, dtype=np.int64),
        np.empty(rows, dtype=np.int32),
        np.empty(rows, dtype=np.uint16),
    )
    for i, (p, pk) in enumerate(_scattered_powers(hi, split)):
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
    split = table.split
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
    for p in _SIEVE_PRIMES:
        if p >= split or p * p > end:
            break
        pk = p
        while pk < split and pk <= end:
            if _WHEEL % pk:  # 3, 9, 5 and 7 came with the wheel
                strike(p, pk, length)
            pk *= p

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


def _odd_count(lo: int, hi: int) -> int:
    """The count of odd n with lo <= n <= hi, for lo <= hi + 1."""
    return (hi + 1) // 2 - lo // 2


def _walk_bytes(lo: int, hi: int) -> int:
    """Bytes the factor sieve walk over lo..hi holds at its peak: one block,
    its scatter table (``_scatter_bytes``) and ``_WALK_OBJECT_BYTES``;
    refused first for hi past the sieve cap."""
    _require(hi <= IMPH_SIEVE_BOUND, "sieve capped at {}, got {}", IMPH_SIEVE_BOUND, hi)
    length = min(_odd_count(lo, hi), _SIEVE_BLOCK)
    block = _FACTOR_SIEVE_BYTES_PER_N * length + max(0, _CAST_BUFFER_BYTES - 4 * length)
    return block + _scatter_bytes(hi, length) + _WALK_OBJECT_BYTES


def _walk_idle_bytes(lo: int, hi: int) -> int:
    """Bytes of ``_walk_bytes(lo, hi)`` that the walk leaves free between
    blocks, when it holds the four fields (11 bytes an entry) and its scatter
    table alone: the smooth part, counter and cofactor of the kernel and the
    room of its cast buffer.  A caller's work on a block, done before it asks
    for the next, may take them."""
    length = min(_odd_count(lo, hi), _SIEVE_BLOCK)
    return (_FACTOR_SIEVE_BYTES_PER_N - 11) * length + max(0, _CAST_BUFFER_BYTES - 4 * length)


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


def _spot_check(a: int, f: _FactorData) -> None:
    """Compare a block's sieved factor row of the odd n = a + 2i with the row
    of one ``factorize(n)`` (``_spot_row``) at each of its ``_spot_indices``:
    imph, omega, Omega and the p = 5 (mod 6) flag, field by field; raise
    ``InvariantViolation`` at the first field that differs.

    It builds no tuple from a generator, nor does the walk: CPython sizes
    such a tuple by a guess and shrinks it, so it is freed into the free list
    of a smaller size than it came from.  Those lists keep up to 2000 tuples
    a size, and with such tuples the walk's traced bytes grew by 100 to 260
    bytes a block over its first few thousand blocks.
    """
    msg = "sieved {}({}) = {}, factorize gives {}"
    for i in _spot_indices(a, len(f.imph)):
        n = a + 2 * i
        for name, sieved, value in zip(_FactorData._fields, f, _spot_row(n)):
            _expect(sieved[i] == value, n, ("sieve", "factorize"), msg, name, n, sieved[i], value)


@lru_cache(maxsize=4)
def _spot_row(n: int) -> tuple[int, int, int, bool, int]:
    """The factor row of odd n (imph, omega, Omega and the p = 5 (mod 6) flag,
    in ``_FactorData``'s order) and rho(n), from one ``factorize(n)``; kept
    for the four ``_spot_indices`` of the block the walk checked last, so the
    T check of that block factorizes nothing again.  Five ints whatever n's
    factors: four kept factorizations grow with omega(n), and so did a walk's
    traced bytes from block to block."""
    fac = factorize(n)
    bad5 = any(p % 6 == 5 for p, _ in fac.factors)
    return imph_from_factorization(fac), fac.omega, fac.big_omega, bad5, quad_root_count(fac)


def _factor_blocks(lo: int, hi: int, holding: int = 0) -> Iterator[tuple[int, _FactorData]]:
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
    need = holding + _walk_bytes(lo, hi)
    length = min(_odd_count(lo, hi), _SIEVE_BLOCK)
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

    _require(x >= 1, "bound must be positive, got {}", x)
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
