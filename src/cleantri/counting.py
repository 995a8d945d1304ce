"""Burnside machinery on IP(n) and the class-counting function T(n).

The six residue maps come from relabeling the vertices of the base-form
triangle (0,0), (1,0), (m,n); they form a group of order 6 acting on IP(n).
``map_g`` and the orbits are built on their one kernel, ``arith.six_maps``
and ``arith.six_map_table``.  T(n), the number of equivalence classes of
clean triangles of twice-area n, is computed three ways that share no
formula: a closed form from the prime factorization, the Burnside average of
the fixed-point counts, each counted as the congruence that defines the
map's fixed points, and the base-form clean triangles that are their own
class key, keyed by ``lattice._least_keys`` on arrays up to m = (n + 1)/2.
The Burnside and geometric routes stream the one half pass, which finds the
primes of n by its own trial up to sqrt(n) and reads no factorization or
prime table, and share no code with ``t_closed``; they serve odd n up to
10^7 by one rule, ``_require_served``, and the orbits, which hold all of
IP(n), odd n up to 10^5.  No route keeps a cache.
"""

from __future__ import annotations

import math

from .arith import (
    IMPH_BRUTEFORCE_BOUND,
    IP_BOUND as GEOMETRIC_N_BOUND,  # caps the orbits, which hold all of IP(n)
    _cached_factorization,
    _expect,
    _half_units,
    _Record,
    _require,
    imph_from_factorization,
    quad_root_count,
    six_map_table,
    six_maps,
)

__all__ = [
    "OrbitDecomposition",
    "TCountReport",
    "map_g",
    "fix_count_closed",
    "t_burnside",
    "t_closed",
    "orbit_decomposition",
    "canonical_m",
    "t_geometric",
    "t_report",
]


def _check_member(m: int, n: int) -> None:
    ok = 1 <= m <= n and math.gcd(m, n) == 1 and math.gcd(m - 1, n) == 1
    _require(ok, "{} is not in IP({})", m, n)


def map_g(i: int, m: int, n: int) -> int:
    """The i-th residue map (i = 1..6) of ``arith.six_maps`` applied to m in
    IP(n); result in [1, n]."""
    _require(i in range(1, 7), "map index must be 1..6, got {}", i)
    _check_member(m, n)
    return six_maps(m, n)[i - 1]


def _fix_counts_vectorized(n: int) -> tuple[int, int, int, int, int, int]:
    """The fixed-point counts of g1..g6 on IP(n), for n <= 10^7, each counted
    as the congruence that defines it on the members m: g1 fixes them all,
    g2 those with m^2 = 1, g3 those with 2m = 1, g4 and g5 those with
    m^2 - m + 1 = 0, g6 those with (1 - m)^2 = 1, that is m^2 = 2m.

    They read ``arith._half_units``, the half pass over x <= (n - 1)/2,
    whose low flags mark the members m = x and high flags the members
    m = n - x; g1 counts both.
    Each chunk takes t = x^2 mod n, also (n - x)^2 mod n, once, and counts
    each congruence by one int64 comparison with the low or high flags:
    m^2 = 1 at t = 1 on both halves; m = x solves m^2 - m + 1 = 0 at
    t = x - 1 and m^2 = 2m at t = 2x, m = n - x at t = n - 1 - x and
    t = n - 2x.  As x <= (n - 1)/2, both sides lie in [0, n), so each
    comparison is exact.  Only m = (n + 1)/2, the high member of the last
    x, solves 2m = 1.  No prime table, inverse or residue map is used, and
    no factorization but the pass's own trial division up to sqrt(n): the
    count shares no code with ``t_closed``."""
    import numpy as np

    if n == 1:
        return (1,) * 6  # IP(1) = {1}, fixed by every map
    if n % 2 == 0:
        return (0,) * 6  # x and x - 1 cannot both be odd

    def count(hit, flags):  # the members among flags at which hit holds
        hit &= flags
        return int(np.count_nonzero(hit))

    g1 = g2 = g45 = g6 = 0
    for x, low, high in _half_units(n):
        g1 += int(np.count_nonzero(low)) + int(np.count_nonzero(high))
        t = x * x  # x^2 < 10^14 fits int64
        t -= t // n * n  # t %= n, as numpy divides by a scalar faster
        g2 += count(t == 1, low) + count(t == 1, high)
        t -= x  # t = x - 1 and t = 2x, shifted by -x
        g45 += count(t == -1, low)
        g6 += count(t == x, low)
        t += 2 * x  # t = n - 1 - x and t = n - 2x, shifted by +x
        g45 += count(t == n - 1, high)
        t += x
        g6 += count(t == n, high)
    return g1, g2, int(high[-1]), g45, g45, g6


def fix_count_closed(i: int, n: int) -> int:
    """Closed-form count of the fixed points of g_i on IP(n), for odd n >= 1:
    imph(n) for g1, 1 for g2, g3 and g6, and rho(n) = ``arith.quad_root_count``
    for g4 and g5, whose fixed points are the roots of y^2 - y + 1 mod n."""
    _require(n >= 1, "n must be positive, got {}", n)
    _require(n % 2, "n must be odd, got {}", n)
    _require(i in range(1, 7), "map index must be 1..6, got {}", i)
    if i in (2, 3, 6):
        return 1
    f = _cached_factorization(n)
    return imph_from_factorization(f) if i == 1 else quad_root_count(f)


def _require_served(method: str, lo: int, hi: int) -> None:
    """The serving rule of the Burnside and geometric routes: refuse lo..hi on
    ``method`` ("burnside", "geometric", or "all", refused in the geometric
    route's name) if it holds an odd n past 10^7, their cap, or if its odd n,
    each costing about imph(n), sum past 10^7."""
    cap = IMPH_BRUTEFORCE_BOUND
    route = "Burnside" if method == "burnside" else "geometric"
    past = max(lo, cap + 1) | 1  # the least odd n past the cap
    _require(past > hi, "{} route capped at n = {}", route, cap)
    # the odd n up to y are the first (y + 1) // 2 odd numbers, which sum to its square
    work = ((hi + 1) // 2) ** 2 - (lo // 2) ** 2
    _require(work <= cap, "--method {} on {}..{} sums more than {} over its odd n",
             method, lo, hi, cap)


def t_burnside(n: int) -> int:
    """T(n) as the Burnside average of the fixed-point counts that
    ``_fix_counts_vectorized`` counts by their congruences, one array
    comparison each per chunk of the half pass, for odd n up to
    ``arith.IMPH_BRUTEFORCE_BOUND`` = 10^7.  The pass finds the primes of n by
    its own trial up to sqrt(n); the route reads no factorization, prime
    table, inverse or residue map, so it shares no code with ``t_closed``."""
    _require(n >= 1, "n must be positive, got {}", n)
    if n % 2 == 0:
        return 0
    _require_served("burnside", n, n)
    total = sum(_fix_counts_vectorized(n))
    msg = "fixed-point total {} not divisible by 6 at n={}"  # Burnside guarantees it
    _expect(total % 6 == 0, n, ("burnside",), msg, total, n)
    return total // 6


def t_closed(n: int) -> int:
    """T(n) = (imph(n) + 2 rho(n) + 3) / 6 from the prime factorization, where
    rho(n) = ``arith.quad_root_count`` counts the roots of y^2 - y + 1 mod n.

    This is Burnside's lemma with the closed fixed-point counts of
    ``fix_count_closed``: g1 fixes imph(n) members, g2, g3 and g6 one each,
    g4 and g5 rho(n) each.  Zero for even n.
    """
    _require(n >= 1, "n must be positive, got {}", n)
    if n % 2 == 0:
        return 0
    f = _cached_factorization(n)
    numerator = imph_from_factorization(f) + 2 * quad_root_count(f) + 3
    msg = "closed-form numerator {} not divisible by 6"
    _expect(numerator % 6 == 0, n, ("closed",), msg, numerator)
    return numerator // 6


class OrbitDecomposition(_Record):
    __slots__ = ("n", "orbits")

    def _validate(self, n: int, orbits: tuple[tuple[int, ...], ...]) -> None:
        if len(set().union(*orbits)) != sum(map(len, orbits)):
            raise ValueError("orbits overlap")
        for orbit in orbits:
            if 6 % len(orbit) != 0:
                raise ValueError(f"orbit size {len(orbit)} does not divide 6")

    @property
    def count(self) -> int:
        return len(self.orbits)


def orbit_decomposition(n: int) -> OrbitDecomposition:
    """Partition IP(n) into orbits of the six-map action.  The six images of
    m are its whole orbit, so each orbit is the sorted, distinct images of
    its key, the one member that is the least of its own images.

    The maps are checked closed on IP(n) by a member flag over 0..n, read at
    every image.  The keys' columns of the table are sorted at once, and the
    orbits come in the order of their keys; they must hold each member
    once.  Their count is checked against ``t_closed``, which catches maps
    that split or merge orbits of sizes dividing 6."""
    import numpy as np

    if n % 2 == 0 and n > 1:
        return OrbitDecomposition(n, ())
    _require(n <= GEOMETRIC_N_BOUND, "orbit decomposition capped at n = {}", GEOMETRIC_N_BOUND)
    members, table = six_map_table(n)
    is_member = np.zeros(n + 1, dtype=bool)
    is_member[members] = True
    _expect(is_member[table].all(), n, ("six-map",), "orbit escaped IP({})", n)
    cols = np.sort(table[:, table.min(axis=0) == members], axis=0).T  # one row per key
    new = np.ones(cols.shape, dtype=bool)
    new[:, 1:] = cols[:, 1:] != cols[:, :-1]  # the distinct images of each key
    images = cols[new]
    once = (np.bincount(images, minlength=n + 1)[members] == 1).all()
    _expect(once, n, ("six-map",), "orbits do not hold each member of IP({}) once", n)
    cuts = [0, *np.add.accumulate(new.sum(axis=1)).tolist()]
    flat = images.tolist()
    dec = OrbitDecomposition(n, tuple(tuple(flat[a:b]) for a, b in zip(cuts, cuts[1:])))
    closed = t_closed(n)
    msg = "{} orbits in IP({}), the closed form T = {}"
    _expect(dec.count == closed, n, ("six-map", "closed"), msg, dec.count, n, closed)
    return dec


def canonical_m(m: int, n: int) -> int:
    """Orbit representative: the least of g1(m)..g6(m), by ``lattice._orbit_min``
    and its cache; for n >= 3 it is the m of ``lattice.clean_key`` of (0,0),
    (1,0), (m,n)."""
    from .lattice import _orbit_min

    _check_member(m, n)
    return _orbit_min(m, n)


def t_geometric(n: int) -> int:
    """Geometric oracle for T(n), for odd n up to 10^7: the members m of IP(n)
    whose class key, the least base-form m over the six vertex orders of
    (0,0), (1,0), (m,n), is m itself; the identity order gives m, so each
    class has one.  The order (1,0), (0,0), (m,n) gives n + 1 - m, so
    ``lattice._least_keys`` keys only (n + 1)/2 and the low members of the
    half pass, ``lattice._KEYS_PER_CHUNK`` at a time, by extended Euclid on
    the edges alone: no residue map or modular inverse is used."""
    import numpy as np

    from .lattice import _KEYS_PER_CHUNK, _least_keys

    _require(n >= 1, "n must be positive, got {}", n)
    if n % 2 == 0:
        return 0
    _require_served("geometric", n, n)
    if n == 1:
        return 1  # IP(1) = {1}, keyed 0, and the pass holds no x
    half = np.array([(n + 1) // 2])  # n + 1 - m = m, past the pass's last x, (n - 1)/2
    classes = int(_least_keys(half, n)[0] == half[0])
    for x, low, _ in _half_units(n):
        members = x[low]
        for i in range(0, members.size, _KEYS_PER_CHUNK):
            part = members[i : i + _KEYS_PER_CHUNK]
            classes += int(np.count_nonzero(_least_keys(part, n) == part))
    return classes


class TCountReport(_Record):
    __slots__ = ("n", "t_closed", "t_burnside", "t_geometric", "fix_counts")

    def _validate(self, n: int, t_closed: int, t_burnside: int, t_geometric: int,
                  fix_counts: tuple[int, int, int, int, int, int]) -> None:
        for agree, routes in (
            (t_closed == t_burnside, ("closed", "burnside")),
            (t_closed == t_geometric, ("closed", "geometric")),
            (6 * t_burnside == sum(fix_counts), ("burnside", "fix-counts")),
        ):
            _expect(agree, n, routes, "{}/{} disagreement at n={}: {}", *routes, n, self)


def t_report(n: int) -> TCountReport:
    """T(n) by the closed form, the Burnside average and the geometric
    classes, cross-checked by ``TCountReport``, and each of the six
    fixed-point counts against ``fix_count_closed``.  n is checked first by
    ``_require_served``, before any work.  The fixed points are counted
    once, and their sum over 6 is the Burnside value.  The counts are
    checked before the routes, so a count that is off names its map even
    where it also breaks the Burnside total."""
    _require(n >= 1, "n must be positive, got {}", n)
    if n % 2 == 0:
        return TCountReport(n, 0, 0, 0, (0,) * 6)
    _require_served("all", n, n)
    fix = _fix_counts_vectorized(n)
    msg = "g{} fixes {} members of IP({}), the closed form {}"
    for i, count in enumerate(fix, 1):
        closed = fix_count_closed(i, n)
        _expect(count == closed, n, ("burnside", "closed"), msg, i, count, n, closed)
    return TCountReport(n, t_closed(n), sum(fix) // 6, t_geometric(n), fix)
