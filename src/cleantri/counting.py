"""Burnside machinery on IP(n) and the class-counting function T(n).

The six residue maps come from relabeling the vertices of the base-form
triangle (0,0), (1,0), (m,n); they form a group of order 6 acting on IP(n).
Everything here is built on their one kernel, ``arith.six_maps`` and
``arith.six_map_table``.  T(n), the number of equivalence classes of clean
triangles of twice-area n, is computed three ways that share no formula: a
closed form from the prime factorization, the Burnside average of the
fixed-point counts read off the kernel's table, and the distinct class keys
of the base-form clean triangles, ``lattice.clean_keys``, which reduces all
of them at once on arrays by extended Euclid.  The two oracle routes serve
odd n up to 10^5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .arith import (
    InvariantViolation,
    _cached_factorization,
    imph_from_factorization,
    quad_root_count,
    six_map_table,
    six_maps,
)
from .lattice import _orbit_min, clean_keys

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

BRUTEFORCE_N_BOUND = 10**5
GEOMETRIC_N_BOUND = BRUTEFORCE_N_BOUND


def _check_member(m: int, n: int) -> None:
    if not (1 <= m <= n) or math.gcd(m, n) != 1 or math.gcd(m - 1, n) != 1:
        raise ValueError(f"{m} is not in IP({n})")


def map_g(i: int, m: int, n: int) -> int:
    """The i-th residue map (i = 1..6) of ``arith.six_maps`` applied to m in
    IP(n); result in [1, n]."""
    if i not in range(1, 7):
        raise ValueError(f"map index must be 1..6, got {i}")
    _check_member(m, n)
    return six_maps(m, n)[i - 1]


@lru_cache(maxsize=1 << 15)
def _fix_counts_vectorized(n: int) -> tuple[int, int, int, int, int, int]:
    """The fixed-point counts of g1..g6 on IP(n): the members each row of
    the kernel's table leaves in place, counted in numpy; the table itself
    is built by whole-array arithmetic with no factorization."""
    members, table = six_map_table(n)
    return tuple(int(c) for c in (table == members).sum(axis=1))


def fix_count_closed(i: int, n: int) -> int:
    """Closed-form count of the fixed points of g_i on IP(n), for odd n >= 1:
    imph(n) for g1, 1 for g2, g3 and g6, and rho(n) = ``arith.quad_root_count``
    for g4 and g5, whose fixed points are the roots of y^2 - y + 1 mod n."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n % 2 == 0:
        raise ValueError(f"n must be odd, got {n}")
    if i not in range(1, 7):
        raise ValueError(f"map index must be 1..6, got {i}")
    if i in (2, 3, 6):
        return 1
    f = _cached_factorization(n)
    return imph_from_factorization(f) if i == 1 else quad_root_count(f)


def t_burnside(n: int) -> int:
    """T(n) as the Burnside average of the fixed-point counts that
    ``_fix_counts_vectorized`` reads off the six-map table of all of IP(n),
    for odd n up to 10^5; it uses no factorization, so it shares nothing
    with ``t_closed``."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n % 2 == 0:
        return 0
    if n > BRUTEFORCE_N_BOUND:
        raise ValueError(f"Burnside route capped at n = {BRUTEFORCE_N_BOUND}")
    total = sum(_fix_counts_vectorized(n))
    if total % 6 != 0:  # pragma: no cover - Burnside guarantees divisibility
        msg = f"fixed-point total {total} not divisible by 6 at n={n}"
        raise InvariantViolation(msg, n, ("burnside",))
    return total // 6


def t_closed(n: int) -> int:
    """T(n) = (imph(n) + 2 rho(n) + 3) / 6 from the prime factorization, where
    rho(n) = ``arith.quad_root_count`` counts the roots of y^2 - y + 1 mod n.

    This is Burnside's lemma with the closed fixed-point counts of
    ``fix_count_closed``: g1 fixes imph(n) members, g2, g3 and g6 one each,
    g4 and g5 rho(n) each.  Zero for even n.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n % 2 == 0:
        return 0
    f = _cached_factorization(n)
    numerator = imph_from_factorization(f) + 2 * quad_root_count(f) + 3
    if numerator % 6 != 0:  # pragma: no cover
        msg = f"closed-form numerator {numerator} not divisible by 6"
        raise InvariantViolation(msg, n, ("closed",))
    return numerator // 6


@dataclass(frozen=True)
class OrbitDecomposition:
    n: int
    orbits: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        flat = sorted(x for orbit in self.orbits for x in orbit)
        if flat != sorted(set(flat)):
            raise ValueError("orbits overlap")
        for orbit in self.orbits:
            if 6 % len(orbit) != 0:
                raise ValueError(f"orbit size {len(orbit)} does not divide 6")

    @property
    def count(self) -> int:
        return len(self.orbits)


def orbit_decomposition(n: int) -> OrbitDecomposition:
    """Partition IP(n) into orbits of the six-map action, grouping members by
    the least of their six images (the six images of m are its whole orbit)."""
    import numpy as np

    if n % 2 == 0 and n > 1:
        return OrbitDecomposition(n, ())
    if n > BRUTEFORCE_N_BOUND:
        raise ValueError(f"orbit decomposition capped at n = {BRUTEFORCE_N_BOUND}")
    members, table = six_map_table(n)
    if not np.isin(table, members).all():  # pragma: no cover - maps are closed on IP(n)
        raise InvariantViolation(f"orbit escaped IP({n})", n, ("six-map",))
    keys = table.min(axis=0)
    order = np.argsort(keys, kind="stable")
    cuts = np.flatnonzero(np.diff(keys[order])) + 1
    orbits = tuple(tuple(o.tolist()) for o in np.split(members[order], cuts))
    return OrbitDecomposition(n, orbits)


def canonical_m(m: int, n: int) -> int:
    """Orbit representative: the least of g1(m)..g6(m), by ``lattice._orbit_min``
    and its cache; for n >= 3 it is the m of ``lattice.clean_key`` of (0,0),
    (1,0), (m,n)."""
    _check_member(m, n)
    return _orbit_min(m, n)


def t_geometric(n: int) -> int:
    """Geometric oracle for T(n): the number of distinct ``lattice.clean_keys``,
    the least base-form m over the six vertex orders of each base-form clean
    triangle, for odd n up to 10^5.  The keys come from extended Euclid on
    the triangles' edges alone, so no residue map or modular inverse is used."""
    import numpy as np

    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n % 2 == 0:
        return 0
    if n > GEOMETRIC_N_BOUND:
        raise ValueError(f"geometric route capped at n = {GEOMETRIC_N_BOUND}")
    return int(np.count_nonzero(np.bincount(clean_keys(n))))


@dataclass(frozen=True)
class TCountReport:
    n: int
    t_closed: int
    t_burnside: int
    t_geometric: int
    fix_counts: tuple[int, int, int, int, int, int]

    def __post_init__(self) -> None:
        for agree, routes in (
            (self.t_closed == self.t_burnside, ("closed", "burnside")),
            (self.t_closed == self.t_geometric, ("closed", "geometric")),
            (6 * self.t_burnside == sum(self.fix_counts), ("burnside", "fix-counts")),
        ):
            if not agree:
                msg = f"{routes[0]}/{routes[1]} disagreement at n={self.n}: {self}"
                raise InvariantViolation(msg, self.n, routes)


def t_report(n: int) -> TCountReport:
    """T(n) by the closed form, the Burnside average and the geometric
    classes, cross-checked by ``TCountReport``.  ``t_burnside`` checks n, and
    its cap, which the geometric route shares, first, before any table is
    built."""
    burnside = t_burnside(n)
    if n % 2 == 0:
        return TCountReport(n, 0, 0, 0, (0,) * 6)
    return TCountReport(n, t_closed(n), burnside, t_geometric(n), _fix_counts_vectorized(n))
