"""Independent routes that the benchmark checks the library's outputs against.

Nothing here imports cleantri.  Each function reaches its answer by a
different algorithm from the library route it checks:

- factorization: trial division by primes below 1000, then Pollard rho with
  Floyd cycle detection (the library uses trial division to 10^5 and Brent);
- T(n): the Burnside average with the fixed-point counts in closed form,
  (imph(n) + 3 + 2 r(n)) / 6 with r(n) the number of roots of x^2 - x + 1
  mod n (the library's closed route is a three-case formula);
- sieve tables: verified by induction on n through the smallest prime
  factor, block by block, so a whole 10^7 table is checked in bounded memory;
- equivalence of clean triangles: a purely geometric canonical key (the
  library compares orbits of m under the six residue maps);
- Pick and Scott: interior points counted by scanning the bounding box.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)  # deterministic below 3.3e24


def primes_below(limit: int) -> list[int]:
    """Primes p < limit by a plain Eratosthenes sieve over a bytearray."""
    if limit < 3:
        return []
    mark = bytearray([1]) * limit
    mark[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit - 1) + 1):
        if mark[p]:
            mark[p * p :: p] = bytearray(len(range(p * p, limit, p)))
    return [p for p in range(limit) if mark[p]]


_SMALL_PRIMES = primes_below(1000)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    """A nontrivial divisor of an odd composite n (Pollard rho, Floyd cycle)."""
    for c in range(1, 200):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(x - y, n)
        if d != n:
            return d
    raise ArithmeticError(f"rho found no divisor of {n}")


def factor(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = _rho(m)
            stack += [d, m // d]
    return dict(sorted(out.items()))


def imph(n: int) -> int:
    value = 1
    for p, e in factor(n).items():
        value *= p ** (e - 1) * (p - 2)
    return value


def quad_root_count(n: int) -> int:
    """Roots of x^2 - x + 1 mod odd n, multiplied over the prime powers."""
    count = 1
    for p, e in factor(n).items():
        if p == 3:
            count *= 1 if e == 1 else 0
        else:
            count *= 2 if p % 6 == 1 else 0
    return count


def t_count(n: int) -> int:
    """T(n) as the Burnside average: Fix(g1) = imph(n), Fix(g2) = Fix(g3) =
    Fix(g6) = 1 and Fix(g4) = Fix(g5) = r(n) on odd n; zero on even n."""
    if n % 2 == 0:
        return 0
    total = imph(n) + 3 + 2 * quad_root_count(n)
    if total % 6:
        raise ArithmeticError(f"Burnside total {total} not divisible by 6 at n={n}")
    return total // 6


# --------------------------------------------------------------------------
# whole-table checks
# --------------------------------------------------------------------------


def check_tables(
    x: int, imph_table: np.ndarray, t_table: np.ndarray, bounds: list[int], block: int = 1 << 18
) -> tuple[list[str], list[str], dict[int, int]]:
    """Verify imph and T tables for n <= x by induction on n.

    With p the smallest prime factor of n and m = n / p:
      imph(n) = imph(m) * (p if p | m else p - 2);
      on odd n, R(n) = 6 T(n) - imph(n) - 3 = 2 r(n) is multiplicative in r,
      so R(n) = R(m) * c with c = 2 for p = 1 mod 6 and p not dividing m,
      c = 1 for p = 1 mod 6 dividing m and for p = 3 not dividing m, else 0.
    imph(1) = T(1) = 1 anchor the induction, so the whole table is proved
    equal to the true values.  Omega(n) = Omega(m) + 1 along the way gives
    sum_{n <= b} 2^Omega(n) for each b in bounds.
    Returns (imph errors, T errors, sums).
    """
    im_err: list[str] = []
    t_err: list[str] = []
    for name, table, errs in (("imph", imph_table, im_err), ("T", t_table, t_err)):
        if table.shape != (x + 1,):
            errs.append(f"{name} table shape {table.shape} != ({x + 1},)")
        elif (int(table[0]), int(table[1])) != (0, 1):
            errs.append(f"{name} table does not start 0, 1")
    if im_err or t_err:
        return im_err, t_err, {}
    small = np.array(primes_below(math.isqrt(x) + 1), dtype=np.int64)
    big_omega = np.zeros(x + 1, dtype=np.int8)
    running = 1  # n = 1 contributes 2^0
    sums = {b: 1 for b in bounds if b == 1}
    lo = 2
    while lo <= x:
        # hi <= 2 lo keeps every m = n / p below the block, already filled in
        hi = min(2 * lo, lo + block, x + 1)
        n = np.arange(lo, hi, dtype=np.int64)
        spf = np.zeros(hi - lo, dtype=np.int64)
        for q in small[::-1].tolist():  # descending: the smallest factor is written last
            if q * q >= hi:
                continue
            start = max(q * q, -(-lo // q) * q)
            spf[start - lo :: q] = q
        p = np.where(spf == 0, n, spf)
        m = n // p
        repeated = m % p == 0
        im = imph_table[lo:hi]
        bad = np.flatnonzero(im != imph_table[m] * np.where(repeated, p, p - 2))
        if bad.size:
            im_err.append(f"imph table wrong at n={lo + int(bad[0])} ({bad.size} in block)")
        t = t_table[lo:hi]
        odd = (n & 1) == 1
        if t[~odd].any():
            t_err.append(f"T table nonzero at an even n in [{lo}, {hi})")
        r_n = 6 * t - im - 3
        r_m = 6 * t_table[m] - imph_table[m] - 3
        c = np.where(
            p == 3, np.where(repeated, 0, 1), np.where(p % 6 == 1, np.where(repeated, 1, 2), 0)
        )
        bad = np.flatnonzero(odd & (r_n != r_m * c))
        if bad.size:
            t_err.append(f"T table wrong at n={lo + int(bad[0])} ({bad.size} in block)")
        big_omega[lo:hi] = big_omega[m] + 1
        pow2 = np.left_shift(np.int64(1), big_omega[lo:hi].astype(np.int64))
        for b in bounds:
            if lo <= b < hi:
                sums[b] = running + int(pow2[: b - lo + 1].sum())
        running += int(pow2.sum())
        lo = hi
    return im_err, t_err, sums


# --------------------------------------------------------------------------
# lattice geometry
# --------------------------------------------------------------------------

Point = tuple[int, int]


def cross(a: Point, b: Point, c: Point) -> int:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def boundary_points(tri: tuple[Point, Point, Point]) -> int:
    a, b, c = tri
    return sum(math.gcd(q[0] - p[0], q[1] - p[1]) for p, q in ((a, b), (b, c), (c, a)))


def interior_points_scan(tri: tuple[Point, Point, Point]) -> int:
    """Strictly interior lattice points, by testing every point of the box."""
    a, b, c = tri
    sign = 1 if cross(a, b, c) > 0 else -1
    xs = [v[0] for v in tri]
    ys = [v[1] for v in tri]
    count = 0
    for px in range(min(xs), max(xs) + 1):
        for py in range(min(ys), max(ys) + 1):
            q = (px, py)
            if sign * cross(a, b, q) > 0 and sign * cross(b, c, q) > 0 and sign * cross(c, a, q) > 0:
                count += 1
    return count


def apply_affine(mat: tuple[int, int, int, int], shift: Point, p: Point) -> Point:
    a, b, c, d = mat
    return (a * p[0] + b * p[1] + shift[0], c * p[0] + d * p[1] + shift[1])


def maps_onto(mat, shift, src, dst) -> bool:
    """True when x -> mat x + shift is unimodular and carries src onto dst."""
    a, b, c, d = mat
    if a * d - b * c not in (1, -1):
        return False
    return {apply_affine(mat, shift, v) for v in src} == set(dst)


def clean_key(tri: tuple[Point, Point, Point]) -> tuple[int, int]:
    """Canonical key (h, m) of a clean triangle, from geometry alone.

    For each of the six ordered labelings (P0, P1, P2): move P0 to the
    origin, send the primitive edge P1 - P0 to (1, 0), reflect the apex into
    the upper half plane and shear it into 0 <= m < h.  The key takes the
    least m; two clean triangles are equivalent iff their keys are equal.
    """
    best = None
    for p0, p1, p2 in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        o, e, v = tri[p0], tri[p1], tri[p2]
        ex, ey = e[0] - o[0], e[1] - o[1]
        vx, vy = v[0] - o[0], v[1] - o[1]
        # Bezout pair s * ex + t * ey = 1 (the edge is primitive on a clean triangle)
        r0, r1, s0, s1, t0, t1 = ex, ey, 1, 0, 0, 1
        while r1:
            q = r0 // r1
            r0, r1, s0, s1, t0, t1 = r1, r0 - q * r1, s1, s0 - q * s1, t1, t0 - q * t1
        if r0 < 0:
            r0, s0, t0 = -r0, -s0, -t0
        if r0 != 1:
            raise ValueError(f"edge {(ex, ey)} is not primitive: triangle is not clean")
        ax, ay = s0 * vx + t0 * vy, -ey * vx + ex * vy
        h = abs(ay)
        key = (h, ax % h)
        if best is None or key < best:
            best = key
    return best


def scott_grid_counts(grid: int) -> tuple[int, int, int]:
    """(triangles with I >= 1, Scott violations, equality cases) over every
    non-degenerate triangle with vertices in [0, grid]^2, by Pick's theorem."""
    pts = [(x, y) for x in range(grid + 1) for y in range(grid + 1)]
    idx = np.array(list(combinations(range(len(pts)), 3)), dtype=np.int64)
    xy = np.array(pts, dtype=np.int64)
    a, b, c = xy[idx[:, 0]], xy[idx[:, 1]], xy[idx[:, 2]]
    area2 = np.abs((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))
    bnd = sum(np.gcd(q[:, 0] - p[:, 0], q[:, 1] - p[:, 1]) for p, q in ((a, b), (b, c), (c, a)))
    keep = area2 > 0
    interior = (area2 - bnd + 2) // 2
    applicable = keep & (interior >= 1)
    return (
        int(applicable.sum()),
        int((applicable & (bnd > 2 * interior + 7)).sum()),
        int((applicable & (bnd == 2 * interior + 7)).sum()),
    )
