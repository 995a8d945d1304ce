"""Exact planar lattice geometry for triangle classification.

Triangles live on Z^2 and all predicates are exact integer arithmetic.
The key operation is the reduction of an arbitrary lattice triangle to a
base-form representative (0,0), (b,0), (m,h) by an affine unimodular map,
with the witness map returned alongside.  Clean triangles (boundary lattice
points = vertices only) reduce to b = 1.  Their equivalence test compares
the orbits of m under the six residue maps mod h (``arith.six_maps``), while
clean_key classifies them from the reduction alone, and clean_keys does the
same for every base-form clean triangle of one h at once, on arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

from .arith import InvariantViolation, extended_gcd, ip_members, six_maps

__all__ = [
    "DegenerateTriangleError",
    "LatticePoint",
    "LatticeTriangle",
    "AffineUnimodularMap",
    "BaseForm",
    "PickCounts",
    "ScottResult",
    "ScottScanReport",
    "twice_area",
    "boundary_count",
    "pick_counts",
    "interior_count_enum",
    "is_clean",
    "apply_map",
    "reduce_to_base_form",
    "equivalent_clean",
    "clean_key",
    "scott_check",
    "scott_exhaustive",
    "enumerate_clean",
    "clean_keys",
]

ENUM_BOX_BOUND = 10**8
SCOTT_SCAN_BOUND = 8
ENUMERATE_CLEAN_BOUND = 10**5


class DegenerateTriangleError(ValueError):
    """Raised when a triangle's vertices are collinear."""


@dataclass(frozen=True, order=True)
class LatticePoint:
    x: int
    y: int

    def __sub__(self, other: "LatticePoint") -> "LatticePoint":
        return LatticePoint(self.x - other.x, self.y - other.y)

    def __add__(self, other: "LatticePoint") -> "LatticePoint":
        return LatticePoint(self.x + other.x, self.y + other.y)


@dataclass(frozen=True)
class LatticeTriangle:
    v0: LatticePoint
    v1: LatticePoint
    v2: LatticePoint

    @classmethod
    def from_coords(cls, x0, y0, x1, y1, x2, y2) -> "LatticeTriangle":
        return cls(LatticePoint(x0, y0), LatticePoint(x1, y1), LatticePoint(x2, y2))

    @property
    def vertices(self) -> tuple[LatticePoint, LatticePoint, LatticePoint]:
        return (self.v0, self.v1, self.v2)

    def vertex_set(self) -> frozenset[LatticePoint]:
        return frozenset(self.vertices)


@dataclass(frozen=True)
class AffineUnimodularMap:
    """x -> M x + t with M = [[a, b], [c, d]], det M = +-1, integer t."""

    a: int
    b: int
    c: int
    d: int
    t: LatticePoint = LatticePoint(0, 0)

    def __post_init__(self) -> None:
        if self.det not in (1, -1):
            raise ValueError(f"matrix determinant must be +-1, got {self.det}")

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    @classmethod
    def identity(cls) -> "AffineUnimodularMap":
        return cls(1, 0, 0, 1)

    @classmethod
    def translation(cls, t: LatticePoint) -> "AffineUnimodularMap":
        return cls(1, 0, 0, 1, t)

    def apply(self, p: LatticePoint) -> LatticePoint:
        return LatticePoint(
            self.a * p.x + self.b * p.y + self.t.x,
            self.c * p.x + self.d * p.y + self.t.y,
        )

    def compose(self, other: "AffineUnimodularMap") -> "AffineUnimodularMap":
        """self after other: (self.compose(other))(p) = self(other(p))."""
        return AffineUnimodularMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
            LatticePoint(
                self.a * other.t.x + self.b * other.t.y + self.t.x,
                self.c * other.t.x + self.d * other.t.y + self.t.y,
            ),
        )

    def inverse(self) -> "AffineUnimodularMap":
        s = self.det  # +-1, so the adjugate scaled by s is the exact inverse
        ia, ib, ic, id_ = s * self.d, -s * self.b, -s * self.c, s * self.a
        return AffineUnimodularMap(
            ia,
            ib,
            ic,
            id_,
            LatticePoint(-(ia * self.t.x + ib * self.t.y), -(ic * self.t.x + id_ * self.t.y)),
        )


@dataclass(frozen=True)
class BaseForm:
    """Reduced triangle (0,0), (b,0), (m,h) with the base the richest edge."""

    b: int
    m: int
    h: int

    def __post_init__(self) -> None:
        if self.b <= 0 or self.h <= 0:
            raise ValueError(f"b and h must be positive: {self}")
        if not (0 <= self.m < self.h):
            raise ValueError(f"m must satisfy 0 <= m < h: {self}")
        if self.b < math.gcd(self.m, self.h) or self.b < math.gcd(self.m - self.b, self.h):
            raise ValueError(f"base edge carries fewer lattice points than a leg: {self}")

    def triangle(self) -> LatticeTriangle:
        return LatticeTriangle.from_coords(0, 0, self.b, 0, self.m, self.h)

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.b, self.m, self.h)


@dataclass(frozen=True)
class PickCounts:
    interior: int
    boundary: int
    twice_area: int

    def __post_init__(self) -> None:
        if self.twice_area != 2 * self.interior + self.boundary - 2:
            raise ValueError(f"Pick identity violated: {self}")


def twice_area(t: LatticeTriangle) -> int:
    """|cross product of two edge vectors|; raises on collinear vertices."""
    u = t.v1 - t.v0
    v = t.v2 - t.v0
    cross = u.x * v.y - u.y * v.x
    if cross == 0:
        raise DegenerateTriangleError(f"collinear vertices: {t.vertices}")
    return abs(cross)


def boundary_count(t: LatticeTriangle) -> int:
    """Lattice points on the three sides: sum of edge gcds."""
    twice_area(t)  # degeneracy check
    total = 0
    for p, q in ((t.v0, t.v1), (t.v1, t.v2), (t.v2, t.v0)):
        d = q - p
        total += math.gcd(abs(d.x), abs(d.y))
    return total


def _pick_interior(a2, b):
    """Interior count I = (2A - B + 2) / 2 by Pick's identity, from twice the
    area a2 and the boundary count b.  Works alike on ints and int64 arrays,
    and loads no numpy for ints."""
    twice_interior = a2 - b + 2
    odd = twice_interior % 2
    if odd.any() if hasattr(odd, "any") else odd:  # pragma: no cover
        msg = f"Pick parity violated: twice area {a2}, boundary {b}"
        raise InvariantViolation(msg, None, ("pick",))
    return twice_interior // 2


def pick_counts(t: LatticeTriangle) -> PickCounts:
    """Interior count via Pick's identity from the exact area and boundary."""
    a2 = twice_area(t)
    b = boundary_count(t)
    return PickCounts(_pick_interior(a2, b), b, a2)


def interior_count_enum(t: LatticeTriangle) -> int:
    """Oracle for Pick: count strictly interior lattice points by box scan."""
    import numpy as np

    twice_area(t)
    xs = [v.x for v in t.vertices]
    ys = [v.y for v in t.vertices]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if (x1 - x0 + 1) * (y1 - y0 + 1) > ENUM_BOX_BOUND:
        raise ValueError("bounding box too large for enumeration")
    gx, gy = np.meshgrid(
        np.arange(x0, x1 + 1, dtype=np.int64),
        np.arange(y0, y1 + 1, dtype=np.int64),
    )
    inside = np.ones(gx.shape, dtype=bool)
    verts = t.vertices
    # orientation sign so that "left of every edge" means strictly interior
    u = verts[1] - verts[0]
    v = verts[2] - verts[0]
    orient = 1 if u.x * v.y - u.y * v.x > 0 else -1
    for p, q in ((verts[0], verts[1]), (verts[1], verts[2]), (verts[2], verts[0])):
        cross = (q.x - p.x) * (gy - p.y) - (q.y - p.y) * (gx - p.x)
        inside &= orient * cross > 0
    return int(inside.sum())


def is_clean(t: LatticeTriangle) -> bool:
    """True when the only boundary lattice points are the three vertices."""
    return boundary_count(t) == 3


def apply_map(L: AffineUnimodularMap, t: LatticeTriangle) -> LatticeTriangle:
    return LatticeTriangle(L.apply(t.v0), L.apply(t.v1), L.apply(t.v2))


# --------------------------------------------------------------------------
# base-form reduction
# --------------------------------------------------------------------------


def _edge_gcd(p: LatticePoint, q: LatticePoint) -> int:
    d = q - p
    return math.gcd(abs(d.x), abs(d.y))


def _reduce_oriented(
    origin: LatticePoint, other: LatticePoint, apex: LatticePoint
) -> tuple[BaseForm, AffineUnimodularMap]:
    """Reduce with the base edge directed origin -> other.

    Steps: translate origin to (0,0); map the primitive base direction to
    (1,0) via an extended-Euclid companion row; flip into the upper half
    plane if needed; shear the apex x-coordinate into [0, h).
    """
    shift = AffineUnimodularMap.translation(LatticePoint(-origin.x, -origin.y))
    u = other - origin
    v = apex - origin
    g = math.gcd(abs(u.x), abs(u.y))
    w = LatticePoint(u.x // g, u.y // g)
    _, s, t = extended_gcd(w.x, w.y)
    # rows (s, t) and (-w.y, w.x): sends w -> (1, 0), determinant +1
    m0 = AffineUnimodularMap(s, t, -w.y, w.x)
    L = m0.compose(shift)
    a = L.apply(apex)
    if a.y < 0:
        L = AffineUnimodularMap(1, 0, 0, -1).compose(L)
        a = LatticePoint(a.x, -a.y)
    h = a.y
    q = a.x // h
    if q != 0:
        L = AffineUnimodularMap(1, -q, 0, 1).compose(L)
    m = a.x - q * h
    return BaseForm(g, m, h), L


def _reduce_once(t: LatticeTriangle) -> tuple[BaseForm, AffineUnimodularMap]:
    """Single reduction pass: pick a richest edge, reduce both directions.

    Ties between equally rich edges go to the lexicographically smallest
    sorted endpoint pair; of the two directions of the chosen edge the
    smaller (b, m, h) wins.
    """
    twice_area(t)
    verts = t.vertices
    edges = []
    for i, j in ((0, 1), (1, 2), (2, 0)):
        p, q = verts[i], verts[j]
        lo, hi = sorted((p, q))
        edges.append((-_edge_gcd(p, q), (lo.x, lo.y, hi.x, hi.y), lo, hi))
    edges.sort(key=lambda e: (e[0], e[1]))
    _, _, lo, hi = edges[0]
    apex = next(v for v in verts if v not in (lo, hi))
    best: tuple[BaseForm, AffineUnimodularMap] | None = None
    for origin, other in ((lo, hi), (hi, lo)):
        bf, L = _reduce_oriented(origin, other, apex)
        if best is None or bf.as_tuple() < best[0].as_tuple():
            best = (bf, L)
    return best


def reduce_to_base_form(t: LatticeTriangle) -> tuple[BaseForm, AffineUnimodularMap]:
    """Reduce t to (0,0), (b,0), (m,h) and return the witness map.

    Runs the single reduction pass until the (b, m, h) triples repeat and
    returns the smallest triple of that cycle.  The stabilization makes the
    operation idempotent: reducing an already-reduced triangle returns the
    same triple, even when several edges tie for the most lattice points.
    """
    seen: dict[tuple[int, int, int], int] = {}
    chain: list[tuple[BaseForm, AffineUnimodularMap]] = []
    cur = t
    L = AffineUnimodularMap.identity()
    while True:
        bf, step = _reduce_once(cur)
        L = step.compose(L)
        key = bf.as_tuple()
        if key in seen:
            cycle = chain[seen[key] :]
            break
        seen[key] = len(chain)
        chain.append((bf, L))
        cur = bf.triangle()
    bf, L = min(cycle, key=lambda pair: pair[0].as_tuple())
    image = apply_map(L, t)
    if image.vertex_set() != bf.triangle().vertex_set():  # pragma: no cover
        msg = f"witness map does not realize the base form for {t}"
        raise InvariantViolation(msg, bf.b * bf.h, ("reduction", "witness"))
    return bf, L


# --------------------------------------------------------------------------
# clean-triangle equivalence
# --------------------------------------------------------------------------


@lru_cache(maxsize=1 << 15)
def _orbit_min(m: int, h: int) -> int:
    return min(six_maps(m, h))


def _affine_map_between(
    t1: LatticeTriangle, t2: LatticeTriangle
) -> AffineUnimodularMap | None:
    """Search the six vertex bijections for a unimodular map t1 -> t2."""
    p0, p1, p2 = t1.vertices
    e1, e2 = p1 - p0, p2 - p0
    det = e1.x * e2.y - e1.y * e2.x
    w = t2.vertices
    for perm in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        q0, q1, q2 = (w[i] for i in perm)
        f1, f2 = q1 - q0, q2 - q0
        # M * [e1 e2] = [f1 f2]  =>  M = [f1 f2] * adj([e1 e2]) / det
        na = f1.x * e2.y - f2.x * e1.y
        nb = -f1.x * e2.x + f2.x * e1.x
        nc = f1.y * e2.y - f2.y * e1.y
        nd = -f1.y * e2.x + f2.y * e1.x
        if any(v % det for v in (na, nb, nc, nd)):
            continue
        a, b, c, d = (v // det for v in (na, nb, nc, nd))
        if a * d - b * c not in (1, -1):
            continue
        t = LatticePoint(q0.x - a * p0.x - b * p0.y, q0.y - c * p0.x - d * p0.y)
        L = AffineUnimodularMap(a, b, c, d, t)
        if apply_map(L, t1).vertex_set() == t2.vertex_set():
            return L
    return None


def equivalent_clean(
    t1: LatticeTriangle, t2: LatticeTriangle, with_witness: bool = False
):
    """Unimodular-equivalence test for clean triangles.

    Reduces both triangles to base form (b = 1 for clean input) and compares
    the minimal elements of the residue orbits of m mod h.  With
    ``with_witness=True`` returns (equivalent, map-or-None), the witness being
    found by an independent vertex-bijection search on the reduced forms.
    """
    for t in (t1, t2):
        if not is_clean(t):
            raise ValueError(f"equivalence test requires clean triangles: {t.vertices}")
    bf1, r1 = _reduce_cached(t1)
    bf2, r2 = _reduce_cached(t2)
    equivalent = False
    if bf1.h == bf2.h:
        h = bf1.h
        m1 = (bf1.m - 1) % h + 1
        m2 = (bf2.m - 1) % h + 1
        equivalent = _orbit_min(m1, h) == _orbit_min(m2, h)
    if not with_witness:
        return equivalent
    witness = None
    if equivalent:
        bridge = _affine_map_between(bf1.triangle(), bf2.triangle())
        if bridge is None:  # pragma: no cover - orbit test and search must agree
            msg = "orbit test succeeded but no witness map exists"
            raise InvariantViolation(msg, bf1.h, ("orbit", "witness"))
        witness = r2.inverse().compose(bridge).compose(r1)
        if apply_map(witness, t1).vertex_set() != t2.vertex_set():  # pragma: no cover
            msg = "composed witness map failed verification"
            raise InvariantViolation(msg, bf1.h, ("orbit", "witness"))
    return equivalent, witness


def clean_key(t: LatticeTriangle) -> tuple[int, int]:
    """Class key (h, m) of a clean triangle, from geometry alone.

    Each ordered vertex labeling (o, e, v) has one base form (0,0), (1,0),
    (m,h) with 0 <= m < h that takes o, e, v there in order; the key is the
    least of the six, so keys are equal exactly for equivalent triangles.
    """
    if not is_clean(t):
        raise ValueError(f"clean_key requires a clean triangle: {t.vertices}")
    bf = min(
        (_reduce_oriented(o, e, v)[0] for o, e, v in permutations(t.vertices)),
        key=BaseForm.as_tuple,
    )
    return bf.h, bf.m


# --------------------------------------------------------------------------
# Scott's inequality
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ScottResult:
    applicable: bool
    holds: bool
    equality: bool
    interior: int
    boundary: int


@dataclass(frozen=True)
class ScottScanReport:
    grid_bound: int
    checked: int
    violations: tuple[LatticeTriangle, ...]
    equality_cases: tuple[LatticeTriangle, ...]
    equality_base_forms: tuple[tuple[int, int, int], ...]


def scott_check(t: LatticeTriangle) -> ScottResult:
    """Evaluate B <= 2I + 7; not applicable when there is no interior point."""
    pc = pick_counts(t)
    if pc.interior < 1:
        return ScottResult(False, False, False, pc.interior, pc.boundary)
    holds = pc.boundary <= 2 * pc.interior + 7
    equality = pc.boundary == 2 * pc.interior + 7
    return ScottResult(True, holds, equality, pc.interior, pc.boundary)


def scott_exhaustive(grid_bound: int) -> ScottScanReport:
    """Scan every non-degenerate triangle with vertices in [0, grid_bound]^2.

    For each first vertex p, twice the area, the boundary gcds and Pick's
    interior count of every pair q < r after p are computed as arrays; only
    violations (expected: none) and equality cases become triangles, in
    ``itertools.combinations`` order, and only equality cases are reduced.
    The only equality class is the legs-3 right isosceles triangle, base
    form (3, 0, 3).
    """
    import numpy as np

    if grid_bound < 0:
        raise ValueError("grid bound must be nonnegative")
    if grid_bound > SCOTT_SCAN_BOUND:
        raise ValueError(f"scan capped at grid bound {SCOTT_SCAN_BOUND}")
    points = [
        LatticePoint(x, y)
        for x in range(grid_bound + 1)
        for y in range(grid_bound + 1)
    ]
    xs = np.array([p.x for p in points], dtype=np.int64)
    ys = np.array([p.y for p in points], dtype=np.int64)
    checked = 0
    violations: list[LatticeTriangle] = []
    equality: list[LatticeTriangle] = []
    for i in range(len(points) - 2):
        j, k = np.triu_indices(len(points) - 1 - i, 1)
        j += i + 1
        k += i + 1
        ux, uy, vx, vy = xs[j] - xs[i], ys[j] - ys[i], xs[k] - xs[i], ys[k] - ys[i]
        a2 = np.abs(ux * vy - uy * vx)
        b = np.gcd(ux, uy) + np.gcd(vx - ux, vy - uy) + np.gcd(vx, vy)
        interior = _pick_interior(a2, b)  # Pick's parity holds on collinear triples too
        applicable = (a2 > 0) & (interior >= 1)
        checked += int(applicable.sum())
        excess = b - (2 * interior + 7)
        for found, out in ((excess > 0, violations), (excess == 0, equality)):
            found &= applicable
            out += (
                LatticeTriangle(points[i], points[q], points[r])
                for q, r in zip(j[found].tolist(), k[found].tolist())
            )
    base_forms = tuple(reduce_to_base_form(t)[0].as_tuple() for t in equality)
    return ScottScanReport(grid_bound, checked, tuple(violations), tuple(equality), base_forms)


# --------------------------------------------------------------------------
# clean-triangle enumeration
# --------------------------------------------------------------------------


def enumerate_clean(h: int) -> list[LatticeTriangle]:
    """All base-form clean triangles (0,0), (1,0), (m,h) with m in IP(h).

    One triangle per member of IP(h); empty for even h.  These exhaust the
    clean triangles of twice-area h up to unimodular equivalence (with
    repetition across an orbit).
    """
    return [LatticeTriangle.from_coords(0, 0, 1, 0, m, h) for m in _clean_members(h).tolist()]


def _clean_members(h: int) -> np.ndarray:
    """The m of the base-form clean triangles (0,0), (1,0), (m,h): IP(h), as an
    increasing int64 array, empty for even h > 1."""
    if h < 1:
        raise ValueError(f"h must be positive, got {h}")
    if h > ENUMERATE_CLEAN_BOUND:
        raise ValueError(f"enumeration capped at {ENUMERATE_CLEAN_BOUND}")
    return ip_members(h)


def clean_keys(h: int) -> np.ndarray:
    """The m of ``clean_key`` for every triangle of ``enumerate_clean(h)``, in
    member order, as an int64 array: ``_reduce_oriented`` on whole arrays,
    ``_KEYS_PER_CHUNK`` members at a time, so that memory stays bounded."""
    import numpy as np

    members = _clean_members(h)
    keys = np.empty_like(members)
    for i in range(0, len(members), _KEYS_PER_CHUNK):
        keys[i : i + _KEYS_PER_CHUNK] = _least_keys(members[i : i + _KEYS_PER_CHUNK], h)
    return keys


# Members clean_keys reduces at once; the arrays of one chunk peak near 5 MB.
_KEYS_PER_CHUNK = 1 << 13


def _least_keys(members: np.ndarray, h: int) -> np.ndarray:
    """The least base-form m over the six vertex orders (o, e, v) of each
    triangle (0,0), (1,0), (m,h), m in ``members``.

    Extended Euclid, run on the three edges of every triangle at once, gives
    s u.x + t u.y = g for each edge u, and g = +-1 on a clean triangle; the
    reversed edge -u takes (-s, -t).  The base-form m of an order is
    g (s w.x + t w.y) mod h for its base edge u = e - o and w = v - o:
    another Bezout pair moves it by a multiple of h, and the flip into the
    upper half plane leaves it alone.  No residue map and no modular inverse
    is used.
    """
    import numpy as np

    corners = np.zeros((2, 3, len(members)), dtype=np.int64)  # x, y of (0,0), (1,0), (m,h)
    corners[0, 1], corners[0, 2], corners[1, 2] = 1, members, h
    r0, r1 = corners[:, [1, 2, 2]] - corners[:, [0, 0, 1]]  # edges 0->1, 0->2, 1->2
    s0, s1, t0, t1 = (np.full_like(r0, c) for c in (1, 0, 0, 1))
    # Each step maps (r0, r1) to (r1, r0 - q r1), and s and t alike, in place.
    # A finished entry, (g, 0) or (0, g), is masked to q = 0, so it only swaps.
    while np.logical_and(r0, r1).any():
        q = np.floor_divide(r0, r1, out=np.zeros_like(r0), where=r1 != 0)
        for a, b in ((r0, r1), (s0, s1), (t0, t1)):
            a -= q * b
        r0, r1, s0, s1, t0, t1 = r1, r0, s1, s0, t1, t0
    g, done = r0 + r1, r1 == 0
    if (np.abs(g) != 1).any():  # pragma: no cover - every edge of a clean triangle is primitive
        msg = f"an edge of a base-form triangle of twice-area {h} is not primitive"
        raise InvariantViolation(msg, h, ("geometric",))
    o, e, v = np.array(list(permutations(range(3)))).T
    edge, sign = o + e - 1, np.where(o < e, 1, -1)[:, None]
    s = np.where(done, s0, s1)[edge] * sign
    t = np.where(done, t0, t1)[edge] * sign
    s *= corners[0, v] - corners[0, o]
    t *= corners[1, v] - corners[1, o]
    s += t
    s *= g[edge]
    s %= h
    return s.min(axis=0)


@lru_cache(maxsize=4096)
def _reduce_cached(t: LatticeTriangle) -> tuple[BaseForm, AffineUnimodularMap]:
    return reduce_to_base_form(t)
