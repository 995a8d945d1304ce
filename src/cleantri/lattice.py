"""Exact planar lattice geometry for triangle classification.

Triangles live on Z^2 and all predicates are exact integer arithmetic.
The key operation is the reduction of an arbitrary lattice triangle to a
base-form representative (0,0), (b,0), (m,h) by an affine unimodular map,
with the witness map returned alongside.  ``_measure`` reads a triangle's
six ints once, for its area, its edge gcds and the collinear refusal; the
predicates, the reduction and the equivalence test run on what it returns,
as plain ints, and build records only for what a public function returns.
Clean triangles (boundary lattice points = vertices only) reduce to b = 1.
Their equivalence test compares the orbits of m under the six residue maps
mod h (``arith.six_maps``), while clean_key classifies them from the
reduction alone, and ``_least_keys`` does the same for many base-form
clean triangles of one h at once, on arrays, from three directed edges:
reversing an edge turns the key k of its order into 1 - k.
"""

from __future__ import annotations

import math
from functools import lru_cache, total_ordering
from itertools import permutations

from .arith import Refused, _expect, _Record, _require, extended_gcd, ip_members, six_maps

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
]

ENUM_BOX_BOUND = 10**8
SCOTT_SCAN_BOUND = 8


class DegenerateTriangleError(Refused):
    """Raised when a triangle's vertices are collinear; a refusal, so the CLI
    exits 2."""


@total_ordering
class LatticePoint(_Record):
    __slots__ = ("x", "y")

    def __lt__(self, other: "LatticePoint") -> bool:
        if other.__class__ is self.__class__:
            return (self.x, self.y) < (other.x, other.y)
        return NotImplemented

    def __sub__(self, other: "LatticePoint") -> "LatticePoint":
        return LatticePoint(self.x - other.x, self.y - other.y)


class LatticeTriangle(_Record):
    __slots__ = ("v0", "v1", "v2")

    @classmethod
    def from_coords(cls, x0, y0, x1, y1, x2, y2) -> "LatticeTriangle":
        return cls(LatticePoint(x0, y0), LatticePoint(x1, y1), LatticePoint(x2, y2))

    @property
    def vertices(self) -> tuple[LatticePoint, LatticePoint, LatticePoint]:
        return (self.v0, self.v1, self.v2)

    def vertex_set(self) -> frozenset[LatticePoint]:
        return frozenset(self.vertices)


class AffineUnimodularMap(_Record):
    """x -> M x + t with M = [[a, b], [c, d]], det M = +-1, integer t."""

    __slots__ = ("a", "b", "c", "d", "t")
    _defaults = {"t": LatticePoint(0, 0)}

    def _validate(self, a: int, b: int, c: int, d: int, t: LatticePoint) -> None:
        if (det := a * d - b * c) not in (1, -1):
            raise ValueError(f"matrix determinant must be +-1, got {det}")

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    @classmethod
    def identity(cls) -> "AffineUnimodularMap":
        return cls(1, 0, 0, 1)

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


class BaseForm(_Record):
    """Reduced triangle (0,0), (b,0), (m,h) with the base the richest edge."""

    __slots__ = ("b", "m", "h")

    def _validate(self, b: int, m: int, h: int) -> None:
        if b <= 0 or h <= 0:
            raise ValueError(f"b and h must be positive: {self}")
        if not (0 <= m < h):
            raise ValueError(f"m must satisfy 0 <= m < h: {self}")
        if b < math.gcd(m, h) or b < math.gcd(m - b, h):
            raise ValueError(f"base edge carries fewer lattice points than a leg: {self}")

    def triangle(self) -> LatticeTriangle:
        return LatticeTriangle.from_coords(0, 0, self.b, 0, self.m, self.h)

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.b, self.m, self.h)


class PickCounts(_Record):
    __slots__ = ("interior", "boundary", "twice_area")

    def _validate(self, interior: int, boundary: int, twice_area: int) -> None:
        if twice_area != 2 * interior + boundary - 2:
            raise ValueError(f"Pick identity violated: {self}")


def _measure(t: LatticeTriangle):
    """The corners of t as int pairs, twice its area and the gcds of the
    edges v0v1, v1v2, v2v0, from one read; the one collinear refusal."""
    (x0, y0), (x1, y1), (x2, y2) = corners = (t.v0.x, t.v0.y), (t.v1.x, t.v1.y), (t.v2.x, t.v2.y)
    cross = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
    if cross == 0:
        raise DegenerateTriangleError(f"collinear vertices: {t.vertices}")
    gcds = math.gcd(x1 - x0, y1 - y0), math.gcd(x2 - x1, y2 - y1), math.gcd(x0 - x2, y0 - y2)
    return corners, abs(cross), gcds


def twice_area(t: LatticeTriangle) -> int:
    """|cross product of two edge vectors|; raises on collinear vertices."""
    return _measure(t)[1]


def boundary_count(t: LatticeTriangle) -> int:
    """Lattice points on the three sides: sum of edge gcds."""
    return sum(_measure(t)[2])


def _pick_interior(a2, b):
    """Interior count I = (2A - B + 2) / 2 by Pick's identity, from twice the
    area a2 and the boundary count b.  Works alike on ints and int64 arrays,
    and loads no numpy for ints."""
    twice_interior = a2 - b + 2
    odd = twice_interior % 2
    odd = odd.any() if hasattr(odd, "any") else odd
    _expect(not odd, None, ("pick",), "Pick parity violated: twice area {}, boundary {}", a2, b)
    return twice_interior // 2


def pick_counts(t: LatticeTriangle) -> PickCounts:
    """Interior count via Pick's identity from the exact area and boundary."""
    _, a2, gcds = _measure(t)
    b = sum(gcds)
    return PickCounts(_pick_interior(a2, b), b, a2)


def interior_count_enum(t: LatticeTriangle) -> int:
    """Oracle for Pick: count strictly interior lattice points by box scan."""
    import numpy as np

    twice_area(t)
    xs = [v.x for v in t.vertices]
    ys = [v.y for v in t.vertices]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    box = (x1 - x0 + 1) * (y1 - y0 + 1)
    _require(box <= ENUM_BOX_BOUND, "bounding box too large for enumeration")
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
    return _measure(t)[2] == (1, 1, 1)


def apply_map(L: AffineUnimodularMap, t: LatticeTriangle) -> LatticeTriangle:
    return LatticeTriangle(L.apply(t.v0), L.apply(t.v1), L.apply(t.v2))


# --------------------------------------------------------------------------
# base-form reduction
# --------------------------------------------------------------------------


def _reduce_oriented(
    ox: int, oy: int, ex: int, ey: int, vx: int, vy: int
) -> tuple[tuple[int, int, int], tuple[int, int, int, int, int, int]]:
    """Reduce with the base edge directed from the origin o to the end e,
    the third vertex v the apex, all on plain ints: returns the base form
    (b, m, h) and the map (a, b, c, d, tx, ty), x -> [[a, b], [c, d]] x + t.

    The map is built in one step.  With the primitive base direction w and
    an extended-Euclid pair s w.x + t w.y = 1, its rows are (s, t) and
    +-(-w.y, w.x), the sign putting the apex in the upper half plane; the
    first row is then sheared by -q to bring the apex x-coordinate into
    [0, h), and the translation is -M o.
    """
    ux, uy = ex - ox, ey - oy
    vx, vy = vx - ox, vy - oy
    g = math.gcd(ux, uy)
    wx, wy = ux // g, uy // g
    _, s, t = extended_gcd(wx, wy)
    c, d = -wy, wx
    h = c * vx + d * vy
    if h < 0:
        c, d, h = -c, -d, -h
    x = s * vx + t * vy
    q = x // h
    a, b = s - q * c, t - q * d
    return (g, x - q * h, h), (a, b, c, d, -(a * ox + b * oy), -(c * ox + d * oy))


def _map_record(L: tuple[int, int, int, int, int, int]) -> AffineUnimodularMap:
    a, b, c, d, tx, ty = L
    return AffineUnimodularMap(a, b, c, d, LatticePoint(tx, ty))


def _base_form(corners: tuple, gcds: tuple[int, int, int]) -> tuple[tuple, tuple]:
    """The body of ``reduce_to_base_form`` on the corners and edge gcds of
    ``_measure``: returns (b, m, h) and the map's six ints."""
    p0, p1, p2 = corners
    _, lo, hi = min((-g, *sorted(e)) for g, e in zip(gcds, ((p0, p1), (p1, p2), (p2, p0))))
    apex = next(p for p in corners if p not in (lo, hi))
    orders = (_reduce_oriented(*lo, *hi, *apex), _reduce_oriented(*hi, *lo, *apex))
    bf, L = min(orders, key=lambda pair: pair[0])
    (base, m, h), (a, b, c, d, tx, ty) = bf, L
    images = {(a * x + b * y + tx, c * x + d * y + ty) for x, y in corners}
    _expect(images == {(0, 0), (base, 0), (m, h)}, base * h,
            ("reduction", "witness"), "witness map does not realize the base form for {}", corners)
    return bf, L


# Serves ``equivalent_clean`` alone: ``reduce_to_base_form`` runs its witness check every call.
_reduce_cached = lru_cache(maxsize=4096)(_base_form)


def reduce_to_base_form(t: LatticeTriangle) -> tuple[BaseForm, AffineUnimodularMap]:
    """Reduce t to (0,0), (b,0), (m,h) and return the witness map.

    One pass on the six ints of t, which builds records only for its
    result: the base is a richest edge, ties going to the lexicographically
    smallest sorted endpoint pair, and of its two directions the smaller
    (b, m, h) wins, the direction lo -> hi on a tie.  The pass is
    idempotent.  The triple of an oriented edge and its apex is invariant
    under unimodular maps, so the base edge (0,0)-(b,0) of a base form
    gives back the same two triples, and it wins every tie of (0,0), (b,0),
    (m,h) except in (b, 0, b), where the edge (0,0)-(0,b) sorts first and
    gives the same triple (b, 0, b).  The witness map must take the three
    vertices onto (0,0), (b,0), (m,h).
    """
    corners, _, gcds = _measure(t)
    bf, L = _base_form(corners, gcds)
    return BaseForm(*bf), _map_record(L)


# --------------------------------------------------------------------------
# clean-triangle equivalence
# --------------------------------------------------------------------------


@lru_cache(maxsize=1 << 15)
def _orbit_min(m: int, h: int) -> int:
    return min(six_maps(m, h))


def equivalent_clean(t1: LatticeTriangle, t2: LatticeTriangle, with_witness: bool = False):
    """Unimodular-equivalence test for clean triangles.

    Reduces both triangles to base form (b = 1 for clean input) and compares
    the minimal elements of the residue orbits of m mod h.  With
    ``with_witness=True`` returns (equivalent, map-or-None).  The witness
    comes from the same reduction, with no residue map: the first vertex
    order of the second base form that ``_reduce_oriented`` takes to the
    first base form gives the one affine map between them, in that order,
    and its inverse bridges the two reductions.
    """
    clean = []
    for t in (t1, t2):
        corners, _, gcds = _measure(t)
        _require(gcds == (1, 1, 1), "equivalence test requires clean triangles: {}", t.vertices)
        clean.append(corners)
    (bf1, r1), (bf2, r2) = (_reduce_cached(c, (1, 1, 1)) for c in clean)
    (_, m1, h), (b2, m2, h2) = bf1, bf2
    equivalent = h == h2 and _orbit_min((m1 - 1) % h + 1, h) == _orbit_min((m2 - 1) % h + 1, h)
    if not with_witness:
        return equivalent
    witness = None
    if equivalent:
        corners = ((0, 0), (b2, 0), (m2, h))
        orders = (_reduce_oriented(*o, *e, *v) for o, e, v in permutations(corners))
        bridge = next((L for bf, L in orders if bf == bf1), None)
        msg = "orbit test succeeded but no witness map exists"  # the two must agree
        _expect(bridge is not None, h, ("orbit", "witness"), msg)
        bridge, r1, r2 = map(_map_record, (bridge, r1, r2))
        witness = r2.inverse().compose(bridge.inverse()).compose(r1)
        ok = apply_map(witness, t1).vertex_set() == t2.vertex_set()
        _expect(ok, h, ("orbit", "witness"), "composed witness map failed verification")
    return equivalent, witness


def clean_key(t: LatticeTriangle) -> tuple[int, int]:
    """Class key (h, m) of a clean triangle, from geometry alone.

    Each ordered vertex labeling (o, e, v) has one base form (0,0), (1,0),
    (m,h) with 0 <= m < h that takes o, e, v there in order; the key is the
    least of the six, so keys are equal exactly for equivalent triangles.
    """
    corners, _, gcds = _measure(t)
    _require(gcds == (1, 1, 1), "clean_key requires a clean triangle: {}", t.vertices)
    _, m, h = min(_reduce_oriented(*o, *e, *v)[0] for o, e, v in permutations(corners))
    return h, m


# --------------------------------------------------------------------------
# Scott's inequality
# --------------------------------------------------------------------------


class ScottResult(_Record):
    __slots__ = ("applicable", "holds", "equality", "interior", "boundary")


class ScottScanReport(_Record):
    __slots__ = ("grid_bound", "checked", "violations", "equality_cases", "equality_base_forms")


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

    _require(grid_bound >= 0, "grid bound must be nonnegative")
    _require(grid_bound <= SCOTT_SCAN_BOUND, "scan capped at grid bound {}", SCOTT_SCAN_BOUND)
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
    return [LatticeTriangle.from_coords(0, 0, 1, 0, m, h) for m in ip_members(h).tolist()]


# Members a caller of ``_least_keys`` reduces at once; the arrays of one call
# peak near 1.4 MB traced.
_KEYS_PER_CHUNK = 1 << 13


def _least_keys(members: np.ndarray, h: int) -> np.ndarray:
    """The least base-form m over the six vertex orders of each triangle
    (0,0), (1,0), (m,h), m in ``members``: the m of ``clean_key``, on whole
    arrays.

    Extended Euclid, run on the edges (m,h) and (m-1,h) of every triangle
    at once, gives s u.x + t u.y = 1 for each edge u, as the edges of a
    clean triangle are primitive and these have no negative coordinate; the
    third edge (1,0) has s = 1 before any step.  The order with base edge
    u = e - o has base-form m = k mod h, k = s w.x + t w.y for w = v - o:
    another Bezout pair moves it by a multiple of h, and the flip into the
    upper half plane leaves it alone; as w.y is 0 or +-h, only s is carried.
    The reversed edge -u has the pair (-s, -t) and w - u, so its order
    gives -k + s u.x + t u.y = 1 - k, and the edges 0->1, 0->2 and 1->2
    give all six keys.  No residue map and no modular inverse is used.
    """
    import numpy as np

    # Euclid runs on the edges 0->2 and 1->2, (x, y) = (r0, r1).  Each step
    # maps (r0, r1) to (r1, r0 - q r1), and s alike, in place.  A finished
    # entry, (g, 0) or (0, g), is masked to q = 0, so it only swaps.
    r0 = np.array((members, members - 1), dtype=np.int64)
    r1 = np.full_like(r0, h)
    s0, s1 = np.ones_like(r0), np.zeros_like(r0)
    while np.logical_and(r0, r1).any():
        q = np.floor_divide(r0, r1, out=np.zeros_like(r0), where=r1 != 0)
        r0 -= q * r1
        s0 -= q * s1
        r0, r1, s0, s1 = r1, r0, s1, s0
    msg = "an edge of a base-form triangle of twice-area {} is not primitive"
    _expect((r0 + r1 == 1).all(), h, ("geometric",), msg, h)
    s = np.where(r1 == 0, s0, s1)
    # k = s (v.x - o.x) on 0->1 (s = 1, apex m), 0->2 (apex 1) and 1->2 (apex 0)
    k = np.stack((members, s[0], -s[1]))
    k %= h
    return np.minimum(k, (1 - k) % h).min(axis=0)
