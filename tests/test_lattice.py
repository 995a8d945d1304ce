import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cleantri.arith import ip_members
from cleantri.counting import canonical_m
from cleantri.lattice import (
    AffineUnimodularMap,
    BaseForm,
    DegenerateTriangleError,
    LatticePoint,
    LatticeTriangle,
    apply_map,
    boundary_count,
    clean_key,
    enumerate_clean,
    equivalent_clean,
    interior_count_enum,
    is_clean,
    pick_counts,
    reduce_to_base_form,
    scott_check,
    scott_exhaustive,
    twice_area,
)

T = LatticeTriangle.from_coords

UNIT = T(0, 0, 1, 0, 0, 1)
FIG1 = T(0, 0, -3, -3, 2, 4)
FIG2 = T(1, 1, 1, 4, 4, 1)


def random_triangle(rng, lo=-50, hi=50):
    while True:
        c = [int(v) for v in rng.integers(lo, hi + 1, size=6)]
        t = T(*c)
        u, v = t.v1 - t.v0, t.v2 - t.v0
        if u.x * v.y - u.y * v.x != 0:
            return t


def random_unimodular(rng, shift=20):
    # random products of shears and flips stay unimodular
    m = AffineUnimodularMap.identity()
    for _ in range(4):
        k = int(rng.integers(-3, 4))
        if rng.integers(2):
            m = m.compose(AffineUnimodularMap(1, k, 0, 1))
        else:
            m = m.compose(AffineUnimodularMap(0, -1, 1, k))
    t = LatticePoint(int(rng.integers(-shift, shift)), int(rng.integers(-shift, shift)))
    return AffineUnimodularMap(m.a, m.b, m.c, m.d, t)


class TestTwiceArea:
    def test_unit(self):
        assert twice_area(UNIT) == 1

    def test_figure1(self):
        assert twice_area(FIG1) == 6

    def test_base_one(self):
        for h in range(1, 10):
            for m in range(h):
                assert twice_area(T(0, 0, 1, 0, m, h)) == h

    def test_degenerate(self):
        with pytest.raises(DegenerateTriangleError):
            twice_area(T(0, 0, 1, 1, 2, 2))

    def test_vertex_permutation_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            t = random_triangle(rng)
            a = twice_area(t)
            assert twice_area(LatticeTriangle(t.v1, t.v2, t.v0)) == a
            assert twice_area(LatticeTriangle(t.v2, t.v1, t.v0)) == a


class TestBoundaryCount:
    def test_spot(self):
        assert boundary_count(FIG2) == 9
        assert boundary_count(T(0, 0, 1, 0, 2, 3)) == 3
        assert boundary_count(T(0, 0, 3, 0, 0, 3)) == 9


class TestPick:
    def test_unit(self):
        assert pick_counts(UNIT) == pick_counts(UNIT).__class__(0, 3, 1)

    def test_figure2(self):
        pc = pick_counts(FIG2)
        assert (pc.interior, pc.boundary) == (1, 9)
        assert interior_count_enum(FIG2) == 1

    def test_steep(self):
        pc = pick_counts(T(0, 0, 1, 0, 3, 5))
        assert (pc.interior, pc.boundary) == (2, 3)
        assert interior_count_enum(T(0, 0, 1, 0, 3, 5)) == 2

    def test_enum_spot(self):
        assert interior_count_enum(UNIT) == 0
        assert interior_count_enum(T(0, 0, 5, 0, 0, 5)) == 6

    def test_pick_vs_enum_exhaustive_grid(self):
        pts = [(x, y) for x in range(4) for y in range(4)]
        from itertools import combinations

        for (ax, ay), (bx, by), (cx, cy) in combinations(pts, 3):
            if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) == 0:
                continue
            t = T(ax, ay, bx, by, cx, cy)
            assert pick_counts(t).interior == interior_count_enum(t)


class TestCleanEmpty:
    def test_spot(self):
        assert is_clean(T(0, 0, 1, 0, 2, 3))
        assert is_clean(UNIT)
        assert not is_clean(T(0, 0, 2, 0, 0, 2))


class TestAffineMap:
    def test_identity(self):
        assert apply_map(AffineUnimodularMap.identity(), FIG1) == FIG1

    def test_spec_matrix(self):
        L = AffineUnimodularMap(0, -1, 1, -1)
        assert apply_map(L, FIG1) == T(0, 0, 3, 0, -4, -2)
        flip = AffineUnimodularMap(1, 0, 0, -1)
        assert apply_map(flip, T(0, 0, 3, 0, -4, -2)) == T(0, 0, 3, 0, -4, 2)

    def test_det_validation(self):
        with pytest.raises(ValueError):
            AffineUnimodularMap(2, 0, 0, 1)

    def test_compose_inverse(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            L = random_unimodular(rng)
            M = random_unimodular(rng)
            p = LatticePoint(int(rng.integers(-30, 30)), int(rng.integers(-30, 30)))
            assert L.compose(M).apply(p) == L.apply(M.apply(p))
            assert L.inverse().apply(L.apply(p)) == p

    def test_invariance_under_maps(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            t = random_triangle(rng)
            L = random_unimodular(rng)
            image = apply_map(L, t)
            assert twice_area(image) == twice_area(t)
            assert boundary_count(image) == boundary_count(t)
            assert interior_count_enum(image) == interior_count_enum(t)


class TestReduce:
    def test_figure1(self):
        bf, L = reduce_to_base_form(FIG1)
        assert bf.as_tuple() == (3, 0, 2)
        assert apply_map(L, FIG1).vertex_set() == bf.triangle().vertex_set()

    def test_already_reduced(self):
        bf, L = reduce_to_base_form(T(0, 0, 1, 0, 3, 5))
        assert bf.as_tuple() == (1, 3, 5)
        assert L == AffineUnimodularMap.identity()

    def test_unit(self):
        assert reduce_to_base_form(UNIT)[0].as_tuple() == (1, 0, 1)

    def test_degenerate(self):
        with pytest.raises(DegenerateTriangleError):
            reduce_to_base_form(T(0, 0, 1, 1, 2, 2))

    def test_soundness_random(self):
        rng = np.random.default_rng(6)
        for _ in range(500):
            t = random_triangle(rng)
            bf, L = reduce_to_base_form(t)
            assert apply_map(L, t).vertex_set() == bf.triangle().vertex_set()
            assert bf.h > 0 and bf.b > 0 and 0 <= bf.m < bf.h
            assert bf.b >= math.gcd(bf.m, bf.h)
            assert bf.b >= math.gcd(bf.m - bf.b, bf.h)
            assert bf.b * bf.h == twice_area(t)

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            t = random_triangle(rng)
            bf, _ = reduce_to_base_form(t)
            bf2, _ = reduce_to_base_form(bf.triangle())
            assert bf2 == bf

    def test_baseform_validation(self):
        with pytest.raises(ValueError):
            BaseForm(1, 0, 2)  # base poorer than the left leg
        with pytest.raises(ValueError):
            BaseForm(2, 3, 3)  # m >= h


class TestEquivalentClean:
    def test_spec_pairs(self):
        assert equivalent_clean(T(0, 0, 1, 0, 2, 7), T(0, 0, 1, 0, 4, 7))
        assert not equivalent_clean(T(0, 0, 1, 0, 3, 7), T(0, 0, 1, 0, 2, 7))

    def test_rejects_non_clean(self):
        with pytest.raises(ValueError):
            equivalent_clean(FIG1, T(0, 0, 3, 0, 2, 2))

    def test_witness(self):
        eq, L = equivalent_clean(
            T(0, 0, 1, 0, 2, 7), T(0, 0, 1, 0, 4, 7), with_witness=True
        )
        assert eq and L is not None
        assert apply_map(L, T(0, 0, 1, 0, 2, 7)).vertex_set() == T(
            0, 0, 1, 0, 4, 7
        ).vertex_set()

    def test_non_equivalent_no_witness(self):
        eq, L = equivalent_clean(
            T(0, 0, 1, 0, 3, 7), T(0, 0, 1, 0, 2, 7), with_witness=True
        )
        assert not eq and L is None

    def test_equivalence_relation(self):
        for h in range(1, 52, 2):
            tris = enumerate_clean(h)
            for a in tris:
                assert equivalent_clean(a, a)
            for a in tris:
                for b in tris:
                    ab = equivalent_clean(a, b)
                    assert ab == equivalent_clean(b, a)
            # transitivity via canonical classes
            classes = {}
            for a in tris:
                for rep in classes:
                    if equivalent_clean(rep, a):
                        classes[rep].append(a)
                        break
                else:
                    classes[a] = [a]
            for rep, members in classes.items():
                for a in members:
                    for b in members:
                        assert equivalent_clean(a, b)

    def test_agrees_with_random_maps(self):
        rng = np.random.default_rng(9)
        for h in (7, 9, 13, 15):
            for t in enumerate_clean(h):
                image = apply_map(random_unimodular(rng), t)
                assert equivalent_clean(t, image)


class TestScott:
    def test_figure2(self):
        res = scott_check(FIG2)
        assert res.applicable and res.holds and res.equality
        assert (res.interior, res.boundary) == (1, 9)

    def test_strict(self):
        res = scott_check(T(0, 0, 1, 0, 3, 5))
        assert res.applicable and res.holds and not res.equality

    def test_not_applicable(self):
        assert not scott_check(UNIT).applicable

    def test_scan_small(self):
        rep = scott_exhaustive(4)
        assert not rep.violations
        assert rep.equality_cases
        assert set(rep.equality_base_forms) == {(3, 0, 3)}

    def test_scan_tiny(self):
        rep = scott_exhaustive(2)
        assert not rep.violations and not rep.equality_cases
        assert scott_exhaustive(0).checked == 0

    def test_scan_bound(self):
        with pytest.raises(ValueError):
            scott_exhaustive(9)

    @staticmethod
    def _scan_by_loop(grid_bound):
        # one scott_check per vertex triple, the scan's scalar reference
        points = [LatticePoint(x, y) for x in range(grid_bound + 1) for y in range(grid_bound + 1)]
        checked, violations, equality = 0, [], []
        for p, q, r in combinations(points, 3):
            u, v = q - p, r - p
            if u.x * v.y - u.y * v.x == 0:
                continue
            t = LatticeTriangle(p, q, r)
            res = scott_check(t)
            if not res.applicable:
                continue
            checked += 1
            if not res.holds:
                violations.append(t)
            elif res.equality:
                equality.append(t)
        forms = [reduce_to_base_form(t)[0].as_tuple() for t in equality]
        return checked, violations, equality, forms

    @pytest.mark.parametrize("grid_bound", range(7))
    def test_scan_matches_scalar_loop(self, grid_bound):
        rep = scott_exhaustive(grid_bound)
        checked, violations, equality, forms = self._scan_by_loop(grid_bound)
        assert rep.checked == checked
        assert list(rep.violations) == violations
        assert list(rep.equality_cases) == equality
        assert list(rep.equality_base_forms) == forms
        for t in rep.equality_cases:
            res = scott_check(t)
            assert res.interior == interior_count_enum(t)
            assert res.boundary == 2 * res.interior + 7


class TestEnumerateClean:
    def test_spot(self):
        assert enumerate_clean(3) == [T(0, 0, 1, 0, 2, 3)]
        assert enumerate_clean(1) == [T(0, 0, 1, 0, 1, 1)]
        assert enumerate_clean(2) == []

    def test_all_clean_with_area(self):
        from cleantri.arith import imph

        for h in range(1, 60, 2):
            tris = enumerate_clean(h)
            assert len(tris) == imph(h)
            for t in tris:
                assert is_clean(t)
                assert twice_area(t) == h

    def test_clean_area_parity(self):
        # every clean triangle in a small exhaustive scan has odd twice-area
        from itertools import combinations

        pts = [(x, y) for x in range(5) for y in range(5)]
        for (ax, ay), (bx, by), (cx, cy) in combinations(pts, 3):
            if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) == 0:
                continue
            t = T(ax, ay, bx, by, cx, cy)
            if is_clean(t):
                assert twice_area(t) % 2 == 1


# --------------------------------------------------------------------------
# property tests
# --------------------------------------------------------------------------

coords = st.integers(min_value=-50, max_value=50)


@st.composite
def triangles(draw):
    t = T(*draw(st.tuples(*[coords] * 6)))
    u, v = t.v1 - t.v0, t.v2 - t.v0
    assume(u.x * v.y - u.y * v.x != 0)
    return t


@st.composite
def unimodular_maps(draw):
    # products of shears, quarter turns and a reflection, then a translation
    m = AffineUnimodularMap(1, 0, 0, draw(st.sampled_from((1, -1))))
    for turn, k in draw(st.lists(st.tuples(st.booleans(), st.integers(-3, 3)), max_size=6)):
        step = AffineUnimodularMap(0, -1, 1, k) if turn else AffineUnimodularMap(1, k, 0, 1)
        m = m.compose(step)
    return AffineUnimodularMap(m.a, m.b, m.c, m.d, LatticePoint(draw(coords), draw(coords)))


odd_h = st.integers(min_value=0, max_value=40).map(lambda k: 2 * k + 1)


@st.composite
def clean_triangles(draw, h=odd_h):
    """A clean triangle of odd twice-area h, moved by a unimodular map."""
    h = draw(h)
    m = draw(st.sampled_from(ip_members(h).tolist()))
    return apply_map(draw(unimodular_maps()), T(0, 0, 1, 0, m, h))


class TestReductionProperties:
    @settings(max_examples=300, deadline=None)
    @given(triangles())
    def test_idempotent(self, t):
        bf, _ = reduce_to_base_form(t)
        assert reduce_to_base_form(bf.triangle())[0] == bf

    @settings(max_examples=300, deadline=None)
    @given(triangles(), unimodular_maps())
    def test_witness_sound_under_maps(self, t, L):
        image = apply_map(L, t)
        bf, W = reduce_to_base_form(image)
        assert apply_map(W, image).vertex_set() == bf.triangle().vertex_set()
        assert apply_map(W.compose(L), t).vertex_set() == bf.triangle().vertex_set()
        assert bf.b * bf.h == twice_area(t)


class TestCleanKey:
    def test_spot(self):
        assert clean_key(T(0, 0, 1, 0, 2, 7)) == clean_key(T(0, 0, 1, 0, 4, 7)) == (7, 2)
        assert clean_key(T(0, 0, 1, 0, 3, 7)) == (7, 3)
        assert clean_key(UNIT) == (1, 0)

    def test_rejects_non_clean(self):
        with pytest.raises(ValueError):
            clean_key(FIG1)

    def test_h_one(self):
        # the one class of twice-area 1: key m = 0, while IP(1) = {1} names it 1
        assert clean_key(T(0, 0, 1, 0, 1, 1)) == (1, 0)
        assert canonical_m(1, 1) == 1

    @settings(max_examples=300, deadline=None)
    @given(clean_triangles(), unimodular_maps())
    def test_invariant_under_maps(self, t, L):
        assert clean_key(apply_map(L, t)) == clean_key(t)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_equivalent_clean(self, data):
        h = data.draw(st.sampled_from((1, 3, 7, 9, 13, 21, 49, 91)))
        t1 = data.draw(clean_triangles(st.just(h)))
        t2 = data.draw(clean_triangles(st.just(h)))
        assert (clean_key(t1) == clean_key(t2)) == equivalent_clean(t1, t2)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_base_triangle_key_is_canonical_m(self, data):
        h = data.draw(odd_h.filter(lambda h: h >= 3))
        m = data.draw(st.sampled_from(ip_members(h).tolist()))
        assert clean_key(T(0, 0, 1, 0, m, h)) == (h, canonical_m(m, h))
