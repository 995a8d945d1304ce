import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cleantri import arith, counting, lattice
from cleantri.arith import InvariantViolation, ip_members
from cleantri.counting import (
    OrbitDecomposition,
    TCountReport,
    _fix_counts_vectorized,
    canonical_m,
    fix_count_closed,
    map_g,
    orbit_decomposition,
    t_burnside,
    t_closed,
    t_geometric,
    t_report,
)


class TestIpSet:
    def test_spot(self):
        assert ip_members(15).tolist() == [2, 8, 14]
        assert ip_members(7).tolist() == [2, 3, 4, 5, 6]
        assert ip_members(4).tolist() == []

    def test_size_is_imph(self):
        for n in range(1, 300):
            assert len(ip_members(n)) == arith.imph(n)


class TestMapG:
    def test_spot(self):
        assert map_g(2, 2, 7) == 4
        assert map_g(3, 2, 7) == 6
        assert map_g(4, 2, 7) == 4

    def test_identity(self):
        for m in ip_members(15).tolist():
            assert map_g(1, m, 15) == m

    def test_rejects(self):
        with pytest.raises(ValueError):
            map_g(7, 2, 7)
        with pytest.raises(ValueError):
            map_g(2, 1, 7)  # 1 not in IP(7)

    def test_maps_stay_in_ip(self):
        for n in range(1, 200, 2):
            members = set(ip_members(n).tolist())
            for m in members:
                for i in range(1, 7):
                    assert map_g(i, m, n) in members

    def test_group_closure(self):
        # the six maps compose back into the six maps, pointwise on IP(n)
        for n in (1, 3, 5, 7, 9, 15, 21, 45, 105):
            members = ip_members(n).tolist()
            tables = [tuple(map_g(i, m, n) for m in members) for i in range(1, 7)]
            for gi in range(1, 7):
                for gj in range(1, 7):
                    comp = tuple(map_g(gi, v, n) for v in tables[gj - 1])
                    assert comp in tables


class TestFixCounts:
    def test_spot_bruteforce(self):
        # the kernel's table counts: IP(7) = {2..6}, IP(9) = {2, 5, 8}
        assert _fix_counts_vectorized(7) == (5, 1, 1, 2, 2, 1)
        assert _fix_counts_vectorized(9) == (3, 1, 1, 0, 0, 1)

    def test_spot_closed(self):
        assert fix_count_closed(2, 105) == 1
        assert fix_count_closed(4, 21) == 2
        assert fix_count_closed(6, 7) == 1

    def test_closed_rejects_even(self):
        with pytest.raises(ValueError):
            fix_count_closed(1, 6)

    def test_closed_rejects_nonpositive(self):
        for i in range(1, 7):
            for n in (-3, -1, 0):
                with pytest.raises(ValueError, match="positive"):
                    fix_count_closed(i, n)

    def test_g4_g5_same_fixed_points(self):
        for n in range(1, 500, 2):
            fixed4 = [m for m in ip_members(n).tolist() if map_g(4, m, n) == m]
            fixed5 = [m for m in ip_members(n).tolist() if map_g(5, m, n) == m]
            assert fixed4 == fixed5

    def test_g3_fixed_point_is_half(self):
        # the unique fixed point of g3 is the inverse of 2
        for n in range(3, 300, 2):
            fixed = [m for m in ip_members(n).tolist() if map_g(3, m, n) == m]
            assert fixed == [pow(2, -1, n)]


class TestTCounts:
    @pytest.mark.parametrize(
        "n,value", [(1, 1), (3, 1), (5, 1), (6, 0), (7, 2), (9, 1), (21, 2)]
    )
    def test_spot(self, n, value):
        assert t_closed(n) == value
        assert t_burnside(n) == value

    def test_even_zero(self):
        for n in range(2, 100, 2):
            assert t_closed(n) == 0
            assert t_burnside(n) == 0

    def test_divisibility(self):
        for n in range(1, 2001, 2):
            im = arith.imph(n)
            assert (im + fix_count_closed(2, n) + 2 * fix_count_closed(4, n) + 2) % 6 == 0

    def test_report(self):
        rep = t_report(21)
        assert rep.t_closed == rep.t_burnside == rep.t_geometric == 2
        assert sum(rep.fix_counts) == 12

    def test_report_validation(self):
        for args, routes in [
            ((7, 2, 3, 2, (5, 1, 1, 2, 2, 1)), ("closed", "burnside")),
            ((7, 2, 2, 3, (5, 1, 1, 2, 2, 1)), ("closed", "geometric")),
            ((7, 2, 2, 2, (5, 1, 1, 2, 2, 2)), ("burnside", "fix-counts")),
        ]:
            with pytest.raises(InvariantViolation) as info:
                TCountReport(*args)
            assert isinstance(info.value, AssertionError)
            assert info.value.n == 7 and info.value.routes == routes

    def test_report_checks_burnside_cap_before_tables(self, monkeypatch):
        def no_table(n):
            raise RuntimeError(f"six-map table built for n={n}")

        monkeypatch.setattr(counting, "six_map_table", no_table)
        with pytest.raises(ValueError, match="Burnside route capped"):
            t_report(100001)
        with pytest.raises(ValueError, match="Burnside route capped"):
            t_report(999999)
        with pytest.raises(ValueError, match="positive"):
            t_report(0)


class TestOrbits:
    def test_spot(self):
        assert orbit_decomposition(7).orbits == ((2, 4, 6), (3, 5))
        assert orbit_decomposition(5).orbits == ((2, 3, 4),)
        assert orbit_decomposition(3).orbits == ((2,),)

    def test_counts_match_burnside(self):
        for n in range(1, 500, 2):
            assert orbit_decomposition(n).count == t_burnside(n)

    def test_partition_and_closure(self):
        for n in (15, 35, 105, 231):
            dec = orbit_decomposition(n)
            flat = sorted(x for o in dec.orbits for x in o)
            assert flat == ip_members(n).tolist()
            for orbit in dec.orbits:
                s = set(orbit)
                for m in orbit:
                    assert {map_g(i, m, n) for i in range(1, 7)} == s

    def test_large_prime(self):
        dec = orbit_decomposition(99991)
        assert dec.count == 16666 == t_closed(99991)
        assert sum(len(o) for o in dec.orbits) == arith.imph(99991)

    def test_orbit_sizes_divide_six(self):
        with pytest.raises(ValueError):
            OrbitDecomposition(11, ((2, 3, 4, 5),))


class TestCanonical:
    def test_spot(self):
        assert canonical_m(6, 7) == 2
        assert canonical_m(5, 7) == 3
        assert canonical_m(2, 3) == 2

    def test_orbit_constant(self):
        for n in (7, 13, 49, 91):
            for orbit in orbit_decomposition(n).orbits:
                assert len({canonical_m(m, n) for m in orbit}) == 1
                assert canonical_m(orbit[0], n) == min(orbit)

    def test_rejects_nonmember(self):
        with pytest.raises(ValueError):
            canonical_m(1, 7)


class TestGeometric:
    @pytest.mark.parametrize("n,value", [(1, 1), (3, 1), (7, 2)])
    def test_spot(self, n, value):
        assert t_geometric(n) == value

    def test_matches_closed(self):
        for n in range(1, 100, 2):
            assert t_geometric(n) == t_closed(n)

    @pytest.mark.parametrize("n,value", [(99991, 16666), (99999, 5246)])
    def test_at_the_cap(self, n, value):
        assert t_geometric(n) == t_closed(n) == value

    def test_bound(self):
        # even n are 0 before the cap is checked, as on the Burnside route
        assert t_geometric(2 * counting.GEOMETRIC_N_BOUND) == 0
        with pytest.raises(ValueError, match="geometric route capped"):
            t_geometric(counting.GEOMETRIC_N_BOUND + 1)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 999).map(lambda k: 2 * k + 1))
    def test_array_keys_match_scalar_oracle(self, h):
        # member by member, the array reduction equals clean_key's scalar one
        triangles = lattice.enumerate_clean(h)
        keys = lattice.clean_keys(h).tolist()
        assert len(keys) == len(triangles) == arith.imph(h)
        assert [(h, k) for k in keys] == [lattice.clean_key(t) for t in triangles]

    def test_array_keys_across_chunks(self, monkeypatch):
        # h = 1 has the one member 1, reduced to m = 0; even h have none; and
        # where the members are cut into chunks changes no key
        whole = {h: lattice.clean_keys(h).tolist() for h in (1, 2, 1000, 91, 1999)}
        assert whole[1] == [0] and whole[2] == whole[1000] == []
        monkeypatch.setattr(lattice, "_KEYS_PER_CHUNK", 5)
        assert {h: lattice.clean_keys(h).tolist() for h in whole} == whole


class TestIndependence:
    def test_geometric_route_uses_no_residue_map(self, monkeypatch):
        def broken(*args):
            raise AssertionError("residue maps used")

        expected = {n: t_closed(n) for n in (*range(1, 100, 2), 2003, 4001)}
        # the kernel's formula, table and maps under every name they are
        # imported as, the modular inverse, and the orbit test equivalent_clean
        # goes through; n past the old scalar route's cap of 2000 too
        monkeypatch.setattr(arith, "_six_images", broken)
        monkeypatch.setattr(arith, "mod_inverse", broken)
        for module in (arith, counting):
            monkeypatch.setattr(module, "six_map_table", broken)
        for module in (arith, counting, lattice):
            monkeypatch.setattr(module, "six_maps", broken)
        monkeypatch.setattr(lattice, "_orbit_min", broken)
        counting._fix_counts_vectorized.cache_clear()
        for n, value in expected.items():
            assert t_geometric(n) == value
        with pytest.raises(AssertionError, match="residue maps used"):
            t_burnside(7)
        with pytest.raises(AssertionError, match="residue maps used"):
            lattice.equivalent_clean(
                lattice.LatticeTriangle.from_coords(0, 0, 1, 0, 2, 7),
                lattice.LatticeTriangle.from_coords(0, 0, 1, 0, 4, 7),
            )

    def test_burnside_route_uses_no_factorization(self, monkeypatch):
        expected = {n: t_closed(n) for n in range(1, 200, 2)}

        def broken(*args):
            raise AssertionError("factorization used")

        monkeypatch.setattr(arith, "factorize", broken)
        monkeypatch.setattr(counting, "_cached_factorization", broken)
        monkeypatch.setattr(counting, "quad_root_count", broken)
        counting._fix_counts_vectorized.cache_clear()
        for n, value in expected.items():
            assert t_burnside(n) == value
        with pytest.raises(AssertionError, match="factorization used"):
            t_closed(7)
