import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cleantri import arith, counting, lattice
from cleantri.arith import InvariantViolation, ip_members, six_map_table
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


def _table_counts(n):
    """The fixed-point counts read off the six-map table: the members each
    of its rows leaves in place."""
    members, table = six_map_table(n)
    return tuple(int(c) for c in (table == members).sum(axis=1))


def _congruences(m, n):
    """Whether m^2 = 1, 2m = 1, m^2 - m + 1 = 0 and m^2 = 2m hold mod n."""
    return ((m * m - 1) % n == 0, (2 * m - 1) % n == 0, (m * m - m + 1) % n == 0,
            (m * m - 2 * m) % n == 0)


class TestFixCounts:
    def test_spot_bruteforce(self):
        # IP(7) = {2..6}, IP(9) = {2, 5, 8}, IP(1) = {1}, IP(even n > 1) = {}
        assert _fix_counts_vectorized(7) == (5, 1, 1, 2, 2, 1)
        assert _fix_counts_vectorized(9) == (3, 1, 1, 0, 0, 1)
        for n in (1, 2, 10):
            assert _fix_counts_vectorized(n) == _table_counts(n)

    @pytest.mark.parametrize("chunk", [7, 64, 1001])
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2499).map(lambda k: 2 * k + 1))
    def test_any_chunk_gives_the_table_counts(self, chunk, n):
        with mock.patch.object(arith, "_UNIT_CHUNK", chunk):
            assert _fix_counts_vectorized(n) == _table_counts(n)

    @pytest.mark.parametrize("chunk", [7, 64, 1001])
    def test_halves_ending_on_a_chunk_seam(self, chunk):
        # the pass covers x = 1..(n - 1)/2 in chunks from x = 1: halves that
        # fill their last chunk, leave it one x, or fall one x short of it
        halves = [k * chunk + d for k in (1, 2, 3) for d in (-1, 0, 1)]
        with mock.patch.object(arith, "_UNIT_CHUNK", chunk):
            for n in (2 * h + 1 for h in halves if 2 * h + 1 <= 5000):
                assert _fix_counts_vectorized(n) == _table_counts(n), n

    def test_counts_match_the_congruences(self):
        # each count, by the congruence over IP(n) built with math.gcd, on
        # the default chunks and on short ones, whose seams each comparison
        # crosses
        for n in range(1, 2002, 2):
            members = [m for m in range(1, n + 1)
                       if math.gcd(m, n) == 1 and math.gcd(m - 1, n) == 1]
            g2, g3, g45, g6 = (sum(c) for c in zip(*(_congruences(m, n) for m in members)))
            expected = (len(members), g2, g3, g45, g45, g6)
            for chunk in (arith._UNIT_CHUNK, 7, 64):
                with mock.patch.object(arith, "_UNIT_CHUNK", chunk):
                    assert _fix_counts_vectorized(n) == expected, (n, chunk)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 49999).map(lambda k: 2 * k + 1))
    def test_counts_match_the_table_up_to_the_cap(self, n):
        assert _fix_counts_vectorized(n) == _table_counts(n)

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
        # the cap the Burnside and geometric routes share comes first
        def no_work(n):
            raise RuntimeError(f"route run for n={n}")

        for name in ("six_map_table", "_fix_counts_vectorized", "_half_units", "t_closed",
                     "t_burnside", "t_geometric"):
            monkeypatch.setattr(counting, name, no_work)
        with pytest.raises(ValueError, match="geometric route capped at n = 10000000"):
            t_report(10000001)
        with pytest.raises(ValueError, match="geometric route capped at n = 10000000"):
            t_report(99999999)
        with pytest.raises(ValueError, match="positive"):
            t_report(0)

    def test_burnside_cap(self, monkeypatch):
        # odd n past 10^7 are refused before any count; even n are 0 past it
        def no_count(n):
            raise RuntimeError(f"fixed points counted for n={n}")

        monkeypatch.setattr(counting, "_fix_counts_vectorized", no_count)
        assert t_burnside(2 * arith.IMPH_BRUTEFORCE_BOUND) == 0
        with pytest.raises(ValueError, match="Burnside route capped at n = 10000000"):
            t_burnside(arith.IMPH_BRUTEFORCE_BOUND + 1)

    @pytest.mark.parametrize("n", [99991, 100001, 999999, 1000003, 9999991])
    def test_burnside_past_the_geometric_cap(self, n):
        assert t_burnside(n) == t_closed(n)

    def test_burnside_memory_is_bounded(self):
        # one chunk of the half pass is alive at a time, whatever n is: the
        # first, whole at n = 131,073, or one of many at 9,999,991
        for n in (131073, 9999991):
            tracemalloc.start()
            try:
                value = t_burnside(n)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert value == t_closed(n)
            assert peak < 4 * 10**6, (n, peak)

    def test_geometric_memory_is_bounded(self):
        # one chunk of the half pass and one call of _least_keys are alive at
        # a time: the first chunk, whole at n = 131,073, or one of two at
        # 262,147
        for n in (131073, 262147):
            tracemalloc.start()
            try:
                value = t_geometric(n)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert value == t_closed(n)
            assert peak < 8 * 10**6, (n, peak)


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

    def test_overlap(self):
        with pytest.raises(ValueError, match="^orbits overlap$"):
            OrbitDecomposition(7, ((2, 3), (3,)))

    @pytest.mark.parametrize("image", [1, 7])
    def test_image_outside_ip_is_caught(self, monkeypatch, image):
        # 1 and n are no members of IP(7); one image moved there escapes
        def escaping(n):
            members, table = six_map_table(n)
            table[4, 2] = image
            return members, table

        monkeypatch.setattr(counting, "six_map_table", escaping)
        with pytest.raises(InvariantViolation, match=r"^orbit escaped IP\(7\)$") as info:
            orbit_decomposition(7)
        assert (info.value.n, info.value.routes) == (7, ("six-map",))


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

    # at the old cap of 10^5, and past it: 131,075 is the first odd n whose
    # half pass takes two chunks
    @pytest.mark.parametrize("n,value", [(99991, 16666), (99999, 5246), (100003, 16668),
                                         (131075, 9188)])
    def test_at_the_cap(self, n, value):
        assert t_geometric(n) == t_closed(n) == value

    def test_bound(self, monkeypatch):
        # even n are 0 before the cap is checked, as on the Burnside route,
        # and odd n past it are refused before the half pass
        def no_pass(n):
            raise RuntimeError(f"half pass run for n={n}")

        monkeypatch.setattr(counting, "_half_units", no_pass)
        assert t_geometric(2 * arith.IMPH_BRUTEFORCE_BOUND) == 0
        with pytest.raises(ValueError, match="geometric route capped at n = 10000000"):
            t_geometric(arith.IMPH_BRUTEFORCE_BOUND + 1)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 999).map(lambda k: 2 * k + 1))
    def test_array_keys_match_scalar_oracle(self, h):
        # member by member, the array reduction equals clean_key's scalar one
        triangles = lattice.enumerate_clean(h)
        keys = lattice._least_keys(ip_members(h), h).tolist()
        assert len(keys) == len(triangles) == arith.imph(h)
        assert [(h, k) for k in keys] == [lattice.clean_key(t) for t in triangles]

    def test_nonprimitive_edge_is_caught(self):
        # (0,0), (1,0), (m,9) is not clean for m = 3 or 4: an edge is (3, 9)
        with pytest.raises(InvariantViolation, match="not primitive") as info:
            lattice._least_keys(np.array([4, 3]), 9)
        assert info.value.n == 9 and info.value.routes == ("geometric",)

    def test_array_keys_across_chunks(self, monkeypatch):
        # where the half pass and the keying cut the members changes no count;
        # n = 1 has the one member 1, keyed 0, and even n have none.  The odd
        # n stop at 400 but for two: to 2,001 these short chunks take about
        # 30 s on a 2-core VM, and criterion 3 covers them on the default ones
        monkeypatch.setattr(arith, "_UNIT_CHUNK", 7)
        monkeypatch.setattr(lattice, "_KEYS_PER_CHUNK", 5)
        for n in (*range(1, 400, 2), 2, 1000, 1999, 2001):
            assert t_geometric(n) == t_closed(n), n


class TestIndependence:
    def test_geometric_route_uses_no_residue_map(self, monkeypatch):
        def broken(*args):
            raise AssertionError("residue maps used")

        expected = {n: t_closed(n) for n in (*range(1, 100, 2), 2003, 4001, 131075)}
        # the kernel's formula, table and maps under every name they are
        # imported as, the modular inverse, and the orbit test equivalent_clean
        # goes through; n past the old scalar route's cap of 2000 too, and
        # 131,075, whose half pass takes two chunks
        monkeypatch.setattr(arith, "_six_images", broken)
        monkeypatch.setattr(arith, "mod_inverse", broken)
        for module in (arith, counting):
            monkeypatch.setattr(module, "six_map_table", broken)
        for module in (arith, counting, lattice):
            monkeypatch.setattr(module, "six_maps", broken)
        monkeypatch.setattr(lattice, "_orbit_min", broken)
        for n, value in expected.items():
            assert t_geometric(n) == value
        with pytest.raises(AssertionError, match="residue maps used"):
            orbit_decomposition(7)
        with pytest.raises(AssertionError, match="residue maps used"):
            lattice.equivalent_clean(
                lattice.LatticeTriangle.from_coords(0, 0, 1, 0, 2, 7),
                lattice.LatticeTriangle.from_coords(0, 0, 1, 0, 4, 7),
            )

    def test_burnside_route_uses_no_factorization(self, monkeypatch):
        # 131,075 and 196,611 = 3 * 65,537 take two chunks of the pass; the
        # prime 65,537 is first met in the second
        expected = {n: t_closed(n) for n in (*range(1, 200, 2), 131075, 196611)}

        def broken(*args):
            raise AssertionError("factorization used")

        def no_map(*args):
            raise AssertionError("residue maps used")

        # no factorization, prime table or primality test
        for name in ("factorize", "_prime_mask", "_primes_upto", "_miller_rabin"):
            monkeypatch.setattr(arith, name, broken)
        monkeypatch.setattr(counting, "_cached_factorization", broken)
        monkeypatch.setattr(counting, "quad_root_count", broken)
        # nor the kernel's table and maps, the modular inverse or the formula
        for module in (arith, counting):
            monkeypatch.setattr(module, "six_map_table", no_map)
            monkeypatch.setattr(module, "six_maps", no_map)
        monkeypatch.setattr(arith, "mod_inverse", no_map)
        monkeypatch.setattr(arith, "_six_images", no_map)
        for n, value in expected.items():
            assert t_burnside(n) == value
        with pytest.raises(AssertionError, match="factorization used"):
            t_closed(7)
        with pytest.raises(AssertionError, match="residue maps used"):
            orbit_decomposition(7)
