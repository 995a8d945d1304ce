import math
import tracemalloc
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cleantri import arith
from cleantri.arith import (
    Factorization,
    extended_gcd,
    factorize,
    imph,
    imph_bruteforce,
    imph_from_factorization,
    imph_sieve,
    ip_members,
    is_prime,
    mod_inverse,
    quad_root_count,
    six_map_table,
    six_maps,
)
from cleantri.counting import BRUTEFORCE_N_BOUND


def _trial_division(n):
    """Independent oracle: plain trial division by every d >= 2."""
    expected, m, d = [], n, 2
    while m > 1:
        e = 0
        while m % d == 0:
            e += 1
            m //= d
        if e:
            expected.append((d, e))
        d += 1
    return tuple(expected)


# primes around factorize's trial bound of 1000, found by the oracle
PRIMES_500_5000 = [p for p in range(500, 5001) if _trial_division(p) == ((p, 1),)]
PRIMES_ABOVE_1000 = [p for p in PRIMES_500_5000 if p > 1000][:30]


def _prime_at_least(n):
    while not is_prime(n):
        n += 1
    return n


near_1e9_prime = st.integers(10**9, 10**9 + 10**6).map(_prime_at_least)
factorize_inputs = st.one_of(
    st.lists(st.sampled_from(PRIMES_500_5000), min_size=1, max_size=5).map(math.prod),
    st.builds(pow, st.sampled_from(PRIMES_ABOVE_1000), st.integers(1, 6)),
    st.builds(lambda p, q: p * q, near_1e9_prime, near_1e9_prime),
    st.integers(1, 2**63 - 1),
)

# factor tuples that trial division below 10^5 gave before the trial bound
# dropped to 1000
PINNED_FACTORS = {
    1009**2: ((1009, 2),),
    1009 * 1013: ((1009, 1), (1013, 1)),
    997 * 1009: ((997, 1), (1009, 1)),
    561: ((3, 1), (11, 1), (17, 1)),
    41041: ((7, 1), (11, 1), (13, 1), (41, 1)),
    2**61 - 1: ((2**61 - 1, 1),),
    (2**31 - 1) ** 2: ((2**31 - 1, 2),),
}


class TestFactorize:
    def test_one(self):
        assert factorize(1).factors == ()

    def test_twelve(self):
        assert factorize(12).factors == ((2, 2), (3, 1))

    def test_9999_trial_division_oracle(self):
        assert factorize(9999).factors == _trial_division(9999) == ((3, 2), (11, 1), (101, 1))

    @pytest.mark.parametrize("n", sorted(PINNED_FACTORS))
    def test_pinned(self, n):
        assert factorize(n).factors == PINNED_FACTORS[n]

    @settings(max_examples=300, deadline=None)
    @given(factorize_inputs)
    @example(1009**2)
    @example(1009 * 1013)
    @example(997 * 1009)
    @example(561)
    @example(41041)
    @example(2**61 - 1)
    @example((2**31 - 1) ** 2)
    def test_properties_across_trial_bound(self, n):
        factors = factorize(n).factors
        assert math.prod(p**e for p, e in factors) == n
        assert all(is_prime(p) and e >= 1 for p, e in factors)
        primes = [p for p, _ in factors]
        assert primes == sorted(set(primes))
        if n <= 10**6:
            assert factors == _trial_division(n)

    def test_domain(self):
        assert factorize(2**63 - 1).factors == (
            (7, 2), (73, 1), (127, 1), (337, 1), (92737, 1), (649657, 1)
        )
        # two 19-digit primes: rho would spin, so the input is refused at once
        for n in (2**63, 100000000000000001380000000000000004437):
            with pytest.raises(ValueError, match="2\\^63"):
                factorize(n)

    def test_large_semiprime(self):
        p, q = 1_000_000_007, 1_000_000_009
        assert factorize(p * q).factors == ((p, 1), (q, 1))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            factorize(0)

    def test_invariants_random(self):
        rng = np.random.default_rng(7)
        for n in rng.integers(1, 10**12, size=50):
            f = factorize(int(n))
            assert math.prod(p**e for p, e in f.factors) == n
            primes = [p for p, _ in f.factors]
            assert primes == sorted(primes)
            assert all(is_prime(p) for p in primes)

    def test_type_validation(self):
        with pytest.raises(ValueError):
            Factorization(12, ((2, 1), (3, 1)))
        with pytest.raises(ValueError):
            Factorization(8, ((4, 1), (2, 1)))


class TestIsPrime:
    PSI_12 = 318665857834031151167461  # = 399165290221 * 798330580441

    def test_psi12_pseudoprime(self):
        # a strong pseudoprime to every base 2..37; base 41 exposes it
        assert 399165290221 * 798330580441 == self.PSI_12
        assert is_prime(399165290221) and is_prime(798330580441)
        assert not is_prime(self.PSI_12)
        # so it cannot pose as a prime factor, e.g. on its way to quad_root_count
        with pytest.raises(ValueError, match="not prime"):
            Factorization(self.PSI_12, ((self.PSI_12, 1),))

    def test_proven_range(self):
        psi_13 = 3_317_044_064_679_887_385_961_981
        assert is_prime(41) and is_prime(2**64 - 59) and not is_prime(psi_13 - 2)
        with pytest.raises(ValueError, match="proven"):
            is_prime(psi_13)


class TestExtendedGcd:
    def test_spec_values(self):
        assert extended_gcd(3, 5) == (1, 2, -1)
        assert extended_gcd(0, 7) == (7, 0, 1)
        g, x, y = extended_gcd(-1, -1)
        assert g == 1 and -x - y == 1

    def test_rejects_zero_pair(self):
        with pytest.raises(ValueError):
            extended_gcd(0, 0)

    def test_identity_and_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            a, b = (int(v) for v in rng.integers(-10**6, 10**6, size=2))
            if a == 0 and b == 0:
                continue
            g, x, y = extended_gcd(a, b)
            assert g == math.gcd(a, b) > 0
            assert a * x + b * y == g
            assert abs(x) <= max(1, abs(b) // g)
            assert abs(y) <= max(1, abs(a) // g)


class TestModInverse:
    def test_spec_values(self):
        assert mod_inverse(2, 7) == 4
        assert mod_inverse(1, 9) == 1
        assert mod_inverse(5, 1) == 0

    def test_not_invertible(self):
        with pytest.raises(ValueError, match="not invertible"):
            mod_inverse(3, 6)

    def test_random(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(2, 10**6))
            a = int(rng.integers(1, n))
            if math.gcd(a, n) != 1:
                continue
            assert a * mod_inverse(a, n) % n == 1


class TestImph:
    @pytest.mark.parametrize(
        "n,value", [(1, 1), (8, 0), (49, 35), (15, 3), (2, 0), (7, 5), (9, 3)]
    )
    def test_spot_values(self, n, value):
        assert imph(n) == value
        assert imph_bruteforce(n) == value

    def test_oracle_agreement(self):
        for n in range(1, 600):
            assert imph(n) == imph_bruteforce(n)

    def test_multiplicative(self):
        for m1 in range(1, 60):
            for m2 in range(1, 60):
                if math.gcd(m1, m2) == 1:
                    assert imph(m1 * m2) == imph(m1) * imph(m2)

    def test_bruteforce_bound(self):
        with pytest.raises(ValueError):
            imph_bruteforce(arith.IMPH_BRUTEFORCE_BOUND + 1)

    def test_even_beyond_factorize_domain(self):
        # even n > 1 is 0 without factoring, as in counting.t_closed
        assert imph(2**64) == imph(3 * 2**70) == 0
        with pytest.raises(ValueError, match="2\\^63"):
            imph(2**64 + 1)
        with pytest.raises(ValueError):
            imph(0)


class TestSixMaps:
    @staticmethod
    def _by_definition(m, n):
        # g6 straight from its definition (1 - m^-1)^-1, not the kernel's 1 - (1 - m)^-1
        a = pow(m, -1, n)
        images = (m, a, 1 - m, 1 - a, pow(1 - m, -1, n), pow(1 - a, -1, n))
        return tuple((v - 1) % n + 1 for v in images)

    def test_definitions(self):
        for n in range(1, 300, 2):
            for m in ip_members(n).tolist():
                assert six_maps(m, n) == self._by_definition(m, n), (m, n)

    def test_table_matches_scalar(self):
        for n in (1, 3, 7, 9, 15, 105, 299, 2**11 - 1):
            members, table = six_map_table(n)
            assert members.tolist() == ip_members(n).tolist()
            assert table.shape == (6, imph(n))
            expected = [six_maps(m, n) for m in members.tolist()]
            assert table.T.tolist() == [list(e) for e in expected]

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, (BRUTEFORCE_N_BOUND - 1) // 2).map(lambda k: 2 * k + 1))
    @example(1)
    @example(3)
    @example(9)
    @example(3**10)
    @example(5**7)
    @example(15015)
    @example(99991)
    @example(99999)
    def test_inverse_table(self, n):
        # members by the two-gcd definition, inverses by Python's pow
        x = np.arange(1, n + 1, dtype=np.int64)
        expected = x[(np.gcd(x, n) == 1) & (np.gcd(x - 1, n) == 1)]
        members, table = six_map_table(n)
        assert members.tolist() == expected.tolist()
        m = members.tolist()
        assert table[1].tolist() == [(pow(v, -1, n) - 1) % n + 1 for v in m]
        assert [tuple(col) for col in table.T.tolist()] == [six_maps(v, n) for v in m]

    def test_even_and_nonmembers(self):
        members, table = six_map_table(10)
        assert members.size == 0 and table.shape == (6, 0)
        with pytest.raises(ValueError):
            six_maps(1, 7)  # 1 - 1 = 0 is not a unit
        with pytest.raises(ValueError):
            six_maps(3, 9)


class TestImphSieve:
    def test_small_table(self):
        assert list(imph_sieve(10)[1:]) == [1, 0, 1, 0, 3, 0, 5, 0, 3, 0]

    def test_single(self):
        assert list(imph_sieve(1)[1:]) == [1]

    def test_prime_square(self):
        assert imph_sieve(49)[49] == 35

    def test_pointwise_dense(self):
        table = imph_sieve(10**4)
        for n in range(1, 10**4 + 1, 37):
            assert table[n] == imph(n)
        for n in range(1, 200):
            assert table[n] == imph_bruteforce(n)

    def test_memory_budget(self, monkeypatch):
        monkeypatch.setenv(arith.SIEVE_MEMORY_ENV, "1000")
        with pytest.raises(ValueError, match="budget"):
            imph_sieve(10**6)

    def test_malformed_budget_fails_only_sieves(self, monkeypatch):
        monkeypatch.setenv(arith.SIEVE_MEMORY_ENV, "lots")
        assert factorize(1009 * 1013).factors == ((1009, 1), (1013, 1))
        with pytest.raises(ValueError):
            imph_sieve(10)


@cache
def _primality_upto_3000():
    """Entry n is 1 when n is prime, for n <= 3000, by the trial-division oracle."""
    return [int(_trial_division(n) == ((n, 1),)) for n in range(3001)]


class TestPrimeMask:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 3000))
    @example(0)
    @example(1)
    @example(2)
    @example(3)
    @example(9)
    @example(3000)
    def test_matches_trial_division(self, limit):
        mask = arith._prime_mask(limit)
        assert type(mask) is bytearray
        assert list(mask) == _primality_upto_3000()[: limit + 1]

    def test_trial_primes(self):
        # factorize divides by exactly the primes below 1000, which begin the
        # walk's 1,228 odd primes up to 10^4
        primes = [n for n, bit in enumerate(_primality_upto_3000()) if bit and n < 1000]
        assert list(arith._TRIAL_PRIMES) == primes
        assert len(primes) == 168 and primes[-1] == 997
        assert len(arith._SIEVE_PRIMES) == 1228 and list(arith._SIEVE_PRIMES[:167]) == primes[1:]


class TestPrimesUpto:
    LIMIT = 10**6
    PRIME_COUNT = 78498

    def test_traced_peak_within_budget_check(self):
        arith._primes_upto(self.LIMIT)  # warm up outside the trace
        tracemalloc.start()
        try:
            primes = arith._primes_upto(self.LIMIT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert primes.size == self.PRIME_COUNT and primes.dtype == np.int64
        assert peak <= arith._primes_upto_bytes(self.LIMIT)

    def test_budget_covers_index_array(self, monkeypatch):
        held = self.LIMIT + 1 + 8 * self.PRIME_COUNT  # mask + int64 index array
        monkeypatch.setenv(arith.SIEVE_MEMORY_ENV, str(held - 1))
        with pytest.raises(ValueError, match="budget"):
            arith._primes_upto(self.LIMIT)
        monkeypatch.setenv(arith.SIEVE_MEMORY_ENV, str(arith._primes_upto_bytes(self.LIMIT)))
        assert arith._primes_upto(self.LIMIT).size == self.PRIME_COUNT


FACTOR_SIEVE_X = 10**5


def _walk_table(x):
    """The factor data of the odd n <= x at index n of whole arrays, copied
    from the blocks of one walk; even entries stay 0."""
    table = arith._FactorData(*(np.zeros(x + 1, arr.dtype) for arr in arith._empty_factor_data(0)))
    for a, block in arith._factor_blocks(0, x):
        for arr, got in zip(table, block):
            arr[a : a + 2 * len(got) : 2] = got
    return table


def _odd_upto(n):
    """The greatest odd number <= n."""
    return n - 1 + n % 2


@cache
def _factor_table():
    return _walk_table(FACTOR_SIEVE_X)


def test_caches_bounded():
    from cleantri import counting, lattice, meanvalue

    for mod in (arith, counting, lattice, meanvalue):
        for name, fn in vars(mod).items():
            if hasattr(fn, "cache_info") and fn.__module__ == mod.__name__:
                assert fn.cache_info().maxsize is not None, f"{mod.__name__}.{name}"


def _assert_factor_data(data, n):
    f = factorize(n)
    assert data.imph[n] == imph_from_factorization(f)
    assert data.omega[n] == f.omega
    assert data.big_omega[n] == f.big_omega
    assert (data.omega[n] == data.big_omega[n]) == all(e == 1 for _, e in f.factors)
    assert data.bad5[n] == any(p % 6 == 5 for p in f.primes())


class TestFactorSieve:
    # factorize reaches the same fields by trial division and rho, not by sieving
    @settings(max_examples=500, deadline=None)
    @given(st.integers(min_value=1, max_value=FACTOR_SIEVE_X).map(_odd_upto))
    def test_fields_match_factorize(self, n):
        _assert_factor_data(_factor_table(), n)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=400))
    @example(3)
    def test_every_entry_small_bounds(self, x):
        # small x leave cofactors like 3 and 5 unsieved, since no odd prime is <= sqrt(x)
        data = _walk_table(x)
        for n in range(1, x + 1, 2):
            _assert_factor_data(data, n)


BLOCK = arith._SIEVE_BLOCK
SPAN = 2 * BLOCK  # the numbers one block of odd n covers


@cache
def _boundary_table(x):
    return _walk_table(x)


class TestFactorSieveBlocks:
    """Entries next to and past the block boundaries of the sieve walk, which
    the draws above (n <= 10^5, all in the first block) never reach."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([SPAN - 1, SPAN, SPAN + 1, 2 * SPAN + 3]), st.data())
    def test_fields_match_factorize(self, x, data):
        windows = [st.integers(SPAN - 1000, x)]
        if x >= 2 * SPAN - 100:
            windows.append(st.integers(2 * SPAN - 100, x))
        _assert_factor_data(_boundary_table(x), _odd_upto(data.draw(st.one_of(windows))))

    @pytest.mark.parametrize("length", [4099, 65537, 1 << 20])
    def test_any_block_length_gives_the_same_table(self, monkeypatch, length):
        x = 2 * SPAN + 3
        want = _boundary_table(x)
        monkeypatch.setattr(arith, "_SIEVE_BLOCK", length)
        for got, ref in zip(_walk_table(x), want):
            assert got.dtype == ref.dtype
            assert np.array_equal(got, ref)

    def test_prime_powers_starting_inside_a_block(self):
        # the first multiples of 521^2 and 67^3 in [BLOCK, SPAN) lie past
        # the block's start, which is a multiple of neither
        pinned = {521**2: (521 * 519, 1, 2, True), 67**3: (67**2 * 65, 1, 3, False)}
        table = _boundary_table(2 * SPAN + 3)
        [(a, block)] = arith._factor_blocks(BLOCK + 7, BLOCK + 40_000)
        for n, fields in pinned.items():
            assert a < n < SPAN
            assert tuple(arr[n] for arr in table) == fields
            assert tuple(arr[(n - a) // 2] for arr in block) == fields

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, SPAN - 40), st.integers(0, 40), st.booleans())
    def test_block_walk_matches_table(self, lo, extra, long):
        # a long window spans two blocks of the walk; a short one starts
        # before the table's first boundary and ends past it
        hi = lo + SPAN + extra if long else SPAN + extra
        table = _boundary_table(2 * SPAN + 3)
        n = lo | 1
        for a, block in arith._factor_blocks(lo, hi):
            assert a == n
            for got, want in zip(block, table):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want[a : a + 2 * len(got) : 2])
            n += 2 * len(block.imph)
        assert n in (hi + 1, hi + 2)

    def test_no_odd_n_no_block(self):
        assert list(arith._factor_blocks(4, 4)) == []
        assert [a for a, _ in arith._factor_blocks(4, 5)] == [5]


class TestIpMembers:
    def test_members(self):
        assert list(ip_members(15)) == [2, 8, 14]
        assert list(ip_members(7)) == [2, 3, 4, 5, 6]
        assert list(ip_members(4)) == []
        assert list(ip_members(1)) == [1]

    def test_even_empty(self):
        for n in range(2, 100, 2):
            assert ip_members(n).size == 0


class TestRootsQuad:
    def test_spot(self):
        assert quad_root_count(factorize(3)) == 1
        assert quad_root_count(factorize(9)) == 0
        assert quad_root_count(factorize(7)) == 2
        assert quad_root_count(factorize(5)) == 0

    def test_rejects_two(self):
        with pytest.raises(ValueError):
            quad_root_count(factorize(2))

    def test_root_validity_and_counts(self):
        # brute-force residue scan over all odd prime powers <= 10^4
        for p in range(3, 101, 2):
            if not is_prime(p):
                continue
            k = 1
            while p**k <= 10**4:
                pk = p**k
                expected = [x for x in range(1, pk) if (x * x - x + 1) % pk == 0]
                assert quad_root_count(factorize(pk)) == len(expected), pk
                k += 1

    def test_composite_counts(self):
        assert quad_root_count(factorize(7)) == 2
        assert quad_root_count(factorize(21)) == 2
        assert quad_root_count(factorize(45)) == 0
        assert quad_root_count(factorize(1)) == 1
        with pytest.raises(ValueError):
            quad_root_count(factorize(10))

    def test_composite_counts_bruteforce(self):
        for n in range(1, 1000, 2):
            expected = sum(1 for x in range(n) if (x * x - x + 1) % n == 0)
            assert quad_root_count(factorize(n)) == expected

    def test_g4_fixed_points_are_the_roots(self):
        # g4(m) = 1 - m^-1 fixes m iff m^2 - m + 1 = 0 (mod n): the kernel's
        # table against a direct residue scan, and the scan against the count
        for n in range(1, 2001, 2):
            members, table = six_map_table(n)
            r = np.arange(1, n + 1, dtype=np.int64)
            roots = r[(r * r - r + 1) % n == 0]
            assert members[table[3] == members].tolist() == roots.tolist(), n
            assert roots.size == quad_root_count(factorize(n)), n
