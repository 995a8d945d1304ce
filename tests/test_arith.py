import inspect
import math
import textwrap
import tracemalloc
from functools import cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cleantri import arith, meanvalue, sieve
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
from cleantri.counting import GEOMETRIC_N_BOUND, orbit_decomposition


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


@st.composite
def built_factorizations(draw):
    """(n, factors) for an n < 2^63 built from trial primes with exponents and
    from primes >= 1000 that is_prime proves; a drawn power that would take n
    past 2^63 is left out."""
    big = draw(st.dictionaries(
        st.one_of(st.integers(1000, 10**4), st.integers(10**4, 10**12)).map(_prime_at_least),
        st.integers(1, 3), max_size=3))
    trial = draw(st.dictionaries(st.sampled_from(arith._TRIAL_PRIMES), st.integers(1, 6),
                                 max_size=6))
    n, factors = 1, {}
    for p, e in [*big.items(), *trial.items()]:
        if n * p**e < 2**63:
            n *= p**e
            factors[p] = e
    return n, tuple(sorted(factors.items()))


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

    @settings(max_examples=300, deadline=None)
    @given(built_factorizations())
    @example((997**3 * 1013, ((997, 3), (1013, 1))))
    @example((3 * 997 * 334336351, ((3, 1), (997, 1), (334336351, 1))))
    @example((2 * 3 * 5 * 7, ((2, 1), (3, 1), (5, 1), (7, 1))))
    @example((999983**2, ((999983, 2),)))
    def test_gives_back_the_built_factors(self, built):
        n, factors = built
        assert factorize(n).factors == factors

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

    def test_miller_rabin_rounds_match_is_prime(self):
        # every odd n the rounds may be handed, up to 200,000: no prime
        # factor among the witnesses, checked against the prime mask too
        mask = arith._prime_mask(200_000)
        witnesses = math.prod(arith._MR_WITNESSES)
        for n in range(1001, 200_001, 2):
            if math.gcd(n, witnesses) == 1:
                assert arith._miller_rabin(n) == is_prime(n) == bool(mask[n]), n

    def test_proven_range(self):
        psi_13 = 3_317_044_064_679_887_385_961_981
        assert is_prime(41) and is_prime(2**64 - 59) and not is_prime(psi_13 - 2)
        with pytest.raises(ValueError, match="proven"):
            is_prime(psi_13)


# Each psi_k of is_prime's witness table with factors that show it composite.
PSI_FACTORS = {
    2047: (23, 89),
    1_373_653: (829, 1657),
    25_326_001: (2251, 11251),
    3_215_031_751: (151, 751, 28351),
    2_152_302_898_747: (6763, 10627, 29947),
    3_474_749_660_383: (1303, 16927, 157543),
    341_550_071_728_321: (10670053, 32010157),
    3_825_123_056_546_413_051: (149491, 747451, 34233211),
    318_665_857_834_031_151_167_461: (399165290221, 798330580441),
    3_317_044_064_679_887_385_961_981: (1287836182261, 2575672364521),
}
PSI = {k: psi for psi, k in arith._MR_PSI}


def _primes_upto_trial(limit):
    """The primes p <= limit, by the trial-division oracle."""
    return [n for n in range(2, limit + 1) if _trial_division(n) == ((n, 1),)]


def _strong_probable_prime(n, a):
    """Whether odd n > 2 passes one Miller-Rabin round to base a, by pow alone."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


class TestWitnessTable:
    @pytest.mark.parametrize("psi,k", arith._MR_PSI)
    def test_psi_is_a_composite_strong_pseudoprime(self, psi, k):
        factors = PSI_FACTORS[psi]
        assert math.prod(factors) == psi and all(1 < q < psi for q in factors)
        assert all(_strong_probable_prime(psi, a) for a in arith._MR_WITNESSES[:k])
        if psi < arith._MR_BOUND:
            assert not is_prime(psi)

    def test_table_is_increasing_and_ends_at_the_bound(self):
        # the witnesses are the first 13 primes, by the trial-division oracle
        assert arith._MR_WITNESSES == tuple(_primes_upto_trial(41))
        assert [k for _, k in arith._MR_PSI] == [1, 2, 3, 4, 5, 6, 7, 9, 12, 13]
        psis = [psi for psi, _ in arith._MR_PSI]
        assert psis == sorted(set(psis)) and psis[-1] == arith._MR_BOUND == PSI[13]

    def test_matches_prime_mask_below_10_6(self):
        mask = arith._prime_mask(10**6)
        assert all(is_prime(n) == bool(mask[n]) for n in range(10**6 + 1))


class TestProvenOnce:
    N = 1009 * 1013 * 10007

    def test_factorize_skips_public_validation(self, monkeypatch):
        calls = []
        init = Factorization.__init__
        monkeypatch.setattr(
            Factorization, "__init__", lambda f, n, factors: calls.append(n) or init(f, n, factors)
        )
        for n in (1, 12, 9999, self.N, 2**61 - 1, 10**12 + 39, 2**63 - 1):
            assert factorize(n).n == n
        assert calls == []
        Factorization(12, ((2, 2), (3, 1)))
        assert calls == [12]

    def test_bad_rho_split_raises(self, monkeypatch):
        monkeypatch.setattr(arith, "_brent_rho", lambda m: 1009)
        with pytest.raises(arith.InvariantViolation) as info:
            factorize(self.N)
        assert info.value.n == self.N and info.value.routes == ("factorize",)

    def test_product_check(self):
        assert Factorization._proven(12, ((2, 2), (3, 1))) == factorize(12)
        with pytest.raises(arith.InvariantViolation, match="multiply to 20, not 12") as info:
            Factorization._proven(12, ((2, 2), (5, 1)))
        assert info.value.n == 12 and info.value.routes == ("factorize",)


class _Unformattable:
    """Fails the test wherever a message is formatted with it."""

    def __format__(self, spec):
        raise AssertionError("formatted")

    def __str__(self):
        raise AssertionError("formatted")

    __repr__ = __str__


def test_expect_formats_only_on_failure():
    # a passing check, as every factorize and reduction makes, formats nothing
    arith._expect(True, 7, ("a", "b"), "{} {!r} {!s}", *[_Unformattable()] * 3)
    with pytest.raises(arith.InvariantViolation) as info:
        arith._expect(False, 7, ("a", "b"), "{1}/{0} at n={2}: {3!r}", "x", "y", 7, "z")
    assert str(info.value) == "y/x at n=7: 'z'"
    assert (info.value.n, info.value.routes) == (7, ("a", "b"))


# factorize near 10^12, the range of the benchmark's point queries, against
# trial division by every prime up to the square root of the largest input
QUERY_LO, QUERY_HI = 10**12, 10**12 + 10**9
NEAR_PSI = [PSI[k] + s for k in (4, 5, 6, 7) for s in (-2, 2)]
ORACLE_LIMIT = math.isqrt(max(QUERY_HI, *NEAR_PSI))


@cache
def _oracle_primes():
    return arith._primes_upto(ORACLE_LIMIT)


def _factor_by_sieved_primes(n):
    """Independent oracle: divide n by every sieved prime up to its square
    root; no Miller-Rabin, no rho."""
    assert math.isqrt(n) <= ORACLE_LIMIT
    primes = _oracle_primes()
    factors, m = [], n
    for p in map(int, primes[n % primes == 0]):
        e = 0
        while m % p == 0:
            m, e = m // p, e + 1
        factors.append((p, e))
    if m > 1:
        factors.append((m, 1))
    return tuple(factors)


@settings(max_examples=200, deadline=None)
@given(st.integers(QUERY_LO + 1, QUERY_HI - 1))
@example(NEAR_PSI[0])
@example(NEAR_PSI[1])
@example(NEAR_PSI[2])
@example(NEAR_PSI[3])
@example(NEAR_PSI[4])
@example(NEAR_PSI[5])
@example(NEAR_PSI[6])
@example(NEAR_PSI[7])
def test_factorize_matches_sieved_trial_division(n):
    assert factorize(n).factors == _factor_by_sieved_primes(n)


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
    @given(st.integers(0, (GEOMETRIC_N_BOUND - 1) // 2).map(lambda k: 2 * k + 1))
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
        assert len(sieve._SIEVE_PRIMES) == 1228 and list(sieve._SIEVE_PRIMES[:167]) == primes[1:]


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
    table = sieve._FactorData(*(np.zeros(x + 1, arr.dtype) for arr in sieve._empty_factor_data(0)))
    for a, block in sieve.factor_blocks(0, x):
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

    for mod in (arith, counting, lattice, meanvalue, sieve):
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
    @example(48)
    def test_every_entry_small_bounds(self, x):
        # below 49, 7 exceeds sqrt(x) (below 25, 5 too), yet the kernel's
        # wheel strikes it; the other primes above sqrt(x) are folded in as
        # cofactors
        data = _walk_table(x)
        for n in range(1, x + 1, 2):
            _assert_factor_data(data, n)


BLOCK = sieve._SIEVE_BLOCK
SPAN = 2 * BLOCK  # the numbers one block of odd n covers


def _fill_tuple_free_lists():
    """Fill CPython's free lists of tuples (up to 2,000 of each size below
    20) before a trace: the tuples a walk builds then come from them,
    allocated before tracing, and go back to them when freed, so that the
    traced peak does not depend on how full the tests run before left them."""
    kept = [tuple(range(size)) for size in range(1, 21) for _ in range(2000)]
    del kept


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
        monkeypatch.setattr(sieve, "_SIEVE_BLOCK", length)
        for got, ref in zip(_walk_table(x), want):
            assert got.dtype == ref.dtype
            assert np.array_equal(got, ref)

    def test_prime_powers_starting_inside_a_block(self):
        # the first multiples of 521^2 and 67^3 in [BLOCK, SPAN) lie past
        # the block's start, which is a multiple of neither
        pinned = {521**2: (521 * 519, 1, 2, True), 67**3: (67**2 * 65, 1, 3, False)}
        table = _boundary_table(2 * SPAN + 3)
        [(a, block)] = sieve.factor_blocks(BLOCK + 7, BLOCK + 40_000)
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
        for a, block in sieve.factor_blocks(lo, hi):
            assert a == n
            for got, want in zip(block, table):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want[a : a + 2 * len(got) : 2])
            n += 2 * len(block.imph)
        assert n in (hi + 1, hi + 2)

    def test_walk_bytes_flat_in_block_count(self, monkeypatch):
        # 1,000 blocks of 64 odd n: the traced peak after the first 100
        # blocks is the peak of the whole walk, within its charge; tuples
        # built from generators once fed CPython's free lists about 260 B
        # a block here, past the charge after a few hundred blocks
        length, blocks = 1 << 6, 1000
        monkeypatch.setattr(sieve, "_SIEVE_BLOCK", length)
        hi = 2 * length * blocks - 1
        walk = sieve.factor_blocks(0, hi)
        _fill_tuple_free_lists()
        tracemalloc.start()
        try:
            for count, _ in enumerate(walk, 1):
                if count == 100:
                    early = tracemalloc.get_traced_memory()[1]
                    tracemalloc.reset_peak()
            late = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == blocks
        assert late <= early + 256
        assert early <= sieve.walk_bytes(0, hi)

    def test_no_odd_n_no_block(self):
        assert list(sieve.factor_blocks(4, 4)) == []
        assert [a for a, _ in sieve.factor_blocks(4, 5)] == [5]

    def test_spot_indices(self):
        # the first and last multiples of 15 of a block (15 and 524265 in the
        # first, not n = 1 and the prime 2^19 - 1, which no slice touches),
        # else its edges
        assert [1 + 2 * i for i in sieve._spot_indices(1, BLOCK)[:2]] == [15, SPAN - 23]
        assert sieve._spot_indices(SPAN + 1, BLOCK)[:2] == (3, BLOCK - 1)
        assert sieve._spot_indices(17, 6)[:2] == (0, 5)  # 17..27 holds no multiple of 15
        assert sieve._spot_indices(13, 9)[:2] == (1, 1)
        for a, length in ((1, BLOCK), (17, 6), (SPAN + 1, 1001)):
            assert all(0 <= i < length for i in sieve._spot_indices(a, length))

    @pytest.mark.parametrize("walk", [
        lambda: list(sieve.factor_blocks(0, SPAN)),
        lambda: meanvalue.moebius_sum_odd(10**5),
    ], ids=["factor_blocks", "moebius_sum_odd"])
    def test_spot_check_catches_a_wrong_bad5_slice(self, monkeypatch, walk):
        # p = 1 (mod 6) flagged in place of p = 5 (mod 6): no divisibility
        # check reads the flag here, so the first block's spot check must
        # in the factor of a power that the kernel's slices and scatter read
        source = textwrap.dedent(inspect.getsource(sieve._power_update))
        assert source.count("if p % 6 == 5:") == 1
        namespace = dict(vars(sieve))
        code = "from __future__ import annotations\n" + source.replace(
            "if p % 6 == 5:", "if p % 6 == 1:"
        )
        exec(compile(code, sieve.__file__, "exec"), namespace)
        monkeypatch.setattr(sieve, "_power_update", namespace["_power_update"])
        with pytest.raises(arith.InvariantViolation, match=r"^sieved bad5\(") as info:
            walk()
        assert 1 <= info.value.n < SPAN and info.value.routes == ("sieve", "factorize")


def _assert_walk_matches_factorize(lo, hi, near=None, width=40):
    """Every odd n of the walk over lo..hi, or those within ``width`` of
    ``near`` alone, against one factorize(n)."""
    for a, block in sieve.factor_blocks(lo, hi):
        entries = range(len(block.imph))
        if near is not None:
            entries = entries[max(0, (near - width - a) // 2) : (near + width - a) // 2 + 1]
        for i in entries:
            f = factorize(a + 2 * i)
            bad5 = any(p % 6 == 5 for p in f.primes())
            want = (imph_from_factorization(f), f.omega, f.big_omega, bad5)
            assert tuple(arr[i] for arr in block) == want, a + 2 * i


class TestSieveKernel:
    """The kernel's wheel of 3, 9, 5 and 7, copied forward from each block's
    first 315 entries, against factorize: blocks starting at each odd residue
    mod 630, block lengths on both sides of the wheel's period, and near the
    sieve cap (``TestFactorSieve`` covers the bounds x <= 400)."""

    @settings(max_examples=2, deadline=None)
    @given(st.integers(0, (arith.IMPH_SIEVE_BOUND - 2 * 10**5) // 630))
    def test_every_wheel_residue(self, k):
        # blocks of 316 entries cover 632 numbers, so the 315 blocks of this
        # walk start at every odd residue mod 630 once
        a = 630 * k + 1
        with mock.patch.object(sieve, "_SIEVE_BLOCK", 316):
            _assert_walk_matches_factorize(a, a + 2 * 316 * 315 - 2)

    @pytest.mark.parametrize("length", [1, 2, 314, 316, 1001])
    @settings(max_examples=8, deadline=None)
    @given(lo=st.integers(0, 10**6), count=st.integers(0, 1500))
    def test_block_lengths(self, length, lo, count):
        with mock.patch.object(sieve, "_SIEVE_BLOCK", length):
            _assert_walk_matches_factorize(lo, lo + count)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(arith.IMPH_SIEVE_BOUND - 10**5, arith.IMPH_SIEVE_BOUND))
    @example(arith.IMPH_SIEVE_BOUND)
    def test_window_below_the_cap(self, hi):
        _assert_walk_matches_factorize(hi - 3000, hi)


def _one_x_short(half_units):
    """``arith._half_units`` with its last chunk one x short."""
    def broken(n):
        *chunks, last = half_units(n)
        return iter([*chunks, tuple(a[:-1] for a in last)])

    return broken


class TestIpMembers:
    def test_members(self):
        assert list(ip_members(15)) == [2, 8, 14]
        assert list(ip_members(7)) == [2, 3, 4, 5, 6]
        assert list(ip_members(4)) == []
        assert list(ip_members(1)) == [1]

    def test_even_empty(self):
        for n in range(2, 100, 2):
            assert ip_members(n).size == 0

    @staticmethod
    def _is_member(n, primes=None):
        """Flags over m = 0..n of IP(n) by the two gcds, gcd(m, n) = 1 and
        gcd(m - 1, n) = 1, on every residue; or, given the primes of n, by
        m and m - 1 being prime to each."""
        m = np.arange(n + 1, dtype=np.int64)
        if primes is None:
            return (np.gcd(m, n) == 1) & (np.gcd(m - 1, n) == 1)
        unit = np.logical_and.reduce([m % p != 0 for p in primes])
        return unit & np.roll(unit, 1)  # m = 0 is not a member, as n is not a unit

    def _by_definition(self, n):
        """IP(n), increasing, by the two gcds over every residue 1..n."""
        return (np.flatnonzero(self._is_member(n)[1:]) + 1).tolist()

    def test_small_and_even_match_the_definition(self):
        for n in (1, 2, 4, 10):
            assert ip_members(n).tolist() == self._by_definition(n), n

    def _assert_member_flags(self, n, primes=None):
        """The chunks of the half pass of n run over x = 1..(n - 1)/2 in
        order, as int64, each with the low flags of the members m = x and
        the high flags of the members m = n - x that ``_is_member`` gives."""
        half = (n - 1) // 2
        member = self._is_member(n, primes)
        xs, low, high = zip(*arith._half_units(n))
        assert {x.dtype for x in xs} == {np.dtype(np.int64)}, n
        x = np.concatenate(xs)
        assert np.array_equal(x, np.arange(1, half + 1)), n
        assert np.array_equal(np.concatenate(low), member[x]), n
        assert np.array_equal(np.concatenate(high), member[n - x]), n

    @pytest.mark.parametrize("chunk", [7, 64, 1001, arith._UNIT_CHUNK])
    def test_pass_seams_match_the_definition(self, chunk):
        # the half pass covers x = 1..(n - 1)/2 in chunks from x = 1: halves
        # that fill their last chunk, leave it one x, or fall one x short
        halves = [1] + [k * chunk + d for k in (1, 2, 3) for d in (-1, 0, 1)]
        with mock.patch.object(arith, "_UNIT_CHUNK", chunk):
            for n in (2 * h + 1 for h in halves if 2 * h + 1 <= arith.IP_BOUND):
                assert ip_members(n).tolist() == self._by_definition(n), n
            # primes met in one chunk strike their multiples in the next, and
            # x = lo - 1 and x = lo lie in two chunks; at the default chunk,
            # the halves of the last five n fall one x short of one chunk,
            # fill it, pass it by one x, fill two chunks and pass them by one x
            for n in (*range(3, 3001, 2), 131071, 131073, 131075, 262145, 262147):
                self._assert_member_flags(n)

    @pytest.mark.parametrize("n,primes", [
        pytest.param(9999993, (3, 3333331), id="a prime past sqrt(n), met in a late chunk"),
        pytest.param(9699691, (347, 27953), id="two primes, one past sqrt(n)"),
        pytest.param(4782969, (3,), id="3^14, nothing left past sqrt(n)"),
        pytest.param(1771561, (11,), id="11^6, nothing left past sqrt(n)"),
        pytest.param(9999991, (9999991,), id="a prime, no divisor below sqrt(n)"),
    ])
    def test_pass_flags_near_the_cap(self, n, primes):
        # at the default chunk; the flags are read off the primes of n, each
        # checked prime by trial division, as the two gcds over 0..n take
        # about 2 s each near 10^7
        rest = n
        for p in primes:
            assert all(p % d for d in range(2, math.isqrt(p) + 1)), p
            while rest % p == 0:
                rest //= p
        assert rest == 1
        self._assert_member_flags(n, primes)

    def test_pass_one_x_short_is_caught(self):
        # a pass whose last chunk stops one x short finds no member of IP(3):
        # the table is empty, which makes no orbit, and the orbit count
        # against the closed form T(3) = 1 names the fault
        with mock.patch.object(arith, "_half_units", _one_x_short(arith._half_units)):
            assert six_map_table(3)[1].shape == (6, 0)
            with pytest.raises(arith.InvariantViolation, match=r"^0 orbits in IP\(3\)") as info:
                orbit_decomposition(3)
        assert (info.value.n, info.value.routes) == (3, ("six-map", "closed"))

    def test_even_table_makes_no_pass(self):
        def no_pass(n):
            raise AssertionError(f"half pass at even n = {n}")

        with mock.patch.object(arith, "_half_units", no_pass):
            for n in (2, 10, arith.IP_BOUND):
                members, table = six_map_table(n)
                assert members.size == 0 and table.shape == (6, 0), n

    @pytest.mark.parametrize("build", [ip_members, six_map_table])
    def test_refused_before_allocating(self, build):
        build(3)
        tracemalloc.start()
        try:
            with pytest.raises(arith.Refused, match=r"IP enumeration capped at 100000"):
                build(arith.IP_BOUND + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


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


# Prime powers on both sides of the kernel's split in blocks of 2^18 entries,
# 2^18 // 256 = 1024: slices strike 729 = 3^6, 961 = 31^2 and 1021, the
# scatter 1031, 1033, 1331 = 11^3, 1369 = 37^2, 2187 = 3^7, 2197 = 13^3,
# 2401 = 7^4 and 3125 = 5^5; at the multiples of 6561 = 3^8 and of 1031^2 and
# 1033^2 two scattered powers hit one n.
SPLIT_POWERS = (729, 961, 1021, 1031, 1033, 1331, 1369, 2187, 2197, 2401, 3125, 6561,
                1031**2, 1033**2)

# Near the sieve cap, where 9973^2 = 99,460,729 is scattered, two scattered
# primes hit 9967 * 9973 and 9949 * 9973, and 9973 * 10007 has the cofactor
# 10007.
CAP_NUMBERS = (9973**2, 9967 * 9973, 9949 * 9973, 9973 * 10007)


class TestScatter:
    """The powers that the kernel scatters, a block's p^k >= length // 256,
    against factorize: windows of the walk around their multiples, in blocks
    of 2^18 entries and of 64 and 1001, in which every power but 3, 9, 5
    and 7 is scattered."""

    @pytest.mark.parametrize("length", [BLOCK, 64, 1001])
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_split_powers(self, length, data):
        q = data.draw(st.sampled_from(SPLIT_POWERS))
        n = q * (2 * data.draw(st.integers(0, 10**7 // (2 * q))) + 1)
        self._check_window(length, n, data)

    @pytest.mark.parametrize("length", [BLOCK, 64, 1001])
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_block_near_the_cap(self, length, data):
        cap = arith.IMPH_SIEVE_BOUND
        n = data.draw(st.one_of(st.sampled_from(CAP_NUMBERS), st.integers(cap - 10**6, cap - 1)))
        self._check_window(length, n | 1, data)

    @staticmethod
    def _check_window(length, n, data):
        # one block of the walk, placed so that it holds n anywhere
        lo = max(1, n - 2 * data.draw(st.integers(0, length - 1)))
        hi = min(lo + 2 * length - 1, arith.IMPH_SIEVE_BOUND)
        with mock.patch.object(sieve, "_SIEVE_BLOCK", length):
            assert len(list(sieve.factor_blocks(lo, hi))) == 1
            _assert_walk_matches_factorize(lo, hi, near=n)
