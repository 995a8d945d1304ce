import math
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cleantri import arith
from cleantri.arith import (
    Factorization,
    count_roots_quad,
    count_roots_quad_n,
    extended_gcd,
    factorize,
    imph,
    imph_bruteforce,
    imph_from_factorization,
    imph_sieve,
    ip_members,
    is_prime,
    legendre_minus3,
    mod_inverse,
    roots_quad_n,
)


class TestFactorize:
    def test_one(self):
        assert factorize(1).factors == ()

    def test_twelve(self):
        assert factorize(12).factors == ((2, 2), (3, 1))

    def test_9999_trial_division_oracle(self):
        # independent oracle: plain trial division
        n, expected = 9999, []
        m = n
        d = 2
        while m > 1:
            e = 0
            while m % d == 0:
                e += 1
                m //= d
            if e:
                expected.append((d, e))
            d += 1
        assert factorize(n).factors == tuple(expected) == ((3, 2), (11, 1), (101, 1))

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


FACTOR_SIEVE_X = 10**5


@cache
def _factor_table():
    return arith._factor_sieve(FACTOR_SIEVE_X)


def _assert_factor_data(data, n):
    f = factorize(n)
    assert data.imph[n] == imph_from_factorization(f)
    assert data.omega[n] == f.omega
    assert data.big_omega[n] == f.big_omega
    assert data.squarefree[n] == all(e == 1 for _, e in f.factors)
    assert data.bad5[n] == any(p % 6 == 5 for p in f.primes())


class TestFactorSieve:
    # factorize reaches the same fields by trial division and rho, not by sieving
    @settings(max_examples=500, deadline=None)
    @given(st.integers(min_value=1, max_value=FACTOR_SIEVE_X))
    def test_fields_match_factorize(self, n):
        _assert_factor_data(_factor_table(), n)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=400))
    @example(3)
    def test_every_entry_small_bounds(self, x):
        # small x leave cofactors like 2 and 3 unsieved, since no prime is <= sqrt(x)
        data = arith._factor_sieve(x)
        for n in range(1, x + 1):
            _assert_factor_data(data, n)


class TestIpMembers:
    def test_members(self):
        assert list(ip_members(15)) == [2, 8, 14]
        assert list(ip_members(7)) == [2, 3, 4, 5, 6]
        assert list(ip_members(4)) == []
        assert list(ip_members(1)) == [1]

    def test_even_empty(self):
        for n in range(2, 100, 2):
            assert ip_members(n).size == 0


class TestLegendreMinus3:
    @pytest.mark.parametrize("p,value", [(7, 1), (5, -1), (13, 1)])
    def test_spot(self, p, value):
        assert legendre_minus3(p) == value

    def test_rejects(self):
        for bad in (2, 3, 9, 15):
            with pytest.raises(ValueError):
                legendre_minus3(bad)

    def test_mod6_classification(self):
        for p in range(5, 10**4):
            if is_prime(p):
                assert legendre_minus3(p) == (1 if p % 6 == 1 else -1)


class TestRootsQuad:
    def test_spot(self):
        assert count_roots_quad(3, 1) == (1, (2,))
        assert count_roots_quad(3, 2) == (0, ())
        assert count_roots_quad(7, 1) == (2, (3, 5))
        assert count_roots_quad(5, 1) == (0, ())

    def test_rejects_two(self):
        with pytest.raises(ValueError):
            count_roots_quad(2, 1)

    def test_root_validity_and_counts(self):
        # brute-force residue scan over all odd prime powers <= 10^4
        for p in range(3, 101, 2):
            if not is_prime(p):
                continue
            k = 1
            while p**k <= 10**4:
                pk = p**k
                expected = [x for x in range(1, pk) if (x * x - x + 1) % pk == 0]
                count, roots = count_roots_quad(p, k)
                assert count == len(expected)
                assert list(roots) == expected
                k += 1

    def test_composite_counts(self):
        assert count_roots_quad_n(7) == 2
        assert count_roots_quad_n(21) == 2
        assert count_roots_quad_n(45) == 0
        assert count_roots_quad_n(1) == 1
        with pytest.raises(ValueError):
            count_roots_quad_n(10)

    def test_composite_counts_bruteforce(self):
        for n in range(1, 1000, 2):
            expected = sum(1 for x in range(n) if (x * x - x + 1) % n == 0)
            assert count_roots_quad_n(n) == expected

    def test_roots_in_ip(self):
        for n in range(1, 2001, 2):
            members = set(int(x) for x in ip_members(n))
            for r in roots_quad_n(n):
                assert (r * r - r + 1) % n == 0
                assert (r - 1) % n + 1 in members
