import tracemalloc
from functools import cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cleantri import arith, counting, meanvalue
from cleantri.meanvalue import (
    ConstantEstimate,
    euler_product_odd,
    feller_tornier,
    feller_tornier_zeta,
    grosswald_ratios,
    mean_value_report,
    moebius_sum_odd,
    partial_sum_T,
    partial_sum_imph,
    t_closed_sieve,
)


@cache
def _two_pow_big_omega_sums():
    """totals[x] = sum of 2^Omega(n) over n <= x, for x <= 2000, from factorize."""
    totals = [0]
    for n in range(1, 2001):
        totals.append(totals[-1] + 2 ** arith.factorize(n).big_omega)
    return totals


class TestPartialSums:
    def test_imph_spot(self):
        assert partial_sum_imph(10) == 13
        assert partial_sum_imph(1) == 1
        assert partial_sum_imph(49) - partial_sum_imph(48) == 35

    def test_imph_matches_scalar(self):
        total = 0
        for n in range(1, 300):
            total += arith.imph(n)
            assert partial_sum_imph(n) == total

    @pytest.mark.parametrize("x,match", [(0, "positive"), (-3, "positive"), (10**8 + 1, "capped")])
    def test_imph_rejects_before_any_table(self, monkeypatch, x, match):
        def forbidden(length):
            raise RuntimeError(f"table of {length} allocated")

        monkeypatch.setattr(arith, "_empty_factor_data", forbidden)
        with pytest.raises(ValueError, match=match):
            partial_sum_imph(x)

    def test_t_spot(self):
        assert partial_sum_T(10) == 6
        assert partial_sum_T(2) == 1
        assert partial_sum_T(0) == 0

    def test_t_sieve_matches_scalar(self):
        table = t_closed_sieve(2000)
        for n in range(1, 2001):
            assert table[n] == counting.t_closed(n)

    def test_t_sieve_root_count_past_int8(self):
        # the smallest n with 2^(omega(n) + 1) = 128 roots counted in the closed form
        n = 3 * 7 * 13 * 19 * 31 * 37
        assert t_closed_sieve(n)[n] == counting.t_closed(n)

    def test_t_sieve_odd_only(self):
        table = t_closed_sieve(500)
        assert not table[2::2].any()


class TestEulerProduct:
    def test_single_factor(self):
        est = euler_product_odd(3)
        assert est.value == pytest.approx(7 / 9, abs=1e-15)

    def test_two_factors(self):
        assert euler_product_odd(5).value == pytest.approx(161 / 225, abs=1e-15)

    def test_monotone_decreasing_with_shrinking_tail(self):
        prev = None
        for bound in (10, 100, 1000, 10**4, 10**5):
            est = euler_product_odd(bound)
            if prev is not None:
                assert est.value < prev.value
                assert est.tail_bound < prev.tail_bound
            prev = est

    def test_tail_bracket(self):
        # refined estimates stay within the coarse estimate's tail bracket
        coarse = euler_product_odd(10**3)
        fine = euler_product_odd(10**6)
        assert abs(coarse.value - fine.value) <= coarse.tail_bound


class TestConstantsMemory:
    @pytest.mark.parametrize("fn", [euler_product_odd, feller_tornier, feller_tornier_zeta])
    def test_traced_peak_within_prime_budget_check(self, fn):
        bound = 10**6
        fn(bound)  # warm up outside the trace
        tracemalloc.start()
        try:
            fn(bound)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= arith._primes_upto_bytes(bound)


class TestFellerTornier:
    def test_two_prime_truncation(self):
        assert feller_tornier(2).value == pytest.approx(0.75, abs=1e-15)

    def test_representations_agree(self):
        a = feller_tornier(10**6)
        b = feller_tornier_zeta(10**6)
        assert abs(a.value - b.value) < 1e-6

    def test_relation_to_odd_product(self):
        # 2 * C_FT - 1 = (1/2) * odd product, exactly at matched truncation
        p = 10**5
        ft = feller_tornier(p)
        odd = euler_product_odd(p)
        assert 2 * ft.value - 1 == pytest.approx(0.5 * odd.value, abs=1e-12)


class TestMoebiusSum:
    def test_empty(self):
        assert moebius_sum_odd(1).value == 1.0

    def test_single_term(self):
        assert moebius_sum_odd(3).value == pytest.approx(7 / 9, abs=1e-15)

    def test_matches_euler_product(self):
        mo = moebius_sum_odd(10**5)
        eu = euler_product_odd(10**6)
        assert abs(mo.value - eu.value) <= mo.tail_bound + eu.tail_bound

    def test_estimate_validation(self):
        with pytest.raises(ValueError):
            ConstantEstimate(1.0, 10, -0.1)


class TestMeanValueReport:
    def test_small_x(self):
        rep = mean_value_report(10, prime_bound=10**4)
        assert rep.sum_imph == 13
        assert rep.ratio_imph == pytest.approx(0.13)

    def test_convergence_envelope(self):
        devs = [
            mean_value_report(x, prime_bound=10**5).deviation_imph
            for x in (10**3, 10**4, 10**5, 10**6)
        ]
        assert max(devs[2:]) < max(devs[:2])


class TestGrosswald:
    def test_spot(self):
        assert grosswald_ratios([10])[0].total == 33
        assert grosswald_ratios([1])[0].total == 1

    def test_total_past_omega_seven(self):
        # 2^Omega(n) reaches 128 at n = 128 and 256 at n = 256
        x = 300
        expected = sum(2 ** arith.factorize(n).big_omega for n in range(1, x + 1))
        assert grosswald_ratios([x])[0].total == expected

    def test_ratio_bounded(self):
        reports = grosswald_ratios([10**4 * 2**k for k in range(7)])
        ratios = [r.ratio_to_xlog2x for r in reports]
        assert max(ratios) < 10 * min(ratios)

    def test_ratios_match_single_calls(self):
        for r in grosswald_ratios([100, 1000]):
            single = grosswald_ratios([r.x])[0]
            assert single.total == r.total
            assert single.ratio_to_xlog2x == pytest.approx(r.ratio_to_xlog2x)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.integers(1, 2000),
                st.tuples(st.integers(1, 10), st.sampled_from([-1, 1])).map(
                    lambda kd: 2 ** kd[0] + kd[1]
                ),
            ),
            min_size=1,
            max_size=4,
        ),
        st.sampled_from([5, 64, arith._SIEVE_BLOCK]),
    )
    def test_grosswald_matches_factorize(self, bounds, block):
        # the odd-n walk's cuts floor(x / 2^k), in blocks of any length,
        # against 2^Omega(n) summed over every n from its factorization
        totals = _two_pow_big_omega_sums()
        with mock.patch.object(arith, "_SIEVE_BLOCK", block):
            reports = grosswald_ratios(bounds)
        assert [r.x for r in reports] == sorted(bounds)
        assert [r.total for r in reports] == [totals[x] for x in sorted(bounds)]

    @pytest.mark.parametrize("bounds", [[0, 100], [-5, 10], [0]])
    def test_rejects_bounds_below_one(self, bounds):
        with pytest.raises(ValueError, match="positive"):
            grosswald_ratios(bounds)


class TestBlockWalk:
    """Every table and sum read block by block equals its one-block value; a
    block length of 1001 odd n, 2002 numbers (prime to 3 and 9), moves the
    start of each block, always odd, to another residue class mod 3 and 9."""

    X = 5000

    def test_t_table_matches_scalar(self, monkeypatch):
        monkeypatch.setattr(arith, "_SIEVE_BLOCK", 1001)
        table = t_closed_sieve(self.X)
        assert table.tolist() == [0] + [counting.t_closed(n) for n in range(1, self.X + 1)]
        assert partial_sum_T(self.X) == int(table.sum())

    @pytest.mark.parametrize(
        "fn",
        [
            arith.imph_sieve,
            partial_sum_imph,
            moebius_sum_odd,
            lambda x: grosswald_ratios([1, 1000, 1001, 1002, 2 * 1001, 2 * 1001 + 1, x]),
            lambda x: mean_value_report(x, prime_bound=1000),
        ],
        ids=["imph_sieve", "partial_sum_imph", "moebius_sum_odd", "grosswald_ratios",
             "mean_value_report"],
    )
    def test_same_as_one_block(self, monkeypatch, fn):
        whole = fn(self.X)
        monkeypatch.setattr(arith, "_SIEVE_BLOCK", 1001)
        blocked = fn(self.X)
        if isinstance(whole, np.ndarray):
            assert blocked.dtype == whole.dtype and np.array_equal(blocked, whole)
        else:
            assert blocked == whole


# Each sieve user: the function of x, the first n of its walk, and the bytes
# it holds beside the walk (its table or its odd Moebius terms).
SIEVE_USERS = {
    "imph_sieve": (arith.imph_sieve, 0, lambda x: 8 * (x + 1)),
    "t_closed_sieve": (t_closed_sieve, 0, lambda x: 8 * (x + 1)),
    "moebius_sum_odd": (moebius_sum_odd, 3, lambda x: 8 * ((x - 1) // 2)),
    "grosswald_ratios": (lambda x: grosswald_ratios([x]), 1, lambda x: 0),
}


def _charged_need(name, x):
    """The bytes the walk of a sieve user is checked against the budget for:
    what the caller holds, one block and the fixed per-walk objects."""
    _, lo, holding = SIEVE_USERS[name]
    block = min((x + 1) // 2 - lo // 2, arith._SIEVE_BLOCK)  # 16 B for each odd n
    return (
        holding(x)
        + arith._FACTOR_SIEVE_BYTES_PER_N * block
        + max(0, arith._CAST_BUFFER_BYTES - block)
        + arith._WALK_OBJECT_BYTES
    )


# Room above the charge, whose fixed per-walk figure covers the headers of the
# block's arrays and views, the walk's generator frame and the like.
OBJECT_SLACK = 2 * 1024


def _traced_peak(fn, *args):
    fn(*args)  # warm up lazy imports and caches outside the trace
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSieveMemoryBudget:
    @pytest.mark.parametrize("name", sorted(SIEVE_USERS))
    def test_budget_covers_whole_sieve(self, monkeypatch, name):
        # one byte short of the charged need is refused before any sieving;
        # the exact need serves
        def forbidden(*args):
            raise RuntimeError("sieving started")

        x = 10**6
        fn, need = SIEVE_USERS[name][0], _charged_need(name, x)
        with monkeypatch.context() as m:
            m.setenv(arith.SIEVE_MEMORY_ENV, str(need - 1))
            m.setattr(arith, "_sieve_block", forbidden)
            with pytest.raises(ValueError, match=f"needs {need} bytes, budget"):
                fn(x)
        monkeypatch.setenv(arith.SIEVE_MEMORY_ENV, str(need))
        fn(x)

    @pytest.mark.parametrize("name", sorted(SIEVE_USERS))
    def test_peak_within_need(self, name):
        x = 10**5
        assert _traced_peak(SIEVE_USERS[name][0], x) <= _charged_need(name, x) + OBJECT_SLACK

    @pytest.mark.parametrize(
        "fn",
        [
            partial_sum_imph,
            partial_sum_T,
            lambda x: grosswald_ratios([x // 3, x]),
            lambda x: mean_value_report(x, prime_bound=1000),
        ],
        ids=["partial_sum_imph", "partial_sum_T", "grosswald_ratios", "mean_value_report"],
    )
    def test_sums_hold_one_block(self, fn):
        # four blocks of odd n are added up in the memory of one, plus the
        # fixed per-walk objects
        x = 8 * arith._SIEVE_BLOCK
        block = arith._FACTOR_SIEVE_BYTES_PER_N * arith._SIEVE_BLOCK
        assert _traced_peak(fn, x) <= block + arith._WALK_OBJECT_BYTES + OBJECT_SLACK

    @pytest.mark.parametrize("d_bound", [10**8 + 1, 10**12, 10**20])
    def test_moebius_cap_before_terms(self, d_bound):
        # the term array is charged to the walk, so a bound past the sieve cap
        # is refused by the cap, not by numpy failing to allocate the terms
        with pytest.raises(ValueError, match="capped"):
            moebius_sum_odd(d_bound)

    def test_moebius_refusal_allocates_no_terms(self, monkeypatch):
        # one byte short of the need at 10^6 (4 MB of terms) refuses at once
        x = 10**6
        monkeypatch.setenv(arith.SIEVE_MEMORY_ENV, str(_charged_need("moebius_sum_odd", x) - 1))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="budget"):
                moebius_sum_odd(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6
