"""Summatory functions and limit constants for the triangle counts.

The mean value of imph(n)/n is (1/2) * prod_{p odd} (1 - 2/p^2), which ties
the averages of imph and T to the Feller-Tornier constant
C_FT = 1/2 + (1/2) * prod_p (1 - 2/p^2) = 1/2 + (1/4) * prod_{p odd} (1 - 2/p^2),
the p = 2 factor being 1/2.  All constants are computed by truncated products
or sums with explicit tail brackets, and every constant has at least two
independent representations that are checked against each other rather than
against hardcoded literals: the odd product against the Moebius sum, and C_FT
against its zeta(2) form, a product of 1 - 1/(p^2 - 1) over the same primes.
One walk of the primes gives the odd product, C_FT and the zeta form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import (
    InvariantViolation,
    _factor_blocks,
    _FactorData,
    _odd_offset,
    _primes_upto,
    _sieve_table,
)

__all__ = [
    "ConstantEstimate",
    "MeanValueReport",
    "GrosswaldReport",
    "partial_sum_imph",
    "partial_sum_T",
    "t_closed_sieve",
    "euler_product_odd",
    "feller_tornier",
    "feller_tornier_zeta",
    "moebius_sum_odd",
    "mean_value_report",
    "grosswald_ratios",
]


@dataclass(frozen=True)
class ConstantEstimate:
    """A truncated product/sum value with a rigorous truncation-error bracket."""

    value: float
    prime_bound: int
    tail_bound: float

    def __post_init__(self) -> None:
        if self.tail_bound < 0:
            raise ValueError("tail bound must be nonnegative")

    def agrees_with(self, other: "ConstantEstimate") -> bool:
        return abs(self.value - other.value) <= self.tail_bound + other.tail_bound

    def check_agrees(self, other: "ConstantEstimate", routes: tuple[str, str]) -> None:
        """Raise ``InvariantViolation`` unless ``agrees_with(other)``."""
        if not self.agrees_with(other):
            msg = f"{routes[0]}/{routes[1]} disagree: {self.value} vs {other.value}"
            raise InvariantViolation(msg, None, routes)


# --------------------------------------------------------------------------
# summatory functions
# --------------------------------------------------------------------------


def partial_sum_imph(x: int) -> int:
    """Exact sum of imph(n) for n <= x, added up block by block."""
    if x < 1:
        raise ValueError(f"bound must be positive, got {x}")
    return sum(int(f.imph.sum()) for _, f in _factor_blocks(0, x))


def _t_closed_block(a: int, f: _FactorData) -> np.ndarray:
    """T(n) for the odd n = a + 2i of a block of the walk, built in f.imph's
    array.

    Applies the scalar closed form 6 T(n) = imph(n) + 2 rho(n) + 3 to a whole
    block, with imph(n), omega(n) and the p = 5 (mod 6) flag from the factor
    sieve.  By the rule of ``arith.quad_root_count``, 2 rho(n) is 0 when
    9 | n or some p = 5 (mod 6) divides n, 2^omega(n) when 3 | n otherwise,
    and 2^(omega(n) + 1) in the remaining case.  f.imph is overwritten; the
    int16 root-count array keeps the peak within the walk's own figure.
    """
    import numpy as np

    roots = np.left_shift(2, f.omega, dtype=np.int16)  # 2^(omega + 1)
    roots[_odd_offset(a, 3) :: 3] >>= 1
    roots[_odd_offset(a, 9) :: 9] = 0
    roots[f.bad5] = 0
    table = f.imph
    table += roots
    table += 3
    if np.remainder(table, 6, out=roots, casting="unsafe").any():  # pragma: no cover
        raise InvariantViolation("closed-form numerator not divisible by 6", routes=("closed",))
    del roots
    table //= 6
    return table


def t_closed_sieve(x: int) -> np.ndarray:
    """Table t with t[n] = T(n) for n <= x, from one walk of the factor sieve
    (``arith._factor_blocks``) and the closed form of ``_t_closed_block``."""
    return _sieve_table(x, _t_closed_block)


def partial_sum_T(x: int) -> int:
    """Exact sum of T(n) for n <= x, via the sieved closed form, added up
    block by block."""
    if x < 1:
        return 0
    return sum(int(_t_closed_block(a, f).sum()) for a, f in _factor_blocks(0, x))


# --------------------------------------------------------------------------
# constants
# --------------------------------------------------------------------------


def _prime_products(prime_bound: int) -> tuple[float, float]:
    """One walk of the primes p <= prime_bound: the product of 1 - 2/p^2 over
    the odd p, and of 1 - 1/(p^2 - 1) over all p.

    Each product is taken in ascending prime order on one float64 temporary
    built from the array of p^2 (exact, as p^2 < 2^53), so the peak stays
    within the prime budget check.
    """
    import numpy as np

    sq = _primes_upto(prime_bound).astype(np.float64)
    sq *= sq
    t = np.divide(2.0, sq[1:])  # drop p = 2
    np.subtract(1.0, t, out=t)
    odd = float(np.multiply.reduce(t))
    del t
    t = np.subtract(sq, 1.0)
    del sq
    np.divide(1.0, t, out=t)
    np.subtract(1.0, t, out=t)
    return odd, float(np.multiply.reduce(t))


def _prime_constants(prime_bound: int, minimum: int = 2) -> tuple[ConstantEstimate, ...]:
    """The odd Euler product, C_FT and C_FT's zeta form at P = prime_bound,
    from one walk of the primes, with C_FT checked against the zeta form.

    C_FT = 1/2 + (1/4) * (odd product), as the p = 2 factor of 1 - 2/p^2 is
    1/2.  The zeta form (1/2) (1 + (1/zeta(2)) prod_{p <= P} (1 - 1/(p^2 - 1)))
    reads prime by prime the same factors, since
    (1 - 1/(p^2 - 1)) (1 - 1/p^2) = 1 - 2/p^2, so it checks the product and
    the prime walk alike.  Tail bracket of each: the omitted factors change
    the value by at most value * sum_{p > P} 2.5/p^2 < 3/(P - 1).
    P below ``minimum`` is rejected before any work.
    """
    if prime_bound < minimum:
        raise ValueError(f"prime bound must be at least {minimum}")
    odd, zeta_prod = _prime_products(prime_bound)
    tail = 3.0 / (prime_bound - 1)
    ft = ConstantEstimate(0.5 + 0.25 * odd, prime_bound, tail)
    zeta = ConstantEstimate(0.5 * (1.0 + zeta_prod / (math.pi**2 / 6.0)), prime_bound, tail)
    ft.check_agrees(zeta, ("feller-tornier", "zeta"))
    return ConstantEstimate(odd, prime_bound, tail), ft, zeta


def euler_product_odd(prime_bound: int) -> ConstantEstimate:
    """Truncated product over odd primes p <= P of (1 - 2/p^2), P >= 3, with
    the tail bracket 3/(P - 1); see ``_prime_constants``."""
    return _prime_constants(prime_bound, 3)[0]


def feller_tornier(prime_bound: int) -> ConstantEstimate:
    """C_FT = 1/2 + (1/4) prod_{odd p <= P} (1 - 2/p^2), P >= 2, checked
    against the zeta form before being returned; see ``_prime_constants``."""
    return _prime_constants(prime_bound)[1]


def feller_tornier_zeta(prime_bound: int) -> ConstantEstimate:
    """C_FT via (1/2) (1 + (1/zeta(2)) prod_{p <= P} (1 - 1/(p^2 - 1))), P >= 2;
    see ``_prime_constants``."""
    return _prime_constants(prime_bound)[2]


def moebius_sum_odd(d_bound: int) -> ConstantEstimate:
    """The Moebius-sum representation 1 + sum_{d > 1 odd} mu(d) 2^omega(d) / d^2.

    For squarefree d (omega(d) = Omega(d)) the summand's numerator is
    (-2)^omega(d); non-squarefree d contribute nothing.  Converges to the odd
    Euler product.  The odd terms fill one float64 array, block by block of
    the sieve walk, and are added up by one ``np.add.reduce``; the array is
    charged to the walk, whose cap and budget are checked before it is
    allocated.  Tail bracket:
    |tail| <= sum_{d > D} tau(d)/d^2 <= (ln D + 1 + pi^2/6)/D.
    """
    import numpy as np

    if d_bound < 1:
        raise ValueError("bound must be positive")
    tail = (math.log(d_bound) + 1.0 + math.pi**2 / 6.0) / d_bound
    if d_bound < 3:
        return ConstantEstimate(1.0, d_bound, tail)
    count = (d_bound - 1) // 2  # d = 3, 5, ..., d_bound
    blocks = _factor_blocks(3, d_bound, holding=8 * count)  # checked before terms exist
    terms = np.empty(count)
    for a, f in blocks:
        out = terms[(a - 3) // 2 :][: len(f.omega)]
        np.ldexp(1.0, f.omega, out=out)  # 2^omega, then the sign (-1)^omega
        np.negative(out, out=out, where=(f.omega & 1).view(bool))
        out[f.omega != f.big_omega] = 0.0
        d = f.imph  # d = a, a + 2, ... in the block's own int64 array
        d.fill(2)
        d[0] = a
        np.cumsum(d, out=d)
        d *= d  # exact in int64 (d <= 10^8); the division rounds it to float64 once
        out /= d
    return ConstantEstimate(1.0 + float(np.add.reduce(terms)), d_bound, tail)


# --------------------------------------------------------------------------
# empirical reports
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MeanValueReport:
    """Sums up to x against their limits, with the three constants of one
    prime walk."""

    x: int
    sum_imph: int
    sum_t: int
    ratio_imph: float
    ratio_t: float
    limit_imph: float
    limit_t: float
    deviation_imph: float
    deviation_t: float
    product: ConstantEstimate
    feller_tornier: ConstantEstimate
    feller_tornier_zeta: ConstantEstimate


def mean_value_report(x: int, prime_bound: int = 10**7) -> MeanValueReport:
    """Empirical sums against the limit constants.

    sum imph(n) / x^2 tends to product/4 and sum T(n) / x^2 to product/24,
    with product the odd Euler product of (1 - 2/p^2); product, C_FT and its
    zeta form come from one walk of the primes (``_prime_constants``), made
    and dropped before the sieve.  x is checked against the factor sieve's
    cap and memory budget before any work starts, and both sums come from one
    walk of the factor sieve over 0..x, block by block.
    """
    if x < 1:
        raise ValueError(f"bound must be positive, got {x}")
    blocks = _factor_blocks(0, x)
    prod, ft, ft_zeta = _prime_constants(prime_bound, 3)
    s_imph = s_t = 0
    for a, f in blocks:
        s_imph += int(f.imph.sum())  # before _t_closed_block overwrites f.imph
        s_t += int(_t_closed_block(a, f).sum())
    ratio_imph = s_imph / (x * x)
    ratio_t = s_t / (x * x)
    limit_imph = prod.value / 4.0
    limit_t = prod.value / 24.0
    return MeanValueReport(
        x,
        s_imph,
        s_t,
        ratio_imph,
        ratio_t,
        limit_imph,
        limit_t,
        abs(ratio_imph - limit_imph) / limit_imph,
        abs(ratio_t - limit_t) / limit_t,
        prod,
        ft,
        ft_zeta,
    )


@dataclass(frozen=True)
class GrosswaldReport:
    x: int
    total: int
    ratio_to_xlog2x: float


def grosswald_ratios(bounds: list[int]) -> list[GrosswaldReport]:
    """Sum of 2^Omega(n) for n <= x, with the ratio to x ln^2 x, at each bound.

    Grosswald's bound says the average order of 2^Omega(n) is O(x log^2 x),
    which is what makes the 2^omega terms in T(n) negligible on average.
    Writing n = 2^k m with m odd gives sum_{n<=x} 2^Omega(n) =
    sum_{k>=0} 2^k O(floor(x / 2^k)), where O(y) sums 2^Omega(m) over the odd
    m <= y.  One walk of the sieve over the odd n, added up block by block,
    records O at every cut floor(x / 2^k) of every bound; reports come in
    ascending order of x.
    """
    import numpy as np

    if not bounds:
        return []
    for x in bounds:
        if x < 1:
            raise ValueError(f"bound must be positive, got {x}")
    xs = sorted(bounds)
    cuts = np.unique([x >> k for x in xs for k in range(x.bit_length())])
    odd_sums = np.empty_like(cuts)  # O at each cut
    done = 0  # the sum over the odd m below the block's start
    for a, f in _factor_blocks(1, xs[-1]):
        cumulative = np.left_shift(1, f.big_omega, out=f.imph, dtype=np.int64)
        np.cumsum(cumulative, out=cumulative)
        i, j = np.searchsorted(cuts, [a, a + 2 * len(cumulative)])
        odd_sums[i:j] = cumulative[(cuts[i:j] - a) // 2] + done
        done += int(cumulative[-1])
    out = []
    for x in xs:
        at = np.searchsorted(cuts, [x >> k for k in range(x.bit_length())])
        total = sum(int(o) << k for k, o in enumerate(odd_sums[at]))
        denom = x * math.log(x) ** 2 if x > 1 else 1.0
        out.append(GrosswaldReport(x, total, total / denom))
    return out
