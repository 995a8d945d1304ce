"""Acceptance suite: one test per top-level criterion.

Each test prints a single PASS line on success; tolerances and runtime
budgets are fixed here, not configurable.
"""

import json
import math
import subprocess
import sys
import time
from itertools import combinations

import numpy as np

from cleantri import arith, counting, lattice, meanvalue
from cleantri.arith import imph, imph_bruteforce, imph_sieve, ip_members, six_map_table
from cleantri.counting import (
    _fix_counts_vectorized,
    fix_count_closed,
    map_g,
    t_burnside,
    t_closed,
    t_geometric,
)
from cleantri.lattice import (
    LatticePoint,
    LatticeTriangle,
    apply_map,
    boundary_count,
    interior_count_enum,
    reduce_to_base_form,
    scott_exhaustive,
    twice_area,
)

T = LatticeTriangle.from_coords


def report(num, text):
    print(f"PASS criterion {num}: {text}")


def test_criterion_1_imph_oracle():
    start = time.monotonic()
    table = imph_sieve(5000)
    for n in range(1, 5001):
        assert table[n] == imph_bruteforce(n) == imph(n)
    elapsed = time.monotonic() - start
    assert imph(1) == 1
    assert all(imph(2**k) == 0 for k in range(1, 20))
    assert imph(49) == 35
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    report(1, f"imph closed form = brute force for n <= 5000 ({elapsed:.1f}s)")


def test_criterion_2_multiplicativity():
    bound = 10**5
    table = imph_sieve(bound)
    violations = 0
    for m1 in range(2, int(math.isqrt(bound)) + 1):
        m2 = np.arange(m1, bound // m1 + 1, dtype=np.int64)
        m2 = m2[np.gcd(m2, m1) == 1]
        violations += int((table[m1 * m2] != table[m1] * table[m2]).sum())
    assert violations == 0
    report(2, "imph multiplicative over all coprime pairs with product <= 1e5")


def test_criterion_3_t_triple_agreement():
    start = time.monotonic()
    for n in range(1, 10**4 + 1, 2):
        assert t_closed(n) == t_burnside(n), f"n={n}"
    elapsed_b = time.monotonic() - start
    assert elapsed_b < 60.0, f"burnside sweep took {elapsed_b:.1f}s"
    start = time.monotonic()
    for n in range(1, 2001, 2):
        assert t_geometric(n) == t_closed(n), f"n={n}"
    elapsed_g = time.monotonic() - start
    assert elapsed_g < 120.0, f"geometric sweep took {elapsed_g:.1f}s"
    for n, v in [(1, 1), (3, 1), (5, 1), (7, 2), (9, 1), (21, 2)]:
        assert t_closed(n) == v
    assert all(t_closed(n) == 0 for n in range(2, 200, 2))
    report(
        3,
        f"t_closed = t_burnside to 1e4 ({elapsed_b:.1f}s), "
        f"= t_geometric to 2000 ({elapsed_g:.1f}s)",
    )


def test_criterion_4_fixed_point_closed_forms():
    # three ways: the congruence counts of the Burnside route, the closed
    # forms, and the members each row of the six-map table leaves in place
    for n in range(1, 2001, 2):
        vec = _fix_counts_vectorized(n)
        members, table = six_map_table(n)
        assert vec == tuple(int(c) for c in (table == members).sum(axis=1)), f"n={n}"
        for i in range(1, 7):
            assert vec[i - 1] == fix_count_closed(i, n), f"map g{i}, n={n}"
        assert vec[1] == vec[2] == vec[5] == 1
    report(
        4,
        "congruence counts = fix_count_closed = the six-map table's fixed points "
        "for all six maps, odd n <= 2000",
    )


def test_criterion_5_group_closure():
    for n in range(1, 501, 2):
        members = tuple(int(x) for x in ip_members(n))
        tables = [tuple(map_g(i, m, n) for m in members) for i in range(1, 7)]
        for gi in range(6):
            for gj in range(6):
                comp = tuple(tables[gi][members.index(v)] for v in tables[gj])
                assert comp in tables, f"g{gi+1} o g{gj+1} escapes at n={n}"
    report(5, "the six maps are closed under composition on IP(n) for odd n <= 500")


def test_criterion_6_pick():
    pts = [(x, y) for x in range(6) for y in range(6)]
    checked = 0
    for (ax, ay), (bx, by), (cx, cy) in combinations(pts, 3):
        if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) == 0:
            continue
        t = T(ax, ay, bx, by, cx, cy)
        i = interior_count_enum(t)
        assert twice_area(t) == 2 * i + boundary_count(t) - 2
        checked += 1
    rng = np.random.default_rng(2024)
    randoms = 0
    while randoms < 1000:
        c = [int(v) for v in rng.integers(-30, 31, size=6)]
        t = T(*c)
        if (c[2] - c[0]) * (c[5] - c[1]) - (c[3] - c[1]) * (c[4] - c[0]) == 0:
            continue
        i = interior_count_enum(t)
        assert twice_area(t) == 2 * i + boundary_count(t) - 2
        randoms += 1
    report(6, f"Pick identity on {checked} grid triangles and 1000 random triangles")


def test_criterion_7_scott():
    start = time.monotonic()
    rep = scott_exhaustive(5)
    elapsed = time.monotonic() - start
    assert not rep.violations
    assert rep.equality_cases
    assert set(rep.equality_base_forms) == {(3, 0, 3)}
    for t in rep.equality_cases:
        pc = lattice.pick_counts(t)
        assert (pc.interior, pc.boundary) == (1, 9)
    assert elapsed < 300.0
    report(
        7,
        f"Scott holds on {rep.checked} triangles; {len(rep.equality_cases)} "
        f"equality cases, all base form (3,0,3) ({elapsed:.1f}s)",
    )


def test_criterion_8_reduction_soundness():
    rng = np.random.default_rng(99)
    done = 0
    while done < 500:
        c = [int(v) for v in rng.integers(-40, 41, size=6)]
        if (c[2] - c[0]) * (c[5] - c[1]) - (c[3] - c[1]) * (c[4] - c[0]) == 0:
            continue
        t = T(*c)
        bf, L = reduce_to_base_form(t)
        assert apply_map(L, t).vertex_set() == bf.triangle().vertex_set()
        assert bf.b > 0 and bf.h > 0 and 0 <= bf.m < bf.h
        assert bf.b >= math.gcd(bf.m, bf.h) and bf.b >= math.gcd(bf.m - bf.b, bf.h)
        assert bf.b * bf.h == twice_area(t)
        done += 1
    fig1 = T(0, 0, -3, -3, 2, 4)
    bf, L = reduce_to_base_form(fig1)
    assert bf.as_tuple() == (3, 0, 2)
    assert apply_map(L, fig1).vertex_set() == {
        LatticePoint(0, 0),
        LatticePoint(3, 0),
        LatticePoint(0, 2),
    }
    report(8, "500 random reductions sound; figure triangle reduces to (3,0,2)")


def test_criterion_9_mean_values():
    start = time.monotonic()
    x = 10**6
    prod = meanvalue.euler_product_odd(10**7).value
    ratio_imph = meanvalue.partial_sum_imph(x) / x**2
    ratio_t = meanvalue.partial_sum_T(x) / x**2
    elapsed = time.monotonic() - start
    limit_imph = prod / 4
    limit_t = prod / 24
    assert abs(ratio_imph - limit_imph) / limit_imph < 0.01
    assert abs(ratio_t - limit_t) / limit_t < 0.01
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report(
        9,
        f"sum imph/x^2 = {ratio_imph:.6f} vs {limit_imph:.6f}, "
        f"sum T/x^2 = {ratio_t:.6f} vs {limit_t:.6f} ({elapsed:.1f}s)",
    )


def test_criterion_10_constant_representations():
    eu = meanvalue.euler_product_odd(10**7)
    mo = meanvalue.moebius_sum_odd(10**6)
    ft = meanvalue.feller_tornier(10**7)
    ftz = meanvalue.feller_tornier_zeta(10**7)
    assert abs(eu.value - mo.value) < 1e-5
    assert abs(ft.value - ftz.value) < 1e-5
    # C_FT = 1/2 + (1/2) * (1/2) * odd product, as an algebraic rearrangement
    assert abs(ft.value - (0.5 + 0.25 * eu.value)) < 1e-12
    report(
        10,
        f"odd product {eu.value:.7f} = moebius sum {mo.value:.7f}; "
        f"C_FT {ft.value:.7f} = zeta form {ftz.value:.7f}",
    )


def test_criterion_11_grosswald():
    bounds = [10**4 * 2**k for k in range(7)] + [10**6]
    ratios = [r.ratio_to_xlog2x for r in meanvalue.grosswald_ratios(bounds)]
    upper = ratios[len(ratios) // 2 :]
    assert max(upper) < 10 * min(upper)
    assert max(ratios) < 10 * min(ratios)
    report(11, f"2^Omega ratio bounded on 1e4..1e6 (range {min(ratios):.3f}..{max(ratios):.3f})")


def test_criterion_12_cli_contract():
    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "cleantri.cli", *args],
            capture_output=True,
            text=True,
            timeout=300,
        )

    # byte-identical repeats
    for args in (
        ("imph", "49", "--bruteforce"),
        ("imph", "1..10", "--bfile"),
        ("tcount", "7", "--method", "all"),
        ("tcount", "6"),
        ("reduce", "0", "0", "-3", "-3", "2", "4"),
        ("reduce", "0", "0", "1", "0", "3", "5"),
        ("reduce", "0", "0", "3", "0", "0", "3"),
        ("equiv", "0", "0", "1", "0", "3", "7", "0", "0", "1", "0", "5", "7"),
        ("scott", "1", "1", "1", "4", "4", "1"),
        ("scott", "--scan", "4"),
        ("scott", "0", "0", "1", "0", "0", "1"),
        ("meanvalue", "--x", "10", "--primes", "1000"),
    ):
        a, b = run(*args), run(*args)
        assert a.returncode == b.returncode == 0, args
        assert a.stdout == b.stdout, args
    # spot outputs
    assert "35" in run("imph", "49").stdout
    assert run("imph", "1..10", "--bfile").stdout.startswith("1 1\n2 0\n")
    assert "closed=2 burnside=2 geometric=2" in run("tcount", "7", "--method", "all").stdout
    assert "b=3 m=0 h=2" in run("reduce", "0", "0", "-3", "-3", "2", "4").stdout
    assert "M=[[0,1],[1,0]] t=(0,0)" in run("reduce", "0", "0", "3", "0", "0", "3").stdout
    equiv = run("equiv", "0", "0", "1", "0", "3", "7", "0", "0", "1", "0", "5", "7").stdout
    assert equiv == "equivalent: yes\nwitness: M=[[-1,1],[0,1]] t=(1,0)\n"
    assert "0.13" in run("meanvalue", "--x", "10", "--primes", "1000").stdout
    # b-file round trip: contiguous ascending indices, parseable values
    out = run("tcount", "1..99", "--bfile").stdout
    pairs = [line.split(" ") for line in out.splitlines()]
    assert [int(p[0]) for p in pairs] == list(range(1, 100))
    values = {int(p[0]): int(p[1]) for p in pairs}
    assert values[7] == 2 and values[6] == 0
    # exit codes: 0 ok / not-applicable, 2 usage, 3 invariant violation
    assert run("scott", "0", "0", "1", "0", "0", "1").returncode == 0
    assert run("imph", "0").returncode == 2
    assert run("reduce", "0", "0", "1", "1", "2", "2").returncode == 2
    json.loads(run("imph", "49", "--json").stdout)
    report(12, "CLI deterministic, b-files round-trip, exit codes 0/2/3 honored")
