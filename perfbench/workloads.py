"""The three benchmark workloads, one pass each.

A pass runs in a fresh interpreter (see worker.py), so every lru_cache in
the library starts cold.  Inputs come only from the ``random.Random`` the
pass is given; the library sees nothing but the generated inputs.  Each
function returns the workload's named end-to-end figures for the pass, and
the items and seconds that ``items_per_s`` pools over the passes.
"""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys

from cleantri import arith, counting, lattice, meanvalue

import oracle
from spans import CONSTANTS, Recorder, cache_hits, library_caches, percentile, tail_percentile

# every lru_cache of the library, for the cache hits of each module and query
LIBRARY_CACHES = library_caches(arith, lattice, counting, meanvalue)

# tables: the bulk, memory-heavy use.  t_closed_sieve peaks at about 60 bytes
# per n, about 600 MB at x = 10^7, above the 330 MB of moebius_sum_odd, so the
# sieves set the pass's peak RSS.  The prime bound matches the CLI's default.
TABLE_X = 10**7
PRIME_BOUND = 10**7
BFILE_N = 10**6
MEAN_X = 10**6
SPOT_CHECKS = 200
BRUTE_CHECKS = 8

# sweep: a contiguous odd range for closed + Burnside, plus samples for the
# slower routes.  Samples are filled up to a budget of sum imph(n)^2, which
# tracks the cost of t_geometric and orbit_decomposition, so every seed asks
# for about the same work.
SWEEP_START = 4001
SWEEP_JITTER = 100
SWEEP_LEN = 250
GEO_PRIME_RANGE = (501, 700)
GEO_BUDGET = 800**2
ORBIT_N_BOUND = 2 * 10**4
ORBIT_BUDGET = 10000**2
SCOTT_GRID = 8

# queries: one closed-loop client.  Point queries on n near 10^12 use arith
# as scalar factorization; lattice queries use large coordinates.  No query
# log exists to copy a mix from.  Number queries and lattice queries get 60 %
# and 40 %.  Of the six kinds, only t_closed (through _cached_factorization)
# and equivalent_clean (through _reduce_cached and _orbit_min) reach a
# library cache, so those two get 40 % between them: enough for the repeats to
# hit the caches in a measured share of the queries (cache_hit_share).
QUERY_COUNT = 1500
CLI_EVERY = 250
REPEAT_SHARE = 1 / 3
QUERY_MIX = (
    ("factorize", 0.20),
    ("imph", 0.20),
    ("t_closed", 0.20),
    ("reduce", 0.15),
    ("equiv", 0.20),
    ("scott", 0.05),
)
BIG_N = 10**12
COORD = 10**6
CLEAN_H = 10**5
SCOTT_COORD = 20


class Cli:
    """Runs the cleantri CLI in a child interpreter, one call at a time."""

    def __init__(self, root, env):
        self.root = root
        self.env = env

    def __call__(self, *args: str, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "cleantri.cli", *args],
            cwd=self.root,
            env=self.env,
            stdout=stdout,
            stderr=subprocess.PIPE,
            text=True,
            timeout=150,
        )


def _expect(want):
    return lambda got: None if got == want else f"got {got!r}, want {want!r}"


def _coords(tri) -> tuple:
    return tuple((v.x, v.y) for v in tri.vertices)


# --------------------------------------------------------------------------
# tables
# --------------------------------------------------------------------------


def _bfile_mismatch(text: str, values: list[int], chunk: int = 10**5) -> int | None:
    """First line (1-based) where ``text`` differs from the b-file of
    ``values`` (line n reads "n values[n-1]"), or None when it matches.
    Builds the expected text a chunk at a time to keep memory flat."""
    pos = 0
    for lo in range(0, len(values), chunk):
        want = "".join(f"{n} {v}\n" for n, v in enumerate(values[lo : lo + chunk], lo + 1))
        got = text[pos : pos + len(want)]
        if got != want:
            pairs = zip(got.splitlines(), want.splitlines())
            return lo + 1 + next((i for i, (a, b) in enumerate(pairs) if a != b), 0)
        pos += len(want)
    return None if pos == len(text) else len(values) + 1


def tables(rec: Recorder, rng, cli: Cli) -> tuple[dict, int, float]:
    bounds = [rng.randrange(10**4, 10**5), rng.randrange(10**5, 10**6), TABLE_X]
    spots = rng.sample(range(1, TABLE_X + 1), SPOT_CHECKS)
    brute = rng.sample(range(1, 3 * 10**4), BRUTE_CHECKS)

    with rec.phase("tables.bfile"):
        # The b-file call runs first, while this process is small: a child's
        # peak RSS counts the parent's RSS at the spawn, and this call is the
        # only child so far, so the children's peak read after it is its own.
        # Its output goes to a file so that it is not held during the sieves.
        out_dir = cli.root / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        bfile_path = out_dir / f"bfile-{os.getpid()}.txt"
        with open(bfile_path, "w") as out:
            bfile = rec.op("cli", "imph_bfile", cli, "imph", f"1..{BFILE_N}", "--bfile", stdout=out)
        bfile_span = rec.ops[-1]
        bfile_span.attrs["child_peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / 1e6
        )

    # T first: its peak then comes before the imph table is alive.  The four
    # calls that build a table at TABLE_X (the two sieves and the two partial
    # sums) are spread over the pass, so that their summed time, which
    # table_values_per_s divides by, samples the machine's speed at several
    # moments rather than one.
    with rec.phase("tables.t_sieve"):
        t_tab = rec.op("meanvalue", "t_closed_sieve", meanvalue.t_closed_sieve, TABLE_X)
        t_span = rec.ops[-1]
    with rec.phase("tables.constants"):
        consts, const_spans = {}, {}
        for name in CONSTANTS:
            consts[name] = rec.op("meanvalue", name, getattr(meanvalue, name), PRIME_BOUND)
            const_spans[name] = rec.ops[-1]
        eu, ft, ftz, mo = (consts[k] for k in CONSTANTS)
        if eu is not None and mo is not None and not eu.agrees_with(mo):
            rec.mark_failed(const_spans["moebius_sum_odd"], f"Euler product {eu.value} and Moebius sum {mo.value} disagree")
        if ft is not None and ftz is not None and not ft.agrees_with(ftz):
            rec.mark_failed(const_spans["feller_tornier_zeta"], f"Feller-Tornier forms {ft.value} and {ftz.value} disagree")
        # C_FT = 1/2 + (1/2)(1 - 2/4) prod_{p odd}: the p = 2 factor is 1/2
        if ft is not None and eu is not None and abs(ft.value - (0.5 + 0.25 * eu.value)) > 1e-12:
            rec.mark_failed(const_spans["feller_tornier"], "Feller-Tornier is not 1/2 + Euler product / 4")

    with rec.phase("tables.imph_sieve"):
        im_tab = rec.op("arith", "imph_sieve", arith.imph_sieve, TABLE_X)
        im_span = rec.ops[-1]
    grosswald_sums: dict[int, int] = {}
    sums: dict[int, tuple[int, int]] = {}
    if im_tab is None or t_tab is None:
        rec.fail("sieve tables missing: table checks skipped")
    else:
        im_span.attrs["bytes_computed"] = int(im_tab.nbytes)
        t_span.attrs["bytes_computed"] = int(t_tab.nbytes)
        im_err, t_err, grosswald_sums = oracle.check_tables(TABLE_X, im_tab, t_tab, bounds)
        for n in spots:
            if int(im_tab[n]) != arith.imph(n):
                im_err.append(f"imph table at n={n} differs from arith.imph")
            if int(t_tab[n]) != counting.t_closed(n):
                t_err.append(f"T table at n={n} differs from counting.t_closed")
        for n in brute:
            if int(im_tab[n]) != arith.imph_bruteforce(n):
                im_err.append(f"imph table at n={n} differs from imph_bruteforce")
        for span, errs in ((im_span, im_err), (t_span, t_err)):
            if errs:
                rec.mark_failed(span, "; ".join(errs[:3]))
        for x in (TABLE_X, MEAN_X):
            sums[x] = (int(im_tab[: x + 1].sum()), int(t_tab[: x + 1].sum()))
        if bfile is not None and bfile.returncode == 0:
            line = _bfile_mismatch(bfile_path.read_text(), im_tab[1 : BFILE_N + 1].tolist())
            if line is not None:
                rec.mark_failed(bfile_span, f"cli b-file differs from the library table at line {line}")
    del im_tab, t_tab
    bfile_path.unlink()
    if bfile is not None and bfile.returncode != 0:
        rec.mark_failed(bfile_span, f"cli imph --bfile exited {bfile.returncode}: {bfile.stderr[-200:]}")

    with rec.phase("tables.sums"):
        want = sums.get(TABLE_X, (None, None))
        rec.op("meanvalue", "partial_sum_imph", meanvalue.partial_sum_imph, TABLE_X, check=_expect(want[0]))
        table_spans = [t_span, im_span, rec.ops[-1]]
        rec.op("meanvalue", "partial_sum_T", meanvalue.partial_sum_T, TABLE_X, check=_expect(want[1]))
        table_spans.append(rec.ops[-1])

        def check_grosswald(reports):
            got = {r.x: r.total for r in reports}
            if got != {b: grosswald_sums.get(b) for b in bounds}:
                return f"grosswald totals {got} != {grosswald_sums}"
            for r in reports:
                if not math.isclose(r.ratio_to_xlog2x, r.total / (r.x * math.log(r.x) ** 2), rel_tol=1e-12):
                    return f"grosswald ratio inconsistent at x={r.x}"
            return None

        rec.op("meanvalue", "grosswald_ratios", meanvalue.grosswald_ratios, bounds, check=check_grosswald)

    with rec.phase("tables.report"):

        def check_report(r):
            if (r.sum_imph, r.sum_t) != sums.get(MEAN_X):
                return f"mean_value_report sums {(r.sum_imph, r.sum_t)} != table sums {sums.get(MEAN_X)}"
            if eu is None or r.product.value != eu.value:
                return "mean_value_report product differs from euler_product_odd"
            if r.ratio_imph != r.sum_imph / MEAN_X**2:
                return "mean_value_report ratio inconsistent"
            return None

        rec.op("meanvalue", "mean_value_report", meanvalue.mean_value_report, MEAN_X, PRIME_BOUND, check=check_report)

    with rec.phase("tables.meanvalue_cli"):

        def check_meanvalue(proc):
            if proc.returncode != 0:
                return f"cli meanvalue exited {proc.returncode}: {proc.stderr[-200:]}"
            res = json.loads(proc.stdout)["results"]
            if (res["sum_imph"], res["sum_T"]) != sums.get(MEAN_X):
                return f"cli meanvalue sums {(res['sum_imph'], res['sum_T'])} != table sums {sums.get(MEAN_X)}"
            got = {k: res[k] for k in ("euler_product_odd", "feller_tornier", "feller_tornier_zeta")}
            lib = {k: getattr(consts[k], "value", None) for k in got}
            if got != lib or res["representations_agree"] is not True:
                return f"cli meanvalue constants {got} != library {lib}"
            return None

        rec.op("cli", "meanvalue", cli, "meanvalue", "--x", str(MEAN_X), "--json", check=check_meanvalue)

    table_s = sum(s.seconds for s in table_spans)
    named = {
        "table_values_per_s": (4 * TABLE_X / table_s, "1/s"),
        "constants_s": (sum(s.seconds for s in const_spans.values()), "s"),
        "bfile_s": (bfile_span.seconds, "s"),
    }
    return named, 4 * TABLE_X, table_s


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------


def _budget_sample(rng, lo: int, hi: int, budget: int, used: set, first: int | None = None) -> list[int]:
    """Distinct odd n in [lo, hi] not in ``used`` whose imph(n)^2 sum to at
    most ``budget``, drawn until less than 1% of the budget is left."""
    chosen, left = [], budget
    if first is not None:
        chosen.append(first)
        left -= oracle.imph(first) ** 2
    used.update(chosen)
    for _ in range(5000):
        if left < budget // 100:
            break
        n = lo + 2 * rng.randrange((hi - lo) // 2 + 1)
        cost = oracle.imph(n) ** 2
        if n not in used and cost <= left:
            chosen.append(n)
            used.add(n)
            left -= cost
    return chosen


def sweep(rec: Recorder, rng, cli: Cli) -> tuple[dict, int, float]:
    start = SWEEP_START + 2 * rng.randrange(SWEEP_JITTER)
    span_n = list(range(start, start + 2 * SWEEP_LEN, 2))
    used = set(span_n)
    prime = rng.choice([p for p in range(*GEO_PRIME_RANGE) if p % 2 and oracle.is_prime(p)])
    geo_n = _budget_sample(rng, 3, counting.GEOMETRIC_N_BOUND - 1, GEO_BUDGET, used, first=prime)
    orbit_n = _budget_sample(rng, 3, ORBIT_N_BOUND - 1, ORBIT_BUDGET, used)
    truth = {n: oracle.t_count(n) for n in used}
    failed_n: set[int] = set()

    def route(name, fn, n, check):
        before = rec.failed
        rec.op("counting", name, fn, n, check=check)
        if rec.failed != before:
            failed_n.add(n)

    with rec.phase("sweep.range"):
        for n in span_n:
            route("t_closed", counting.t_closed, n, _expect(truth[n]))
            route("t_burnside", counting.t_burnside, n, _expect(truth[n]))
    with rec.phase("sweep.geometric"):
        for n in geo_n:
            route("t_geometric", counting.t_geometric, n, _expect(truth[n]))
    with rec.phase("sweep.orbits"):
        for n in orbit_n:
            members = oracle.imph(n)

            def check_orbits(dec, n=n, members=members):
                if dec.count != truth[n]:
                    return f"orbit count {dec.count} != T({n}) = {truth[n]}"
                if sum(len(o) for o in dec.orbits) != members:
                    return f"orbits of IP({n}) cover {sum(len(o) for o in dec.orbits)} residues, want {members}"
                return None

            route("orbit_decomposition", counting.orbit_decomposition, n, check_orbits)
    with rec.phase("sweep.scott"):
        want = oracle.scott_grid_counts(SCOTT_GRID)

        def check_scan(rep):
            got = (rep.checked, len(rep.violations), len(rep.equality_cases))
            if got != want:
                return f"scott scan (checked, violations, equalities) = {got}, want {want}"
            if any(bf != (3, 0, 3) for bf in rep.equality_base_forms):
                return "scott equality case with base form other than (3, 0, 3)"
            return None

        rec.op("lattice", "scott_exhaustive", lattice.scott_exhaustive, SCOTT_GRID, check=check_scan)

    names = ("counting.t_closed", "counting.t_burnside", "counting.t_geometric", "counting.orbit_decomposition")
    route_s = sum(s.seconds for s in rec.ops if s.name in names)
    agreed = len(used) - len(failed_n)
    return {"sweep_n_per_s": (agreed / route_s, "1/s")}, agreed, route_s


# --------------------------------------------------------------------------
# queries
# --------------------------------------------------------------------------


def _triangle(rng, bound: int, lo: int | None = None):
    lo = -bound if lo is None else lo
    while True:
        c = [rng.randint(lo, bound) for _ in range(6)]
        if (c[2] - c[0]) * (c[5] - c[1]) != (c[3] - c[1]) * (c[4] - c[0]):
            return lattice.LatticeTriangle.from_coords(*c)


def _unimodular(rng) -> tuple[tuple[int, int, int, int], tuple[int, int]]:
    a, b, c, d = 1, 0, 0, 1
    for _ in range(3):
        k = rng.randint(-30, 30)
        if rng.random() < 0.5:
            a, b = a + k * c, b + k * d
        else:
            c, d = c + k * a, d + k * b
    if rng.random() < 0.5:
        a, b, c, d = c, d, a, b
    return (a, b, c, d), (rng.randint(-COORD, COORD), rng.randint(-COORD, COORD))


def _clean_pair(rng):
    """Two clean triangles of one twice-area h; half are images of each other."""
    h = 3 + 2 * rng.randrange(CLEAN_H // 2)

    def member():
        while True:
            m = rng.randrange(1, h + 1)
            if math.gcd(m, h) == 1 and math.gcd(m - 1, h) == 1:
                return m

    base = ((0, 0), (1, 0), (member(), h))
    related = rng.random() < 0.5
    other = base if related else ((0, 0), (1, 0), (member(), h))
    map1, map2 = _unimodular(rng), _unimodular(rng)
    t1 = tuple(oracle.apply_affine(*map1, v) for v in base)
    t2 = tuple(oracle.apply_affine(*map2, v) for v in other)
    equivalent = related or oracle.clean_key(t1) == oracle.clean_key(t2)
    return (
        lattice.LatticeTriangle.from_coords(*t1[0], *t1[1], *t1[2]),
        lattice.LatticeTriangle.from_coords(*t2[0], *t2[1], *t2[2]),
        equivalent,
    )


def _new_query(rng, kind: str):
    if kind in ("factorize", "imph", "t_closed"):
        return kind, BIG_N + 1 + 2 * rng.randrange(BIG_N // 2000)
    if kind == "reduce":
        return kind, _triangle(rng, COORD)
    if kind == "equiv":
        return kind, _clean_pair(rng)
    return kind, _triangle(rng, SCOTT_COORD, lo=0)


def _check_factorization(n):
    def check(f):
        prod = 1
        for p, e in f.factors:
            prod *= p**e
            if not oracle.is_prime(p):
                return f"factorize({n}) gave composite factor {p}"
        return None if prod == n and f.n == n else f"factors of {n} multiply to {prod}"

    return check


def _check_reduction(tri):
    coords = _coords(tri)

    def check(result):
        bf, L = result
        b, m, h = bf.as_tuple()
        if not oracle.maps_onto((L.a, L.b, L.c, L.d), (L.t.x, L.t.y), coords, ((0, 0), (b, 0), (m, h))):
            return f"witness does not map {coords} onto base form {(b, m, h)}"
        richest = max(math.gcd(q[0] - p[0], q[1] - p[1]) for p, q in zip(coords, coords[1:] + coords[:1]))
        if b * h != abs(oracle.cross(*coords)) or not 0 <= m < h or b != richest:
            return f"base form {(b, m, h)} inconsistent with {coords}"
        return None

    return check


def _check_equivalence(t1, t2, equivalent):
    c1, c2 = _coords(t1), _coords(t2)

    def check(result):
        eq, w = result
        if eq != equivalent:
            return f"equivalent_clean said {eq} for {c1}, {c2}; geometric key says {equivalent}"
        if eq and not oracle.maps_onto((w.a, w.b, w.c, w.d), (w.t.x, w.t.y), c1, c2):
            return f"equivalence witness does not map {c1} onto {c2}"
        return None

    return check


def _scott_truth(coords):
    interior = oracle.interior_points_scan(coords)
    boundary = oracle.boundary_points(coords)
    applicable = interior >= 1
    return applicable, applicable and boundary <= 2 * interior + 7, interior, boundary


def _check_scott(tri):
    want = _scott_truth(_coords(tri))

    def check(r):
        got = (r.applicable, r.holds, r.interior, r.boundary)
        return None if got == want else f"scott_check {got} != {want} for {_coords(tri)}"

    return check


def _cli_query(rng, i: int):
    """A single-value CLI query and its check, cycling through the commands."""
    kind = ("imph", "tcount", "reduce", "equiv", "scott")[i % 5]
    if kind in ("imph", "tcount"):
        n = BIG_N + 1 + 2 * rng.randrange(BIG_N // 2000)
        if kind == "imph":
            want = oracle.imph(n)
            return (kind, str(n), "--json"), lambda res: res["results"][str(n)] == want
        want = oracle.t_count(n)
        return (kind, str(n), "--json"), lambda res: res["results"][str(n)]["closed"] == want
    if kind == "reduce":
        tri = _triangle(rng, COORD)
        check = _check_reduction(tri)

        def ok(res):
            bf, w = res["results"]["base_form"], res["results"]["witness"]
            L = lattice.AffineUnimodularMap(*w["matrix"][0], *w["matrix"][1], lattice.LatticePoint(*w["translation"]))
            return check((lattice.BaseForm(bf["b"], bf["m"], bf["h"]), L)) is None

        return (kind, *map(str, sum(_coords(tri), ())), "--json"), ok
    if kind == "equiv":
        t1, t2, equivalent = _clean_pair(rng)
        check = _check_equivalence(t1, t2, equivalent)

        def ok(res):
            w = res["results"].get("witness")
            L = None
            if w is not None:
                L = lattice.AffineUnimodularMap(*w["matrix"][0], *w["matrix"][1], lattice.LatticePoint(*w["translation"]))
            return check((res["results"]["equivalent"], L)) is None

        return (kind, *map(str, sum(_coords(t1) + _coords(t2), ())), "--json"), ok
    tri = _triangle(rng, SCOTT_COORD, lo=0)
    applicable, holds, interior, boundary = _scott_truth(_coords(tri))

    def ok(res):
        r = res["results"]
        return (r["applicable"], r["interior"], r["boundary"]) == (applicable, interior, boundary) and (
            not applicable or r["holds"] == holds
        )

    return (kind, *map(str, sum(_coords(tri), ())), "--json"), ok


def queries(rec: Recorder, rng, cli: Cli) -> tuple[dict, int, float]:
    # Exact counts per kind and exact repeat positions: only the inputs
    # themselves vary with the seed, not the mix.
    repeats = round(QUERY_COUNT * REPEAT_SHARE)
    repeat_at = set(rng.sample(range(1, QUERY_COUNT), repeats))
    fresh = QUERY_COUNT - repeats
    kinds = [k for k, w in QUERY_MIX for _ in range(round(w * fresh))]
    kinds += [QUERY_MIX[0][0]] * (fresh - len(kinds))
    rng.shuffle(kinds)
    history: list = []
    plan = []
    for i in range(QUERY_COUNT):
        if i in repeat_at:
            plan.append(rng.choice(history))
        else:
            history.append(_new_query(rng, kinds[len(history)]))
            plan.append(history[-1])
    cli_plan = [_cli_query(rng, i) for i in range(QUERY_COUNT // CLI_EVERY)]

    # checks are built before the loop so the oracle's cost never sits between queries
    checks = {}
    for kind, arg in history:
        key = (kind, arg)
        if kind == "factorize":
            checks[key] = _check_factorization(arg)
        elif kind == "imph":
            checks[key] = _expect(oracle.imph(arg))
        elif kind == "t_closed":
            checks[key] = _expect(oracle.t_count(arg))
        elif kind == "reduce":
            checks[key] = _check_reduction(arg)
        elif kind == "equiv":
            checks[key] = _check_equivalence(*arg)
        else:
            checks[key] = _check_scott(arg)

    calls = {
        "factorize": ("arith", arith.factorize),
        "imph": ("arith", arith.imph),
        "t_closed": ("counting", counting.t_closed),
        "reduce": ("lattice", lattice.reduce_to_base_form),
        "scott": ("lattice", lattice.scott_check),
    }
    lib_spans = []
    cache_hit_queries = 0
    with rec.phase("queries.loop"):
        for i, (kind, arg) in enumerate(plan):
            key = (kind, arg)
            hits_before = sum(cache_hits(LIBRARY_CACHES).values())
            if kind == "equiv":
                t1, t2, _ = arg
                rec.op("lattice", "equivalent_clean", lattice.equivalent_clean, t1, t2, with_witness=True, check=checks[key])
            else:
                module, fn = calls[kind]
                name = "reduce_to_base_form" if kind == "reduce" else fn.__name__
                rec.op(module, name, fn, arg, check=checks[key])
            lib_spans.append(rec.ops[-1])
            if sum(cache_hits(LIBRARY_CACHES).values()) > hits_before:
                cache_hit_queries += 1
            if (i + 1) % CLI_EVERY == 0:
                args, ok = cli_plan[(i + 1) // CLI_EVERY - 1]

                def check_cli(proc, args=args, ok=ok):
                    if proc.returncode != 0:
                        return f"cli {args[0]} exited {proc.returncode}: {proc.stderr[-200:]}"
                    return None if ok(json.loads(proc.stdout)) else f"cli {' '.join(args)} gave {proc.stdout[:200]}"

                rec.op("cli", "query", cli, *args, check=check_cli)

    lat = [s.seconds for s in lib_spans]
    tail = tail_percentile(len(lat))
    qps = len(lat) / sum(lat)
    named = {
        "queries_per_s": (qps, "1/s"),
        "query_p50_ms": (percentile(lat, 50) * 1e3, "ms"),
        "query_tail_ms": (percentile(lat, tail) * 1e3, "ms"),
        "query_tail_percentile": (tail, "pct"),
        "query_samples": (len(lat), "count"),
        "cli_p50_ms": (percentile(rec.durations("cli.query"), 50) * 1e3, "ms"),
        "repeat_share": (repeats / QUERY_COUNT, "ratio"),
        "cache_hit_share": (cache_hit_queries / QUERY_COUNT, "ratio"),
    }
    return named, len(lat), sum(lat)


WORKLOADS = {"tables": tables, "sweep": sweep, "queries": queries}
