"""Command-line front end.

Subcommands: imph, tcount, reduce, equiv, scott, orbits, meanvalue.
Output is human-readable by default; ``--json`` emits one structured record
per invocation and ``--bfile`` (sequence commands) emits OEIS b-file lines
"n a(n)".  ``imph`` and ``tcount`` stream every range, ``--json`` too, through
one writer, ``_write_range``, so their memory does not grow with the range;
``meanvalue`` adds up both of its sums as the factor sieve's blocks pass.
Exit codes: 0 success or not-applicable, 2 usage error, 3 a failed
cross-check (``arith.InvariantViolation``, reported by ``main`` alone as one JSON
line on stderr, after any lines a streamed range wrote) or a Scott violation
(after the report), 141 when the reader closed stdout early (nothing on stderr).
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import sys
from itertools import chain, islice

from . import arith, counting, lattice, meanvalue

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VIOLATION = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process the signal ended

# Range output is written in joined chunks of this many lines (or --json
# entries): one write call per chunk even when stdout is unbuffered, and a
# few MB of strings alive at a time.
_LINES_PER_WRITE = 1 << 15

# A closed tcount range past the sieve cap factorizes each odd n, about
# 175 us near 10^12, so this many odd n take about 18 s.
_POINT_RANGE_ODD_BOUND = 10**5


def _parse_range(spec: str, parser: argparse.ArgumentParser) -> tuple[int, int]:
    """Inclusive 'a..b' range; a bare integer is a singleton range."""
    try:
        if ".." in spec:
            lo_s, hi_s = spec.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(spec)
    except ValueError:
        parser.error(f"invalid range {spec!r} (expected N or A..B)")
    if lo < 1 or hi < lo:
        parser.error(f"invalid range {spec!r} (need 1 <= a <= b)")
    return lo, hi


def _emit(record: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(record, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _triangle(coords: list[int]) -> lattice.LatticeTriangle:
    return lattice.LatticeTriangle.from_coords(*coords)


def _write_range(head: dict | None, lo: int, hi: int, source, value, fmt) -> None:
    """Write the lines of lo <= n <= hi, or with a ``head`` (the record but its
    results, whose key sorts last) the ``--json`` record, as values are computed.
    ``source(value, runs)`` makes every check, then gives one walk per run a..b
    of (start, values) in order; ``fmt(n, v)`` gives a line or a ``'"n": v'`` entry.

    ``json.dumps(sort_keys=True)`` orders the results as strings, so they
    are merged from one run per digit count, each in that order already as
    '"' sorts below every digit.  Every walk's first chunk precedes any write.
    """
    runs, start, sep, end = [(lo, hi)], "", "", ""
    if head is not None:
        digits = range(len(str(lo)), len(str(hi)) + 1)
        runs = [(max(lo, 10 ** (d - 1)), min(hi, 10**d - 1)) for d in digits]
        start, sep, end = json.dumps(head, sort_keys=True)[:-1] + ', "results": {', ", ", "}}\n"
    walks = source(value, runs)
    streams = [chain.from_iterable(map(fmt, range(s, s + len(v)), v) for s, v in w) for w in walks]
    items = heapq.merge(*streams) if len(streams) > 1 else streams[0]
    sys.stdout.write(start + sep.join(islice(items, _LINES_PER_WRITE)))
    while chunk := sep.join(islice(items, _LINES_PER_WRITE)):
        sys.stdout.write(sep + chunk)
    sys.stdout.write(end)


def _sieve_blocks(values, runs):
    """A block source for ``_write_range``: values(a, data) at the odd n of the
    walk's blocks, spread with 0 at the even n by ``arith._spread_odd``, in
    lists of about _LINES_PER_WRITE ints; one walk per run charged the others'."""
    import numpy as np

    held = [arith._walk_bytes(a, b) for a, b in runs]
    step = _LINES_PER_WRITE // 2 + 1  # odd n per list

    def lists(lo, hi, blocks):
        line = np.empty(2 * step, dtype=np.int64)
        if lo % 2 == 0:
            yield lo, [0]  # the walk starts at the first odd n
        for a, f in blocks:
            odd = values(a, f)
            for i in range(0, len(odd), step):
                s, part = a + 2 * i, odd[i : i + step]
                out = line[: min(2 * len(part), hi + 1 - s)]
                yield s, arith._spread_odd(part, out).tolist()

    return [lists(lo, hi, arith._factor_blocks(lo, hi, sum(held) - own))
            for (lo, hi), own in zip(runs, held)]


def _point_blocks(value, runs):
    """A block source for ``_write_range``: value(n) n by n; holds nothing."""
    return [((n, [value(n)]) for n in range(a, b + 1)) for a, b in runs]


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def cmd_imph(args, parser) -> int:
    """imph on one n (by ``arith.imph``, never the sieve) or on a range (by
    ``arith._factor_blocks``), written by ``_write_range``.

    ``--bruteforce`` scans n residues for each n, and is refused before any
    work when their sum over the range exceeds ``arith.IMPH_BRUTEFORCE_BOUND``;
    every n it serves is checked before anything is written.
    """
    lo, hi = _parse_range(args.spec, parser)
    if args.bruteforce and (lo + hi) * (hi - lo + 1) // 2 > arith.IMPH_BRUTEFORCE_BOUND:
        raise ValueError(
            f"--bruteforce on {lo}..{hi} scans more than "
            f"{arith.IMPH_BRUTEFORCE_BOUND} residues in all"
        )
    source, value = _point_blocks, arith.imph
    if lo < hi:
        source, value = _sieve_blocks, lambda a, f: f.imph
    if args.bruteforce:
        for a, values in source(value, [(lo, hi)])[0]:
            for n, v in enumerate(values, a):
                if (bf := arith.imph_bruteforce(n)) != v:
                    msg = f"imph mismatch at n={n}: closed={v} bruteforce={bf}"
                    raise arith.InvariantViolation(msg, n, ("closed-form", "bruteforce"))
    head = {
        "command": "imph",
        "inputs": {"range": [lo, hi], "bruteforce": bool(args.bruteforce)},
        "provenance": "closed-form+oracle" if args.bruteforce else "closed-form",
    } if args.json else None
    extra = " (matches brute force)" if args.bruteforce and lo == hi else ""
    fmt = '"{}": {}' if args.json else "{} {}\n" if args.bfile else f"imph({{}}) = {{}}{extra}\n"
    _write_range(head, lo, hi, source, value, fmt.format)
    return EXIT_OK


def _t_all(n: int) -> dict[str, int]:
    """T(n) by all three routes, cross-checked by ``counting.t_report``."""
    r = counting.t_report(n)
    return {"closed": r.t_closed, "burnside": r.t_burnside, "geometric": r.t_geometric}


def cmd_tcount(args, parser) -> int:
    """T(n) on one n or a range, by one route or, with ``all``, by all three,
    cross-checked; written by ``_write_range``.

    A closed range within the sieve cap is read from ``arith._factor_blocks``
    by ``meanvalue._t_closed_block``; the rest calls the point routes n by n.
    Refused before any work (even n are always 0):
    - for every method but ``closed``, a range holding an odd n past
      ``counting.BRUTEFORCE_N_BOUND``, the one cap of the Burnside and
      geometric routes, or whose odd n sum past ``arith.IMPH_BRUTEFORCE_BOUND``,
      as each costs about imph(n);
    - a range holding an odd n from ``arith.FACTORIZE_BOUND`` on;
    - a closed range past the sieve cap, which factorizes n by n, holding
      more than ``_POINT_RANGE_ODD_BOUND`` odd n.
    """
    lo, hi = _parse_range(args.spec, parser)
    method = args.method
    first_capped = max(lo, counting.BRUTEFORCE_N_BOUND + 1) | 1  # least odd n past the cap
    if method != "closed" and first_capped <= hi:
        route = "geometric" if method == "geometric" else "Burnside"
        raise ValueError(f"{route} route capped at n = {counting.BRUTEFORCE_N_BOUND}")
    # the odd n up to y are the first (y + 1) // 2 odd numbers, which sum to its square
    if method != "closed" and ((hi + 1) // 2) ** 2 - (lo // 2) ** 2 > arith.IMPH_BRUTEFORCE_BOUND:
        raise ValueError(
            f"--method {method} on {lo}..{hi} sums more than "
            f"{arith.IMPH_BRUTEFORCE_BOUND} over its odd n"
        )
    if (first := max(lo, arith.FACTORIZE_BOUND) | 1) <= hi:  # least odd n factorize refuses
        raise ValueError(f"factorize is capped below 2^63, got {first}")
    if hi > arith.IMPH_SIEVE_BOUND and (odd := arith._odd_count(lo, hi)) > _POINT_RANGE_ODD_BOUND:
        raise ValueError(
            f"a range past the sieve cap ({arith.IMPH_SIEVE_BOUND}) is served n by n, "
            f"so capped at {_POINT_RANGE_ODD_BOUND} odd n; {lo}..{hi} holds {odd}"
        )
    source, value = _point_blocks, _t_all if method == "all" else getattr(counting, f"t_{method}")
    if method == "closed" and lo < hi <= arith.IMPH_SIEVE_BOUND:
        source, value = _sieve_blocks, meanvalue._t_closed_block
    mode = "json" if args.json else "bfile" if args.bfile else "text"
    if method == "all":
        fmt = {
            "json": lambda n, e: f'"{n}": {json.dumps(e, sort_keys=True)}',
            "bfile": lambda n, e: f"{n} {e['closed']}\n",
            "text": lambda n, e: f"T({n}): " + " ".join(f"{k}={v}" for k, v in e.items()) + "\n",
        }
    else:
        fmt = {
            "json": ('"{}": {{"%s": {}}}' % method).format,
            "bfile": "{} {}\n".format,
            "text": ("T({}): %s={}\n" % method).format,
        }
    head = {"command": "tcount", "inputs": {"range": [lo, hi], "method": method},
            "provenance": method} if args.json else None
    _write_range(head, lo, hi, source, value, fmt[mode])
    return EXIT_OK


def cmd_reduce(args, parser) -> int:
    bf, L = lattice.reduce_to_base_form(_triangle(args.coords))
    pc = lattice.pick_counts(bf.triangle())
    record = {
        "command": "reduce",
        "inputs": {"vertices": args.coords},
        "results": {
            "base_form": {"b": bf.b, "m": bf.m, "h": bf.h},
            "witness": {
                "matrix": [[L.a, L.b], [L.c, L.d]],
                "translation": [L.t.x, L.t.y],
            },
            "pick": {"interior": pc.interior, "boundary": pc.boundary,
                     "twice_area": pc.twice_area},
        },
        "provenance": "reduction",
    }
    _emit(
        record,
        args.json,
        [
            f"base form: b={bf.b} m={bf.m} h={bf.h}",
            f"witness: M=[[{L.a},{L.b}],[{L.c},{L.d}]] t=({L.t.x},{L.t.y})",
            f"pick: I={pc.interior} B={pc.boundary} twice_area={pc.twice_area}",
        ],
    )
    return EXIT_OK


def cmd_equiv(args, parser) -> int:
    t1 = _triangle(args.coords[:6])
    t2 = _triangle(args.coords[6:])
    eq, witness = lattice.equivalent_clean(t1, t2, with_witness=True)
    results: dict = {"equivalent": eq}
    lines = [f"equivalent: {'yes' if eq else 'no'}"]
    if witness is not None:
        results["witness"] = {
            "matrix": [[witness.a, witness.b], [witness.c, witness.d]],
            "translation": [witness.t.x, witness.t.y],
        }
        lines.append(
            f"witness: M=[[{witness.a},{witness.b}],[{witness.c},{witness.d}]]"
            f" t=({witness.t.x},{witness.t.y})"
        )
    record = {
        "command": "equiv",
        "inputs": {"vertices": args.coords},
        "results": results,
        "provenance": "orbit+witness",
    }
    _emit(record, args.json, lines)
    return EXIT_OK


def cmd_scott(args, parser) -> int:
    if args.scan is not None and args.coords:
        parser.error("scott takes six vertex coordinates or --scan BOUND, not both")
    if args.scan is not None:
        report = lattice.scott_exhaustive(args.scan)
        ok_forms = all(bf == (3, 0, 3) for bf in report.equality_base_forms)
        record = {
            "command": "scott",
            "inputs": {"scan": args.scan},
            "results": {
                "checked": report.checked,
                "violations": len(report.violations),
                "equality_cases": len(report.equality_cases),
                "equality_base_forms_all_303": ok_forms,
            },
            "provenance": "exhaustive-scan",
        }
        lines = [
            f"checked {report.checked} triangles with I >= 1 in [0,{args.scan}]^2",
            f"violations: {len(report.violations)}",
            f"equality cases: {len(report.equality_cases)}"
            + (" (all reduce to base form (3,0,3))" if ok_forms and report.equality_cases else ""),
        ]
        for t in report.equality_cases:
            lines.append(f"  equality: {tuple((v.x, v.y) for v in t.vertices)}")
        _emit(record, args.json, lines)
        if report.violations or not ok_forms:
            return EXIT_VIOLATION
        return EXIT_OK
    if args.coords is None or len(args.coords) != 6:
        parser.error("scott needs six vertex coordinates or --scan BOUND")
    res = lattice.scott_check(_triangle(args.coords))
    record = {
        "command": "scott",
        "inputs": {"vertices": args.coords},
        "results": {
            "applicable": res.applicable,
            "holds": res.holds,
            "equality": res.equality,
            "interior": res.interior,
            "boundary": res.boundary,
        },
        "provenance": "pick-counts",
    }
    if not res.applicable:
        _emit(record, args.json, [f"not applicable (I={res.interior})"])
        return EXIT_OK
    status = "equality" if res.equality else "strict"
    lines = [f"holds: {'yes' if res.holds else 'NO'} ({status}) I={res.interior} B={res.boundary}"]
    _emit(record, args.json, lines)
    return EXIT_VIOLATION if not res.holds else EXIT_OK


def cmd_orbits(args, parser) -> int:
    if args.n < 1:
        parser.error("n must be positive")
    dec = counting.orbit_decomposition(args.n)
    record = {
        "command": "orbits",
        "inputs": {"n": args.n},
        "results": {"count": dec.count, "orbits": [list(o) for o in dec.orbits]},
        "provenance": "six-map closure",
    }
    lines = [f"IP({args.n}) splits into {dec.count} orbit(s)"]
    lines += ["  {" + ", ".join(map(str, o)) + "}" for o in dec.orbits]
    _emit(record, args.json, lines)
    return EXIT_OK


def cmd_meanvalue(args, parser) -> int:
    if args.x < 1:
        parser.error("--x must be positive")
    report = meanvalue.mean_value_report(args.x, args.primes)
    mo = meanvalue.moebius_sum_odd(min(args.primes, 10**6))
    prod, ft, ft_zeta = report.product, report.feller_tornier, report.feller_tornier_zeta
    prod.check_agrees(mo, ("euler-product", "moebius-sum"))
    record = {
        "command": "meanvalue",
        "inputs": {"x": args.x, "primes": args.primes},
        "results": {
            "sum_imph": report.sum_imph,
            "sum_T": report.sum_t,
            "ratio_imph": report.ratio_imph,
            "ratio_T": report.ratio_t,
            "limit_imph": report.limit_imph,
            "limit_T": report.limit_t,
            "euler_product_odd": prod.value,
            "moebius_sum_odd": mo.value,
            "feller_tornier": ft.value,
            "feller_tornier_zeta": ft_zeta.value,
            "representations_agree": True,
        },
        "provenance": "sieve+truncated-products",
    }
    small = " (small x, far from the limit)" if args.x < 10**4 else ""
    lines = [
        f"sum imph(n), n<=x: {report.sum_imph}  ratio/x^2 = {report.ratio_imph:.7f}"
        f"  limit {report.limit_imph:.7f}{small}",
        f"sum T(n), n<=x:    {report.sum_t}  ratio/x^2 = {report.ratio_t:.7f}"
        f"  limit {report.limit_t:.7f}{small}",
        f"euler product (odd p <= {prod.prime_bound}): {prod.value:.7f}"
        f" +- {prod.tail_bound:.1e}",
        f"moebius sum (odd d <= {mo.prime_bound}): {mo.value:.7f} +- {mo.tail_bound:.1e}",
        f"Feller-Tornier: {ft.value:.7f} (zeta form {ft_zeta.value:.7f})",
    ]
    _emit(record, args.json, lines)
    return EXIT_OK


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cleantri",
        description="Clean lattice triangles: imph(n), Burnside counts, "
        "base-form reduction, Scott's inequality, mean values.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("imph", help="evaluate imph(n) on a value or range")
    p.add_argument("spec", help="N or A..B (inclusive)")
    p.add_argument("--bruteforce", action="store_true", help="cross-check with the residue scan")
    p.add_argument("--bfile", action="store_true", help="emit OEIS b-file lines")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_imph)

    p = sub.add_parser("tcount", help="count clean-triangle classes T(n)")
    p.add_argument("spec", help="N or A..B (inclusive)")
    p.add_argument(
        "--method",
        choices=["closed", "burnside", "geometric", "all"],
        default="closed",
    )
    p.add_argument("--bfile", action="store_true", help="emit OEIS b-file lines")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_tcount)

    p = sub.add_parser("reduce", help="reduce a triangle to base form")
    p.add_argument("coords", type=int, nargs=6, metavar="C", help="x0 y0 x1 y1 x2 y2")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("equiv", help="test two clean triangles for equivalence")
    p.add_argument("coords", type=int, nargs=12, metavar="C", help="two triangles, 12 ints")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("scott", help="check Scott's inequality B <= 2I + 7")
    p.add_argument("coords", type=int, nargs="*", metavar="C", help="x0 y0 x1 y1 x2 y2")
    p.add_argument("--scan", type=int, help="exhaustive scan of [0,BOUND]^2")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_scott)

    p = sub.add_parser("orbits", help="orbit decomposition of IP(n)")
    p.add_argument("n", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("meanvalue", help="summatory ratios and limit constants")
    p.add_argument("--x", type=int, required=True, help="summation bound")
    p.add_argument("--primes", type=int, default=10**7, help="prime bound for products")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_meanvalue)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args, parser)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader stopped early (e.g. ``| head``); the unflushed rest goes
        # to devnull so that the interpreter's last flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except arith.InvariantViolation as exc:
        record = {"error": "invariant", "message": str(exc), "n": exc.n, "routes": exc.routes}
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return EXIT_VIOLATION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
