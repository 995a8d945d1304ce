"""Command-line front end.

Subcommands: imph, tcount, reduce, equiv, scott, orbits, meanvalue.
Output is human-readable by default; ``--json`` emits one structured record
per invocation and ``--bfile`` (sequence commands) emits OEIS b-file lines
"n a(n)".  Every range and sum is read from the factor sieve's one block
walk (``arith._factor_blocks``): the text and b-file lines of ``imph A..B``
are streamed from it, so their memory does not grow with the range, and
``meanvalue`` adds up both of its sums as the blocks pass.
Exit codes: 0 success or not-applicable, 2 usage error, 3 a failed
cross-check (``arith.InvariantViolation``, reported by ``main`` alone as one JSON
line on stderr with nothing on stdout) or a Scott violation (after the report),
141 when the reader closed stdout early (nothing on stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import arith, counting, lattice, meanvalue

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VIOLATION = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process the signal ended

# Range output is written in joined chunks of this many lines: one write
# call per chunk even when stdout is unbuffered, and a few MB of line
# strings alive at a time.
_LINES_PER_WRITE = 1 << 15

# Bytes per n that ``tcount A..B`` keeps until its output is written: a row
# tuple and dict, a str key and an int in the record, then the lines or the
# string of json.dumps.  Child peak RSS grew by 477 (b-file), 493 (text) and
# 595 (--json) bytes per n from 1..2 * 10^5 to 1..10^6, and by 503 (text)
# and 611 (--json) over 10-digit n; beside the interpreter, the default
# budget admits ranges of about 2.1 * 10^6 n of lines and 1.7 * 10^6 n of
# --json.  Streaming the rows, as ``imph`` streams its lines, would drop both.
_TCOUNT_LINE_BYTES_PER_N = 504
_TCOUNT_RECORD_BYTES_PER_N = 616


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


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def _check_bruteforce(n: int, v: int) -> None:
    bf = arith.imph_bruteforce(n)
    if bf != v:
        msg = f"imph mismatch at n={n}: closed={v} bruteforce={bf}"
        raise arith.InvariantViolation(msg, n, ("closed-form", "bruteforce"))


def cmd_imph(args, parser) -> int:
    """imph on one n (by ``arith.imph``, never the sieve) or on a range.

    A range is walked block by block with ``arith._factor_blocks``.  Text and
    b-file lines are written as each block passes, so they hold one block
    whatever the range's length, and the range needs only the sieve cap and
    one block's bytes within the budget.  ``--json`` collects every value
    into one record, which the walk's budget check charges
    ``arith._IMPH_RECORD_BYTES_PER_N`` bytes per n before the walk starts.
    The record is not streamed: its sorted keys put the ``results`` in string
    order (``imph 8..12 --json`` gives 10, 11, 12, 8, 9), which a walk in
    block order cannot write as it goes.
    ``--bruteforce`` scans n residues for each n, and is refused before any
    work when their sum over the range exceeds ``arith.IMPH_BRUTEFORCE_BOUND``;
    a range it serves fits in one block, which is checked before any line of
    it is written.
    """
    lo, hi = _parse_range(args.spec, parser)
    if args.bruteforce and (lo + hi) * (hi - lo + 1) // 2 > arith.IMPH_BRUTEFORCE_BOUND:
        raise ValueError(
            f"--bruteforce on {lo}..{hi} scans more than "
            f"{arith.IMPH_BRUTEFORCE_BOUND} residues in all"
        )
    record = {
        "command": "imph",
        "inputs": {"range": [lo, hi], "bruteforce": bool(args.bruteforce)},
        "results": {},
        "provenance": "closed-form+oracle" if args.bruteforce else "closed-form",
    }
    if lo == hi:
        v = arith.imph(lo)
        if args.bruteforce:
            _check_bruteforce(lo, v)
        record["results"][str(lo)] = v
        extra = " (matches brute force)" if args.bruteforce else ""
        _emit(record, args.json, [f"{lo} {v}" if args.bfile else f"imph({lo}) = {v}{extra}"])
        return EXIT_OK
    record_bytes = arith._IMPH_RECORD_BYTES_PER_N * (hi - lo + 1) if args.json else 0
    line = "{} {}\n" if args.bfile else "imph({}) = {}\n"
    for a, block in arith._factor_blocks(lo, hi, holding=record_bytes):
        values = block.imph.tolist()
        ns = range(a, a + len(values))
        if args.bruteforce:
            for n, v in zip(ns, values):
                _check_bruteforce(n, v)
        if args.json:
            record["results"].update(zip(map(str, ns), values))
        else:
            for i in range(0, len(values), _LINES_PER_WRITE):
                chunk = slice(i, i + _LINES_PER_WRITE)
                sys.stdout.write("".join(map(line.format, ns[chunk], values[chunk])))
        del values  # before the next block's list is built
    if args.json:
        _emit(record, True, [])
    return EXIT_OK


def cmd_tcount(args, parser) -> int:
    """T(n) on one n or a range, by one route or, with ``all``, by every route
    that serves n, cross-checked.

    Refused before any work: ``geometric`` past ``counting.GEOMETRIC_N_BOUND``;
    ``burnside`` and ``all`` on a range holding an odd n past
    ``counting.BRUTEFORCE_N_BOUND`` (even n are 0 without a table); and a
    range whose rows, all kept until the output is written, exceed the memory
    budget at ``_TCOUNT_LINE_BYTES_PER_N`` or, with ``--json``,
    ``_TCOUNT_RECORD_BYTES_PER_N`` bytes per n.  One n reads no budget.
    """
    lo, hi = _parse_range(args.spec, parser)
    method = args.method
    if method == "geometric" and hi > counting.GEOMETRIC_N_BOUND:
        parser.error(f"geometric method capped at n = {counting.GEOMETRIC_N_BOUND}")
    first_capped = max(lo, counting.BRUTEFORCE_N_BOUND + 1) | 1  # least odd n past the cap
    if method in ("burnside", "all") and first_capped <= hi:
        raise ValueError(f"Burnside route capped at n = {counting.BRUTEFORCE_N_BOUND}")
    if lo < hi:
        per_n = _TCOUNT_RECORD_BYTES_PER_N if args.json else _TCOUNT_LINE_BYTES_PER_N
        need, budget = per_n * (hi - lo + 1), arith.sieve_memory_budget()
        if need > budget:
            raise ValueError(
                f"tcount of {lo}..{hi} keeps {need} bytes of rows, budget is {budget}; "
                f"raise {arith.SIEVE_MEMORY_ENV} to at least {need}"
            )
    rows = []
    for n in range(lo, hi + 1):
        if method == "all":
            r = counting.t_report(n, with_geometric=n <= counting.GEOMETRIC_N_BOUND)
            entry = {"closed": r.t_closed, "burnside": r.t_burnside, "geometric": r.t_geometric}
            entry = {k: v for k, v in entry.items() if v is not None}
        else:
            entry = {method: getattr(counting, f"t_{method}")(n)}
        rows.append((n, entry))
    record = {
        "command": "tcount",
        "inputs": {"range": [lo, hi], "method": method},
        "results": {str(n): entry for n, entry in rows},
        "provenance": method,
    }
    if args.bfile:
        _emit(record, args.json, [f"{n} {next(iter(e.values()))}" for n, e in rows])
    else:
        _emit(
            record,
            args.json,
            [f"T({n}): " + " ".join(f"{k}={v}" for k, v in e.items()) for n, e in rows],
        )
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
