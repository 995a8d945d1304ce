"""Command-line front end.

Subcommands: imph, tcount, reduce, equiv, scott, orbits, meanvalue.
Output is human-readable by default; ``--json`` emits one structured record
per invocation and ``--bfile`` (sequence commands) emits OEIS b-file lines
"n a(n)".  ``imph`` and ``tcount`` stream every range, ``--json`` too, through
one writer, ``_write_range``, so their memory does not grow with the range:
it takes the lines in chunks from ``_merged``, which puts a ``--json``
record's digit-count runs in the order of its string keys, and formats each
chunk at once, the factor sieve's values on arrays (``_format_lines``) and
the point routes' value by value (``_format_points``).
``meanvalue`` adds up both of its sums as the factor sieve's blocks pass.
Only ``arith`` is imported here; each command imports the other modules it
runs in its own body, so that a process compiles no module it does not use.
Exit codes:
- 0: success, or a Scott check that does not apply;
- 2: the input was refused, by argparse or by ``arith._require``, whose
  ``arith.Refused`` ``main`` prints as the one line ``error: <message>``;
- 3: a Scott violation (after the report), or a fault that ``main`` reports
  as one JSON line on stderr, after any lines a streamed range wrote, and
  never as a traceback: a failed cross-check (``arith.InvariantViolation``,
  raised by ``arith._expect``) with its message, n and routes, or any other
  exception as ``{"error": "internal", "message": "<Type>: <text>", "n":
  null, "routes": ["internal"]}``;
- 141: the reader closed stdout early (nothing on stderr).
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial
from operator import itemgetter

from . import arith

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VIOLATION = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process the signal ended

# Range output is formatted and written in chunks of at most this many lines
# (or --json entries): one write call per chunk even when stdout is
# unbuffered.  A chunk of the sieve's values holds at most 1.4 MB for the
# b-file lines of a range to 10^7 (``_chunk_bytes``); a point route holds
# this many values.  On a 2-core VM (median of 5), imph 1..10^7 --bfile took
# 1.1 s in chunks of 2^14 lines and 1.5 s in chunks of 2^15: the C allocator
# hands back a free heap top of more than twice the largest block it has
# mapped, here the walk's 1 MB smooth part, so the larger chunks fault their
# pages in again each time.
_LINES_PER_WRITE = 1 << 14

# A closed tcount range past the sieve cap factorizes each odd n, about
# 88 us near 10^12 (2-core VM), so this many odd n take about 7 s.
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


def _dumps(record) -> str:
    """The record as JSON with sorted keys; json loads on the paths that write it."""
    import json

    return json.dumps(record, sort_keys=True)


def _emit(record: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(_dumps(record))
    else:
        for line in lines:
            print(line)


def _triangle(coords: list[int]):
    from . import lattice

    return lattice.LatticeTriangle.from_coords(*coords)


def _write_range(head: dict | None, lo: int, hi: int, source, value, fmt, template) -> None:
    """Write the lines of lo <= n <= hi, or with a ``head`` (the record but its
    results, whose key sorts last) the ``--json`` record, a chunk at a time as
    values are computed.  ``source(value, runs, width)`` makes every check,
    then gives one walk of pieces (see ``_merged``) per run a..b;
    ``fmt(prefix, ns, middle, vs, suffix)`` writes each n and value by the
    ``template`` (prefix, middle, suffix) as a line or a '"n": v' entry.

    ``_dumps`` (sorted keys) orders the results as strings, so they are
    merged from one run per digit count, each in that order already: for n
    of d digits, D the most, it is the order of n * 10^(D - d), then of d.
    Every walk's first piece precedes any write.
    """
    runs, scales, start, sep, end = [(lo, hi)], [1], "", "", ""
    prefix, middle, suffix = template
    if head is not None:
        digits = range(len(str(lo)), len(str(hi)) + 1)
        runs = [(max(lo, 10 ** (d - 1)), min(hi, 10**d - 1)) for d in digits]
        scales = [10 ** (digits[-1] - d) for d in digits]
        start, sep, end = _dumps(head)[:-1] + ', "results": {', ", ", "}}\n"
    prefix = sep + prefix  # cut from the first entry
    width = len(prefix + middle + suffix) + 2 * len(str(hi))  # n and v <= hi
    lead, cut = start, len(sep)
    for ns, vs in _merged(source(value, runs, width), scales):
        text = fmt(prefix, ns, middle, vs, suffix)
        del ns, vs  # no chunk is alive while a walk sieves (see _chunk_bytes)
        sys.stdout.write(lead + text[cut:])
        lead, cut, text = "", 0, None
    sys.stdout.write(end)


def _merged(walks, scales):
    """The lines of the walks in order, in chunks (ns, vs) of at most
    ``_LINES_PER_WRITE``.  Walk w gives pieces (s, e, fetch), ascending, of
    its lines s <= n <= e; fetch(i, j) gives the n and the values of
    i <= n < j.  A piece is spent before the walk is asked for the next, as
    the walk may then reuse its arrays, and no chunk is alive then.

    The lines are ordered by the key n * scales[w] * W + w of walk w, W
    walks.  Each chunk takes from every walk the lines whose keys are at
    most the largest bound that keeps the chunk within ``_LINES_PER_WRITE``
    lines and within each walk's piece; the lines of several walks are
    sorted by key on arrays.
    """
    W = len(walks)
    heads = {w: list(piece) for w, walk in enumerate(walks) if (piece := next(walk, None))}

    def taken(bound: int) -> dict[int, int]:
        """The count of lines of each walk's piece with keys <= bound."""
        return {w: max(0, min(e, (bound - w) // W // scales[w]) - p + 1)
                for w, (p, e, _) in heads.items()}

    while heads:
        low = min(p * scales[w] * W + w for w, (p, _, _) in heads.items())
        high = min(e * scales[w] * W + w for w, (_, e, _) in heads.items())
        while low < high:
            mid = (low + high + 1) // 2
            if sum(taken(mid).values()) <= _LINES_PER_WRITE:
                low = mid
            else:
                high = mid - 1
        counts = {w: c for w, c in taken(low).items() if c}
        parts = [heads[w][2](heads[w][0], heads[w][0] + c) for w, c in counts.items()]
        if len(parts) == 1:
            yield parts.pop()
        else:
            import numpy as np

            ns, vs = (np.concatenate(column) for column in zip(*parts))
            parts = None
            key = ns * np.repeat([scales[w] * W for w in counts], list(counts.values()))
            key += np.repeat(list(counts), list(counts.values()))
            order = key.argsort(kind="stable")
            key = None
            ns, vs = ns[order], vs[order]
            order = None
            yield ns, vs
            ns = vs = None
        for w, c in counts.items():
            heads[w][0] += c
            if heads[w][0] > heads[w][1]:
                if piece := next(walks[w], None):
                    heads[w] = list(piece)
                else:
                    del heads[w]


def _chunk_bytes(lines: int, width: int) -> int:
    """Bytes that a chunk of ``lines`` lines of the sieve's values, of at most
    ``width`` bytes each, holds at its peak.

    Its int64 n and values take 16 bytes a line.  ``_format_lines`` holds
    its uint32 digit buffers (12 a line) beside the uint8 matrix and its
    mask, then the matrix, the mask and the kept bytes (3 width a line), and
    the write holds the text, its first copy and the encoded bytes.  Before
    that, merging several walks holds at most 48 bytes a line: the n and
    values fetched, their concatenation and their sorted copies.
    """
    return lines * max(3 * width + 28, 48)


def _format_lines(prefix: str, ns, middle: str, vs, suffix: str) -> str:
    """The lines prefix + n + middle + v + suffix for the n and the v >= 0 of
    two int64 arrays, as one str: the package's one array formatter.

    Each line is a row of a (lines, width) uint8 matrix tiled from the
    constant bytes.  The digits of n and of v fill their fields, each as wide
    as its largest value, right to left by repeated division by 10, and a
    boolean mask of the same shape drops the leading zeros: a digit is kept
    when the quotient left of it is not 0.  The kept bytes, row by row, are
    the text, decoded once.
    """
    import numpy as np

    tops = [int(x.max()) for x in (ns, vs)]
    widths = [len(str(top)) for top in tops]
    row = f"{prefix}{'0' * widths[0]}{middle}{'0' * widths[1]}{suffix}".encode()
    mat = np.tile(np.frombuffer(row, dtype=np.uint8), (len(ns), 1))
    keep = np.ones(mat.shape, dtype=bool)
    col = len(prefix)
    for x, top, width, gap in zip((ns, vs), tops, widths, (len(middle), len(suffix))):
        q = x.astype(np.uint32 if top >> 32 == 0 else np.uint64)
        h, t = np.empty_like(q), np.empty_like(q)
        for j in range(col + width - 1, col - 1, -1):
            np.floor_divide(q, 10, out=h)
            np.multiply(h, 10, out=t)
            np.subtract(q, t, out=t)
            np.add(t, 48, out=mat[:, j], casting="unsafe")  # the digit's ASCII code
            if j > col:
                np.not_equal(h, 0, out=keep[:, j - 1])
            q, h = h, q
        col += width + gap
    del q, h, t
    text = mat[keep]
    del mat, keep
    return str(text, "ascii")


def _format_points(prefix: str, ns, middle: str, vs, suffix: str, show=str) -> str:
    """The lines prefix + n + middle + show(v) + suffix of a point route's
    values, one by one, as one str."""
    return "".join(f"{prefix}{n}{middle}{show(v)}{suffix}" for n, v in zip(ns, vs))


def _sieve_blocks(values, runs, width):
    """A block source for ``_write_range``: each run's lines in pieces, one a
    block of its factor sieve walk, with values(a, data) at the odd n = a + 2i
    of the block and 0 at the even n, where imph and T vanish.

    One walk per run is charged the others' bytes, and what a chunk of lines
    of ``width`` bytes holds beyond the bytes that the walks leave free
    between blocks: a chunk is made and dropped between blocks."""
    import numpy as np

    from . import sieve

    held = [sieve.walk_bytes(a, b) for a, b in runs]
    lines = min(_LINES_PER_WRITE, runs[-1][1] - runs[0][0] + 1)
    idle = sum(sieve.walk_idle_bytes(a, b) for a, b in runs)
    chunk = max(0, _chunk_bytes(lines, width) - idle)

    def fetch(a, odd, i, j):
        """The n and the values of i <= n < j, with odd[k] at n = a + 2k."""
        return np.arange(i, j), sieve.spread_odd(odd, a, np.empty(j - i, dtype=np.int64), i)

    def pieces(lo, hi, blocks):
        s = lo
        for a, f in blocks:
            e = min(hi, a + 2 * len(f.imph) - 1)
            yield s, e, partial(fetch, a, values(a, f))
            s = e + 1
        if s <= hi:  # a run of one even n, which has no block
            yield s, hi, partial(fetch, hi + 1, np.zeros(0, dtype=np.int64))

    return [pieces(lo, hi, sieve.factor_blocks(lo, hi, sum(held) - own + chunk))
            for (lo, hi), own in zip(runs, held)]


def _point_blocks(value, runs, width):
    """A block source for ``_write_range``: value(n) n by n, in pieces of up
    to ``_LINES_PER_WRITE`` lines; reads no budget."""

    def pieces(lo, hi):
        for s in range(lo, hi + 1, _LINES_PER_WRITE):
            vs = [value(n) for n in range(s, min(hi + 1, s + _LINES_PER_WRITE))]
            yield s, s + len(vs) - 1, lambda i, j, s=s, vs=vs: (range(i, j), vs[i - s : j - s])

    return [pieces(a, b) for a, b in runs]


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def cmd_imph(args, parser) -> int:
    """imph on one n (by ``arith.imph``, never the sieve) or on a range (by
    ``sieve.factor_blocks``), written by ``_write_range``.

    ``--bruteforce`` scans n residues for each n, and is refused before any
    work when their sum over the range exceeds ``arith.IMPH_BRUTEFORCE_BOUND``;
    every n it serves is checked before anything is written.
    """
    lo, hi = _parse_range(args.spec, parser)
    ok = not args.bruteforce or (lo + hi) * (hi - lo + 1) // 2 <= arith.IMPH_BRUTEFORCE_BOUND
    msg = "--bruteforce on {}..{} scans more than {} residues in all"
    arith._require(ok, msg, lo, hi, arith.IMPH_BRUTEFORCE_BOUND)
    source, value, fmt = _point_blocks, arith.imph, _format_points
    if lo < hi:
        source, value, fmt = _sieve_blocks, lambda a, f: f.imph, _format_lines
    if args.bruteforce:
        for ns, vs in _merged(source(value, [(lo, hi)], 0), [1]):
            for n, v in zip(map(int, ns), vs):
                bf = arith.imph_bruteforce(n)
                msg = "imph mismatch at n={}: closed={} bruteforce={}"
                arith._expect(bf == v, n, ("closed-form", "bruteforce"), msg, n, v, bf)
    head = {
        "command": "imph",
        "inputs": {"range": [lo, hi], "bruteforce": bool(args.bruteforce)},
        "provenance": "closed-form+oracle" if args.bruteforce else "closed-form",
    } if args.json else None
    extra = " (matches brute force)" if args.bruteforce and lo == hi else ""
    template = (('"', '": ', "") if args.json else ("", " ", "\n") if args.bfile
                else ("imph(", ") = ", f"{extra}\n"))
    _write_range(head, lo, hi, source, value, fmt, template)
    return EXIT_OK


def _t_all(n: int) -> dict[str, int]:
    """T(n) by all three routes, cross-checked by ``counting.t_report``."""
    from . import counting

    r = counting.t_report(n)
    return {"closed": r.t_closed, "burnside": r.t_burnside, "geometric": r.t_geometric}


def cmd_tcount(args, parser) -> int:
    """T(n) on one n or a range, by one route or, with ``all``, by all three,
    cross-checked; written by ``_write_range``.

    A closed range within the sieve cap is read from ``sieve.factor_blocks``
    by ``sieve.t_closed_block``; the rest calls the point routes n by n.
    Refused before any work (even n are always 0):
    - for every method but ``closed``, a range that the Burnside and
      geometric routes' serving rule, ``counting._require_served``, refuses;
    - a range holding an odd n from ``arith.FACTORIZE_BOUND`` on;
    - a closed range past the sieve cap, which factorizes n by n, holding
      more than ``_POINT_RANGE_ODD_BOUND`` odd n.
    """
    from . import counting

    lo, hi = _parse_range(args.spec, parser)
    method = args.method
    if method != "closed":
        counting._require_served(method, lo, hi)
    first = max(lo, arith.FACTORIZE_BOUND) | 1  # the least odd n factorize refuses
    arith._require(first > hi, "factorize is capped below 2^63, got {}", first)
    odd = arith._odd_count(lo, hi)
    msg = "a range past the sieve cap ({}) is served n by n, so capped at {} odd n; {}..{} holds {}"
    arith._require(hi <= arith.IMPH_SIEVE_BOUND or odd <= _POINT_RANGE_ODD_BOUND, msg,
                   arith.IMPH_SIEVE_BOUND, _POINT_RANGE_ODD_BOUND, lo, hi, odd)
    value = _t_all if method == "all" else getattr(counting, f"t_{method}")
    source, fmt = _point_blocks, _format_points
    if method == "closed" and lo < hi <= arith.IMPH_SIEVE_BOUND:
        from . import sieve

        source, value, fmt = _sieve_blocks, sieve.t_closed_block, _format_lines
    mode = "json" if args.json else "bfile" if args.bfile else "text"
    if method == "all":
        template = {"json": ('"', '": ', ""), "bfile": ("", " ", "\n"), "text": ("T(", "): ", "\n")}
        fmt = partial(_format_points, show={
            "json": _dumps,
            "bfile": itemgetter("closed"),
            "text": lambda e: " ".join(f"{k}={v}" for k, v in e.items()),
        }[mode])
    else:
        template = {"json": ('"', f'": {{"{method}": ', "}"), "bfile": ("", " ", "\n"),
                    "text": ("T(", f"): {method}=", "\n")}
    head = {"command": "tcount", "inputs": {"range": [lo, hi], "method": method},
            "provenance": method} if args.json else None
    _write_range(head, lo, hi, source, value, fmt, template[mode])
    return EXIT_OK


def _witness(L) -> tuple[dict, str]:
    """The JSON record and the text line of a witness map L."""
    record = {"matrix": [[L.a, L.b], [L.c, L.d]], "translation": [L.t.x, L.t.y]}
    return record, f"witness: M=[[{L.a},{L.b}],[{L.c},{L.d}]] t=({L.t.x},{L.t.y})"


def cmd_reduce(args, parser) -> int:
    from . import lattice

    t = _triangle(args.coords)
    bf, L = lattice.reduce_to_base_form(t)
    pc = lattice.pick_counts(t)
    witness, witness_line = _witness(L)
    record = {
        "command": "reduce",
        "inputs": {"vertices": args.coords},
        "results": {
            "base_form": {"b": bf.b, "m": bf.m, "h": bf.h},
            "witness": witness,
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
            witness_line,
            f"pick: I={pc.interior} B={pc.boundary} twice_area={pc.twice_area}",
        ],
    )
    return EXIT_OK


def cmd_equiv(args, parser) -> int:
    from . import lattice

    t1 = _triangle(args.coords[:6])
    t2 = _triangle(args.coords[6:])
    eq, witness = lattice.equivalent_clean(t1, t2, with_witness=True)
    results: dict = {"equivalent": eq}
    lines = [f"equivalent: {'yes' if eq else 'no'}"]
    if witness is not None:
        results["witness"], line = _witness(witness)
        lines.append(line)
    record = {
        "command": "equiv",
        "inputs": {"vertices": args.coords},
        "results": results,
        "provenance": "orbit+witness",
    }
    _emit(record, args.json, lines)
    return EXIT_OK


def cmd_scott(args, parser) -> int:
    from . import lattice

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
    from . import counting

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
    from . import meanvalue

    report = meanvalue.mean_value_report(args.x, args.primes)
    mo = meanvalue.moebius_sum_odd(min(args.primes, 10**6))
    prod, ft, ft_zeta = report.product, report.feller_tornier, report.feller_tornier_zeta
    arith._expect(prod.agrees_with(mo), None, ("euler-product", "moebius-sum"),
                  "euler-product/moebius-sum disagree: {} vs {}", prod.value, mo.value)
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
    except arith.Refused as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a failed cross-check, or a fault of the program
        record = {"error": "internal", "message": f"{type(exc).__name__}: {exc}", "n": None,
                  "routes": ["internal"]}
        if isinstance(exc, arith.InvariantViolation):
            record.update(error="invariant", message=str(exc), n=exc.n, routes=exc.routes)
        print(_dumps(record), file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
