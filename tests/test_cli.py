import ast
import contextlib
import inspect
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import textwrap
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cleantri import arith, cli, counting, lattice, meanvalue, sieve

PKG = [sys.executable, "-m", "cleantri.cli"]


def run(*args):
    return subprocess.run(
        PKG + list(args), capture_output=True, text=True, timeout=300
    )


class TestImphCommand:
    def test_single(self):
        r = run("imph", "49")
        assert r.returncode == 0
        assert "35" in r.stdout

    def test_bfile(self):
        r = run("imph", "1..10", "--bfile")
        assert r.returncode == 0
        assert r.stdout.splitlines() == [
            "1 1", "2 0", "3 1", "4 0", "5 3", "6 0", "7 5", "8 0", "9 3", "10 0",
        ]

    def test_bfile_roundtrip(self):
        r = run("imph", "1..50", "--bfile")
        pairs = [line.split() for line in r.stdout.splitlines()]
        assert all(len(p) == 2 for p in pairs)
        indices = [int(p[0]) for p in pairs]
        assert indices == list(range(1, 51))
        assert not any(line != line.rstrip() for line in r.stdout.splitlines())

    def test_bruteforce_flag(self):
        r = run("imph", "15", "--bruteforce")
        assert r.returncode == 0
        assert "3" in r.stdout

    def test_usage_error(self):
        assert run("imph", "0").returncode == 2
        assert run("imph", "abc").returncode == 2

    @pytest.mark.parametrize("command", ["imph", "tcount"])
    def test_beyond_factorize_domain(self, command):
        # two 19-digit prime factors: refused at once instead of spinning in rho
        r = run(command, "100000000000000001380000000000000004437")
        assert r.returncode == 2
        assert "error:" in r.stderr and "2^63" in r.stderr
        assert "Traceback" not in r.stderr
        assert r.stdout == ""

    @pytest.mark.parametrize(
        "command,line",
        [
            ("imph", "imph(18446744073709551616) = 0"),
            ("tcount", "T(18446744073709551616): closed=0"),
        ],
    )
    def test_even_beyond_factorize_domain(self, command, line):
        # even n is 0 on both point queries without factoring; odd n >= 2^63 is refused
        even = run(command, str(2**64))
        assert even.returncode == 0 and even.stdout.splitlines() == [line]
        odd = run(command, str(2**64 + 1))
        assert odd.returncode == 2 and "2^63" in odd.stderr
        assert "Traceback" not in odd.stderr

    @pytest.mark.parametrize("command", ["imph", "tcount"])
    def test_past_float_range(self, capsys, command):
        # n far past a float's range: an even n is 0 and an odd one exits 2,
        # and a range is refused at its cap before any charge is computed
        even = 10**700
        line = {"imph": f"imph({even}) = 0", "tcount": f"T({even}): closed=0"}
        assert cli.main([command, str(even)]) == 0
        assert capsys.readouterr() == (line[command] + "\n", "")
        assert cli.main([command, str(even), "--json"]) == 0
        value = {"imph": 0, "tcount": {"closed": 0}}
        assert json.loads(capsys.readouterr().out)["results"] == {str(even): value[command]}
        assert cli.main([command, str(even + 1)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: factorize is capped below 2^63, got {even + 1}\n"
        assert cli.main([command, f"{even}..{even + 2}", "--json"]) == 2
        out, err = capsys.readouterr()
        refusal = {"imph": f"sieve capped at {arith.IMPH_SIEVE_BOUND}, got {even + 2}",
                   "tcount": f"factorize is capped below 2^63, got {even + 1}"}
        assert out == "" and err == f"error: {refusal[command]}\n"

    def test_closed_pipe_exits_141_quietly(self):
        # as `cleantri imph 1..100000 --bfile | head -1`: the output far
        # exceeds a pipe's buffer, so writes fail once the reader is gone
        proc = subprocess.Popen(
            PKG + ["imph", "1..100000", "--bfile"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        assert proc.stdout.readline() == "1 1\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == cli.EXIT_BROKEN_PIPE == 141
        assert stderr == ""
        proc.stderr.close()

    def test_malformed_budget_spares_point_queries(self):
        env = {**os.environ, arith.SIEVE_MEMORY_ENV: "lots"}
        point = subprocess.run(PKG + ["imph", "49"], capture_output=True, text=True, env=env)
        assert point.returncode == 0 and "35" in point.stdout
        table = subprocess.run(PKG + ["imph", "1..10"], capture_output=True, text=True, env=env)
        assert table.returncode == 2 and "Traceback" not in table.stderr
        assert table.stderr == (
            f"error: {arith.SIEVE_MEMORY_ENV} must be a positive integer number of bytes, "
            "got 'lots'\n"
        )

    def test_json(self):
        r = run("imph", "49", "--json")
        rec = json.loads(r.stdout)
        assert rec["command"] == "imph"
        assert rec["results"]["49"] == 35
        assert rec["provenance"] == "closed-form"


SPAN = 2 * sieve._SIEVE_BLOCK  # the numbers one block of odd n covers


class TestImphStreaming:
    """Range output of ``imph A..B``, walked block by block, against lines
    built here from one whole table."""

    @pytest.mark.parametrize("lo,hi", [(7, SPAN + 107), (SPAN - 30, SPAN + 30)])
    def test_text_and_bfile_match_table(self, capsys, lo, hi):
        table = arith.imph_sieve(hi).tolist()
        assert cli.main(["imph", f"{lo}..{hi}", "--bfile"]) == 0
        assert capsys.readouterr().out == "".join(f"{n} {table[n]}\n" for n in range(lo, hi + 1))
        assert cli.main(["imph", f"{lo}..{hi}"]) == 0
        assert capsys.readouterr().out == "".join(
            f"imph({n}) = {table[n]}\n" for n in range(lo, hi + 1)
        )

    def test_json_matches_table(self, capsys):
        lo, hi = 3, SPAN + 40
        table = arith.imph_sieve(hi).tolist()
        assert cli.main(["imph", f"{lo}..{hi}", "--json"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["inputs"] == {"range": [lo, hi], "bruteforce": False}
        assert rec["results"] == {str(n): table[n] for n in range(lo, hi + 1)}

    def test_peak_rss_flat_in_range_length(self):
        # lines and --json records of both commands; rows or a record kept
        # whole until the end would grow by hundreds of MB over 1..2 * 10^6
        code = (
            "import resource, sys\n"
            "from cleantri import cli\n"
            "code = cli.main([sys.argv[1], '1..' + sys.argv[2], sys.argv[3]])\n"
            "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
        )
        for command, fmt in [("imph", "--bfile"), ("imph", "--json"),
                             ("tcount", "--bfile"), ("tcount", "--json")]:
            peaks = []
            for n in (2 * 10**5, 2 * 10**6):
                proc = subprocess.run(
                    [sys.executable, "-c", code, command, str(n), fmt],
                    stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=300,
                )
                rc, kib = map(int, proc.stderr.split())
                assert rc == 0
                peaks.append(kib * 1024)
            assert peaks[1] - peaks[0] <= 10 * 10**6, (command, fmt, peaks)

    def test_bruteforce_work_guard(self, monkeypatch, capsys):
        # sum n over 1..4472 is 10,001,628 > 10^7 residues; one n past the
        # one-n cap is refused the same way, before imph is evaluated
        def forbidden(*args):
            raise RuntimeError("work started")

        with monkeypatch.context() as m:
            for module, name in ((arith, "imph"), (arith, "imph_bruteforce"),
                                 (sieve, "factor_blocks")):
                m.setattr(module, name, forbidden)
            for spec in ("1..100000", "1..4472", str(arith.IMPH_BRUTEFORCE_BOUND + 1)):
                assert cli.main(["imph", spec, "--bruteforce"]) == 2
                out, err = capsys.readouterr()
                assert out == "" and err.startswith("error: --bruteforce")
        assert cli.main(["imph", "15", "--bruteforce"]) == 0
        assert capsys.readouterr().out == "imph(15) = 3 (matches brute force)\n"
        assert cli.main(["imph", "1..30", "--bruteforce"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 30

    def test_bruteforce_checks_every_n_before_writing(self, monkeypatch, capsys):
        # a mismatch at the last n of a range of several blocks leaves stdout
        # empty, in lines and in the --json record alike
        oracle = arith.imph_bruteforce
        monkeypatch.setattr(arith, "imph_bruteforce", lambda n: oracle(n) + (n == 29))
        monkeypatch.setattr(sieve, "_SIEVE_BLOCK", 8)
        for fmt in ([], ["--json"]):
            assert cli.main(["imph", "1..29", "--bruteforce", *fmt]) == 3
            out, err = capsys.readouterr()
            assert out == "" and json.loads(err)["n"] == 29


class TestTcountCommand:
    def test_all_methods(self):
        r = run("tcount", "7", "--method", "all")
        assert r.returncode == 0
        assert "closed=2" in r.stdout
        assert "burnside=2" in r.stdout
        assert "geometric=2" in r.stdout

    def test_even(self):
        r = run("tcount", "6")
        assert r.returncode == 0
        assert "0" in r.stdout

    def test_bfile(self):
        r = run("tcount", "1..99", "--bfile")
        assert r.returncode == 0
        lines = r.stdout.splitlines()
        assert len(lines) == 99
        assert lines[0] == "1 1"
        assert lines[6] == "7 2"
        assert all(line.split()[1] == "0" for line in lines[1::2])

    @pytest.mark.parametrize("method", ["burnside", "all"])
    def test_burnside_cap_before_any_work(self, monkeypatch, capsys, method):
        # a range holding an odd n past the routes' cap of 10^7 is refused
        # before its first n, in the name of the geometric route with all
        # three; an even n past it is 0 on every route and still served
        route, cap = "Burnside" if method == "burnside" else "geometric", 10**7

        def forbidden(n):
            raise RuntimeError(f"route called at n={n}")

        with monkeypatch.context() as m:
            m.setattr(counting, "t_burnside", forbidden)
            m.setattr(counting, "t_report", forbidden)
            for spec in (f"1..{cap + 1}", f"{cap + 1}..{cap + 3}", f"{cap - 1}..{cap + 2}"):
                assert cli.main(["tcount", spec, "--method", method]) == 2
                out, err = capsys.readouterr()
                assert out == "" and err == f"error: {route} route capped at n = {cap}\n"
        # the geometric count of 9,999,999 takes seconds; the cap is what is tested
        monkeypatch.setattr(counting, "t_geometric", counting.t_closed)
        assert cli.main(["tcount", f"{cap - 2}..{cap}", "--method", method]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3
        assert cli.main(["tcount", f"{cap + 2}", "--method", method]) == 0
        assert set(re.findall(r"=(\d+)", capsys.readouterr().out)) == {"0"}

    def test_unfactorable_range_refused_before_any_work(self, monkeypatch, capsys):
        # a closed range past the sieve cap streams n by n, so an odd n past
        # factorize's domain, even many chunks in, is refused before the first
        big = arith.FACTORIZE_BOUND
        done = []
        t_closed = counting.t_closed

        def spy(n):
            done.append(n)
            return t_closed(n)

        monkeypatch.setattr(counting, "t_closed", spy)
        monkeypatch.setattr(cli, "_LINES_PER_WRITE", 2)
        for spec in (f"{big - 20}..{big + 1}", f"{big + 1}..{big + 3}"):
            for flags in ([], ["--bfile"], ["--json"]):
                assert cli.main(["tcount", spec, *flags]) == 2
                out, err = capsys.readouterr()
                assert out == "" and done == []
                assert err == f"error: factorize is capped below 2^63, got {big + 1}\n"
        assert cli.main(["tcount", f"{big - 3}..{big}", "--bfile"]) == 0
        lines = [f"{n} {t_closed(n)}\n" for n in range(big - 3, big + 1)]
        assert capsys.readouterr().out == "".join(lines)

    @pytest.mark.parametrize("method", ["burnside", "geometric", "all"])
    def test_work_guard_before_any_work(self, monkeypatch, capsys, method):
        # each odd n costs about imph(n) on these routes, so a range whose odd
        # n sum past 10^7 is refused before its first n: 1..6325 sums to
        # 3163^2 = 10,004,569, 1..6324 to 3162^2 = 9,998,244
        def forbidden(n, *args, **kwargs):
            raise RuntimeError(f"route called at n={n}")

        with monkeypatch.context() as m:
            for name in ("t_burnside", "t_geometric", "t_report"):
                m.setattr(counting, name, forbidden)
            for spec in ("1..6325", "99001..99300", "2..100000"):
                assert cli.main(["tcount", spec, "--method", method]) == 2
                out, err = capsys.readouterr()
                assert out == "" and err == (
                    f"error: --method {method} on {spec} sums more than 10000000 over its odd n\n"
                )
        served = []
        monkeypatch.setattr(counting, "t_burnside", lambda n: served.append(n) or 0)
        assert cli.main(["tcount", "1..6324", "--method", "burnside", "--bfile"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 6324 and len(served) == 6324

    def test_far_range_length_cap_before_any_work(self, monkeypatch, capsys):
        # a closed range past the sieve cap factorizes n by n: more than 10^5
        # odd n are refused before the first, 10^5 of them are served
        calls = []
        monkeypatch.setattr(counting, "t_closed", lambda n: calls.append(n) or 0)
        lo = 10**12
        for hi, held in ((lo + 2 * 10**5 + 1, 10**5 + 1), (10**15, (10**15 - lo) // 2)):
            assert cli.main(["tcount", f"{lo}..{hi}", "--json"]) == 2
            out, err = capsys.readouterr()
            assert out == "" and calls == []
            assert err == (
                f"error: a range past the sieve cap (100000000) is served n by n, "
                f"so capped at 100000 odd n; {lo}..{hi} holds {held}\n"
            )
        assert cli.main(["tcount", f"{lo}..{lo + 2 * 10**5 - 1}", "--bfile"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2 * 10**5
        assert len(calls) == 2 * 10**5

    def test_geometric_cap_is_one_error_line(self, monkeypatch, capsys):
        # the geometric route shares the Burnside cap and its rule: a range
        # holding an odd n past it is refused before its first n
        assert cli.main(["tcount", "2001", "--method", "geometric"]) == 0
        assert capsys.readouterr().out == f"T(2001): geometric={counting.t_closed(2001)}\n"

        def forbidden(n):
            raise RuntimeError(f"t_geometric called at n={n}")

        monkeypatch.setattr(counting, "t_geometric", forbidden)
        for spec in ("10000001", "9999999..10000001"):
            assert cli.main(["tcount", spec, "--method", "geometric"]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err == "error: geometric route capped at n = 10000000\n"


def _mutated(fn, old, new):
    """``fn`` built from its source with the one occurrence of ``old``
    changed to ``new``, in a copy of its module's namespace."""
    module = sys.modules[fn.__module__]
    source = textwrap.dedent(inspect.getsource(fn))
    assert source.count(old) == 1
    namespace = dict(vars(module))
    code = "from __future__ import annotations\n" + source.replace(old, new)
    exec(compile(code, module.__file__, "exec"), namespace)
    return namespace[fn.__name__]


def _mutate(monkeypatch, fn, old, new):
    """Replace ``fn`` in its module, for the test, by ``_mutated(fn, old, new)``."""
    monkeypatch.setattr(sys.modules[fn.__module__], fn.__name__, _mutated(fn, old, new))


def _walk_need(runs):
    """Bytes the factor sieve walks over ``runs`` hold together: a block of
    odd n (19 B each, and the cast buffer's excess over a short block's
    smooth part, 4 B an entry), the scatter table and the fixed per-walk
    objects, for each."""
    blocks = [(min((b + 1) // 2 - a // 2, sieve._SIEVE_BLOCK), b) for a, b in runs]
    return sum(
        sieve._FACTOR_SIEVE_BYTES_PER_N * n
        + max(0, sieve._CAST_BUFFER_BYTES - 4 * n)
        + sieve._scatter_bytes(b, n)
        + sieve._WALK_OBJECT_BYTES
        for n, b in blocks
    )


class _Sink:
    """A stdout that keeps the length of what is written and nothing else."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)

    def flush(self):
        pass


class _NullRaw(io.RawIOBase):
    """A binary stream that keeps the count of bytes written and nothing else."""

    size = 0

    def writable(self):
        return True

    def write(self, data):
        self.size += len(data)
        return len(data)


def _tcount_entry(method, n):
    if method != "all":
        return {method: getattr(counting, f"t_{method}")(n)}
    return {m: getattr(counting, f"t_{m}")(n) for m in ("closed", "burnside", "geometric")}


def _expected(command, method, lo, hi, mode):
    """The output of ``command lo..hi`` in ``mode``, built from one point
    route call per n and, for --json, one json.dumps of the whole record."""
    ns = range(lo, hi + 1)
    if command == "imph":
        results = {n: arith.imph(n) for n in ns}
        inputs, provenance = {"range": [lo, hi], "bruteforce": False}, "closed-form"
        first, text = results, {n: f"imph({n}) = {v}" for n, v in results.items()}
    else:
        results = {n: _tcount_entry(method, n) for n in ns}
        inputs, provenance = {"range": [lo, hi], "method": method}, method
        first = {n: next(iter(e.values())) for n, e in results.items()}
        text = {n: f"T({n}): " + " ".join(f"{k}={v}" for k, v in e.items())
                for n, e in results.items()}
    if mode == "json":
        record = {"command": command, "inputs": inputs, "provenance": provenance,
                  "results": {str(n): v for n, v in results.items()}}
        return json.dumps(record, sort_keys=True) + "\n"
    lines = {n: f"{n} {first[n]}" for n in ns} if mode == "bfile" else text
    return "".join(lines[n] + "\n" for n in ns)


class TestRangeWriter:
    """``imph`` and ``tcount`` ranges, lines and --json records alike, written
    by one streamed writer as the walks pass."""

    @pytest.mark.parametrize("command", ["imph", "tcount"])
    def test_json_walks_within_budget(self, monkeypatch, capsys, command):
        # --json merges one walk per digit count, and each is charged the
        # others' blocks and objects before any is sieved, so one byte short
        # of their sum is refused before the first write, and the sum serves
        lo, hi = 5, 1004
        runs = [(5, 9), (10, 99), (100, 999), (1000, 1004)]
        need = _walk_need(runs)
        sieved = []
        kernel = sieve._sieve_block

        def spy(a, *args):
            sieved.append(a)
            return kernel(a, *args)

        monkeypatch.setattr(sieve, "_sieve_block", spy)
        monkeypatch.setenv(arith.SIEVE_MEMORY_ENV, str(need - 1))
        assert cli.main([command, f"{lo}..{hi}", "--json"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and sieved == []
        assert err.startswith("error: ") and f"needs {need} bytes" in err
        # lines take one walk over the whole range, well within that budget
        assert cli.main([command, f"{lo}..{hi}", "--bfile"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == hi - lo + 1
        assert sieved == [lo]
        sieved.clear()
        monkeypatch.setenv(arith.SIEVE_MEMORY_ENV, str(need))
        assert cli.main([command, f"{lo}..{hi}", "--json"]) == 0
        assert capsys.readouterr().out == _expected(command, "closed", lo, hi, "json")
        assert sieved == [a | 1 for a, _ in runs]  # each walk's first odd n

    def test_lines_within_budget(self, monkeypatch, capsys):
        # a closed tcount range is one walk, charged before its first n; one
        # n reads no budget, so a malformed one spares it
        lo, hi = 5, 1004
        need = _walk_need([(lo, hi)])
        def forbidden(a, *args):
            raise RuntimeError(f"block sieved at {a}")

        with monkeypatch.context() as m:
            m.setattr(sieve, "_sieve_block", forbidden)
            m.setenv(arith.SIEVE_MEMORY_ENV, str(need - 1))
            assert cli.main(["tcount", f"{lo}..{hi}", "--bfile"]) == 2
            out, err = capsys.readouterr()
            assert out == "" and f"needs {need} bytes" in err
        monkeypatch.setenv(arith.SIEVE_MEMORY_ENV, str(need))
        assert cli.main(["tcount", f"{lo}..{hi}", "--bfile"]) == 0
        assert capsys.readouterr().out == _expected("tcount", "closed", lo, hi, "bfile")
        monkeypatch.setenv(arith.SIEVE_MEMORY_ENV, "lots")
        assert cli.main(["tcount", "49"]) == 0
        assert capsys.readouterr().out == "T(49): closed=7\n"

    @pytest.mark.parametrize("command", ["imph", "tcount"])
    def test_json_peak_within_walks(self, monkeypatch, command):
        # small blocks and chunks: a record of 10^5 entries (a dict of them
        # alone would take about 10 MB) is written in the walks' bytes
        # and a fixed slack for the lists and strings in flight
        import numpy  # noqa: F401  (loaded before tracing, as by any earlier array command)

        block, hi = 1000, 10**5
        monkeypatch.setattr(sieve, "_SIEVE_BLOCK", block)
        monkeypatch.setattr(cli, "_LINES_PER_WRITE", 500)
        sink = _Sink()
        monkeypatch.setattr(sys, "stdout", sink)
        runs = [(10 ** (d - 1), min(hi, 10**d - 1)) for d in range(1, 7)]
        tracemalloc.start()
        try:
            assert cli.main([command, f"1..{hi}", "--json"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.size > 10 * hi
        assert peak <= _walk_need(runs) + 256 * 1024

    @pytest.mark.parametrize("command", ["imph", "tcount"])
    @pytest.mark.parametrize("fmt", ["--bfile", "--json"])
    @pytest.mark.parametrize("hi", [40_000, 1_200_000])
    def test_chunks_within_charge(self, monkeypatch, capsys, command, fmt, hi):
        # default blocks and chunks: the need the walks report holds their
        # blocks and what a chunk takes beyond the bytes they leave free
        # between blocks, which for 1..40000 (one block of 20,000 odd n) are
        # fewer than a chunk takes; one byte short of it exits 2 before any
        # block is sieved, and it bounds the traced peak, through a text
        # stream that encodes as stdout does, of 1..40000 and of 1..1200000,
        # three blocks, with no chunk alive while a block is sieved.  96 KiB
        # are objects no budget charges: the parser, about 46 KB, and the
        # stream's buffer
        import numpy  # noqa: F401  (loaded before tracing, as by any earlier array command)

        argv, runs = [command, f"1..{hi}", fmt], [(1, hi)]
        if fmt == "--json":
            runs = [(10 ** (d - 1), min(hi, 10**d - 1)) for d in range(1, len(str(hi)) + 1)]
        monkeypatch.setenv(arith.SIEVE_MEMORY_ENV, "1")
        assert cli.main(argv) == 2
        need = int(re.search(r"needs (\d+) bytes", capsys.readouterr().err)[1])
        assert need > _walk_need(runs) if hi == 40_000 else need >= _walk_need(runs)
        sieved = []
        with monkeypatch.context() as m:
            m.setattr(sieve, "_sieve_block", lambda a, *args: sieved.append(a))
            m.setenv(arith.SIEVE_MEMORY_ENV, str(need - 1))
            assert cli.main(argv) == 2
            assert capsys.readouterr().out == "" and sieved == []
        monkeypatch.setenv(arith.SIEVE_MEMORY_ENV, str(need))
        raw = _NullRaw()
        stdout = io.TextIOWrapper(io.BufferedWriter(raw), encoding="ascii")
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(stdout):
                assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert raw.size > 5 * hi
        assert peak <= need + 96 * 1024

    def test_json_order(self, capsys):
        # --json results sort as strings: the digit-count runs interleave
        assert cli.main(["imph", "8..12", "--json"]) == 0
        assert capsys.readouterr().out == (
            '{"command": "imph", "inputs": {"bruteforce": false, "range": [8, 12]}, '
            '"provenance": "closed-form", "results": {"10": 0, "11": 9, "12": 0, "8": 0, "9": 3}}\n'
        )
        for command, lo, hi in (("imph", 1, 1000), ("tcount", 95, 1005)):
            assert cli.main([command, f"{lo}..{hi}", "--json"]) == 0
            out = capsys.readouterr().out
            assert out == _expected(command, "closed", lo, hi, "json")
            assert list(json.loads(out)["results"]) == sorted(map(str, range(lo, hi + 1)))

    @settings(max_examples=30, deadline=None)
    @given(
        route=st.sampled_from([
            ("imph", "closed", (9, 99, 999_999), 150),
            ("tcount", "closed", (9, 99, 999_999), 150),
            ("tcount", "burnside", (9, 99, 99_999), 150),
            ("tcount", "all", (9, 99), 40),
        ]),
        data=st.data(),
    )
    def test_matches_point_routes(self, route, data):
        # ranges across the digit-count edge after ``edge`` and, with blocks
        # of 64, block edges; chunks of 7 lines split blocks and the merge
        command, method, edges, width = route
        edge = data.draw(st.sampled_from(edges))
        lo = max(1, edge - data.draw(st.integers(0, width)))
        hi = edge + data.draw(st.integers(0, width))
        if method == "burnside":
            hi = min(hi, 10**5)  # at most 76 odd n near 10^5: under the work guard's 10^7
        argv = [command, f"{lo}..{hi}"] + (["--method", method] if command == "tcount" else [])
        with mock.patch.object(sieve, "_SIEVE_BLOCK", 64), \
                mock.patch.object(cli, "_LINES_PER_WRITE", 7):
            for mode, flags in (("text", []), ("bfile", ["--bfile"]), ("json", ["--json"])):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    assert cli.main(argv + flags) == 0
                assert out.getvalue() == _expected(command, method, lo, hi, mode), mode

    @pytest.mark.parametrize("command", ["imph", "tcount"])
    @pytest.mark.parametrize("lo,hi", [(2, 130), (128, 258), (127, 256), (98, 100), (256, 384)])
    def test_even_ends_across_block_edges(self, command, lo, hi):
        # blocks of 64 odd n cover 128 numbers, so 129 and 257 start blocks:
        # a range starting on an even n holds it before the walk's first odd
        # n, and one ending on an even n holds it after the walk's last
        argv = [command, f"{lo}..{hi}"]
        with mock.patch.object(sieve, "_SIEVE_BLOCK", 64), \
                mock.patch.object(cli, "_LINES_PER_WRITE", 7):
            for mode, flags in (("text", []), ("bfile", ["--bfile"]), ("json", ["--json"])):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    assert cli.main(argv + flags) == 0
                assert out.getvalue() == _expected(command, "closed", lo, hi, mode), mode

    @pytest.mark.parametrize("argv", [
        ["imph", "1..1000000", "--bfile"],
        ["meanvalue", "--x", "1000000", "--primes", "1000"],
    ])
    def test_spot_check_catches_a_wrong_slice_start(self, monkeypatch, capsys, argv):
        # the slice start of every n, not of the odd n, corrupts every block;
        # with the kernel's cofactor check taken out, the walk's spot check
        # stops the first before any line is written
        monkeypatch.setattr(sieve, "_odd_offset", lambda a, m: (-a) % m)
        _mutate(monkeypatch, sieve._sieve_block,
                "if len(left) or np.count_nonzero(cof) < length or above < np.count_nonzero(big):",
                "if False:")
        assert cli.main(argv) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        record = json.loads(err)
        assert record["error"] == "invariant" and record["routes"] == ["sieve", "factorize"]
        n = record["n"]
        assert n % 2 == 1 and 1 <= n < 2 * sieve._SIEVE_BLOCK
        assert f"factorize gives {arith.imph(n)}" in record["message"]

    @pytest.mark.parametrize("argv", [
        ["imph", "1..1000000", "--bfile"],
        ["meanvalue", "--x", "1000000", "--primes", "1000"],
    ])
    def test_cofactor_check_catches_a_wrong_slice_start(self, monkeypatch, capsys, argv):
        # a smooth part struck at n that its prime does not divide leaves a
        # remainder: the kernel's check of cofactor * smooth part = n names
        # the first such n before any line is written; in the block of a = 1
        # the slice of 3 starts at entry 2, n = 5
        monkeypatch.setattr(sieve, "_odd_offset", lambda a, m: (-a) % m)
        assert cli.main(argv) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        record = json.loads(err)
        assert record["error"] == "invariant" and record["routes"] == ["sieve", "cofactor"]
        assert record["n"] == 5 and record["message"].startswith("sieved cofactor(5)")

    @pytest.mark.parametrize("argv", [
        ["tcount", "1..1000000", "--bfile"],
        ["meanvalue", "--x", "1000000"],
    ])
    @pytest.mark.parametrize("fn,old,new,caught", [
        # the kernel's slices and its scatter table read the factor and the
        # step of a power from sieve._power_update
        pytest.param(sieve._power_update, "step = 0x101", "step = 0x102", "sieved omega(",
                     id="_sieve_block-omega step"),
        pytest.param(sieve._power_update, "step = 0x101", "step = 0x201", "sieved big_omega(",
                     id="_sieve_block-Omega step"),
        (sieve._sieve_block, "== 3  # q - 2", "== 1  # q - 2", "closed-form numerator of T("),
        pytest.param(sieve._power_update, "if p % 6 == 5:", "if p % 6 == 1:", "sieved bad5(",
                     id="_sieve_block-if p % 6 == 5:-if p % 6 == 1:-sieved bad5("),
        pytest.param(sieve._sieve_block, "(3, 9)", "(3, 27)", "sieved cofactor(",
                     id="_sieve_block-wheel without 9"),
        pytest.param(sieve._sieve_block, "np.arange(a, end + 1", "np.arange(a + 2, end + 3",
                     "sieved cofactor(", id="_sieve_block-cofactor of the next n"),
        pytest.param(sieve._repeat_head, "arr[: len(ahead)]", "arr[1 : len(ahead) + 1]",
                     "sieved cofactor(", id="_repeat_head-wheel copied one entry off"),
        pytest.param(sieve._sieve_block, "sm[:head] = 1", "sm[:head] = 0", "sieved cofactor(",
                     id="_sieve_block-zero smooth part"),
        pytest.param(sieve._scatter_table, "table.smooth[i] = p", "table.smooth[i] = pk",
                     "sieved cofactor(", id="_scatter_table-smooth factor p^k at k >= 2"),
        pytest.param(sieve._scatter, "ufunc.at(target, idx[: stop - done], values[: stop - done])",
                     "target[idx[: stop - done]] = ufunc(target[idx[: stop - done]], "
                     "values[: stop - done])",
                     "sieved cofactor(", id="_scatter-fancy index in place of ufunc.at"),
        # ids of the T kernel's rows as when it was the private meanvalue._t_closed_block
        pytest.param(sieve.t_closed_block, "_odd_offset(a, 3) :: 3", "_odd_offset(a, 3) + 1 :: 3",
                     "closed-form numerator of T(", id="_t_closed_block-_odd_offset(a, 3) :: 3-"
                     "_odd_offset(a, 3) + 1 :: 3-closed-form numerator of T("),
        pytest.param(sieve.t_closed_block, "_odd_offset(a, 9) :: 9", "_odd_offset(a, 9) + 1 :: 9",
                     "closed-form numerator of T(", id="_t_closed_block-_odd_offset(a, 9) :: 9-"
                     "_odd_offset(a, 9) + 1 :: 9-closed-form numerator of T("),
        pytest.param(sieve.t_closed_block, "table += 3", "table += 9", "sieved T(",
                     id="_t_closed_block-table += 3-table += 9-sieved T("),
    ])
    def test_factor_row_mutation_exits_3(self, monkeypatch, capsys, argv, fn, old, new, caught):
        # a wrong update of one field of the factor row, of the wheel the
        # kernel copies forward, of the cofactor, or of the closed form built
        # from the row, stops the first block before any line is written
        _mutate(monkeypatch, fn, old, new)
        assert cli.main(argv) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        record = json.loads(err)
        n = record["n"]
        assert record["message"].startswith(caught + f"{n})")
        assert n % 2 == 1 and 1 <= n < 2 * sieve._SIEVE_BLOCK
        routes = {"closed-form numerator of T(": ["closed"],
                  "sieved cofactor(": ["sieve", "cofactor"]}
        assert record["error"] == "invariant"
        assert record["routes"] == routes.get(caught, ["sieve", "factorize"])

    @pytest.mark.parametrize("old,new,n,caught", [
        pytest.param("count(t == 1, low)", "count(t == 1, high)", 7, "g2", id="g2 low half"),
        pytest.param("count(t == 1, high)", "count(t == 1, low)", 7, "g2", id="g2 high half"),
        pytest.param("t == -1", "t == 0", 7, "g4", id="g4/g5 low half"),
        pytest.param("t == n - 1", "t == n + 1", 7, "g4", id="g4/g5 high half"),
        pytest.param("t == x", "t == 2 * x", 9, "g6", id="g6 low half"),
        # m = 2 is the one member with m^2 = 2m, and a high one only at n = 3
        pytest.param("t == n,", "t == n - 2,", 3, "g6", id="g6 high half"),
        pytest.param("int(high[-1])", "int(low[-1])", 9, "g3", id="g3 read"),
    ])
    def test_fixed_point_comparison_mutation_exits_3(self, monkeypatch, capsys, old, new, n,
                                                     caught):
        # a slip in one comparison of the Burnside fixed-point count, or in
        # its read of g3, is named by t_report's check of that map's count
        # against the closed form before any line is written
        _mutate(monkeypatch, counting._fix_counts_vectorized, old, new)
        assert cli.main(["tcount", str(n), "--method", "all"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        record = json.loads(err)
        assert record["error"] == "invariant" and record["routes"] == ["burnside", "closed"]
        assert record["n"] == n and record["message"].startswith(f"{caught} fixes ")

    def test_far_closed_range(self, capsys):
        # past the sieve cap, a closed range is served by the point route
        lo, hi = 10**12, 10**12 + 20
        assert cli.main(["tcount", f"{lo}..{hi}"]) == 0
        assert capsys.readouterr().out == "".join(
            f"T({n}): closed={counting.t_closed(n)}\n" for n in range(lo, hi + 1)
        )
        assert cli.main(["tcount", f"{lo}..{hi}", "--json"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["results"] == {str(n): {"closed": counting.t_closed(n)} for n in range(lo, hi + 1)}
        assert list(rec["results"]) == sorted(map(str, range(lo, hi + 1)))


# 0, 1, 9, 10 and 10^k - 1, 10^k, 10^k + 1 up to 10^8, 2^31 - 1, and past
# uint32, where the formatter's digits are uint64
_DIGIT_EDGES = sorted({0, 1, 9, 10, 2**31 - 1, 2**32 - 1, 2**32, 10**12 + 39, 2**63 - 1,
                       *(10**k + d for k in range(2, 9) for d in (-1, 0, 1))})


class TestFormatLines:
    """The array formatter against ``str`` on each n and value."""

    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(*[st.one_of(st.sampled_from(_DIGIT_EDGES), st.integers(0, 2**31 - 1))] * 2),
            min_size=1, max_size=40,
        ),
        template=st.sampled_from([
            ("", " ", "\n"), ("imph(", ") = ", "\n"), ("T(", "): closed=", "\n"),
            (', "', '": ', ""), (', "', '": {"closed": ', "}"),
        ]),
    )
    def test_matches_str(self, pairs, template):
        import numpy as np

        ns, vs = (np.array(column, dtype=np.int64) for column in zip(*pairs))
        prefix, middle, suffix = template
        want = "".join(f"{prefix}{n}{middle}{v}{suffix}" for n, v in pairs)
        assert cli._format_lines(prefix, ns, middle, vs, suffix) == want


class TestReduceCommand:
    def test_figure1(self):
        r = run("reduce", "0", "0", "-3", "-3", "2", "4")
        assert r.returncode == 0
        assert "b=3 m=0 h=2" in r.stdout
        assert "witness" in r.stdout

    def test_identity(self):
        r = run("reduce", "0", "0", "1", "0", "3", "5")
        assert "b=1 m=3 h=5" in r.stdout

    def test_degenerate(self):
        r = run("reduce", "0", "0", "1", "1", "2", "2")
        assert r.returncode == 2

    def test_tied_edges_bytes(self, capsys):
        # legs and hypotenuse tie at three lattice points each
        assert cli.main(["reduce", "0", "0", "3", "0", "0", "3"]) == 0
        assert capsys.readouterr() == (
            "base form: b=3 m=0 h=3\n"
            "witness: M=[[0,1],[1,0]] t=(0,0)\n"
            "pick: I=1 B=9 twice_area=9\n",
            "",
        )


class TestEquivCommand:
    def test_equivalent(self):
        r = run("equiv", "0", "0", "1", "0", "2", "7", "0", "0", "1", "0", "4", "7")
        assert r.returncode == 0
        assert "equivalent: yes" in r.stdout

    def test_not_equivalent(self):
        r = run("equiv", "0", "0", "1", "0", "3", "7", "0", "0", "1", "0", "2", "7")
        assert r.returncode == 0
        assert "equivalent: no" in r.stdout

    def test_rejects_non_clean(self):
        r = run("equiv", "0", "0", "-3", "-3", "2", "4", "0", "0", "3", "0", "2", "2")
        assert r.returncode == 2

    def test_orbit_of_two_witness_bytes(self, capsys):
        # m = 3 and m = 5 form one class of size 2 for h = 7
        assert cli.main(["equiv", "0", "0", "1", "0", "3", "7", "0", "0", "1", "0", "5", "7"]) == 0
        assert capsys.readouterr() == ("equivalent: yes\nwitness: M=[[-1,1],[0,1]] t=(1,0)\n", "")


class TestScottCommand:
    def test_equality_triangle(self):
        r = run("scott", "1", "1", "1", "4", "4", "1")
        assert r.returncode == 0
        assert "equality" in r.stdout
        assert "I=1 B=9" in r.stdout

    def test_scan(self):
        r = run("scott", "--scan", "4")
        assert r.returncode == 0
        assert "violations: 0" in r.stdout

    def test_not_applicable(self):
        r = run("scott", "0", "0", "1", "0", "0", "1")
        assert r.returncode == 0
        assert "not applicable" in r.stdout

    def test_coords_with_scan_rejected(self):
        r = run("scott", "0", "0", "1", "0", "0", "1", "--scan", "2")
        assert r.returncode == 2
        assert r.stdout == "" and "not both" in r.stderr


class TestOrbitsCommand:
    def test_orbits(self):
        r = run("orbits", "7")
        assert r.returncode == 0
        assert "2 orbit(s)" in r.stdout
        assert "{2, 4, 6}" in r.stdout


class TestMeanvalueCommand:
    def test_small(self):
        r = run("meanvalue", "--x", "10", "--primes", "1000")
        assert r.returncode == 0
        assert "0.13" in r.stdout
        assert "small x" in r.stdout

    def test_usage(self):
        assert run("meanvalue", "--x", "0").returncode == 2


class TestMeanvalueBounds:
    """In-process runs of the meanvalue command with the library patched."""

    @pytest.mark.parametrize("x", [70_000_000, 10**8 + 1])
    def test_rejects_before_any_work(self, monkeypatch, capsys, x):
        # under a 4 MB budget, one block of 2^18 entries (4.19 MB) does not
        # fit; 10^8 + 1 exceeds the sieve cap
        monkeypatch.setenv(arith.SIEVE_MEMORY_ENV, str(4 * 10**6))
        calls = []
        monkeypatch.setattr(meanvalue, "_primes_upto", lambda *a: calls.append(a))
        monkeypatch.setattr(arith, "_primes_upto", lambda *a: calls.append(a))
        assert cli.main(["meanvalue", "--x", str(x)]) == 2
        assert calls == []
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert ("capped" if x > arith.IMPH_SIEVE_BOUND else "budget") in err

    def test_t_sum_past_ten_million(self, capsys):
        # the sum up to 10^7 as computed before the T sum was capped there,
        # and the last term by factorization, not by the sieve
        argv = ["meanvalue", "--x", "10000001", "--primes", "1000", "--json"]
        assert cli.main(argv) == 0
        res = json.loads(capsys.readouterr().out)["results"]
        assert res["sum_T"] == 2688620492863 + counting.t_closed(10000001)
        assert res["ratio_T"] == res["sum_T"] / 10000001**2

    def test_prime_bound_past_float_range(self, monkeypatch, capsys):
        # a prime bound too large for a float is refused by the budget with
        # one error line before any sieve runs, not by an OverflowError
        def forbidden(*args):
            raise RuntimeError("sieve run")

        monkeypatch.setattr(arith, "_prime_mask", forbidden)
        monkeypatch.setattr(sieve, "_sieve_block", forbidden)
        assert cli.main(["meanvalue", "--x", "10", "--primes", str(10**400)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: prime sieve to {10**400} exceeds the memory budget\n"

    def test_one_prime_walk(self, monkeypatch, capsys):
        # the odd product, C_FT and its zeta form share one walk of the primes
        calls = []

        def spy(limit):
            calls.append(limit)
            return arith._primes_upto(limit)

        monkeypatch.setattr(meanvalue, "_primes_upto", spy)
        meanvalue._prime_products.cache_clear()  # an earlier test may have kept P = 1000
        assert cli.main(["meanvalue", "--x", "1000", "--primes", "1000"]) == 0
        assert calls == [1000]
        capsys.readouterr()


def _skew_zeta(fn):
    """meanvalue._prime_products with its zeta-form product moved by 0.1."""
    def broken(*args):
        odd, zeta = fn(*args)
        return odd, zeta + 0.1

    return broken


def _shifted(fn, by):
    """fn with its result moved by ``by``, on ints and on ConstantEstimate."""
    def broken(*args):
        out = fn(*args)
        if isinstance(out, int):
            return out + by
        return meanvalue.ConstantEstimate(out.value + by, out.prime_bound, out.tail_bound)

    return broken


def _one_x_short(half_units):
    """``arith._half_units`` with its last chunk one x short, so that IP(3)
    comes out empty and makes no orbit."""
    def broken(n):
        *chunks, last = half_units(n)
        return iter([*chunks, tuple(a[:-1] for a in last)])

    return broken


def _translation_one_off(reduce_oriented):
    """``lattice._reduce_oriented`` with the translation of its map moved by
    one in x, so that the witness map misses the base form it comes with."""
    def broken(*coords):
        bf, (a, b, c, d, tx, ty) = reduce_oriented(*coords)
        return bf, (a, b, c, d, tx + 1, ty)

    return broken


def _rho_gives_1009(brent_rho):
    """``arith._brent_rho`` returning 1009 for every cofactor; the
    factorization cache is cleared first, so that no cached result of an
    earlier run hides it."""
    arith._cached_factorization.cache_clear()
    return lambda m: 1009


def _g1_g2_only(six_map_table):
    """``arith.six_map_table`` with rows g1 and g2 alone, each three times:
    every image stays in IP(n) and every orbit has size 1 or 2, which
    divides 6, but the orbits of size 3 and 6 split, so only their count
    against the closed form sees it."""
    def broken(n):
        members, table = six_map_table(n)
        return members, table[[0, 1, 0, 1, 0, 1]]

    return broken


class TestInvariantViolationExit:
    """In-process runs with one route broken: exit 3, nothing on stdout, one
    JSON record on stderr, no traceback."""

    @pytest.mark.parametrize(
        "module,name,fault,argv,n,routes",
        [
            (counting, "t_geometric", 1, ["tcount", "7", "--method", "all"],
             7, ["closed", "geometric"]),
            (arith, "imph_bruteforce", 1, ["imph", "15", "--bruteforce"],
             15, ["closed-form", "bruteforce"]),
            (meanvalue, "_prime_products", _skew_zeta, ["meanvalue", "--x", "1000"],
             None, ["feller-tornier", "zeta"]),
            (meanvalue, "moebius_sum_odd", 0.1, ["meanvalue", "--x", "1000", "--json"],
             None, ["euler-product", "moebius-sum"]),
            (lattice, "_reduce_oriented", _translation_one_off,
             ["reduce", "0", "0", "-3", "-3", "2", "4"], 6, ["reduction", "witness"]),
            (arith, "_brent_rho", _rho_gives_1009, ["imph", "10228324819"],
             1009 * 1013 * 10007, ["factorize"]),
            (arith, "_half_units", _one_x_short, ["orbits", "3"], 3, ["six-map", "closed"]),
            (counting, "six_map_table", _g1_g2_only, ["orbits", "21"], 21,
             ["six-map", "closed"]),
            # orbits that keep every image of their key, repeats too: each
            # member must be in one orbit once, before the record is built
            (counting, "orbit_decomposition",
             lambda fn: _mutated(fn, "cols[:, 1:] != cols[:, :-1]", "True"), ["orbits", "21"],
             21, ["six-map"]),
        ],
    )
    def test_exit_3_with_one_json_line(self, monkeypatch, capsys, module, name, fault, argv,
                                       n, routes):
        fn = getattr(module, name)
        broken = fault(fn) if callable(fault) else _shifted(fn, fault)
        monkeypatch.setattr(module, name, broken)
        assert cli.main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1
        rec = json.loads(lines[0])
        assert sorted(rec) == ["error", "message", "n", "routes"]
        assert rec["error"] == "invariant" and rec["message"]
        assert rec["n"] == n and rec["routes"] == routes

    def test_burnside_cap_still_exit_2(self, monkeypatch, capsys):
        # --method all runs the geometric route too, so its cap refuses n
        def no_table(n):
            raise RuntimeError(f"six-map table built for n={n}")

        for name in ("six_map_table", "_fix_counts_vectorized", "_half_units"):
            monkeypatch.setattr(counting, name, no_table)
        assert cli.main(["tcount", "10000001", "--method", "all"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: geometric route capped at n = 10000000\n"

    def test_fixed_point_mismatch_exits_3(self, monkeypatch, capsys):
        # g3 one too many and g6 one too few keep the Burnside sum, so only
        # the per-map check against the closed forms sees it
        counts = counting._fix_counts_vectorized
        monkeypatch.setattr(counting, "_fix_counts_vectorized",
                            lambda n: tuple(map(sum, zip(counts(n), (0, 0, 1, 0, 0, -1)))))
        assert cli.main(["tcount", "7", "--method", "all"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        record = json.loads(err)
        assert record["error"] == "invariant" and record["message"].startswith("g3 fixes 2 ")
        assert record["n"] == 7 and record["routes"] == ["burnside", "closed"]


# Every refusal the command line can reach, with the environment it runs in
# and its one stderr line: each exits 2 and writes nothing to stdout.
REFUSALS = [
    pytest.param({}, ["imph", "1..100000001", "--bfile"],
                 "sieve capped at 100000000, got 100000001", id="sieve cap"),
    pytest.param({}, ["meanvalue", "--x", "100000001"],
                 "sieve capped at 100000000, got 100000001", id="meanvalue sieve cap"),
    pytest.param({}, ["imph", "9223372036854775809"],
                 "factorize is capped below 2^63, got 9223372036854775809", id="factorize cap"),
    pytest.param({}, ["tcount", "9223372036854775807..9223372036854775809"],
                 "factorize is capped below 2^63, got 9223372036854775809",
                 id="tcount factorize cap"),
    pytest.param({}, ["tcount", "10000001", "--method", "burnside"],
                 "Burnside route capped at n = 10000000", id="burnside cap"),
    pytest.param({}, ["tcount", "10000001", "--method", "geometric"],
                 "geometric route capped at n = 10000000", id="geometric cap"),
    pytest.param({}, ["tcount", "10000001", "--method", "all"],
                 "geometric route capped at n = 10000000", id="all cap"),
    pytest.param({}, ["tcount", "1..10000", "--method", "burnside"],
                 "--method burnside on 1..10000 sums more than 10000000 over its odd n",
                 id="tcount work guard"),
    pytest.param({}, ["tcount", "100000000..100200002"],
                 "a range past the sieve cap (100000000) is served n by n, so capped at 100000 "
                 "odd n; 100000000..100200002 holds 100001", id="far range cap"),
    pytest.param({}, ["imph", "1..5000", "--bruteforce"],
                 "--bruteforce on 1..5000 scans more than 10000000 residues in all",
                 id="bruteforce total"),
    pytest.param({"CLEANTRI_SIEVE_MEMORY": "1000"}, ["imph", "1..1000", "--bfile"],
                 "sieve of 1..1000 needs 83436 bytes, budget is 1000; raise "
                 "CLEANTRI_SIEVE_MEMORY to at least 83436", id="budget below a walk"),
    pytest.param({"CLEANTRI_SIEVE_MEMORY": "lots"}, ["imph", "1..10"],
                 "CLEANTRI_SIEVE_MEMORY must be a positive integer number of bytes, got 'lots'",
                 id="malformed budget"),
    pytest.param({}, ["meanvalue", "--x", "1000", "--primes", "1"],
                 "prime bound must be at least 3", id="primes 1"),
    pytest.param({}, ["meanvalue", "--x", "1000", "--primes", str(10**400)],
                 f"prime sieve to {10**400} exceeds the memory budget", id="primes 10^400"),
    pytest.param({}, ["scott", "--scan", "-1"], "grid bound must be nonnegative", id="scan -1"),
    pytest.param({}, ["scott", "--scan", "9"], "scan capped at grid bound 8", id="scan 9"),
    pytest.param({}, ["orbits", "100001"], "orbit decomposition capped at n = 100000",
                 id="orbits cap"),
    pytest.param({}, ["reduce", "0", "0", "1", "1", "2", "2"],
                 "collinear vertices: (LatticePoint(x=0, y=0), LatticePoint(x=1, y=1), "
                 "LatticePoint(x=2, y=2))", id="collinear"),
    pytest.param({}, ["equiv", *"0 0 2 0 0 2 0 0 1 0 0 1".split()],
                 "equivalence test requires clean triangles: (LatticePoint(x=0, y=0), "
                 "LatticePoint(x=2, y=0), LatticePoint(x=0, y=2))", id="equiv not clean"),
]


@pytest.mark.parametrize("env,argv,message", REFUSALS)
def test_every_refusal_exits_2(monkeypatch, capsys, env, argv, message):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def _internal_fault(capsys, argv):
    """The one JSON record of a run of ``argv`` that exits 3 with nothing on
    stdout and no traceback."""
    assert cli.main(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err and err.count("\n") == 1
    return json.loads(err)


class TestInternalFaultExit:
    """A fault that is no refusal and no failed cross-check, here injected,
    exits 3 with one JSON record on stderr, whatever its type: a ValueError
    of numpy or of a record's constructor is not the user's input refused."""

    def test_kernel_shape_fault(self, monkeypatch, capsys):
        # a block end one length too far makes the cofactor longer than the
        # smooth part, and numpy refuses to broadcast them
        _mutate(monkeypatch, sieve._sieve_block, "end = a + 2 * length - 2",
                "end = a + 3 * length - 2")
        record = _internal_fault(capsys, ["imph", "1..1000", "--bfile"])
        assert record.pop("message").startswith("ValueError: operands could not be broadcast")
        assert record == {"error": "internal", "n": None, "routes": ["internal"]}

    @pytest.mark.parametrize("argv", [
        ["imph", "1..1000", "--bfile"],
        ["tcount", "1..1000", "--bfile"],
        ["meanvalue", "--x", "1000", "--primes", "1000"],
    ])
    @pytest.mark.parametrize("error", [ValueError, IndexError, ZeroDivisionError])
    def test_kernel_raises(self, monkeypatch, capsys, argv, error):
        def broken(*args):
            raise error("injected")

        monkeypatch.setattr(sieve, "_scatter", broken)
        assert _internal_fault(capsys, argv) == {
            "error": "internal", "message": f"{error.__name__}: injected", "n": None,
            "routes": ["internal"],
        }

    def test_point_route_raises(self, monkeypatch, capsys):
        def broken(n):
            raise KeyError(n)

        monkeypatch.setattr(counting, "t_closed", broken)
        assert _internal_fault(capsys, ["tcount", "7"]) == {
            "error": "internal", "message": "KeyError: 7", "n": None, "routes": ["internal"],
        }

    def test_record_constructor_fault(self, monkeypatch, capsys):
        # PickCounts refuses an interior count that breaks Pick's identity;
        # the library built it, so its ValueError is a fault
        pick = lattice._pick_interior
        monkeypatch.setattr(lattice, "_pick_interior", lambda a2, b: pick(a2, b) + 1)
        assert _internal_fault(capsys, ["reduce", "0", "0", "1", "0", "0", "1"]) == {
            "error": "internal",
            "message": "ValueError: Pick identity violated: "
                       "PickCounts(interior=1, boundary=3, twice_area=1)",
            "n": None, "routes": ["internal"],
        }


def test_point_queries_load_no_numpy():
    """``import cleantri`` and the scalar commands leave numpy unloaded, in
    one fresh interpreter; the first array command loads it."""
    code = (
        "import contextlib, io, json, sys\n"
        "import cleantri\n"
        "from cleantri import cli\n"
        "loaded = {'import': 'numpy' in sys.modules}\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        loaded[argv[0]] = (cli.main(argv), 'numpy' in sys.modules)\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    loaded['bfile'] = (cli.main(['imph', '1..10', '--bfile']), 'numpy' in sys.modules)\n"
        "print(json.dumps([loaded, out.getvalue()]))\n"
    )
    point = [
        ["imph", "1000000000039", "--json"],
        ["tcount", "1000000000039", "--json"],
        ["reduce", "0", "0", "-3", "-3", "2", "4"],
        ["equiv", "0", "0", "1", "0", "2", "7", "0", "0", "1", "0", "4", "7"],
        ["scott", "1", "1", "1", "4", "4", "1"],
    ]
    r = subprocess.run(
        [sys.executable, "-c", code, json.dumps(point)], capture_output=True, text=True, timeout=60
    )
    assert r.returncode == 0, r.stderr
    loaded, bfile = json.loads(r.stdout)
    assert loaded == {
        "import": False,
        **{argv[0]: [0, False] for argv in point},
        "bfile": [0, True],
    }
    assert bfile.splitlines() == ["1 1", "2 0", "3 1", "4 0", "5 3", "6 0", "7 5", "8 0", "9 3", "10 0"]


def test_import_loads_no_heavy_modules():
    """In a fresh interpreter, ``import cleantri`` and ``from cleantri import
    cli`` load none of the modules that would dominate a point query's start:
    dataclasses (which brings inspect), heapq and json (loaded by the paths
    that use them) and numpy.  Nor does importing the three modules that,
    with ``arith``, build the constructors of all the records from their
    ``__slots__``.  Modules the interpreter loaded before are not counted."""
    for imports, module in (
        ("import cleantri\nfrom cleantri import cli", "cleantri.cli"),
        ("import cleantri.lattice, cleantri.counting, cleantri.meanvalue", "cleantri.meanvalue"),
    ):
        code = (f"import sys\nbefore = set(sys.modules)\n{imports}\n"
                "print(sorted(set(sys.modules) - before))")
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
        assert r.returncode == 0, r.stderr
        added = set(ast.literal_eval(r.stdout))
        assert module in added
        assert added.isdisjoint({"dataclasses", "inspect", "heapq", "json", "numpy"})


@pytest.mark.parametrize(
    "argv,modules",
    [
        pytest.param(["imph", "1000000000039"], ["arith"], id="imph N"),
        pytest.param(["tcount", "1000000000039"], ["arith", "counting"], id="tcount N"),
        pytest.param(["reduce", "0", "0", "-3", "-3", "2", "4"], ["arith", "lattice"], id="reduce"),
        pytest.param(["equiv", "0", "0", "1", "0", "2", "7", "0", "0", "1", "0", "4", "7"],
                     ["arith", "lattice"], id="equiv"),
        pytest.param(["scott", "1", "1", "1", "4", "4", "1"], ["arith", "lattice"], id="scott"),
        pytest.param(["tcount", "1..100"], ["arith", "counting", "sieve"], id="tcount A..B"),
        pytest.param(["imph", "1..100", "--bfile"], ["arith", "sieve"], id="imph A..B"),
        pytest.param(["tcount", "7", "--method", "geometric"], ["arith", "counting", "lattice"],
                     id="tcount geometric"),
        pytest.param(["orbits", "15"], ["arith", "counting"], id="orbits"),
        pytest.param(["meanvalue", "--x", "1000"], ["arith", "meanvalue", "sieve"], id="meanvalue"),
    ],
)
def test_commands_load_only_their_modules(argv, modules):
    """In a fresh interpreter, ``import cleantri`` loads no submodule, and each
    command loads ``cli`` and the submodules it runs, no others."""
    code = (
        "import contextlib, io, sys\n"
        "import cleantri\n"
        "on_import = sorted(m for m in sys.modules if m.startswith('cleantri'))\n"
        "from cleantri import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(sys.argv[1:])\n"
        "print((code, on_import, sorted(m for m in sys.modules if m.startswith('cleantri.'))))\n"
    )
    r = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                       timeout=60)
    assert r.returncode == 0, r.stderr
    code, on_import, loaded = ast.literal_eval(r.stdout)
    assert code == 0
    assert on_import == ["cleantri"]
    assert loaded == sorted(["cleantri.cli", *(f"cleantri.{m}" for m in modules)])


def test_run_as_main_warns_nothing():
    """``python -m cleantri.cli`` runs ``cli`` once, as ``__main__``: were it
    imported first (say by the package), runpy would warn, and -W error fail."""
    r = subprocess.run([sys.executable, "-W", "error", "-m", "cleantri.cli", "imph", "7"],
                       capture_output=True, text=True, timeout=60)
    assert (r.returncode, r.stdout, r.stderr) == (0, "imph(7) = 5\n", "")


# The package's public names when it imported every submodule eagerly: the
# four submodules and each name it re-exports from them.
PACKAGE_NAMES = {
    "arith", "counting", "lattice", "meanvalue",
    "Factorization", "InvariantViolation", "extended_gcd", "factorize", "imph",
    "imph_bruteforce", "imph_sieve", "mod_inverse",
    "canonical_m", "fix_count_closed", "map_g", "orbit_decomposition", "t_burnside",
    "t_closed", "t_geometric",
    "AffineUnimodularMap", "BaseForm", "LatticePoint", "LatticeTriangle", "apply_map",
    "boundary_count", "enumerate_clean", "equivalent_clean", "interior_count_enum", "is_clean",
    "pick_counts", "reduce_to_base_form", "scott_check", "scott_exhaustive", "twice_area",
    "euler_product_odd", "feller_tornier", "mean_value_report", "moebius_sum_odd",
    "partial_sum_T", "partial_sum_imph",
}


def test_package_names_pinned():
    """In a fresh interpreter, ``dir(cleantri)`` lists the same public names
    as when every submodule loaded on import, and ``__version__``; a star
    import binds exactly those."""
    code = (
        "import cleantri\n"
        "listed, star = dir(cleantri), {}\n"
        "exec('from cleantri import *', star)\n"
        "print((listed, sorted(set(star) - {'__builtins__'})))\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    listed, star = ast.literal_eval(r.stdout)
    assert {name for name in listed if not name.startswith("_")} == PACKAGE_NAMES
    assert "__version__" in listed
    assert set(star) == PACKAGE_NAMES | {"__version__"}


def test_no_assert_in_package():
    """Cross-checks raise InvariantViolation: ``python -O`` strips ``assert``,
    and a bare AssertionError would escape main as a traceback."""
    src = pathlib.Path(cli.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(node, ast.Assert) or (
                isinstance(exc, ast.Name) and exc.id == "AssertionError"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _located(path):
    """Each node of the module at ``path``, with the dotted name of the
    classes and functions around it (None at module level)."""
    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                inner = f"{where}.{child.name}" if where else child.name
            yield child, inner
            yield from visit(child, inner)

    return visit(ast.parse(path.read_text(), str(path)), None)


def test_one_refusal_path():
    """A refused input raises ``arith.Refused``, built in one function, the
    refusal helper ``arith._require``, and ``main`` exits 2 on it alone: a
    plain ``ValueError`` is raised only by the records' ``_validate`` hooks,
    which their built constructors call to check the fields the library
    fills, the collinear refusal only in ``lattice._measure``, and only
    ``cli.main`` catches every exception."""
    src = pathlib.Path(cli.__file__).parent
    built, plain, degenerate, broad = [], set(), [], []
    for path in sorted(src.glob("*.py")):
        for node, where in _located(path):
            at = f"{path.stem}.{where}"
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("Refused"):
                built.append(at)
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = ast.unparse(getattr(node.exc, "func", node.exc))
                plain.update([at] * (exc == "ValueError"))
                degenerate += [at] * (exc == "DegenerateTriangleError")
            if isinstance(node, ast.ExceptHandler) and (
                node.type is None or ast.unparse(node.type) in ("Exception", "BaseException")
            ):
                broad.append(at)
    assert built == ["arith._require"]
    assert plain == {
        "arith.Factorization._validate",
        "counting.OrbitDecomposition._validate",
        "lattice.AffineUnimodularMap._validate",
        "lattice.BaseForm._validate",
        "lattice.PickCounts._validate",
        "meanvalue.ConstantEstimate._validate",
    }
    assert degenerate == ["lattice._measure"]
    assert broad == ["cli.main"]


def test_no_cumsum_in_package():
    """No module calls ``cumsum``: each ``np.cumsum`` call names "accumulate"
    by a new string, which CPython's type cache may keep, so traced bytes
    grow with the calls; ``np.add.accumulate`` gives the same sums and keeps
    none."""
    src = pathlib.Path(cli.__file__).parent
    calls = [f"{path.stem}.{where}" for path in sorted(src.glob("*.py"))
             for node, where in _located(path)
             if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("cumsum")]
    assert calls == []


def test_one_sieve_walk():
    """The factor sieve kernel ``sieve._sieve_block`` is called from one place,
    the block walk ``sieve.factor_blocks``, and no second walker is named."""
    src = pathlib.Path(cli.__file__).parent
    calls, named = [], []
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        named += [path.name] * len(re.findall(r"\b_factor_sieve\b", text))
        for top in ast.parse(text, str(path)).body:
            for node in ast.walk(top):
                func = getattr(node, "func", None)
                if isinstance(node, ast.Call) and "_sieve_block" in (
                    getattr(func, "id", None), getattr(func, "attr", None)
                ):
                    calls.append(f"{path.name}:{getattr(top, 'name', None)}")
    assert calls == ["sieve.py:factor_blocks"]
    assert named == []


def test_walk_behind_public_names():
    """No module but ``sieve`` names a private name that ``sieve`` defines,
    and ``cli`` and ``meanvalue`` read no name of the walk from ``arith``:
    they reach the walk through ``sieve``'s public names alone."""
    src = pathlib.Path(cli.__file__).parent
    walk = set()
    for top in ast.parse((src / "sieve.py").read_text()).body:
        targets = [top] if isinstance(top, (ast.ClassDef, ast.FunctionDef)) else (
            getattr(top, "targets", None) or [getattr(top, "target", None)])
        walk.update(getattr(node, "name", getattr(node, "id", None)) for node in targets)
    walk.discard(None)
    assert {"_FactorData", "_sieve_block", "_spot_row", "factor_blocks"} <= walk
    private = {name for name in walk if name.startswith("_") and not name.startswith("__")}
    named, from_arith = [], []
    for path in sorted(src.glob("*.py")):
        if path.name == "sieve.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            used = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, ast.alias):
                used = node.name
            named += [f"{path.stem}:{used}"] * (used in private)
            if path.stem not in ("cli", "meanvalue"):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "arith":
                from_arith += [f"{path.stem}:{a.name}" for a in node.names if a.name in walk]
            if isinstance(node, ast.Attribute) and ast.unparse(node.value) == "arith":
                from_arith += [f"{path.stem}:{node.attr}"] * (node.attr in walk)
    assert named == []
    assert from_arith == []


def test_one_residue_pass():
    """The units of n are found in one function of ``arith`` and ``counting``,
    the half pass ``arith._half_units`` that ``ip_members``, the six-map
    table, the Burnside route and the geometric route read: no ``np.gcd`` is
    left in either module, and the remainder of n by an array of residues,
    an ``np.arange`` or a name bound to one, is taken in that pass alone, and
    there once per pass: in the body of no loop, so not chunk by chunk."""
    src = pathlib.Path(cli.__file__).parent
    gcds, remainders = [], []
    for name in ("arith", "counting"):
        nodes = list(_located(src / f"{name}.py"))
        ranges = {(where, target.id) for node, where in nodes
                  if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                  and ast.unparse(node.value.func) == "np.arange"
                  for target in node.targets if isinstance(target, ast.Name)}
        looped = {id(inner) for node, _ in nodes if isinstance(node, (ast.For, ast.While))
                  for stmt in node.body for inner in ast.walk(stmt)}
        for node, where in nodes:
            if isinstance(node, ast.Attribute) and ast.unparse(node) == "np.gcd":
                gcds.append(f"{name}.{where}")
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
                dividend, divisor = node.left, node.right
            elif (isinstance(node, ast.Call) and len(node.args) == 2 and ast.unparse(node.func)
                    in ("np.remainder", "np.mod", "np.fmod", "np.divmod", "divmod")):
                dividend, divisor = node.args
            else:
                continue
            by = ast.unparse(divisor)
            if ast.unparse(dividend) == "n" and (by.startswith("np.arange(") or (where, by) in ranges):
                remainders.append(f"{name}.{where}" + " in a loop" * (id(node) in looped))
    assert gcds == []
    assert remainders == ["arith._half_units"]


def test_member_flags_made_in_the_pass():
    """The half pass ``arith._half_units`` yields the member flags of IP(n)
    itself: the AND of neighbouring unit flags is taken there alone, the
    helpers that read members off unit flags are gone, and the six-map
    table's inverses take no exponent from a count of units."""
    for name in ("_member_flags", "_chunk_members", "_ip_members_and_phi"):
        assert not hasattr(arith, name)
    assert "phi" not in inspect.getsource(arith.six_map_table)
    src = pathlib.Path(cli.__file__).parent
    ands = []
    for path in sorted(src.glob("*.py")):
        for node, where in _located(path):
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd)
                    and all(isinstance(side, ast.Subscript) for side in (node.left, node.right))
                    and ast.unparse(node.left.value) == ast.unparse(node.right.value)):
                ands.append(f"{path.stem}.{where}")
    assert ands == ["arith._half_units"]


def test_one_serving_rule():
    """The serving rule of the Burnside and geometric routes, the cap and the
    work guard, is stated once: both refusal messages are built in
    ``counting._require_served``, and ``cli.cmd_tcount`` names neither them
    nor the cap."""
    src = pathlib.Path(cli.__file__).parent
    messages = ("{} route capped at n = {}",
                "--method {} on {}..{} sums more than {} over its odd n")
    built, caps = {message: [] for message in messages}, []
    for path in sorted(src.glob("*.py")):
        for node, where in _located(path):
            at = f"{path.stem}.{where}"
            if isinstance(node, ast.Constant) and node.value in built:
                built[node.value].append(at)
            if getattr(node, "attr", getattr(node, "id", None)) == "IMPH_BRUTEFORCE_BOUND":
                caps.append(at)
    assert built == {message: ["counting._require_served"] for message in messages}
    assert "cli.cmd_tcount" not in caps


def test_one_fixed_point_pass(monkeypatch):
    """``counting`` keeps no cache for its routes, and ``t_report`` counts
    the fixed points once: it runs the half pass ``arith._half_units`` twice,
    for the counts and for the geometric route, and never ``t_burnside``."""
    assert [name for name, fn in vars(counting).items() if hasattr(fn, "cache_info")
            and getattr(fn, "__module__", None) == counting.__name__] == []
    calls = []
    half_units = arith._half_units

    def spy(n):
        calls.append(n)
        return half_units(n)

    def no_burnside(n):
        raise AssertionError(f"t_burnside run for n={n}")

    for module in (arith, counting):
        monkeypatch.setattr(module, "_half_units", spy)
    monkeypatch.setattr(counting, "t_burnside", no_burnside)
    report = counting.t_report(4001)
    assert calls == [4001, 4001]
    assert report.t_burnside == report.t_closed == counting.t_closed(4001)


@pytest.mark.parametrize("n", [3, 4001, 131075])
def test_geometric_keys_the_low_half(monkeypatch, n):
    """``counting.t_geometric`` keys no member past (n + 1)/2, which the order
    (1,0), (0,0), (m,n) always undercuts, and each member up to it once:
    the low members of the half pass and (n + 1)/2.  131,075 takes two
    chunks of the pass."""
    keyed = []
    least_keys = lattice._least_keys

    def spy(members, h):
        keyed.extend(members.tolist())
        return least_keys(members, h)

    monkeypatch.setattr(lattice, "_least_keys", spy)
    assert counting.t_geometric(n) == counting.t_closed(n)
    half = (n + 1) // 2
    assert max(keyed) <= half
    low = [m for m in range(2, half + 1) if math.gcd(m, n) == 1 == math.gcd(m - 1, n)]
    assert sorted(keyed) == low and low[-1] == half


def test_fixed_points_counted_on_arrays():
    """``counting._fix_counts_vectorized`` counts every fixed point by array
    comparisons in its one loop, over the half pass ``_half_units``: there is
    no mask of rare x and no retest of them in Python ints."""
    assert not hasattr(counting, "_rare_x")
    body = ast.parse(textwrap.dedent(inspect.getsource(counting._fix_counts_vectorized)))
    loops = [node for node in ast.walk(body)
             if isinstance(node, (ast.For, ast.While, ast.comprehension))]
    assert len(loops) == 1 and isinstance(loops[0], ast.For)
    assert ast.unparse(loops[0].iter) == "_half_units(n)"
    assert not [node for node in ast.walk(body)
                if isinstance(node, ast.Attribute) and node.attr == "tolist"]


def test_reduction_kernel_builds_no_records(monkeypatch):
    """``lattice._reduce_oriented``, ``twice_area``, ``boundary_count`` and
    the predicates, keys and equivalence test over them run on plain ints:
    they build no ``LatticePoint``, ``BaseForm``, ``AffineUnimodularMap`` or
    ``PickCounts`` but the ones they return, not even through a record's
    arithmetic such as ``LatticePoint.__sub__``, and each reads a triangle's
    six ints once, through ``lattice._measure``."""
    t = lattice.LatticeTriangle.from_coords(150695, -296679, 1, 0, 567215, -285988)
    clean = lattice.LatticeTriangle.from_coords(27254, 730546, 55774, 731195, 78757, 731718)
    other = lattice.LatticeTriangle.from_coords(311881, -550541, 295568, -552876, 243059, -560392)
    built, measured = [], []
    for record in (lattice.LatticePoint, lattice.BaseForm, lattice.AffineUnimodularMap,
                   lattice.PickCounts):
        init = record.__init__
        monkeypatch.setattr(record, "__init__",
                            lambda self, *args, init=init: built.append(self) or init(self, *args))
    measure = lattice._measure
    monkeypatch.setattr(lattice, "_measure", lambda t: measured.append(t) or measure(t))

    def run(call, *args, **kwargs):
        built.clear()
        measured.clear()
        call(*args, **kwargs)
        return [type(r).__name__ for r in built], measured

    assert run(lattice._reduce_oriented, 150695, -296679, 1, 0, 567215, -285988) == ([], [])
    assert run(lattice.twice_area, t) == ([], [t])
    assert run(lattice.boundary_count, t) == ([], [t])
    assert run(lattice.is_clean, clean) == ([], [clean])
    assert run(lattice.clean_key, clean) == ([], [clean])
    assert run(lattice.equivalent_clean, clean, other) == ([], [clean, other])
    assert run(lattice.pick_counts, t) == (["PickCounts"], [t])
    assert run(lattice.reduce_to_base_form, t) == (  # the two records it returns
        ["BaseForm", "LatticePoint", "AffineUnimodularMap"], [t])
    names, seen = run(lattice.equivalent_clean, clean, other, with_witness=True)
    assert names and seen == [clean, other]  # records for the witness alone


def test_one_prime_sieve():
    """``arith._prime_mask`` is the one prime sieve: no other function strikes
    an Eratosthenes ``p * p`` slice, only ``_primes_upto`` and the prime
    tuples of ``arith`` and ``sieve`` call it, and the sieves it replaced are
    not named."""
    src = pathlib.Path(cli.__file__).parent
    slices, calls, named = [], [], []
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        named += re.findall(r"\b(?:_eratosthenes|_small_primes)\b", text)
        for top in ast.parse(text, str(path)).body:
            targets = getattr(top, "targets", None)
            where = ast.unparse(targets[0]) if targets else getattr(top, "name", None)
            for node in ast.walk(top):
                low = getattr(node, "lower", None)
                if isinstance(node, ast.Slice) and isinstance(low, ast.BinOp) and (
                    isinstance(low.op, ast.Mult) and ast.dump(low.left) == ast.dump(low.right)
                ):
                    slices.append(f"{path.name}:{where}")
                func = getattr(node, "func", None)
                if isinstance(node, ast.Call) and "_prime_mask" in (
                    getattr(func, "id", None), getattr(func, "attr", None)
                ):
                    calls.append(f"{path.name}:{where}")
    assert slices == ["arith.py:_prime_mask"]
    assert calls == ["arith.py:_TRIAL_PRIMES", "arith.py:_primes_upto", "sieve.py:_SIEVE_PRIMES"]
    assert named == []


def test_one_cross_check_path():
    """``InvariantViolation`` is constructed in one function, the cross-check
    helper ``arith._expect``, and the per-module helpers it replaced are not
    named."""
    src = pathlib.Path(cli.__file__).parent
    calls, named = [], []
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        named += re.findall(r"\b(?:_spot_field|check_agrees)\b", text)
        for top in ast.parse(text, str(path)).body:
            for node in ast.walk(top):
                func = getattr(node, "func", None)
                if isinstance(node, ast.Call) and "InvariantViolation" in (
                    getattr(func, "id", None), getattr(func, "attr", None)
                ):
                    calls.append(f"{path.name}:{getattr(top, 'name', None)}")
    assert calls == ["arith.py:_expect"]
    assert named == []


def test_json_range_sieves_no_primes(monkeypatch, capsys):
    """A ``--json`` range of six walks reads the primes built at import and
    calls the prime source ``_primes_upto`` not once."""
    expected = arith.imph_sieve(120000)
    calls = []
    monkeypatch.setattr(arith, "_primes_upto", lambda *a: calls.append(a))
    assert cli.main(["imph", "8..120000", "--json"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert calls == []
    assert results == {str(n): int(expected[n]) for n in range(8, 120001)}


def test_one_range_writer():
    """``cli.py`` writes to ``sys.stdout`` only in its range writer, defines
    no bytes-per-n charge, and formats arrays in one function, which alone
    names a uint8 matrix: a second range path would need one of these.  Nor
    does it name ``heapq`` or call ``.tolist()``, the per-line path that
    the array formatter replaced."""
    path = pathlib.Path(cli.__file__)
    text = path.read_text()
    writes, charges, formatters, lists = [], [], set(), []
    for top in ast.parse(text, str(path)).body:
        for node in ast.walk(top):
            func = getattr(node, "func", None)
            if isinstance(node, ast.Call) and ast.unparse(func) == "sys.stdout.write":
                writes.append(getattr(top, "name", None))
            if isinstance(node, ast.Call) and getattr(func, "attr", None) == "tolist":
                lists.append(getattr(top, "name", None))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                charges += [node.id] * node.id.endswith("_BYTES_PER_N")
            if isinstance(node, ast.Attribute) and node.attr == "uint8":
                formatters.add(getattr(top, "name", None))
    assert writes and set(writes) == {"_write_range"}
    assert charges == []
    assert formatters == {"_format_lines"}
    assert lists == []
    assert re.findall(r"\bheapq\b", text) == []


def test_exports_resolve():
    """Each library module's ``__all__`` names exist and list every public
    function and class it defines, and every name in the package's table of
    lazy exports resolves to the very object its submodule defines and lists
    in its ``__all__``: a deletion leaves no dangling export."""
    import cleantri

    for mod in (arith, counting, lattice, meanvalue, sieve):
        assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
        defined = [
            name
            for name, obj in vars(mod).items()
            if not name.startswith("_")
            and callable(obj)
            and getattr(obj, "__module__", None) == mod.__name__
        ]
        assert [name for name in defined if name not in mod.__all__] == [], mod.__name__
    assert cleantri.__all__ == [*cleantri._SUBMODULES, *cleantri._EXPORTS, "__version__"]
    for name in cleantri._SUBMODULES:
        assert getattr(cleantri, name) is sys.modules[f"cleantri.{name}"]
    for name, module in cleantri._EXPORTS.items():
        mod = sys.modules[f"cleantri.{module}"]
        assert getattr(cleantri, name) is getattr(mod, name), name
        assert getattr(mod, name).__module__ == mod.__name__, name
        assert name in mod.__all__, f"{module}.{name}"
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        cleantri.no_such_name


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ("imph", "1..30", "--bfile"),
            ("tcount", "1..31", "--method", "all", "--json"),
            ("reduce", "0", "0", "-3", "-3", "2", "4", "--json"),
            ("orbits", "105", "--json"),
            ("meanvalue", "--x", "1000", "--primes", "10000", "--json"),
        ],
    )
    def test_repeat_runs_identical(self, args):
        a, b = run(*args), run(*args)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout
