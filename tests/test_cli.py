import ast
import contextlib
import dataclasses
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cleantri import arith, cli, counting, lattice, meanvalue

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


SPAN = 2 * arith._SIEVE_BLOCK  # the numbers one block of odd n covers


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
            for name in ("imph", "imph_bruteforce", "_factor_blocks"):
                m.setattr(arith, name, forbidden)
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
        monkeypatch.setattr(arith, "_SIEVE_BLOCK", 8)
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
        # a range holding an odd n past the cap is refused before its first n;
        # an even n past it is 0 on every route and still served
        def forbidden(n):
            raise RuntimeError(f"t_burnside called at n={n}")

        with monkeypatch.context() as m:
            m.setattr(counting, "t_burnside", forbidden)
            for spec in ("1..100001", "100001..100003", "99999..100002"):
                assert cli.main(["tcount", spec, "--method", method]) == 2
                out, err = capsys.readouterr()
                assert out == "" and err == "error: Burnside route capped at n = 100000\n"
        assert cli.main(["tcount", "99998..100000", "--method", method]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3
        assert cli.main(["tcount", "100002", "--method", "burnside"]) == 0
        assert capsys.readouterr().out == "T(100002): burnside=0\n"

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
        for spec in ("100001", "99999..100001"):
            assert cli.main(["tcount", spec, "--method", "geometric"]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err == "error: geometric route capped at n = 100000\n"


def _walk_need(runs):
    """Bytes the factor sieve walks over ``runs`` hold together: a block of
    odd n (16 B each, and the cast buffer's excess over a short block's
    mask) and the fixed per-walk objects, for each."""
    blocks = [min((b + 1) // 2 - a // 2, arith._SIEVE_BLOCK) for a, b in runs]
    return sum(
        arith._FACTOR_SIEVE_BYTES_PER_N * n
        + max(0, arith._CAST_BUFFER_BYTES - n)
        + arith._WALK_OBJECT_BYTES
        for n in blocks
    )


class _Sink:
    """A stdout that keeps the length of what is written and nothing else."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)

    def flush(self):
        pass


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
        kernel = arith._sieve_block

        def spy(a, *args):
            sieved.append(a)
            return kernel(a, *args)

        monkeypatch.setattr(arith, "_sieve_block", spy)
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
            m.setattr(arith, "_sieve_block", forbidden)
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
        monkeypatch.setattr(arith, "_SIEVE_BLOCK", block)
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
            hi = min(hi, counting.BRUTEFORCE_N_BOUND)
        argv = [command, f"{lo}..{hi}"] + (["--method", method] if command == "tcount" else [])
        with mock.patch.object(arith, "_SIEVE_BLOCK", 64), \
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
        with mock.patch.object(arith, "_SIEVE_BLOCK", 64), \
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
        # the walk's spot check stops the first before any line is written
        monkeypatch.setattr(arith, "_odd_offset", lambda a, m: (-a) % m)
        assert cli.main(argv) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        record = json.loads(err)
        assert record["error"] == "invariant" and record["routes"] == ["sieve", "factorize"]
        n = record["n"]
        assert n % 2 == 1 and 1 <= n < 2 * arith._SIEVE_BLOCK
        assert f"factorize gives {arith.imph(n)}" in record["message"]

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
        monkeypatch.setattr(arith, "_sieve_block", forbidden)
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
        return out + by if isinstance(out, int) else dataclasses.replace(out, value=out.value + by)

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
            (lattice, "apply_map", None, ["reduce", "0", "0", "-3", "-3", "2", "4"],
             6, ["reduction", "witness"]),
        ],
    )
    def test_exit_3_with_one_json_line(self, monkeypatch, capsys, module, name, fault, argv,
                                       n, routes):
        fn = getattr(module, name)
        if callable(fault):
            broken = fault(fn)
        else:
            broken = (lambda L, t: t) if fault is None else _shifted(fn, fault)
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
        def no_table(n):
            raise RuntimeError(f"six-map table built for n={n}")

        monkeypatch.setattr(counting, "six_map_table", no_table)
        assert cli.main(["tcount", "100001", "--method", "all"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: Burnside route capped at n = 100000\n"


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


def test_one_sieve_walk():
    """The factor sieve kernel ``arith._sieve_block`` is called from one place,
    the block walk ``arith._factor_blocks``, and no second walker is named."""
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
    assert calls == ["arith.py:_factor_blocks"]
    assert named == []


def test_one_prime_sieve():
    """``arith._prime_mask`` is the one prime sieve: no other function strikes
    an Eratosthenes ``p * p`` slice, only ``_primes_upto`` and the module's
    prime tuple call it, and the sieves it replaced are not named."""
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
    assert calls == ["arith.py:_SIEVE_PRIMES", "arith.py:_primes_upto"]
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
    """``cli.py`` writes to ``sys.stdout`` only in its range writer, and
    defines no bytes-per-n charge: a second range path would need both."""
    path = pathlib.Path(cli.__file__)
    writes, charges = [], []
    for top in ast.parse(path.read_text(), str(path)).body:
        for node in ast.walk(top):
            func = getattr(node, "func", None)
            if isinstance(node, ast.Call) and ast.unparse(func) == "sys.stdout.write":
                writes.append(getattr(top, "name", None))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                charges += [node.id] * node.id.endswith("_BYTES_PER_N")
    assert writes and set(writes) == {"_write_range"}
    assert charges == []


def test_exports_resolve():
    """Each library module's ``__all__`` names exist and list every public
    function and class it defines, and every name the package imports from a
    module is in that module's ``__all__``: a deletion leaves no dangling export."""
    import cleantri

    for mod in (arith, counting, lattice, meanvalue):
        assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
        defined = [
            name
            for name, obj in vars(mod).items()
            if not name.startswith("_")
            and callable(obj)
            and getattr(obj, "__module__", None) == mod.__name__
        ]
        assert [name for name in defined if name not in mod.__all__] == [], mod.__name__
    init = pathlib.Path(cleantri.__file__)
    for node in ast.walk(ast.parse(init.read_text(), str(init))):
        if isinstance(node, ast.ImportFrom):
            # "from . import arith" names submodules, "from .arith import x" exports
            listed = getattr(cleantri, node.module).__all__ if node.module else vars(cleantri)
            for alias in node.names:
                assert alias.name in listed, f"{node.module}.{alias.name}"


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
