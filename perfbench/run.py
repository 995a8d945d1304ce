"""Seeded benchmark of the cleantri library in this checkout.

    python3 perfbench/run.py --workload {tables,sweep,queries} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Every pass of a workload runs in a fresh,
single-threaded interpreter importing ``cleantri`` from this checkout's
``src`` (worker.py), so every lru_cache starts cold.  A run makes a fixed
number of passes, ``--seconds`` over the workload's nominal pass length.
``wall_s`` is the mean timed work of a pass, ``items_per_s`` pools the items
and seconds of every pass, and the other figures are medians over the passes.
``setup_s`` is the median, over fresh interpreters spread through the run, of
the time until ``import cleantri`` returns.  Every pass keeps a span per
library call in memory; per-layer figures are derived from them.  With
``--trace 1`` one more pass runs traced, on the inputs of the first pass: it
measures the memory peak inside the sieve spans, and its spans, with parent
and run id, are written to ``.bench_out/``.

Prints the figures by name with their units, then, as the last line, one
JSON object: {"correct", "attempted", "failed", "metrics"}.  Exits 1 when
any output check failed and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("tables", "sweep", "queries")
SETUP_PROBES = 16
DEADLINE_S = 170  # the whole run must end within 180 s
# Timed work of one pass on a 2-core VM; a run makes --seconds / this passes.
NOMINAL_PASS_S = {"tables": 35.0, "sweep": 4.0, "queries": 5.0}

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "items_per_s": "1/s"}
# what items_per_s counts on each workload
ITEMS = {
    "tables": "table_values_per_s",
    "sweep": "sweep_n_per_s",
    "queries": "queries_per_s",
}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")  # the package under test, never an installed copy
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args: list[str], deadline: float) -> dict:
    """Run one worker to completion and return its JSON record.

    The worker leads its own process group, so a timeout also ends any CLI
    child it started.
    """
    spawned_at = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args, "--spawned-at", repr(spawned_at)],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker {' '.join(args)} ran past the {DEADLINE_S} s deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{err[-3000:]}")
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "cleantri" / "__init__.py").is_file():
        print(f"error: no cleantri package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    work = ["--workload", args.workload, "--seed", str(args.seed)]
    n_passes = max(1, round(args.seconds / NOMINAL_PASS_S[args.workload]))
    # setup probes go before, between and after the passes, so that their
    # median spans the whole run rather than one moment of the machine
    probes_per_gap = -(-SETUP_PROBES // (n_passes + 1))
    try:
        spawn(["--setup-only"], deadline)  # warm-up: byte-compiles and fills the page cache
        setups: list[float] = []
        passes: list[dict] = []
        longest = 0.0
        for k in range(n_passes + 1):
            setups += [spawn(["--setup-only"], deadline)["setup_s"] for _ in range(probes_per_gap)]
            # a slow machine makes fewer passes rather than miss the deadline
            if k == n_passes or (passes and time.perf_counter() + longest * (1 + args.trace) > deadline):
                break
            began = time.perf_counter()
            passes.append(spawn([*work, "--pass", str(k)], deadline))
            longest = max(longest, time.perf_counter() - began)
        traced = None
        if args.trace:
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            trace_file = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
            traced = spawn([*work, "--pass", "0", "--trace-file", str(trace_file)], deadline)
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    records = passes + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    for r in records:
        for e in r["errors"]:
            print(f"check failed: {e}", file=sys.stderr)

    def med(key: str) -> float:
        return statistics.median(r[key] for r in passes)

    e2e = {
        "setup_s": statistics.median(setups + [p["setup_s"] for p in passes]),
        "wall_s": statistics.fmean(p["wall_s"] for p in passes),
        "peak_rss_mb": med("peak_rss_mb"),
        "items_per_s": sum(p["items"] for p in passes) / sum(p["items_s"] for p in passes),
    }
    first = passes[0]
    print(
        f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
        f"python {first['python']}  numpy {first['numpy']}  cores {os.cpu_count()}"
    )
    for name, unit in END_TO_END.items():
        note = f"  ({ITEMS[args.workload]})" if name == "items_per_s" else ""
        print(f"{name} = {e2e[name]:.6g} {unit}{note}")
    print(f"ops_failed_frac = {failed / attempted:.6g} (of {attempted} operations attempted)")
    for name, (_, unit) in first["named"].items():
        value = statistics.median(p["named"][name][0] for p in passes)
        print(f"{name} = {value:.6g} {unit}")

    if traced:
        # Times and counts are medians over the untraced passes, so that one
        # traced pass does not decide them.  The traced pass gives the memory
        # peaks inside the sieve spans and the span file.
        layers = {
            name: value if name.endswith("peak_alloc_mb") else statistics.median(p["layers"][name] for p in passes)
            for name, value in traced["layers"].items()
        }
        layers["trace.overhead_s"] = traced["wall_s"] - e2e["wall_s"]
        for name, value in layers.items():
            print(f"{name} = {value:.6g} {layer_unit(name)}")
        metrics = {name: {"value": value, "unit": layer_unit(name)} for name, value in layers.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def layer_unit(name: str) -> str:
    """Unit of a per-layer figure, read off its name's suffix."""
    suffix = name.rsplit(".", 1)[1]
    return {
        "calls": "count",
        "cache_hits": "count",
        "failed": "count",
        "share": "ratio",
        "bytes_computed": "bytes",
        "peak_alloc_mb": "MB",
        "peak_rss_mb": "MB",
        "p50_ms": "ms",
        "tail_ms": "ms",
        "p50_us": "us",
    }.get(suffix, "s")


if __name__ == "__main__":
    sys.exit(main())
