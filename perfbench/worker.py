"""One pass of a benchmark workload, in a fresh interpreter.

run.py starts this script once per pass with PYTHONPATH set to the
checkout's ``src``:

    python3 perfbench/worker.py --workload W --seed S --pass K --spawned-at T [--trace-file F]
    python3 perfbench/worker.py --setup-only --spawned-at T

``T`` is the parent's ``time.perf_counter()`` just before the spawn (one
monotonic clock for every process on Linux), so ``setup_s`` runs from the
start of this interpreter until ``import cleantri`` returns.  Prints one JSON
object with the pass's figures.
"""

import time

import cleantri

IMPORTED_AT = time.perf_counter()

import argparse  # noqa: E402  (after the timed import on purpose)
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from spans import Recorder, cache_hits, layer_metrics  # noqa: E402
from workloads import LIBRARY_CACHES, WORKLOADS, Cli  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--pass", dest="pass_index", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace-file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    src = (ROOT / "src").resolve()
    if not Path(cleantri.__file__).resolve().is_relative_to(src):
        print(f"cleantri imported from {cleantri.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = {"setup_s": IMPORTED_AT - args.spawned_at}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    traced = args.trace_file is not None
    run_id = f"{args.workload}-seed{args.seed}-pass{args.pass_index}" + ("-traced" if traced else "")
    rec = Recorder(run_id, traced)
    rng = random.Random(f"{args.workload}:{args.seed}:{args.pass_index}")
    hits_before = cache_hits(LIBRARY_CACHES)
    named, items, items_s = WORKLOADS[args.workload](rec, rng, Cli(ROOT, os.environ))
    hits = cache_hits(LIBRARY_CACHES)
    layers = layer_metrics(rec)
    for mod in ("arith", "lattice", "counting", "meanvalue"):
        layers[f"{mod}.cache_hits"] = hits.get(mod, 0) - hits_before.get(mod, 0)
    result.update(
        wall_s=rec.wall_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        items=items,
        items_s=items_s,
        attempted=rec.attempted,
        failed=rec.failed,
        errors=rec.errors,
        named=named,
        python=platform.python_version(),
        numpy=np.__version__,
        layers=layers,
    )
    if traced:
        rec.write(args.trace_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
