"""Timing and tracing of the benchmark's calls into the library.

Every call the benchmark makes into a cleantri module goes through
``Recorder.op``, which keeps a span for it in memory (name, module, start,
end, parent span), runs its output check outside the timed interval and
counts failures.  A traced recorder also measures the memory peak inside the
spans listed in ``ALLOC_SPANS``: it resets the kernel's peak-RSS mark
(VmHWM) at the start of the span and reads it at the end, so the span runs at
full speed.  Its spans are written out as JSON lines, with the run id, when
the pass ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

MODULES = ("arith", "lattice", "counting", "meanvalue", "cli")

# spans whose memory peak the traced pass reports
ALLOC_SPANS = ("arith.imph_sieve", "meanvalue.t_closed_sieve")

# the four constants of the tables workload, all functions of meanvalue
CONSTANTS = ("euler_product_odd", "feller_tornier", "feller_tornier_zeta", "moebius_sum_odd")


@dataclass
class Span:
    id: int
    name: str
    module: str | None
    start: float
    end: float
    parent: int | None
    ok: bool = True
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Times operations of one pass; with ``traced`` it also keeps the span tree."""

    def __init__(self, run_id: str, traced: bool):
        self.run_id = run_id
        self.traced = traced
        self.ops: list[Span] = []  # one per library call, in call order
        self.phases: list[Span] = []
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self._parent: int | None = None
        self._next_id = 0

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    @contextmanager
    def phase(self, name: str):
        """A grouping span; its children are the operations run inside it."""
        span = Span(self._new_id(), name, None, time.perf_counter(), 0.0, self._parent)
        self._parent = span.id
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._parent = span.parent
            self.phases.append(span)

    def op(self, module: str, name: str, fn, *args, check=None, **kwargs):
        """Time ``fn(*args, **kwargs)`` as one operation of ``module``.

        ``check(result)`` runs untimed and returns an error string, or None
        when the output is right.  A raised exception or a failed check
        counts the operation as failed; the result (None after a raise) is
        returned either way.
        """
        full = f"{module}.{name}"
        alloc = self.traced and full in ALLOC_SPANS
        self.attempted += 1
        if alloc:
            rss_before = _reset_peak_rss()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            raised = None
        except Exception as exc:  # a library failure is a counted outcome, not a crash
            result, raised = None, f"{full} raised {type(exc).__name__}: {exc}"
        end = time.perf_counter()
        span = Span(self._new_id(), full, module, start, end, self._parent)
        if alloc:
            span.attrs["alloc_peak_bytes"] = _proc_status_bytes("VmHWM") - rss_before
        problem = raised
        if problem is None and check is not None:
            try:
                problem = check(result)
            except Exception as exc:  # a check that cannot run counts as failed
                problem = f"{full} check raised {type(exc).__name__}: {exc}"
        if problem is not None:
            span.ok = False
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(problem)
        self.ops.append(span)
        return result

    def mark_failed(self, span: Span, message: str) -> None:
        """Fail an operation whose output could only be checked later."""
        if span.ok:
            span.ok = False
            self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def fail(self, message: str) -> None:
        """Record a failed check that belongs to no single operation."""
        self.attempted += 1
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    @property
    def wall_s(self) -> float:
        """Timed work: the summed duration of every operation."""
        return sum(s.seconds for s in self.ops)

    def durations(self, name: str) -> list[float]:
        return [s.seconds for s in self.ops if s.name == name]

    def write(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as out:
            for s in sorted(self.phases + self.ops, key=lambda s: s.start):
                rec = {
                    "run": self.run_id,
                    "id": s.id,
                    "parent": s.parent,
                    "name": s.name,
                    "module": s.module,
                    "start": s.start,
                    "end": s.end,
                    "ok": s.ok,
                }
                rec.update(s.attrs)
                out.write(json.dumps(rec) + "\n")


def _proc_status_bytes(field: str) -> int:
    """A memory figure of this process from /proc/self/status, in bytes."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1]) * 1024
    raise OSError(f"no {field} in /proc/self/status")


def _reset_peak_rss() -> int:
    """Reset this process's peak-RSS mark and return its RSS now, in bytes.

    Writing 5 to /proc/self/clear_refs sets VmHWM back to the current RSS
    (Linux 4.0 and later), so VmHWM read at the end of a span is the span's
    own peak.  Where the write is refused, VmHWM stays the peak of the whole
    process so far.
    """
    try:
        with open("/proc/self/clear_refs", "w") as refs:
            refs.write("5")
    except OSError:
        pass
    return _proc_status_bytes("VmRSS")


def library_caches(*modules) -> list[tuple[str, object]]:
    """Every lru_cache-wrapped function that one of ``modules`` defines, with
    the module's short name.  Found by inspection, so a cache added to or
    removed from the library is counted without a change here."""
    found = []
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[-1]
        for fn in vars(mod).values():
            if hasattr(fn, "cache_info") and getattr(fn, "__module__", None) == mod.__name__:
                found.append((short, fn))
    return found


def cache_hits(caches: list[tuple[str, object]]) -> dict[str, int]:
    """Hits so far of the given caches, summed per module."""
    out: dict[str, int] = {}
    for short, fn in caches:
        out[short] = out.get(short, 0) + fn.cache_info().hits
    return out


def tail_percentile(n: int) -> float | None:
    """Highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    best = None
    for p in (50.0, 90.0, 99.0, 99.9):
        if n * (1 - p / 100) >= 10:
            best = p
    return best


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer figures derived from the spans of one pass."""
    wall = rec.wall_s
    out: dict[str, float] = {}
    for mod in MODULES:
        spans = [s for s in rec.ops if s.module == mod]
        busy = sum(s.seconds for s in spans)
        out[f"{mod}.calls"] = len(spans)
        out[f"{mod}.busy_s"] = busy
        out[f"{mod}.share"] = busy / wall if wall else 0.0
        out[f"{mod}.failed"] = sum(1 for s in spans if not s.ok)

    def busy(*names: str) -> float:
        return sum(s.seconds for s in rec.ops if s.name in names)

    def first(name: str) -> Span | None:
        return next((s for s in rec.ops if s.name == name), None)

    for name in ALLOC_SPANS:
        s = first(name)
        out[f"{name}.busy_s"] = busy(name)
        out[f"{name}.peak_alloc_mb"] = s.attrs.get("alloc_peak_bytes", 0) / 1e6 if s else 0.0
        out[f"{name}.bytes_computed"] = s.attrs.get("bytes_computed", 0) if s else 0
    out["meanvalue.constants.busy_s"] = busy(*(f"meanvalue.{c}" for c in CONSTANTS))
    for name in ("meanvalue.mean_value_report", "meanvalue.grosswald_ratios"):
        out[f"{name}.busy_s"] = busy(name)
    fac = rec.durations("arith.factorize")
    tail = tail_percentile(len(fac))
    out["arith.factorize.p50_ms"] = percentile(fac, 50) * 1e3
    out["arith.factorize.tail_ms"] = percentile(fac, tail) * 1e3 if tail else 0.0
    out["counting.t_closed.p50_ms"] = percentile(rec.durations("counting.t_closed"), 50) * 1e3
    for name in ("counting.t_burnside", "counting.t_geometric", "counting.orbit_decomposition"):
        out[f"{name}.busy_s"] = busy(name)
    for name in ("lattice.reduce_to_base_form", "lattice.equivalent_clean"):
        out[f"{name}.p50_us"] = percentile(rec.durations(name), 50) * 1e6
    out["lattice.scott_exhaustive.busy_s"] = busy("lattice.scott_exhaustive")
    bfile = first("cli.imph_bfile")
    out["cli.imph_bfile.s"] = bfile.seconds if bfile else 0.0
    out["cli.imph_bfile.peak_rss_mb"] = bfile.attrs.get("child_peak_rss_mb", 0.0) if bfile else 0.0
    out["cli.query.p50_ms"] = percentile(rec.durations("cli.query"), 50) * 1e3
    return out
