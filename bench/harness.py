"""Shared pieces of the benchmark: spans, output checks, statistics, run stamp.

Nothing here imports the package under test.
"""
from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        parent = tr._stack[-1] if tr._stack else None
        self.index = len(tr.spans)
        tr.spans.append([self.name, time.perf_counter(), None, parent, tr.op_id])
        tr._stack.append(self.index)
        return self

    def __exit__(self, exc_type, exc, tb):
        tr = self.tracer
        record = tr.spans[self.index]
        record[2] = time.perf_counter()
        if exc_type is not None:
            record[0] += ".raised"
        tr._stack.pop()
        return False


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


class Tracer:
    """In-memory spans around the benchmark's calls into the package.

    A span is ``[name, start, end, parent index, op id]``; names are
    ``<module>.<function>``, with ``.raised`` appended when the call raised,
    so refusals never mix with completed calls.  When disabled, ``span``
    returns a shared no-op context, so the untraced run pays one attribute
    lookup per call.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = ""

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NO_SPAN

    def self_times(self) -> dict[str, list[float]]:
        """Per span name: each span's duration minus its direct children's."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, list[float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out.setdefault(name, []).append(end - start - child_time[i])
        return out

    def records(self) -> list[dict]:
        t0 = self.spans[0][1] if self.spans else 0.0
        return [
            {"name": n, "start_s": s - t0, "end_s": e - t0, "parent": p, "op": op}
            for n, s, e, p, op in self.spans
        ]


class Checks:
    """Attempted and failed operations, with every failure named.

    ``independent`` marks a check against a reference outside the program
    (goldens, exit codes, the projection solve, the game oracle, count
    repeatability).  Such a failure is a wrong answer the program did not
    flag itself, and it makes the run's ``correct`` false.  A gate the
    program applies to its own output (the ``verify`` battery) counts as a
    failed operation only.

    An operation is counted once per run, by ``(where, gate)``: a timed op
    repeated in later passes is compared with its first outcome instead, and
    only a changed outcome counts (as an independent failure).  So
    ``attempted`` and ``failed`` depend on the seed, never on how many
    passes fit in the run.
    """

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.failed_by_module: Counter = Counter()
        self.correct = True
        self._first: dict[tuple[str, str], bool] = {}

    def check(self, ok: bool, where: str, gate: str, detail: str = "",
              independent: bool = False, module: str = "bench") -> bool:
        """Count one operation; record it as failed, by module, unless ``ok``."""
        ok = bool(ok)
        key = (where, gate)
        if key in self._first:
            if self._first[key] != ok:
                self.check(False, where, f"{gate}: outcome repeats", f"first {self._first[key]}",
                           independent=True, module=module)
            return ok
        self._first[key] = ok
        self.attempted += 1
        if not ok:
            self.failures.append(f"{where}: {gate}" + (f" ({detail})" if detail else ""))
            self.failed_by_module[module] += 1
            if independent:
                self.correct = False
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


class Report:
    """Everything one workload run measured, in the order it is printed."""

    def __init__(self):
        self.metrics: dict[str, dict] = {}
        self.counts: Counter = Counter()
        self.checks = Checks()
        self.samples = Samples()
        self.notes: list[str] = []

    def metric(self, name: str, value: float, unit: str, samples: int, note: str = "") -> None:
        self.metrics[name] = {"value": value, "unit": unit, "samples": samples, "note": note}


def median(xs: list[float]) -> float:
    return statistics.median(xs)


def upper_decile(xs: list[float]) -> float:
    """The 90th percentile, interpolated between order statistics."""
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=10, method="inclusive")[-1]


class Samples:
    """Wall times per (kind, input, step), summarised input by input.

    A timed op is cut into steps where the program has natural ones (the
    ``verify`` battery into the package calls it makes); other ops are a
    single step.  A step's figure is the upper decile of its repeats over
    the run, an input's is the sum of its steps' figures, and a kind's is
    the mean over the workload's fixed set of inputs (a median over inputs
    of very different sizes would jump between size clusters).  The penalty
    levels of a sweep are recorded as one step, pooled, and the workload
    scales that step's figure by the number of levels run.

    Why the upper decile: the shared host this was built on runs most of
    the time in a slow state and, in spells of seconds, in one about 1.9x
    faster.  A median or mean of the repeats follows the share of the run
    that happened to be fast, which changes from run to run; the upper
    decile of short steps reads the common state in every run.
    """

    def __init__(self):
        self._times: dict[str, dict[str, dict[str, list[float]]]] = {}

    def add(self, kind: str, key: str, seconds: float, step: str = "op") -> None:
        self._times.setdefault(kind, {}).setdefault(key, {}).setdefault(step, []).append(seconds)

    def per_input(self, kind: str) -> dict[str, float]:
        return {key: sum(upper_decile(xs) for xs in steps.values())
                for key, steps in self._times.get(kind, {}).items()}

    def count(self, kind: str) -> int:
        return len(self.all(kind))

    def mean(self, kind: str) -> float:
        return statistics.fmean(self.per_input(kind).values())

    def all(self, kind: str) -> list[float]:
        return [x for steps in self._times.get(kind, {}).values()
                for xs in steps.values() for x in xs]

    def raw(self) -> dict:
        return self._times


def tail(xs: list[float], beyond: int = 10) -> tuple[float, float] | None:
    """Highest percentile with at least ``beyond`` samples above it: (value, pct)."""
    n = len(xs)
    if n <= beyond:
        return None
    rank = n - beyond
    return sorted(xs)[rank - 1], 100.0 * rank / n


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_until(seconds: float, body, at_least: int = 1) -> float:
    """Call ``body()`` ``at_least`` times and until ``seconds`` have passed."""
    start = time.perf_counter()
    for _ in range(at_least):
        body()
    while time.perf_counter() - start < seconds:
        body()
    return time.perf_counter() - start


def _cache_sizes() -> dict[str, str]:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        out[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return out


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_sha() -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_stamp(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": _git_sha(),
        "source_digest": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "caches": _cache_sizes(),
        "load": "one process; subprocesses start one at a time, no pool",
    }


def python_env() -> dict:
    """Environment for child interpreters: the checkout's ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


PYTHON = sys.executable


def run_child(argv: list[str], timeout: float, cwd: Path | None = None) -> tuple[int, float]:
    """Run one child interpreter to its end: ``(exit code, wall seconds)``.

    ``subprocess.run(..., timeout=...)`` polls the child with sleeps of up to
    50 ms, which rounds every wall time up to that step.  Here the wait
    blocks in ``waitpid``, and a timer kills a child that overruns.
    """
    t0 = time.perf_counter()
    child = subprocess.Popen(argv, env=python_env(), cwd=cwd,
                             stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    killer = threading.Timer(timeout, child.kill)
    killer.start()
    try:
        code = child.wait()
    finally:
        killer.cancel()
        killer.join()
    elapsed = time.perf_counter() - t0
    if elapsed >= timeout:
        raise TimeoutError(f"{argv} ran over {timeout} s and was killed")
    return code, elapsed
