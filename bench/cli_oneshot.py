"""Workload ``cli_oneshot``: the command line, one subprocess per command.

Why: on the shipped instances, interpreter start, ``import rbsde_lab`` and
``io_formats`` parse/dump are most of each command, so import-time and I/O
work shows here and kernel or path work does not.

Loads: interpreter start-up, the package import (numpy included), ``cli``
argument handling, ``io_formats`` parse and dump, and on tiny trees the
solvers, sweeps, the ``verify`` battery and the game oracles.  Bypasses:
wide trees and large path counts.

Inputs: the four shipped instances under ``instances/``.  One round runs
the six golden jobs of ``tools/regen_goldens.py`` (outputs byte-compared to
``goldens/``), ``verify`` on all four instances, ``game`` on
``barrier_jumps.json`` and ``two_sided_affine.json``, and ``game
--exhaustive`` on ``touching_barriers.json``; every exit code is checked
(``1`` for ``verify`` on ``touching_barriers``, ``5`` for ``game`` on the
linear-driver instance, ``0`` elsewhere).  The seed shuffles the order of
the commands in each round.  Commands start one at a time; none overlap.
The walls of the commands of one kind (solve, sweep, check) are pooled.

The traced run does not start the commands as subprocesses.  It times the
interpreter, ``import numpy`` and ``import rbsde_lab`` in fresh
interpreters, then runs each command in-process through ``cli.main``, with
a span around every call the CLI module makes into the package (see
``battery.py``): ``io_formats.dump_s``, ``oracle.game_exhaustive_s``, ...
``cli.body_s`` is what is left of ``cli.main``: argument parsing and the
command's own glue.

Predictions (per-layer metric -> end-to-end metric it should move here):
  cli.interpreter_s, cli.import_numpy_s, cli.import_s -> setup_s and every command time
  cli.body_s, io_formats.parse_s, io_formats.dump_s   -> solve_s, sweep_s, check_s
  oracle.game_exhaustive_s                            -> check_s (and cmd_tail_s)
"""
from __future__ import annotations

import contextlib
import io
import random
import time
from pathlib import Path

from rbsde_lab.cli import main as cli_main
from rbsde_lab.io_formats import load_instance

from battery import cli_spans, count_tree
from harness import OUT, PYTHON, ROOT, Report, Samples, median, peak_rss_mb, run_child, run_until, tail

INSTANCES = ROOT / "instances"
GOLDENS = ROOT / "goldens"
WORK = OUT / "cli"
IMPORT_REPEATS = 5
ROUND_IMPORTS = 3

# (metric kind, argv without --out, expected exit code, golden file or None)
JOBS = (
    ("solve", ["solve", "two_sided_affine.json", "--method", "projection"], 0,
     "two_sided_affine.projection.json"),
    ("sweep", ["solve", "two_sided_affine.json", "--method", "inc-pen"], 0,
     "two_sided_affine.inc-pen.json"),
    ("sweep", ["converge", "two_sided_affine.json", "--mode", "inc-pen"], 0,
     "two_sided_affine.converge.csv"),
    ("solve", ["solve", "barrier_jumps.json", "--method", "projection"], 0,
     "barrier_jumps.projection.json"),
    ("sweep", ["converge", "barrier_jumps.json", "--mode", "dec-pen"], 0,
     "barrier_jumps.converge.csv"),
    ("solve", ["solve", "lower_only.json", "--method", "projection"], 0,
     "lower_only.projection.json"),
    ("check", ["verify", "two_sided_affine.json"], 0, None),
    ("check", ["verify", "barrier_jumps.json"], 0, None),
    ("check", ["verify", "lower_only.json"], 0, None),
    ("check", ["verify", "touching_barriers.json"], 1, None),
    ("check", ["game", "barrier_jumps.json"], 0, None),
    ("check", ["game", "two_sided_affine.json"], 5, None),
    ("check", ["game", "touching_barriers.json", "--exhaustive"], 0, None),
)


def _argv(args: list[str], golden: str | None) -> tuple[list[str], Path | None]:
    argv = [args[0], str(INSTANCES / args[1]), *args[2:]]
    if golden is None:
        return argv, None
    out = WORK / golden
    return argv + ["--out", str(out)], out


def _check_output(checks, where: str, code: int, expected: int, out: Path | None, golden: str | None):
    checks.check(code == expected, where, "exit code", f"{code}, expected {expected}",
                  independent=True, module="cli")
    if golden is not None:
        same = out.is_file() and out.read_bytes() == (GOLDENS / golden).read_bytes()
        checks.check(same, where, "output equals the golden", golden, independent=True,
                     module="io_formats")
        out.unlink(missing_ok=True)


def _fresh_interpreter(code: str) -> float:
    status, elapsed = run_child([PYTHON, "-c", code], timeout=120)
    if status != 0:
        raise RuntimeError(f"python -c {code!r} exited {status}")
    return elapsed


def _subprocess_round(order, checks, samples: Samples) -> float:
    wall = 0.0
    for kind, args, expected, golden in order:
        argv, out = _argv(args, golden)
        code, elapsed = run_child([PYTHON, "-m", "rbsde_lab", *argv], timeout=170, cwd=ROOT)
        wall += elapsed
        samples.add(kind, kind, elapsed)
        _check_output(checks, " ".join(args), code, expected, out, golden)
    return wall


def _in_process_round(order, tr, checks, counts) -> float:
    """Every command through ``cli.main`` in this process, spans on its calls."""
    wall = 0.0
    with cli_spans(tr, counts):
        for _, args, expected, golden in order:
            argv, out = _argv(args, golden)
            tr.op_id = " ".join(args)
            with tr.span("io_formats.parse"):
                inst = load_instance(INSTANCES / args[1])
            count_tree(inst.tree, counts)
            sink = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                with tr.span("cli.body"):
                    code = cli_main(argv)
            wall += time.perf_counter() - t0
            _check_output(checks, "in-process " + " ".join(args), code, expected, out, golden)
    return wall


def run(seed: int, seconds: float, tr, rep: Report, layers: bool = False) -> list[float]:
    WORK.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    checks = rep.checks
    samples = rep.samples
    for _ in range(IMPORT_REPEATS):
        samples.add("setup", "import rbsde_lab", _fresh_interpreter("import rbsde_lab"))

    if layers:
        setup = samples.all("setup")
        interp = [_fresh_interpreter("pass") for _ in range(IMPORT_REPEATS)]
        numpy_ = [_fresh_interpreter("import numpy") for _ in range(IMPORT_REPEATS)]
        n = IMPORT_REPEATS
        rep.metric("cli.interpreter_s", median(interp), "s", n, "python -c pass")
        rep.metric("cli.import_numpy_s", median(numpy_) - median(interp), "s", n,
                   "import numpy, beyond interpreter start")
        rep.metric("cli.import_s", median(setup) - median(numpy_), "s", n,
                   "import rbsde_lab, beyond import numpy")
        order = list(JOBS)
        rng.shuffle(order)
        return [_in_process_round(order, tr, checks, rep.counts)]

    walls: list[float] = []

    def one_round():
        order = list(JOBS)
        rng.shuffle(order)
        walls.append(_subprocess_round(order, checks, samples))
        for _ in range(ROUND_IMPORTS):
            samples.add("setup", "import rbsde_lab", _fresh_interpreter("import rbsde_lab"))

    run_until(seconds, one_round)
    every = samples.all("solve") + samples.all("sweep") + samples.all("check")
    rep.metric("setup_s", samples.mean("setup"), "s", samples.count("setup"),
               "import rbsde_lab in a fresh interpreter, interpreter start included; upper decile")
    rep.metric("solve_s", samples.mean("solve"), "s", samples.count("solve"),
               "solve --method projection; upper decile of the walls of the three commands")
    rep.metric("sweep_s", samples.mean("sweep"), "s", samples.count("sweep"),
               "solve --method inc-pen and converge; upper decile of the walls of the three commands")
    rep.metric("check_s", samples.mean("check"), "s", samples.count("check"),
               "verify and game; upper decile of the walls of the seven commands")
    rep.metric("instances_per_s", len(JOBS) / sum(samples.mean(kind) for kind, *_ in JOBS), "1/s",
               len(every), "commands completed per second, one at a time, from the figures above")
    rep.metric("cmd_p50_s", median(every), "s", len(every), "every command, median wall")
    high = tail(every)
    if high is not None:
        rep.metric("cmd_tail_s", high[0], "s", len(every),
                   f"p{high[1]:.1f}: highest percentile with >= 10 commands beyond it")
    rep.metric("peak_rss_mb", peak_rss_mb(children=True), "MB", len(every) + samples.count("setup"),
               "largest child process")
    rep.notes.append(f"{len(walls)} round(s) of {len(JOBS)} commands")
    return walls
