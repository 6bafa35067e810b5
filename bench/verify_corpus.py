"""Workload ``verify_corpus``: the whole ``verify`` battery on small instances.

Why: on 10-16-step instances the path layers (``lattice.path_arrays``,
``bundles`` minimality sums, ``stopping``) take almost all the time.  Path
counts run from 256 to 65 536, which takes the ``(paths, N+1)`` matrices
from inside L2 to far beyond it.  The engine also runs, but on many tiny
levels where per-call overhead decides the speed, so a vectorisation that
helps ``deep_tree`` but costs small trees shows up here.  Path-free
dynamic programs for verification show up here and not on ``deep_tree``.

Loads: ``io_formats.parse_instance``, ``regulated``, ``solvers``,
``bundles`` (``lu4_residual``, ``skorokhod_residual``), ``stopping``
(local properties, alternating sequence, local solutions, patching),
``oracle`` (uniqueness probe, comparison check, game value field),
``engine`` (inside the uniqueness probe, and one timed sweep per
instance).  Bypasses: ``io_formats`` output, the CLI and interpreter
start-up, deep trees.

Inputs, per seed: one round of twelve instances whose shapes are fixed
(``ROUND``) and whose numbers come from the seed.  Eight are on binomial
trees, four on explicit ragged trees with some zero-probability edges.
Drivers are zero, constant or linear; right jumps sit on both barriers in
half of them; two are one-sided (lower, upper), so the negation dual runs.
Linear drivers with right jumps on both barriers are kept on purpose: the
uniqueness probe fails on many of them at the time of writing, and every
such failure is reported by instance and gate.

Per instance: the program's own ``verify`` (``cli.cmd_verify`` on the
instance file, in this process, its gate results read back from the JSON
report it writes; see ``battery.py``), then, for two-sided instances,
``game_value_field`` against the projection when the driver is
y-independent and ``comparison_check`` against an ``ordered_widening`` of
the instance.  Every failed gate counts as a failed operation, by instance
and gate; an exit code that disagrees with the gates makes the run
incorrect.  The battery's time is taken in steps: each package call
``verify`` makes, the command's own glue, the game and the comparison
check.  Outside the battery's timing, ``SOLVE_REPEATS`` projection solves
before it and ``SWEEP_REPEATS`` penalization sweeps to ``eps = 1e-5`` after
it (increasing and decreasing by instance), their levels timed one by one
and pooled per instance: a level takes milliseconds, and the upper decile
of one level's repeats, a handful per run, is too near their maximum.  A timed
set-up of the whole round runs before every third instance.
Every round re-generates, re-writes and re-parses its documents, so no
path cache carries over.

Predictions (per-layer metric -> end-to-end metric it should move here):
  io_formats.parse_s, regulated.validate_s          -> setup_s
  solvers.projection_s                              -> solve_s
  engine.sweep_inc_s, engine.sweep_dec_s            -> sweep_s
  lattice.path_arrays_s, bundles.skorokhod_s,
  stopping.local_properties_s, stopping.alternating_s,
  stopping.local_solution_s, stopping.patch_s       -> check_s, instances_per_s, peak_rss_mb
  oracle.uniqueness_s, oracle.comparison_s          -> check_s, instances_per_s
"""
from __future__ import annotations

import gc
import json
import random
import statistics
import time
from collections import Counter

import numpy as np

from rbsde_lab import cli
from rbsde_lab.io_formats import parse_instance
from rbsde_lab.lattice import sup_distance
from rbsde_lab.oracle import comparison_check, game_value_field, ordered_widening
from rbsde_lab.regulated import validate_instance

from battery import (build_tree, cli_spans, count_sweep, count_tree, gate_detail, run_verify,
                     sweep_span, timed_sweep)
from gen_instances import Spec, explicit_widths, instance_doc
from harness import OUT, Report, run_until

ROUND = (
    Spec(16, "binomial", "linear", True),
    Spec(10, "binomial", "zero", False),
    Spec(12, "explicit", "constant", True, widths=explicit_widths(12, 384), zero_prob_edges=True),
    Spec(13, "binomial", "constant", False, sides="lower"),
    Spec(14, "binomial", "linear", True),
    Spec(11, "explicit", "zero", False, widths=explicit_widths(11, 320), zero_prob_edges=True),
    Spec(15, "binomial", "zero", True),
    Spec(12, "binomial", "linear", False, sides="upper"),
    Spec(13, "explicit", "linear", True, widths=explicit_widths(13, 448), zero_prob_edges=True),
    Spec(11, "binomial", "constant", True),
    Spec(14, "binomial", "zero", False),
    Spec(10, "explicit", "constant", False, widths=explicit_widths(10, 256), zero_prob_edges=True),
)
EPS = 1e-5
SETUP_EVERY = 3  # instances between set-ups
SOLVE_REPEATS = 8
SWEEP_REPEATS = 2
# The gates of ``rbsde-lab verify``, by the module that applies them.
GATE_MODULE = {
    "validation": "regulated",
    "separation": "regulated",
    "residuals": "bundles",
    "local_properties": "stopping",
    "uniqueness": "oracle",
    "patching": "stopping",
}


def _docs(seed: int) -> list[dict]:
    rng = random.Random(seed)
    return [instance_doc(spec, rng) for spec in ROUND]


def _setup(seed: int, tr, checks) -> list[tuple]:
    """Generate, parse and validate the round: ``(instance, document)`` each."""
    out = []
    for i, doc in enumerate(_docs(seed)):
        tr.op_id = f"instance {i}"
        with tr.span("io_formats.parse"):
            inst = parse_instance(doc)
        with tr.span("regulated.validate"):
            ok = validate_instance(inst).ok
        checks.check(ok, f"seed {seed} instance {i}", "generated instance validates",
                     module="regulated")
        out.append((inst, doc))
    return out


def _write(seed: int, docs: list[dict]) -> list:
    """The instance files ``verify`` reads."""
    work = OUT / "corpus" / f"seed{seed}"
    work.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, doc in enumerate(docs):
        paths.append(work / f"instance{i}.json")
        paths[-1].write_text(json.dumps(doc), encoding="utf-8")
    return paths


def _path_probe(seed: int, tr) -> None:
    """Layer probe: build each tree afresh and enumerate its paths."""
    for i, doc in enumerate(_docs(seed)):
        tr.op_id = f"instance {i}"
        with tr.span("lattice.build"):
            tree = build_tree(doc)
        with tr.span("lattice.path_arrays"):
            tree.path_arrays()


def _instance(i: int, inst, path, seed: int, tr, rep: Report, calls: list, counts,
              levels_run: dict) -> None:
    where = f"seed {seed} instance {i}"
    key = tr.op_id = f"instance {i}"
    checks = rep.checks
    samples = rep.samples
    for _ in range(SOLVE_REPEATS):
        t0 = time.perf_counter()
        cli._solve_projection(inst)
        samples.add("solve", key, time.perf_counter() - t0)

    # The battery, cut into steps: each package call ``verify`` makes, the
    # command's own glue, then the game and comparison checks.
    calls.clear()
    t0 = time.perf_counter()
    code, gates = run_verify(path, path.with_suffix(".verify.json"))
    glue = time.perf_counter() - t0
    for j, (name, seconds) in enumerate(calls):
        samples.add("instance", key, seconds, f"{j} {name}")
        glue -= seconds
    samples.add("instance", key, glue, "verify glue")
    if inst.lower is not None and inst.upper is not None:
        if inst.driver.y_independent:
            t0 = time.perf_counter()
            with tr.span("oracle.game_fast"):
                game = game_value_field(inst)
            samples.add("instance", key, time.perf_counter() - t0, "game")
        t0 = time.perf_counter()
        wider = ordered_widening(inst, np.random.default_rng([seed, i]))
        with tr.span("oracle.comparison"):
            comp = comparison_check(inst, wider)
        samples.add("instance", key, time.perf_counter() - t0, "comparison")

    for gate, result in gates.items():
        ok = result["passed"]
        checks.check(ok, where, gate, "" if ok else gate_detail(gate, result),
                     module=GATE_MODULE[gate])
    passed = all(result["passed"] for result in gates.values())
    checks.check((code == 0) == passed, where, "verify exit code agrees with its gates",
                 f"exit {code}", independent=True, module="cli")
    if inst.lower is not None and inst.upper is not None:
        if inst.driver.y_independent:
            proj = cli._solve_projection(inst)
            gap = sup_distance(game, proj.y.value)
            checks.check(gap == 0.0, where, "game value equals projection", f"{gap:.3g}",
                         independent=True, module="oracle")
        checks.check(comp.passed, where, "comparison", f"violation {comp.max_violation:.3g}",
                     module="oracle")

    increasing = inst.upper is None or (inst.lower is not None and i % 2 == 0)
    mode = cli._sweep_mode(inst, "inc-pen" if increasing else "dec-pen")
    for _ in range(SWEEP_REPEATS):
        with tr.span(sweep_span(mode)):
            sweep, levels = timed_sweep(inst, mode, eps=EPS)
        for seconds in levels:
            samples.add("sweep", key, seconds, "level")
        levels_run[key] = len(levels)
        count_sweep(sweep, inst.tree, counts)
    checks.check(sweep.converged, where, f"{mode.value} sweep converged", module="engine")

    count_tree(inst.tree, counts)


def run(seed: int, seconds: float, tr, rep: Report, layers: bool = False) -> list[float]:

    def setup():
        gc.collect()
        t0 = time.perf_counter()
        fresh = _setup(seed, tr, rep.checks)
        rep.samples.add("setup", "set-up", time.perf_counter() - t0)
        paths = _write(seed, [doc for _, doc in fresh])
        return [(inst, path) for (inst, _), path in zip(fresh, paths)]

    if layers:
        _path_probe(seed, tr)

    samples = rep.samples
    round_counts: list[Counter] = []
    levels_run: dict[str, int] = {}
    round_walls: list[float] = []

    def one_round():
        # Set-ups are spread over the round, so their median sees the same
        # machine as the instances do; the first one's instances are used.
        instances = setup()
        counts = Counter()
        wall = 0.0
        with cli_spans(tr, counts) as calls:
            for i, (inst, path) in enumerate(instances):
                if i and i % SETUP_EVERY == 0:
                    setup()
                t0 = time.perf_counter()
                _instance(i, inst, path, seed, tr, rep, calls, counts, levels_run)
                wall += time.perf_counter() - t0
        round_walls.append(wall)
        round_counts.append(counts)

    run_until(seconds, one_round)
    rep.checks.check(all(c == round_counts[0] for c in round_counts), "every round",
                     "counts repeat exactly", independent=True)
    rep.counts.update(round_counts[0])
    rep.notes.append(f"{len(round_counts)} round(s) of {len(ROUND)} instances")

    solves = samples.per_input("solve")
    whole = samples.per_input("instance")
    rep.metric("setup_s", samples.mean("setup"), "s", samples.count("setup"),
               "generate, parse and validate one round of 12 instances; upper decile of set-ups")
    rep.metric("solve_s", samples.mean("solve"), "s", samples.count("solve"),
               "projection solve; per instance the upper decile of repeats, mean over the round")
    rep.metric("check_s", sum(whole[k] - solves[k] for k in whole) / len(whole), "s",
               samples.count("instance"),
               "battery, game and comparison of one instance, less one solve; per instance the "
               "sum over its steps of each step's upper decile, mean over the round")
    sweeps = {key: levels_run[key] * level for key, level in samples.per_input("sweep").items()}
    rep.metric("sweep_s", statistics.fmean(sweeps.values()), "s", samples.count("sweep"),
               "one penalization sweep to eps=1e-5; per instance the levels run times the upper "
               "decile of one level, mean over the round")
    rep.metric("instances_per_s", len(whole) / sum(whole.values()), "1/s", samples.count("instance"),
               "instances through the battery, the game and comparison checks per second")
    return round_walls
