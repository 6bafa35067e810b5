"""Workload ``deep_tree``: wide trees solved in-process through the library.

Why: the per-node Python loops of ``lattice``, ``engine`` and ``solvers``
do almost all the work here and no path is enumerated, so this is where a
level-vectorised sweep or a flat tree layout must show.  The explicit,
non-recombining tree (ragged fan-out 1-4) catches a speed-up that only
works for binomial trees.  The CLI cannot run these trees (``solve``,
``converge`` and ``verify`` refuse more than 22 steps), hence the library
calls.

Loads: ``io_formats.parse_instance``, ``regulated.validate_instance``,
``solvers`` (projection), ``engine.penalization_sweep`` (both directions,
the decreasing one through the negation dual), ``bundles.lu4_residual``,
``oracle.game_value_field``.  Bypasses: path enumeration (``stopping``, the
uniqueness probe, ``bundles.skorokhod_residual`` beyond the depth cap),
``io_formats`` output, the CLI and interpreter start-up.

Inputs, per seed: a 160-step binomial tree (13 041 nodes) and a 20-step
explicit tree (2 504 nodes, 700 leaves), both with tabulated, active
barriers carrying right jumps, and a linear driver.  The y-independent twin
of each (same data, constant driver equal to the linear intercept) feeds
the game-oracle check.  The sweeps run to ``eps = 1e-5`` on the ladder
``default_levels(2**24)``: the default ladder up to ``2**20`` stalls near a
sup distance of 2e-5 on these instances.

The run is a sequence of blocks, the sweep directions (``inc-pen``,
``dec-pen``) in turn, each after a fresh timed set-up.  A block runs, per
tree: three projection solves, the sweep, three more solves, then the
checks of that sweep twice (``lu4_residual`` on the projection and the
sweep limit, the limit against the projection, the twin's projection
against ``game_value_field``).  The short ops thus sit between the long
sweeps all through the run.  A ``skorokhod_residual`` probe runs once per tree
outside every timing; its depth-cap refusal is counted in
``bundles.skorokhod_refused``.

Predictions (per-layer metric -> end-to-end metric it should move here):
  io_formats.parse_s, regulated.validate_s, lattice.build_s -> setup_s
  solvers.projection_s, lattice.expect_level_s              -> solve_s
  engine.sweep_inc_s, engine.sweep_dec_s, engine.level_s,
  lattice.expect_level_s                                    -> sweep_s
  bundles.lu4_s, oracle.game_fast_s                         -> check_s
"""
from __future__ import annotations

import gc
import random
import statistics
import time
from collections import Counter

from rbsde_lab.bundles import lu4_residual, skorokhod_residual
from rbsde_lab.cli import DEFAULT_RESIDUAL_TOL
from rbsde_lab.drivers import constant_driver
from rbsde_lab.engine import PenalizationMode, default_levels, solve_penalized
from rbsde_lab.errors import EnumerationCapError
from rbsde_lab.io_formats import parse_instance
from rbsde_lab.lattice import expect_level, sup_distance
from rbsde_lab.oracle import game_value_field
from rbsde_lab.regulated import ProblemInstance, validate_instance
from rbsde_lab.solvers import solve_doubly_reflected

from battery import build_tree, count_sweep, count_tree, timed_sweep
from gen_instances import Spec, explicit_widths, instance_doc
from harness import Report, run_until

SPECS = {
    "binomial160": Spec(160, "binomial", "linear", True, gap=(0.25, 0.6)),
    "explicit20": Spec(20, "explicit", "linear", True, widths=explicit_widths(20, 700),
                       gap=(0.25, 0.6)),
}
EPS = 1e-5
LEVELS = default_levels(2 ** 24)
SOLVES = 3
CHECKS = 2
MODES = (
    ("engine.sweep_inc", PenalizationMode.LOWER_PENALTY_UPPER_REFLECT),
    ("engine.sweep_dec", PenalizationMode.UPPER_PENALTY_LOWER_REFLECT),
)


def _setup(seed: int, tr, checks) -> list[tuple]:
    """Generate, parse and validate both trees and their y-independent twins."""
    rng = random.Random(seed)
    out = []
    for name, spec in SPECS.items():
        doc = instance_doc(spec, rng)
        with tr.span("io_formats.parse"):
            inst = parse_instance(doc)
        twin = ProblemInstance(
            inst.tree, inst.grid, inst.terminal,
            constant_driver(doc["driver"]["intercept"]), inst.barriers,
        )
        for what, candidate in (("", inst), ("twin ", twin)):
            with tr.span("regulated.validate"):
                ok = validate_instance(candidate).ok
            checks.check(ok, name, f"{what}validation", module="regulated")
        out.append((name, spec, doc, inst, twin))
    return out


def _probes(trees, tr) -> None:
    """Layer probes: tree build, one kernel pass per level, one penalty level."""
    for name, _, doc, inst, _ in trees:
        tr.op_id = name
        with tr.span("lattice.build"):
            tree = build_tree(doc)
        values = inst.terminal
        with tr.span("lattice.expect_level"):
            for k in range(tree.depth - 1, -1, -1):
                values = expect_level(tree, k, values)
        for _, mode in MODES:
            with tr.span("engine.level"):
                solve_penalized(inst, 2 ** 10, mode)


def _checks(name: str, label: str, inst, twin, proj, sweep, tr, checks) -> None:
    """lu4 on the projection and the sweep, the sweep against the projection,
    and the game value against the projection on the twin."""
    for what, bundle in (("projection", proj), (label, sweep.final)):
        with tr.span("bundles.lu4"):
            lu4 = lu4_residual(bundle, inst)
        checks.check(lu4 <= DEFAULT_RESIDUAL_TOL, name, f"lu4 {what}", f"{lu4:.3g}",
                     module="bundles")
    checks.check(sweep.converged, name, f"{label} converged", module="engine")
    gap = sup_distance(sweep.final.y.value, proj.y.value)
    checks.check(gap <= 2 * EPS, name, f"{label} within 2 eps of projection",
                 f"{gap:.3g}", independent=True, module="engine")
    with tr.span("solvers.projection"):
        twin_proj = solve_doubly_reflected(twin)
    with tr.span("oracle.game_fast"):
        game = game_value_field(twin)
    gap = sup_distance(game, twin_proj.y.value)
    checks.check(gap == 0.0, name, "game value equals projection on the twin",
                 f"{gap:.3g}", independent=True, module="oracle")


def _block(trees, span: str, mode, tr, rep: Report, counts, levels_run: dict) -> None:
    """One sweep direction on both trees, the short ops around each sweep.

    Per tree: ``SOLVES`` projection solves, the sweep, ``SOLVES`` more, then
    the checks of that sweep ``CHECKS`` times, so the short ops are timed
    between the long ones all through the run.

    A sweep's levels are timed one by one and pooled: on these trees every
    penalty level is one backward pass over the same nodes, and a sweep
    takes seconds, longer than the host's spells of one speed, while a
    level takes a tenth of a second.  ``levels_run`` gets the number of
    levels of each sweep.
    """
    samples = rep.samples
    for name, _, _, inst, twin in trees:
        tr.op_id = name

        def solve():
            for _ in range(SOLVES):
                t0 = time.perf_counter()
                with tr.span("solvers.projection"):
                    bundle = solve_doubly_reflected(inst)
                samples.add("solve", name, time.perf_counter() - t0)
            return bundle

        proj = solve()
        with tr.span(span):
            sweep, levels = timed_sweep(inst, mode, levels=LEVELS, eps=EPS)
        key = f"{name} {mode.value}"
        for seconds in levels:
            samples.add("sweep", key, seconds, "level")
        levels_run[key] = len(levels)
        count_sweep(sweep, inst.tree, counts)
        solve()
        for _ in range(CHECKS):
            t0 = time.perf_counter()
            _checks(name, mode.value, inst, twin, proj, sweep, tr, rep.checks)
            samples.add("check", name, time.perf_counter() - t0)


def _skorokhod_probe(trees, tr, rep: Report) -> None:
    """Minimality sums of each projection solve, kept out of every timing.

    Beyond the path-enumeration depth cap the call is refused; the refusal
    is a count, not a failure.
    """
    for name, _, _, inst, _ in trees:
        tr.op_id = name
        proj = solve_doubly_reflected(inst)
        try:
            with tr.span("bundles.skorokhod"):
                sk = skorokhod_residual(proj, inst.barriers)
        except EnumerationCapError:
            rep.counts["bundles.skorokhod_refused"] += 1
            continue
        worst = max(sk.lower_residual, sk.upper_residual)
        rep.checks.check(worst <= DEFAULT_RESIDUAL_TOL, name, "skorokhod residual", f"{worst:.3g}",
                         module="bundles")


def run(seed: int, seconds: float, tr, rep: Report, layers: bool = False) -> list[float]:
    samples = rep.samples

    def set_up():
        """One timed set-up, from a collected heap with no earlier set alive."""
        gc.collect()
        t0 = time.perf_counter()
        fresh = _setup(seed, tr, rep.checks)
        samples.add("setup", "set-up", time.perf_counter() - t0)
        return fresh

    trees = set_up()
    if layers:
        _probes(trees, tr)
    _skorokhod_probe(trees, tr, rep)
    for _, _, _, inst, _ in trees:
        count_tree(inst.tree, rep.counts)

    block_counts: dict[str, Counter] = {}
    levels_run: dict[str, int] = {}
    block_walls: list[float] = []

    def one_block():
        """One sweep direction on both trees, the directions in turn, each
        after a fresh set-up."""
        nonlocal trees
        span, mode = MODES[len(block_walls) % len(MODES)]
        if block_walls:
            trees = None
            trees = set_up()
        counts = Counter()
        t0 = time.perf_counter()
        _block(trees, span, mode, tr, rep, counts, levels_run)
        block_walls.append(time.perf_counter() - t0)
        first = block_counts.setdefault(span, counts)
        rep.checks.check(counts == first, f"every {span} block", "counts repeat exactly",
                         independent=True)

    run_until(seconds, one_block, at_least=len(MODES))
    for counts in block_counts.values():
        rep.counts.update(counts)
    rep.notes.append(f"{len(block_walls)} block(s) over {len(SPECS)} trees, the sweep directions in turn")

    rep.metric("setup_s", samples.mean("setup"), "s", samples.count("setup"),
               "generate, parse and validate both trees and twins; upper decile of set-ups")
    rep.metric("solve_s", samples.mean("solve"), "s", samples.count("solve"),
               "projection solve; per tree the upper decile of repeats, mean over the two trees")
    sweeps = {key: levels_run[key] * level for key, level in samples.per_input("sweep").items()}
    rep.metric("sweep_s", statistics.fmean(sweeps.values()), "s", samples.count("sweep"),
               "one sweep to eps=1e-5; per tree and direction the levels run times the upper "
               "decile of one level, mean of the four")
    rep.metric("check_s", samples.mean("check"), "s", samples.count("check"),
               "lu4 on two bundles, distances, twin solve and game oracle; per tree the upper "
               "decile of repeats, mean over the two trees")
    per_tree = (2 * sum(samples.per_input("solve").values()) + sum(sweeps.values())
                + 2 * sum(samples.per_input("check").values()))
    rep.metric("instances_per_s", len(SPECS) / per_tree, "1/s", len(block_walls),
               "trees through two solves, both sweeps and their checks per second")
    return block_walls
