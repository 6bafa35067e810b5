"""The stacked penalty ladder against a level-by-level reference sweep.

``reference_sweep`` is the sweep as one ``solve_penalized`` per penalty
level, with the same stopping rule: it stops at the first eps-close pair,
reports the largest monotonicity drop over the pairs it read and raises
when that drop exceeds the tolerance.  ``penalization_sweep`` runs the
whole ladder in one stacked pass and must give the same result bit for
bit, or raise the same error.
"""
import math
from dataclasses import replace

import numpy as np
import pytest

from rbsde_lab import engine
from rbsde_lab.bundles import lu4_residual, skorokhod_residual
from rbsde_lab.drivers import custom_driver, linear_driver, zero_driver
from rbsde_lab.engine import (
    MONOTONICITY_TOL,
    PenalizationMode,
    SweepResult,
    TraceRow,
    default_levels,
    penalization_sweep,
    solve_penalized,
)
from rbsde_lab.errors import PreconditionError, RBSDELabError, SchemeMonotonicityError
from rbsde_lab.lattice import FiltrationTree, TimeGrid, build_binomial
from rbsde_lab.regulated import BarrierPair, ProblemInstance, RegulatedField, negation_dual, require_valid

UNEVEN = [1, 3, 7, 20, 55, 150, 400, 1100, 3000, 8000, 20000]
LADDERS = (default_levels(2 ** 14), UNEVEN, [7])


def reference_sweep(instance, mode, levels, eps, compute_residuals):
    """One ``solve_penalized`` per level, stopping at the first eps-close pair."""
    if not levels or any(b <= a for a, b in zip(levels, levels[1:])):
        raise PreconditionError("penalty levels must be strictly increasing")
    upper_side = not mode.penalizes_lower
    if upper_side:
        require_valid(instance)
        engine._require_barriers(instance, mode)
    frame = negation_dual(instance) if upper_side else instance
    frame_mode = mode.dual if upper_side else mode
    prev, trace, ran, worst_mono, converged, sol = None, [], [], 0.0, False, None
    for n in levels:
        sol = solve_penalized(frame, n, frame_mode)
        ran.append(n)
        if prev is not None:
            diff = sol.y.value.values - prev.y.value.values
            dist = max(0.0, float(np.max(np.abs(diff))))
            worst_mono = max(worst_mono, float(np.max(-diff)))
            row = TraceRow(n, dist)
            if compute_residuals:
                here = sol.negate_swap(mode.value) if upper_side else sol
                rep = skorokhod_residual(here, instance.barriers)
                row.lower_skorokhod_residual = rep.lower_residual
                row.upper_skorokhod_residual = rep.upper_residual
                row.lu4_residual = lu4_residual(here, instance)
            trace.append(row)
            if worst_mono > MONOTONICITY_TOL:
                raise SchemeMonotonicityError(f"{mode.value} sweep lost monotonicity by {worst_mono} at level {n}")
            if dist < eps:
                converged = True
                break
        prev = sol
    label = "decreasing-penalization" if upper_side else "increasing-penalization"
    final = sol.negate_swap(label) if upper_side else replace(sol, method=label)
    return SweepResult(converged, ran, final, trace, worst_mono)


def outcome(run) -> tuple:
    """Everything a sweep reports, floats as hex and arrays as bytes; or the error it raised."""
    try:
        sweep = run()
    except RBSDELabError as exc:
        return ("error", type(exc).__name__, str(exc))
    rows = [
        (r.n, r.sup_distance.hex(), *(None if v is None else v.hex() for v in (
            r.lower_skorokhod_residual, r.upper_skorokhod_residual, r.lu4_residual)))
        for r in sweep.trace
    ]
    b = sweep.final
    fields = (b.y.value, b.y.right_value, b.dm, b.dk_star, b.jump_k, b.da_star, b.jump_a)
    return (sweep.levels, sweep.converged, sweep.monotone_violation.hex(), rows,
            [f.values.tobytes() for f in fields], b.method, b.n, b.degenerate_nodes)


def explicit_tree(rng: np.random.Generator, depth: int) -> FiltrationTree:
    """Fan-out 1-4 per node; about one edge in five carries probability zero."""
    states, children, probs = [[0.0]], [], []
    for k in range(depth):
        kids, weights, nxt = [], [], []
        for x in states[k]:
            fan = int(rng.integers(1, 5))
            w = rng.uniform(0.2, 1.0, fan) * (rng.random(fan) > 0.2)
            w[int(rng.integers(fan))] += 0.5  # some edge keeps mass
            kids.append(list(range(len(nxt), len(nxt) + fan)))
            weights.append(list(w / w.sum()))
            nxt += [x + float(rng.normal(0.0, 0.3)) for _ in range(fan)]
        states.append(nxt)
        children.append(kids)
        probs.append(weights)
    return FiltrationTree(states, children, probs)


def sine_rule(t, y):
    return 0.4 * math.sin(2.0 * y) + 0.1 - 0.2 * t


def random_case(seed: int) -> ProblemInstance:
    """A valid instance on a random binomial or explicit tree, with right jumps
    of several sizes on both barriers; a quarter are lower-only, a quarter
    upper-only."""
    rng = np.random.default_rng(seed)
    depth = int(rng.integers(3, 8))
    if rng.random() < 0.5:
        tree = build_binomial(depth, 0.0, 0.2, -0.2, float(rng.uniform(0.2, 0.8)))
    else:
        tree = explicit_tree(rng, depth)
    x, k = np.concatenate(tree.states), np.repeat(np.arange(depth + 1), np.diff(tree.node_start))
    lower = 0.3 * x - 0.3 + 0.25 * (1.0 - k / depth) * rng.random(x.size)
    upper = lower + rng.uniform(0.3, 0.6, x.size)
    starts = tree.node_start.tolist()
    lower, upper = (RegulatedField.from_values(tree, [v[a:b] for a, b in zip(starts, starts[1:])])
                    for v in (lower, upper))
    inner = tree.node_start[-2]

    def jumps(field, sizes):
        at = rng.choice(inner, size=min(len(sizes), inner), replace=False)
        levels, nodes = tree.locate(at)
        moved = field.value.values[at] + sizes[: at.size]
        return field.with_right_jumps(list(zip(levels.tolist(), nodes.tolist(), moved.tolist())))

    lower = jumps(lower, np.array([-0.5, -0.03, -0.004, 0.05]))
    upper = jumps(upper, np.array([0.4, 0.02, -0.05]))
    side = rng.integers(4)
    lo, hi = lower.value.level(depth), upper.value.level(depth)
    terminal = lo + rng.uniform(0.05, 0.95, lo.size) * (hi - lo)
    driver = (zero_driver(), linear_driver(float(rng.uniform(-0.3, 0.3)), float(rng.uniform(-1.0, 1.0))),
              custom_driver(sine_rule, 0.8))[int(rng.integers(3))]
    barriers = BarrierPair(None if side == 1 else lower, None if side == 2 else upper)
    return ProblemInstance(tree, TimeGrid.uniform(1.0, depth), terminal, driver, barriers)


@pytest.mark.parametrize("seed", range(36))
def test_stacked_ladder_matches_the_level_by_level_sweep(seed):
    rng = np.random.default_rng(1000 + seed)
    instance = random_case(seed)
    levels = LADDERS[seed % len(LADDERS)]
    eps = (1e-3, 1e-5, 1e-9)[int(rng.integers(3))]
    residuals = bool(seed % 2)
    for mode in PenalizationMode:
        args = (instance, mode, levels, eps, residuals)
        expected = outcome(lambda: reference_sweep(*args))
        assert outcome(lambda: penalization_sweep(*args)) == expected, mode


def test_a_stalled_fixed_point_raises_as_the_level_by_level_sweep(monkeypatch):
    """With two iterates allowed, a non-affine level fails where the reference fails."""
    monkeypatch.setattr(engine, "FIXED_POINT_MAX_ITER", 2)
    seeds = [s for s in range(40) if random_case(s).driver.family == "custom"][:4]
    errors = 0
    for seed in seeds:
        instance = random_case(seed)
        for mode in PenalizationMode:
            args = (instance, mode, UNEVEN, 1e-5, False)
            expected = outcome(lambda: reference_sweep(*args))
            errors += expected[:2] == ("error", "NumericalError")
            assert outcome(lambda: penalization_sweep(*args)) == expected
    assert errors


def converged_case():
    """An instance whose lower-penalty sweep stops before the end of its ladder: (instance, stop index)."""
    for seed in range(40):
        instance = random_case(seed)
        if instance.lower is None or instance.upper is None:
            continue
        sweep = penalization_sweep(instance, PenalizationMode.LOWER_PENALTY_UPPER_REFLECT, levels=UNEVEN, eps=1e-3)
        if sweep.converged and len(sweep.levels) < len(UNEVEN) - 1:
            return instance, len(sweep.levels) - 1
    raise AssertionError("no instance stops early")


@pytest.mark.parametrize("injected", ["monotonicity", "failure"])
def test_a_fault_past_the_stopping_level_does_not_raise(monkeypatch, injected):
    """Levels past the stop are computed in the stacked pass but never read."""
    instance, stop = converged_case()
    mode = PenalizationMode.LOWER_PENALTY_UPPER_REFLECT
    expected = outcome(lambda: penalization_sweep(instance, mode, levels=UNEVEN, eps=1e-3))
    ladder = engine.ladder_distances

    def faulty(inst, levels, frame_mode):
        if injected == "monotonicity":  # the levels past the stop solve n = 1: Y drops there
            distances, drops, failed = ladder(inst, levels[: stop + 1] + [1] * (len(levels) - stop - 1), frame_mode)
            assert drops[stop] > MONOTONICITY_TOL
        else:
            distances, drops, failed = ladder(inst, levels, frame_mode)
            failed[stop + 1 :] = True
        return distances, drops, failed

    monkeypatch.setattr(engine, "ladder_distances", faulty)
    assert outcome(lambda: penalization_sweep(instance, mode, levels=UNEVEN, eps=1e-3)) == expected
