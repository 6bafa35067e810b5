"""The stacked penalty ladder against a level-by-level reference sweep.

``reference_sweep`` is the sweep as one ``solve_penalized`` per penalty
level, with the same stopping rule: it stops at the first eps-close pair,
reports the largest monotonicity drop over the pairs it read and raises
when that drop exceeds the tolerance.  ``penalization_sweep`` runs the
whole ladder in one stacked pass and must give the same result bit for
bit, or raise the same error.  Its final bundle is booked from the stop row
the pass keeps, so a bundle booked from a level's values is also checked
against the level loop, field by field.
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


def bundle_bits(bundle) -> tuple:
    """Every field of a bundle, arrays as raw bytes."""
    fields = (bundle.y.value, bundle.y.right_value, bundle.dm, bundle.dk_star, bundle.jump_k,
              bundle.da_star, bundle.jump_a)
    return ([f.values.tobytes() for f in fields], bundle.method, bundle.n, bundle.degenerate_nodes)


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
    return (sweep.levels, sweep.converged, sweep.monotone_violation.hex(), rows, *bundle_bits(sweep.final))


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
    ladder = engine._ladder_pass

    def faulty(inst, levels, frame_mode, eps):
        if injected == "monotonicity":  # the levels past the stop solve n = 1: Y drops there
            distances, drops, failed, row = ladder(
                inst, levels[: stop + 1] + [1] * (len(levels) - stop - 1), frame_mode, eps
            )
            assert drops[stop] > MONOTONICITY_TOL
        else:
            distances, drops, failed, row = ladder(inst, levels, frame_mode, eps)
            failed[stop + 1 :] = True
        return distances, drops, failed, row

    monkeypatch.setattr(engine, "_ladder_pass", faulty)
    assert outcome(lambda: penalization_sweep(instance, mode, levels=UNEVEN, eps=1e-3)) == expected


@pytest.mark.parametrize("seed", range(24))
def test_a_bundle_booked_from_its_values_equals_the_level_loop(seed):
    """Upper-side modes take the values in the instance's frame, as the loop returns them."""
    instance = random_case(seed)
    for mode in PenalizationMode:
        for n in (1, 7, 2 ** 10):
            try:
                loop = solve_penalized(instance, n, mode)
            except PreconditionError:  # the mode needs a barrier the instance lacks
                continue
            booked = solve_penalized(instance, n, mode, loop.y.value.values)
            assert bundle_bits(booked) == bundle_bits(loop), (mode, n)


def test_values_that_are_not_the_level_solution_are_refused():
    instance = random_case(3)
    assert instance.lower is not None and instance.upper is not None
    for mode in PenalizationMode:
        values = solve_penalized(instance, 64, mode).y.value.values
        for node in (0, instance.tree.node_start[-2] // 2, values.size - 1):
            moved = values.copy()
            moved[node] = np.nextafter(moved[node], np.inf)
            with pytest.raises(PreconditionError, match="penalty level 64: the values given are not"):
                solve_penalized(instance, 64, mode, moved)
        for shaped in (values[:-1], values[None, :], np.append(values, 0.0)):
            with pytest.raises(PreconditionError, match="penalty level 64: values of shape"):
                solve_penalized(instance, 64, mode, shaped)


@pytest.mark.parametrize("seed", range(12))
def test_the_stacked_pass_keeps_the_stop_row(seed):
    """Row and distances of the pass, converged or not, against the level loop."""
    instance = random_case(seed)
    outcomes = set()
    for levels in LADDERS:
        for mode in PenalizationMode:
            try:
                sweep = penalization_sweep(instance, mode, levels=levels, eps=1e-3)
            except PreconditionError:
                continue
            frame, frame_mode = engine._lower_side(instance, mode)
            distances, drops, failed, row = engine._ladder_pass(frame, levels, frame_mode, 1e-3)
            expected = solve_penalized(frame, sweep.levels[-1], frame_mode).y.value.values
            assert row.tobytes() == expected.tobytes(), (levels, mode)
            ladder = engine.ladder_distances(frame, levels, frame_mode)
            assert [a.tobytes() for a in ladder] == [a.tobytes() for a in (distances, drops, failed)]
            outcomes.add(sweep.converged)
    assert outcomes == {False, True}


def test_the_stacked_pass_keeps_fewer_rows_than_the_ladder(monkeypatch):
    """Each tree level keeps its rows from the index the stopping rule gives on
    the running distances; that index never falls and never passes the stop."""
    instance, stop = converged_case()
    lows = []
    rule = engine._stop_index

    def watched(distances, eps, row=1):
        lows.append(rule(distances, eps, row))
        assert lows[-1] == rule(distances, eps)  # the pairs skipped are not close
        return lows[-1]

    monkeypatch.setattr(engine, "_stop_index", watched)
    engine._ladder_pass(instance, UNEVEN, PenalizationMode.LOWER_PENALTY_UPPER_REFLECT, 1e-3)
    tree = instance.tree
    *per_level, final = lows
    assert final == stop and len(per_level) == tree.depth
    assert per_level == sorted(per_level) and per_level[-1] <= final
    widths = [tree.level_size(k) for k in range(tree.depth - 1, -1, -1)]
    kept = sum((len(UNEVEN) - low) * width for low, width in zip(per_level, widths))
    assert kept < len(UNEVEN) * tree.node_count()


def test_a_sweep_runs_one_backward_pass(monkeypatch):
    """Without residuals a sweep takes each level's expectations once, in the
    stacked pass, and books its final bundle from one ``solve_penalized`` call."""
    instance, _ = converged_case()
    calls = {"expect_level": 0, "solve_penalized": 0}

    def counting(name):
        fn = getattr(engine, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(engine, name, counting(name))
    for mode in PenalizationMode:
        calls.update(expect_level=0, solve_penalized=0)
        penalization_sweep(instance, mode, levels=UNEVEN, eps=1e-3)
        assert calls == {"expect_level": instance.tree.depth, "solve_penalized": 1}, mode
