from pathlib import Path

import numpy as np
import pytest

from rbsde_lab import engine
from rbsde_lab.bundles import (
    SolutionBundle,
    lu4_residual,
    right_jump_identity_defect,
    skorokhod_residual,
)
from rbsde_lab.drivers import constant_driver, custom_driver, linear_driver, zero_driver
from rbsde_lab.engine import (
    PenalizationMode,
    default_levels,
    implicit_step,
    penalization_sweep,
    penalized_step,
    right_jump_correction,
    solve_penalized,
)
from rbsde_lab.errors import InvalidInstanceError, PreconditionError, StabilityError
from rbsde_lab.lattice import AdaptedField, TimeGrid, build_binomial, sup_distance
from rbsde_lab.regulated import BarrierPair, ProblemInstance, RegulatedField
from rbsde_lab.solvers import negation_dual


def test_implicit_step_zero_driver():
    assert implicit_step(1.7, 0.0, 0.1, zero_driver()) == 1.7


def test_implicit_step_constant_driver():
    assert implicit_step(1.0, 0.0, 0.1, constant_driver(2.0)) == pytest.approx(1.2, abs=1e-15)


def test_implicit_step_linear_closed_form_cross_checks_iteration():
    # y = 1 + (-0.3 y) * 0.1  =>  y = 1 / 1.03
    closed = implicit_step(1.0, 0.0, 0.1, linear_driver(0.0, -0.3))
    assert closed == pytest.approx(1.0 / 1.03, abs=1e-15)
    # same rule through the general fixed-point path
    iterated = implicit_step(1.0, 0.0, 0.1, custom_driver(lambda t, y: -0.3 * y, mu=0.3))
    assert abs(iterated - closed) < 1e-12


def test_implicit_step_stability_refusal():
    with pytest.raises(StabilityError):
        implicit_step(1.0, 0.0, 0.3, linear_driver(0.0, 2.0))  # mu*dt = 0.6


def test_implicit_step_divergence_reports_numerical_error():
    from rbsde_lab.errors import NumericalError

    # rule violating its declared Lipschitz constant: iteration cannot settle
    lying = custom_driver(lambda t, y: 100.0 * y + 1.0, mu=0.1)
    with pytest.raises(NumericalError):
        implicit_step(1.0, 0.0, 0.1, lying)


def test_penalized_step_inactive_penalty():
    y, dk, da = penalized_step(
        5.0, 0.0, 0.1, 10, PenalizationMode.PURE_LOWER, lower=0.0, upper=None,
        driver=zero_driver(),
    )
    assert (y, dk, da) == (5.0, 0.0, 0.0)


def test_penalized_step_closed_form_half():
    # y = 0 + 10 (1 - y)^+ * 0.1  =>  y = 1/2
    y, dk, da = penalized_step(
        0.0, 0.0, 0.1, 10, PenalizationMode.PURE_LOWER, lower=1.0, upper=None,
        driver=zero_driver(),
    )
    assert y == pytest.approx(0.5, abs=1e-15)
    assert dk == pytest.approx(0.5, abs=1e-15)  # n (y - L)^- dt = 10 * 0.5 * 0.1
    assert da == 0.0


def test_penalized_step_reflect_clamp():
    y, dk, da = penalized_step(
        3.0, 0.0, 0.1, 4, PenalizationMode.LOWER_PENALTY_UPPER_REFLECT,
        lower=-1.0, upper=2.0, driver=zero_driver(),
    )
    assert y == 2.0
    assert dk == 0.0
    assert da == pytest.approx(1.0, abs=1e-15)


def test_right_jump_correction_cases():
    mode = PenalizationMode.PURE_LOWER
    # y_plus at or above the barrier: identity
    assert right_jump_correction(0.9, mode, 0.5, None, lower_scheduled=True) == (0.9, 0.0, 0.0)
    # full absorption to the barrier
    y, jk, ja = right_jump_correction(0.2, mode, 0.5, None, lower_scheduled=True)
    assert (y, jk, ja) == (0.5, pytest.approx(0.3, abs=1e-15), 0.0)
    # unscheduled: identity even below the barrier
    assert right_jump_correction(0.2, mode, 0.5, None) == (0.2, 0.0, 0.0)


def _one_step_instance(lower_at_zero=0.5):
    tree = build_binomial(1, 0.0, 1.0, -1.0, 0.5)
    grid = TimeGrid.uniform(1.0, 1)
    lower = RegulatedField.from_values(
        tree, [np.asarray([lower_at_zero]), np.asarray([-1.0, -1.0])]
    )
    terminal = np.asarray([-1.0, 1.0])
    return ProblemInstance(tree, grid, terminal, zero_driver(), BarrierPair(lower, None))


def test_one_step_penalized_closed_form_and_monotone_limit():
    # e = E[xi] = 0; the level-n value solves y = n (0.5 - y)^+ dt with dt = 1
    inst = _one_step_instance()
    values = []
    for n in (1, 2, 4, 8, 64, 4096):
        sol = solve_penalized(inst, n, PenalizationMode.PURE_LOWER)
        y0 = sol.y.value[(0, 0)]
        assert y0 == pytest.approx(0.5 * n * 1.0 / (1.0 + n * 1.0), abs=1e-14)
        values.append(y0)
    assert all(a <= b for a, b in zip(values, values[1:]))
    # reflected oracle: max(E[xi], L_0) = 0.5
    assert abs(values[-1] - 0.5) < 1e-3
    from rbsde_lab.solvers import solve_reflected_lower

    assert solve_reflected_lower(inst).y.value[(0, 0)] == 0.5


def test_solve_penalized_inactive_barriers_is_plain_martingale():
    tree = build_binomial(4, 0.0, 0.5, -0.5, 0.5)
    grid = TimeGrid.uniform(1.0, 4)
    rng = np.random.default_rng(12)
    terminal = rng.uniform(-1.0, 1.0, size=5)
    inst = ProblemInstance(
        tree, grid, terminal, zero_driver(),
        BarrierPair(RegulatedField.constant(tree, -10.0), RegulatedField.constant(tree, 10.0)),
    )
    sol = solve_penalized(inst, 8, PenalizationMode.PURE_LOWER)
    # oracle: nested conditional expectations
    expect = [None] * 5
    expect[4] = terminal
    for k in range(3, -1, -1):
        nxt = expect[k + 1]
        expect[k] = np.asarray(
            [0.5 * nxt[j] + 0.5 * nxt[j + 1] for j in range(k + 1)]
        )
    for k in range(5):
        assert np.array_equal(sol.y.value.level(k), expect[k])
        assert np.all(sol.dk_star.level(k) == 0.0)
        assert np.all(sol.jump_k.level(k) == 0.0)
        assert np.all(sol.da_star.level(k) == 0.0)


def test_solve_penalized_invariants_on_random_instance():
    from rbsde_lab.oracle import InstanceRecipe, random_instance

    inst = random_instance(InstanceRecipe(seed=31, steps=(6, 8), right_jumps=2))
    for mode in PenalizationMode:
        sol = solve_penalized(inst, 16, mode)
        assert right_jump_identity_defect(sol) == 0.0 or right_jump_identity_defect(sol) < 1e-15
        assert lu4_residual(sol, inst) < 1e-10
        assert sol.dm.conditional_mean_deviation() < 1e-12
        for k in range(inst.tree.levels):
            assert np.all(sol.dk_star.level(k) >= 0.0)
            assert np.all(sol.jump_k.level(k) >= 0.0)
            assert np.all(sol.da_star.level(k) >= 0.0)
            assert np.all(sol.jump_a.level(k) >= 0.0)


def test_reflect_mode_stays_below_upper_and_flat_off():
    from rbsde_lab.oracle import InstanceRecipe, random_instance

    inst = random_instance(InstanceRecipe(seed=77, steps=(6, 9), right_jumps=2))
    sol = solve_penalized(inst, 32, PenalizationMode.LOWER_PENALTY_UPPER_REFLECT)
    for k in range(inst.tree.levels):
        assert np.all(sol.y.value.level(k) <= inst.upper.value.level(k))
    rep = skorokhod_residual(sol, inst.barriers)
    assert abs(rep.upper_residual) <= 1e-9  # reflected side is flat-off by construction


def test_negation_duality_of_penalized_solutions_exact():
    from rbsde_lab.oracle import InstanceRecipe, random_instance

    inst = random_instance(InstanceRecipe(seed=5, steps=(5, 7), right_jumps=1))
    dual = negation_dual(inst)
    for mode in PenalizationMode:
        sol = solve_penalized(inst, 8, mode)
        dual_sol = solve_penalized(dual, 8, mode.dual)
        flipped = dual_sol.negate_swap()
        for k in range(inst.tree.levels):
            assert np.array_equal(flipped.y.value.level(k), sol.y.value.level(k))
            assert np.array_equal(flipped.dk_star.level(k), sol.dk_star.level(k))
            assert np.array_equal(flipped.jump_k.level(k), sol.jump_k.level(k))
            assert np.array_equal(flipped.da_star.level(k), sol.da_star.level(k))
            assert np.array_equal(flipped.jump_a.level(k), sol.jump_a.level(k))


def test_upper_side_modes_keep_their_label_and_level():
    from rbsde_lab.oracle import InstanceRecipe, random_instance

    inst = random_instance(InstanceRecipe(seed=5, steps=(5, 7), right_jumps=1))
    for mode in (PenalizationMode.PURE_UPPER, PenalizationMode.UPPER_PENALTY_LOWER_REFLECT):
        sol = solve_penalized(inst, 8, mode)
        assert sol.method == mode.value
        assert sol.n == 8


def test_sweep_converges_and_is_monotone():
    from rbsde_lab.oracle import InstanceRecipe, random_instance

    inst = random_instance(InstanceRecipe(seed=101, steps=(6, 8)))
    res = penalization_sweep(inst, PenalizationMode.LOWER_PENALTY_UPPER_REFLECT, eps=1e-5)
    assert res.converged
    assert res.monotone_violation <= 1e-10
    dists = [row.sup_distance for row in res.trace]
    assert dists[-1] < 1e-5


def test_sweep_trace_length_one_when_barriers_inactive():
    tree = build_binomial(3, 0.0, 0.5, -0.5, 0.5)
    grid = TimeGrid.uniform(1.0, 3)
    inst = ProblemInstance(
        tree, grid, np.zeros(4), zero_driver(),
        BarrierPair(RegulatedField.constant(tree, -5.0), RegulatedField.constant(tree, 5.0)),
    )
    res = penalization_sweep(inst, PenalizationMode.LOWER_PENALTY_UPPER_REFLECT, eps=1e-5)
    assert res.converged
    assert len(res.trace) == 1
    assert res.trace[0].sup_distance == 0.0


def test_sweep_non_convergence_reported_not_raised():
    inst = _one_step_instance()
    res = penalization_sweep(
        inst, PenalizationMode.PURE_LOWER, levels=[1, 2], eps=1e-12
    )
    assert not res.converged
    assert len(res.trace) == 1


def test_increasing_and_decreasing_limits_agree():
    from rbsde_lab.oracle import InstanceRecipe, random_instance

    inst = random_instance(InstanceRecipe(seed=55, steps=(6, 8), right_jumps=1))
    eps = 1e-5
    inc = penalization_sweep(inst, PenalizationMode.LOWER_PENALTY_UPPER_REFLECT, eps=eps)
    dec = penalization_sweep(inst, PenalizationMode.UPPER_PENALTY_LOWER_REFLECT, eps=eps)
    assert inc.converged and dec.converged
    assert sup_distance(inc.final.y.value, dec.final.y.value) <= 2 * eps


def test_default_levels_doubling():
    levels = default_levels()
    assert levels[0] == 1
    assert levels[-1] == 2 ** 20
    assert all(b == 2 * a for a, b in zip(levels, levels[1:]))


def test_mode_preconditions():
    inst = _one_step_instance()
    with pytest.raises(PreconditionError):
        solve_penalized(inst, 4, PenalizationMode.PURE_UPPER)  # upper barrier absent
    with pytest.raises(PreconditionError):
        solve_penalized(inst, 0, PenalizationMode.PURE_LOWER)


UPPER_SIDE = (PenalizationMode.PURE_UPPER, PenalizationMode.UPPER_PENALTY_LOWER_REFLECT)
INSTANCES = Path(__file__).resolve().parents[1] / "instances"


@pytest.mark.parametrize("mode", UPPER_SIDE)
def test_upper_side_errors_name_the_callers_mode_and_barrier(mode):
    from rbsde_lab.io_formats import load_instance

    lower_only = load_instance(INSTANCES / "lower_only.json")
    needs_upper = f"^mode {mode.value} needs the upper barrier$"
    with pytest.raises(PreconditionError, match=needs_upper):
        solve_penalized(lower_only, 4, mode)
    with pytest.raises(PreconditionError, match=needs_upper):
        penalization_sweep(lower_only, mode)
    both = load_instance(INSTANCES / "two_sided_affine.json")
    upper_only = ProblemInstance(
        both.tree, both.grid, both.terminal, both.driver, BarrierPair(None, both.upper)
    )
    if mode.reflects:
        needs_lower = f"^mode {mode.value} needs the lower barrier to reflect on$"
        with pytest.raises(PreconditionError, match=needs_lower):
            solve_penalized(upper_only, 4, mode)
        with pytest.raises(PreconditionError, match=needs_lower):
            penalization_sweep(upper_only, mode)
    else:
        assert solve_penalized(upper_only, 4, mode).method == mode.value


def _assert_bundles_identical(a, b):
    assert (a.method, a.n, a.degenerate_nodes) == (b.method, b.n, b.degenerate_nodes)
    tree = a.tree
    for name in ("dk_star", "jump_k", "da_star", "jump_a"):
        for k in range(tree.levels):
            assert np.array_equal(getattr(a, name).level(k), getattr(b, name).level(k))
    for k in range(tree.levels):
        assert np.array_equal(a.y.value.level(k), b.y.value.level(k))
        assert np.array_equal(a.y.right_value.level(k), b.y.right_value.level(k))
    for k in range(tree.depth):
        for j in range(tree.level_size(k)):
            assert np.array_equal(a.dm.edges(k, j), b.dm.edges(k, j))


@pytest.mark.parametrize("mode", UPPER_SIDE)
def test_upper_side_sweep_is_the_negated_lower_side_sweep(mode):
    from rbsde_lab.oracle import InstanceRecipe, random_instance

    inst = random_instance(InstanceRecipe(seed=55, steps=(5, 7), right_jumps=2))
    res = penalization_sweep(inst, mode, eps=1e-6)
    assert len(res.levels) > 2
    dual = penalization_sweep(negation_dual(inst), mode.dual, eps=1e-6)
    assert res.levels == dual.levels and res.converged == dual.converged
    assert res.monotone_violation == dual.monotone_violation
    assert [r.sup_distance for r in res.trace] == [r.sup_distance for r in dual.trace]
    _assert_bundles_identical(res.final, dual.final.negate_swap("decreasing-penalization"))


@pytest.mark.parametrize("mode", UPPER_SIDE)
def test_upper_side_sweep_residuals_are_those_of_the_original_frame(mode):
    from rbsde_lab.oracle import InstanceRecipe, random_instance

    inst = random_instance(InstanceRecipe(seed=11, steps=(5, 6), right_jumps=2))
    res = penalization_sweep(inst, mode, eps=1e-6, compute_residuals=True)
    assert len(res.trace) > 1
    for row in res.trace:
        sol = solve_penalized(inst, row.n, mode)
        rep = skorokhod_residual(sol, inst.barriers)
        assert row.lower_skorokhod_residual == rep.lower_residual
        assert row.upper_skorokhod_residual == rep.upper_residual
        assert row.lu4_residual == lu4_residual(sol, inst)


def test_upper_side_sweep_validates_the_callers_instance():
    from rbsde_lab.oracle import InstanceRecipe, random_instance

    good = random_instance(InstanceRecipe(seed=3, steps=(4, 5)))
    terminal = good.terminal.copy()
    terminal[0] = good.lower.value.level(good.tree.depth)[0] - 0.5
    bad = ProblemInstance(good.tree, good.grid, terminal, good.driver, good.barriers)
    with pytest.raises(InvalidInstanceError, match="terminal_below_lower") as info:
        penalization_sweep(bad, PenalizationMode.UPPER_PENALTY_LOWER_REFLECT)
    assert "terminal_above_upper" not in str(info.value)


@pytest.mark.parametrize("mode", list(PenalizationMode))
def test_every_sweep_mode_checks_its_levels_before_the_instance(mode):
    """A ladder starting below 1 is refused before validation and the barrier check, in either frame."""
    from rbsde_lab.io_formats import load_instance
    from rbsde_lab.oracle import InstanceRecipe, random_instance

    good = random_instance(InstanceRecipe(seed=3, steps=(4, 5)))
    terminal = good.terminal.copy()
    terminal[0] = good.lower.value.level(good.tree.depth)[0] - 0.5
    invalid = ProblemInstance(good.tree, good.grid, terminal, good.driver, good.barriers)
    for instance in (invalid, load_instance(INSTANCES / "lower_only.json")):
        with pytest.raises(PreconditionError, match="^penalty level must be >= 1$"):
            penalization_sweep(instance, mode, levels=[0, 1])


def test_kernels_reject_upper_side_modes():
    with pytest.raises(PreconditionError):
        penalized_step(
            0.0, 0.0, 0.1, 4, PenalizationMode.PURE_UPPER, lower=None, upper=1.0,
            driver=zero_driver(),
        )
    with pytest.raises(PreconditionError):
        right_jump_correction(2.0, PenalizationMode.PURE_UPPER, None, 1.0)


def test_upper_side_sweep_negates_once_and_solves_once_per_level(monkeypatch):
    """One stacked pass runs the whole ladder; the final bundle is the one
    ``engine.solve_penalized`` call, which timing harnesses wrap to clock the sweep."""
    from rbsde_lab.oracle import InstanceRecipe, random_instance

    calls = {"solve_penalized": 0, "negation_dual": 0, "negate_swap": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("solve_penalized", "negation_dual"):
        monkeypatch.setattr(engine, name, counting(name, getattr(engine, name)))
    monkeypatch.setattr(
        SolutionBundle, "negate_swap", counting("negate_swap", SolutionBundle.negate_swap)
    )
    inst = random_instance(InstanceRecipe(seed=55, steps=(5, 6), right_jumps=1))
    res = penalization_sweep(inst, PenalizationMode.UPPER_PENALTY_LOWER_REFLECT, eps=1e-6)
    assert len(res.levels) > 2
    assert calls == {"solve_penalized": 1, "negation_dual": 1, "negate_swap": 1}


def test_upper_side_calls_on_one_instance_build_and_validate_one_dual(monkeypatch):
    from rbsde_lab import regulated
    from rbsde_lab.io_formats import load_instance

    calls = []
    compute = regulated._validation_report
    monkeypatch.setattr(regulated, "_validation_report", lambda inst: calls.append(inst) or compute(inst))
    inst = load_instance(Path(__file__).resolve().parents[1] / "instances" / "two_sided_affine.json")
    for mode in (PenalizationMode.PURE_UPPER, PenalizationMode.UPPER_PENALTY_LOWER_REFLECT):
        penalization_sweep(inst, mode)
        solve_penalized(inst, 8, mode)
    assert calls == [inst, negation_dual(inst)]


@pytest.mark.parametrize("levels", [[], [4, 2], [2, 2]])
def test_sweep_refuses_levels_that_do_not_increase(levels):
    with pytest.raises(PreconditionError, match="penalty levels must be strictly increasing"):
        penalization_sweep(_one_step_instance(), PenalizationMode.PURE_LOWER, levels=levels)


def test_sweep_raises_when_a_level_loses_monotonicity(monkeypatch):
    """A lower-penalty sweep whose levels solve ever smaller penalties: Y decreases."""
    from rbsde_lab.errors import SchemeMonotonicityError

    ladder = engine._ladder_pass
    monkeypatch.setattr(
        engine, "_ladder_pass", lambda inst, levels, mode, eps: ladder(inst, [2 ** 10 // n for n in levels], mode, eps)
    )
    with pytest.raises(SchemeMonotonicityError, match="pure-lower sweep lost monotonicity by .* at level 2"):
        penalization_sweep(_one_step_instance(), PenalizationMode.PURE_LOWER, levels=[1, 2, 4])


def _bits(a) -> bytes:
    """Shape, dtype and raw bytes: equal only when two arrays agree bit for bit, -0.0 included."""
    a = np.asarray(a)
    return repr((a.shape, a.dtype)).encode() + a.tobytes()


def _kernel_case(upper_absent: bool):
    """Dyadic level data (exact arithmetic) with entries at the penalty switch and -0.0 entries."""
    rng = np.random.default_rng(3)
    t, dt, width = 0.25, 0.125, 12
    lower = rng.integers(-64, 64, width) / 64.0
    upper = np.full(width, np.inf) if upper_absent else lower + rng.integers(1, 32, width) / 64.0
    e = rng.integers(-96, 96, (4, width)) / 64.0
    # affine driver 0.5 - 0.5 y: c = e + 1/16 and scale = 17/16, so c == L+ * scale at e = L+ * 17/16 - 1/16
    e[:, :3] = lower[:3] * 1.0625 - 0.0625
    e[:, 3], lower[4] = -0.0, -0.0
    if not upper_absent:
        upper[5] = -0.0
        e[:, 5], lower[5] = 0.25, -0.25
    return e, t, dt, lower, upper


@pytest.mark.parametrize("upper_absent", [False, True])
@pytest.mark.parametrize("clamp", [False, True])
@pytest.mark.parametrize("driver", [
    linear_driver(0.5, -0.5),
    custom_driver(lambda t, y: 0.4 * np.sin(2.0 * y) + 0.1 - 0.2 * t, mu=0.8),
], ids=["affine", "sine"])
def test_stacked_penalized_values_equal_one_call_per_row(driver, clamp, upper_absent):
    """The value kernel on a (ladder, width) block with n as a column is its call on each row."""
    e, t, dt, lower, upper = _kernel_case(upper_absent)
    levels = [1, 2, 64, 2 ** 20]
    column = np.array(levels, dtype=float)[:, None]
    block = engine._penalized_values(e, t, dt, lower, upper, column, clamp, driver)
    if driver.affine:
        assert np.any(e + 0.0625 == lower * 1.0625)  # entries sit exactly at the switch
    for i, n in enumerate(levels):
        row = engine._penalized_values(e[i], t, dt, lower, upper, n, clamp, driver)
        assert _bits(block[0][i]) == _bits(row[0]) and _bits(block[1][i]) == _bits(row[1])
        if clamp:
            assert _bits(block[2][i]) == _bits(row[2])
        else:
            assert block[2] is False and row[2] is False
    assert np.signbit(block[0][:, 5]).all() == (clamp and not upper_absent)  # clamped to U+ = -0.0


def test_corrected_value_is_the_value_of_jump_corrections():
    e, _, _, lower, upper = _kernel_case(upper_absent=False)
    rng = np.random.default_rng(5)
    at_lower, at_upper = rng.random(e.shape) < 0.5, rng.random(e.shape[1]) < 0.5
    value = engine.corrected_value(e, lower, upper, at_lower, at_upper)
    assert _bits(value) == _bits(engine.jump_corrections(e, lower, upper, at_lower, at_upper)[0])
