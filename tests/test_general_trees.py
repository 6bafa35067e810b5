"""End-to-end checks on arbitrary finite trees (variable child counts)."""
import math

import numpy as np
import pytest

from rbsde_lab.bundles import (
    lu4_residual,
    right_jump_identity_defect,
    sandwich_violation,
    skorokhod_residual,
)
from rbsde_lab.drivers import custom_driver, linear_driver
from rbsde_lab.engine import (
    PenalizationMode,
    implicit_level,
    implicit_step,
    jump_corrections,
    penalization_sweep,
    penalized_level,
    penalized_step,
    right_jump_correction,
    solve_penalized,
)
from rbsde_lab.errors import NumericalError
from rbsde_lab.lattice import (
    AdaptedField,
    FiltrationTree,
    TimeGrid,
    enumerate_paths,
    expect_level,
    martingale_increments,
    sup_distance,
)
from rbsde_lab.oracle import dynkin_value_bruteforce, game_value_field
from rbsde_lab.regulated import BarrierPair, ProblemInstance, RegulatedField, validate_instance
from rbsde_lab.solvers import solve_doubly_reflected
from rbsde_lab.stopping import PathContext, StoppingRule, alternating_sequence, local_solution, patch_global


def random_tree(rng: np.random.Generator, depth: int, max_children: int = 3) -> FiltrationTree:
    states = [[float(rng.normal())]]
    children, probs = [], []
    for k in range(depth):
        width = len(states[k])
        counts = rng.integers(1, max_children + 1, size=width)
        next_width = int(np.sum(counts))
        child_lists, prob_lists = [], []
        cursor = 0
        for j in range(width):
            ids = list(range(cursor, cursor + int(counts[j])))
            cursor += int(counts[j])
            raw = rng.uniform(0.2, 1.0, size=len(ids))
            child_lists.append(ids)
            prob_lists.append(list(raw / np.sum(raw)))
        children.append(child_lists)
        probs.append(prob_lists)
        parent_states = states[k]
        level_states = np.empty(next_width)
        for j in range(width):
            for c in children[k][j]:
                level_states[c] = parent_states[j] + float(rng.normal(0.0, 0.4))
        states.append(list(level_states))
    return FiltrationTree(states, children, probs)


def general_instance(seed: int, depth: int = 6):
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, depth)
    grid = TimeGrid.uniform(1.0, depth)
    lower_levels = [tree.states[k] * 0.3 - 0.5 for k in range(depth + 1)]
    upper_levels = [lo + 0.4 + rng.uniform(0.0, 0.3) for lo, k in zip(lower_levels, range(depth + 1))]
    lower = RegulatedField.from_values(tree, lower_levels)
    upper = RegulatedField.from_values(tree, upper_levels)
    jump_level = int(rng.integers(0, depth))
    jump_node = int(rng.integers(0, tree.level_size(jump_level)))
    lower = lower.with_right_jumps(
        [(jump_level, jump_node, float(lower.value.level(jump_level)[jump_node]) - 0.2)]
    )
    leaf_lo = lower.value.level(depth)
    leaf_hi = upper.value.level(depth)
    terminal = leaf_lo + rng.uniform(0.05, 0.95, size=leaf_lo.size) * (leaf_hi - leaf_lo)
    driver = linear_driver(float(rng.uniform(-0.3, 0.3)), float(rng.uniform(-1.0, 1.0)))
    inst = ProblemInstance(tree, grid, terminal, driver, BarrierPair(lower, upper))
    assert validate_instance(inst).ok
    return inst


def test_martingale_property_on_general_trees():
    rng = np.random.default_rng(7)
    tree = random_tree(rng, 5)
    field = AdaptedField(
        tree, [rng.normal(size=tree.level_size(k)) for k in range(tree.levels)]
    )
    dm = martingale_increments(field)
    assert dm.conditional_mean_deviation() <= 1e-12
    paths = enumerate_paths(tree)
    assert abs(sum(p.probability for p in paths) - 1.0) < 1e-12


@pytest.mark.parametrize("seed", [101, 202, 303, 404])
def test_solver_invariants_on_general_trees(seed):
    inst = general_instance(seed)
    sol = solve_doubly_reflected(inst)
    assert sandwich_violation(sol, inst.barriers) <= 1e-10
    assert lu4_residual(sol, inst) <= 1e-10
    assert right_jump_identity_defect(sol) <= 1e-15
    rep = skorokhod_residual(sol, inst.barriers)
    assert abs(rep.lower_residual) <= 1e-9
    assert abs(rep.upper_residual) <= 1e-9
    assert sol.dm.conditional_mean_deviation() <= 1e-12


@pytest.mark.parametrize("seed", [111, 222])
def test_sweeps_converge_to_projection_on_general_trees(seed):
    inst = general_instance(seed)
    sol = solve_doubly_reflected(inst)
    for mode in (
        PenalizationMode.LOWER_PENALTY_UPPER_REFLECT,
        PenalizationMode.UPPER_PENALTY_LOWER_REFLECT,
    ):
        sweep = penalization_sweep(inst, mode, eps=1e-5)
        assert sweep.converged
        assert sweep.monotone_violation <= 1e-10
        assert sup_distance(sweep.final.y.value, sol.y.value) <= 1e-4


def test_game_identity_on_general_tree():
    rng = np.random.default_rng(55)
    tree = random_tree(rng, 4, max_children=2)
    depth = 4
    grid = TimeGrid.uniform(1.0, depth)
    lower = RegulatedField.from_values(tree, [tree.states[k] * 0.2 - 0.4 for k in range(depth + 1)])
    upper = RegulatedField.from_values(
        tree, [lower.value.level(k) + 0.5 for k in range(depth + 1)]
    )
    terminal = (lower.value.level(depth) + upper.value.level(depth)) / 2.0
    from rbsde_lab.drivers import constant_driver

    inst = ProblemInstance(tree, grid, terminal, constant_driver(0.15), BarrierPair(lower, upper))
    from rbsde_lab.oracle import exhaustive_game_values

    sup_inf, inf_sup = exhaustive_game_values(inst)
    fast = dynkin_value_bruteforce(inst)
    assert sup_inf == inf_sup == fast
    sol = solve_doubly_reflected(inst)
    assert sup_distance(game_value_field(inst), sol.y.value) <= 1e-10


def test_non_uniform_time_grid():
    rng = np.random.default_rng(91)
    tree = random_tree(rng, 5)
    grid = TimeGrid([0.0, 0.05, 0.3, 0.45, 0.8, 1.0])
    lower = RegulatedField.from_values(tree, [tree.states[k] * 0.2 - 0.3 for k in range(6)])
    upper = RegulatedField.from_values(tree, [lower.value.level(k) + 0.45 for k in range(6)])
    terminal = lower.value.level(5) + 0.1
    inst = ProblemInstance(tree, grid, terminal, linear_driver(0.1, -0.9), BarrierPair(lower, upper))
    assert validate_instance(inst).ok
    sol = solve_doubly_reflected(inst)
    assert lu4_residual(sol, inst) <= 1e-10
    sweep = penalization_sweep(inst, PenalizationMode.LOWER_PENALTY_UPPER_REFLECT, eps=1e-5)
    assert sweep.converged
    assert sup_distance(sweep.final.y.value, sol.y.value) <= 1e-4


@pytest.mark.parametrize("seed", [13, 29])
def test_patching_on_general_trees(seed):
    inst = general_instance(seed, depth=7)
    sol = solve_doubly_reflected(inst)
    rules, stat = alternating_sequence(sol.y, inst.barriers)
    assert stat.max_index <= inst.tree.depth + 1
    shared = PathContext(inst, sol)
    pieces = [
        local_solution(inst, rules[i], rules[i + 1], context=shared)
        for i in range(len(rules) - 1)
    ]
    patched = patch_global(inst, pieces)
    assert sup_distance(patched.y.value, sol.y.value) <= 1e-9
    for rule in rules[1:]:
        assert rule.adaptedness_violations() == []


class CountingRule:
    """0.3 sin(y) - 0.1 y + t, a non-affine rule; counts its calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, t: float, y: float) -> float:
        self.calls += 1
        return 0.3 * math.sin(y) - 0.1 * y + t


def custom_instance(rule, seed: int = 11, depth: int = 6) -> ProblemInstance:
    """A fan-out 1-4 tree, both barriers active and carrying right jumps."""
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, depth, max_children=4)
    grid = TimeGrid.uniform(1.0, depth)
    lower = RegulatedField.from_values(
        tree, [tree.states[k] * 0.3 - 0.2 - 0.5 * grid.instants[k] for k in range(depth + 1)]
    )
    upper = RegulatedField.from_values(tree, [lower.value.level(k) + 0.35 for k in range(depth + 1)])
    # declared jumps at the lowest (L) and highest (U) state of each inner level
    low, high = (
        [(k, int(pick(tree.states[k]))) for k in range(1, depth)] for pick in (np.argmin, np.argmax)
    )
    lower = lower.with_right_jumps([(k, j, lower.value[(k, j)] - 0.2) for k, j in low])
    upper = upper.with_right_jumps([(k, j, upper.value[(k, j)] + 0.2) for k, j in high])
    terminal = lower.value.level(depth) + rng.uniform(0.0, 0.35, size=tree.level_size(depth))
    inst = ProblemInstance(tree, grid, terminal, custom_driver(rule, mu=0.4), BarrierPair(lower, upper))
    assert validate_instance(inst).ok
    return inst


def test_custom_driver_level_solves_repeat_their_scalar_calls():
    rule = CountingRule()
    inst = custom_instance(rule)
    tree, driver = inst.tree, inst.driver
    sol = solve_doubly_reflected(inst)
    k = max(range(tree.depth), key=tree.level_size)
    t, dt = float(inst.grid.instants[k]), inst.grid.dt(k)
    e = expect_level(tree, k, sol.y.value.level(k + 1))
    lower, upper = inst.lower.value.level(k), inst.upper.value.level(k)
    clamp = np.arange(e.size) % 3 != 0

    def hexes(*values):
        return [float(v).hex() for v in values]

    rule.calls = 0
    level = implicit_level(e, t, dt, driver)
    level_calls, per_entry = rule.calls, []
    for j, e_j in enumerate(e.tolist()):
        rule.calls = 0
        assert hexes(implicit_step(e_j, t, dt, driver)) == hexes(level[j])
        per_entry.append(rule.calls)
    assert len(set(per_entry)) > 1  # the entries need different iteration counts
    assert level_calls == sum(per_entry)  # a converged entry is not evaluated again

    mode = PenalizationMode.LOWER_PENALTY_UPPER_REFLECT
    rule.calls = 0
    rows = penalized_level(e, t, dt, 64, lower, upper, clamp, driver)
    level_calls = rule.calls
    rule.calls = 0
    for j, e_j in enumerate(e.tolist()):
        up = float(upper[j]) if clamp[j] else None
        one = penalized_step(e_j, t, dt, 64, mode, float(lower[j]), up, driver)
        assert hexes(*one) == hexes(*(row[j] for row in rows))
    assert level_calls == rule.calls  # the clamp calls the driver at clamped entries only
    assert np.any(rows[1] > 0.0) and np.any(rows[2] > 0.0)  # both sides pushed

    jumps = jump_corrections(e, lower, upper, clamp, ~clamp)
    for j, e_j in enumerate(e.tolist()):
        one = right_jump_correction(
            e_j, mode, float(lower[j]), float(upper[j]),
            lower_scheduled=bool(clamp[j]), upper_declared=not clamp[j],
        )
        assert hexes(*one) == hexes(*(row[j] for row in jumps))
    assert np.any(jumps[1] > 0.0) and np.any(jumps[2] > 0.0)


def test_custom_driver_through_the_solvers():
    inst = custom_instance(CountingRule())
    sol = solve_doubly_reflected(inst)
    assert lu4_residual(sol, inst) <= 1e-12
    for name in ("dk_star", "da_star", "jump_k", "jump_a"):
        assert any(np.any(getattr(sol, name).level(k) > 0.0) for k in range(inst.tree.depth)), name
    for mode in PenalizationMode:
        assert lu4_residual(solve_penalized(inst, 64, mode), inst) <= 1e-12
    lying = ProblemInstance(
        inst.tree, inst.grid, inst.terminal,
        custom_driver(lambda t, y: 100.0 * y + 1.0, mu=0.1), inst.barriers,
    )
    with pytest.raises(NumericalError, match="implicit step failed to converge"):
        solve_doubly_reflected(lying)
