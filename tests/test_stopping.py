from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rbsde_lab.drivers import zero_driver
from rbsde_lab.engine import PenalizationMode, solve_penalized
from rbsde_lab.errors import AlternationStuckError, PatchingError, PreconditionError
from rbsde_lab.io_formats import load_instance
from rbsde_lab.lattice import AdaptedField, FiltrationTree, TimeGrid, build_binomial
from rbsde_lab.oracle import InstanceRecipe, random_instance
from rbsde_lab.regulated import BarrierPair, ProblemInstance, RegulatedField
from rbsde_lab.solvers import solve_doubly_reflected
from rbsde_lab.stopping import (
    StoppingRule,
    alternating_sequence,
    hitting_time_lower,
    hitting_time_upper,
    local_solution,
    patch_global,
    verify_local_properties,
)


@pytest.fixture
def instance():
    return random_instance(InstanceRecipe(seed=17, steps=(8, 10), right_jumps=2))


def test_hitting_time_degenerate_cases(instance):
    tree = instance.tree
    tau0 = StoppingRule.at_zero(tree)
    assert np.all(tau0.levels() == 0)
    y_equals_u = instance.upper
    delta = hitting_time_upper(y_equals_u, instance.upper, tau0)
    assert np.all(delta.levels() == 0)  # Y == U everywhere: hit immediately
    below = RegulatedField(instance.upper.value.map(lambda v: v - 10.0))
    delta = hitting_time_upper(below, instance.upper, tau0)
    assert np.all(delta.levels() == tree.depth)  # never hits: capped at N


def test_hitting_time_monotone_along_increasing_sweep(instance):
    tree = instance.tree
    tau0 = StoppingRule.at_zero(tree)
    prev_levels = None
    for n in (1, 4, 16, 64, 256):
        sol = solve_penalized(instance, n, PenalizationMode.LOWER_PENALTY_UPPER_REFLECT)
        delta = hitting_time_upper(sol.y, instance.upper, tau0).levels()
        if prev_levels is not None:
            assert np.all(delta <= prev_levels)  # increasing scheme: hits no later
        prev_levels = delta


def test_hitting_time_monotone_along_decreasing_sweep(instance):
    tree = instance.tree
    tau0 = StoppingRule.at_zero(tree)
    prev_levels = None
    for n in (1, 4, 16, 64, 256):
        sol = solve_penalized(instance, n, PenalizationMode.UPPER_PENALTY_LOWER_REFLECT)
        theta = hitting_time_lower(sol.y, instance.lower, tau0).levels()
        if prev_levels is not None:
            assert np.all(theta <= prev_levels)  # decreasing scheme: hits no later
        prev_levels = theta


def test_stopping_rule_adaptedness(instance):
    sol = solve_doubly_reflected(instance)
    tau0 = StoppingRule.at_zero(instance.tree)
    delta = hitting_time_upper(sol.y, instance.upper, tau0)
    theta = hitting_time_lower(sol.y, instance.lower, delta)
    assert delta.adaptedness_violations() == []
    assert theta.adaptedness_violations() == []


def test_verify_local_properties_pass_and_detector(instance):
    sol = solve_doubly_reflected(instance)
    tau0 = StoppingRule.at_zero(instance.tree)
    report = verify_local_properties(sol.y, instance.barriers, tau0)
    assert report.passed

    # corrupt Y below the lower barrier at one interior node
    levels = [np.array(sol.y.value.level(k)) for k in range(instance.tree.levels)]
    levels[2][0] = instance.lower.value.level(2)[0] - 0.5
    bad = RegulatedField(AdaptedField(instance.tree, levels))
    report = verify_local_properties(bad, instance.barriers, tau0)
    assert not report.passed
    assert any("(2,0)" in msg for msg in report.failures)


def test_local_properties_vacuous_when_barriers_inactive():
    tree = build_binomial(4, 0.0, 0.5, -0.5, 0.5)
    grid = TimeGrid.uniform(1.0, 4)
    inst = ProblemInstance(
        tree, grid, np.zeros(5), zero_driver(),
        BarrierPair(RegulatedField.constant(tree, -4.0), RegulatedField.constant(tree, 4.0)),
    )
    sol = solve_doubly_reflected(inst)
    tau0 = StoppingRule.at_zero(tree)
    delta = hitting_time_upper(sol.y, inst.upper, tau0)
    assert np.all(delta.levels() == tree.depth)
    report = verify_local_properties(sol.y, inst.barriers, tau0)
    assert report.passed and report.upper_hit_deviation == 0.0


def test_local_solution_full_interval_is_global(instance):
    sol = solve_doubly_reflected(instance)
    tree = instance.tree
    piece = local_solution(
        instance, StoppingRule.at_zero(tree), StoppingRule.at_terminal(tree), bundle=sol
    )
    assert piece.report.budget_residual <= 1e-10
    assert piece.report.sandwich_violation <= 1e-10
    assert abs(piece.report.lower_skorokhod) <= 1e-9
    assert abs(piece.report.upper_skorokhod) <= 1e-9
    # rebased K over the whole axis equals the bundle's cumulative K
    assert np.allclose(piece.k_paths, sol.cumulative_k_paths(), atol=1e-14)


def test_local_solution_one_sided_structure(instance):
    sol = solve_doubly_reflected(instance)
    tree = instance.tree
    tau0 = StoppingRule.at_zero(tree)
    delta = hitting_time_upper(sol.y, instance.upper, tau0)
    piece = local_solution(instance, tau0, delta, bundle=sol)
    # before the first upper hit the down-push is identically zero
    assert np.all(piece.da_star_paths == 0.0)
    assert np.all(piece.jump_a_paths == 0.0)
    theta = hitting_time_lower(sol.y, instance.lower, delta)
    piece2 = local_solution(instance, delta, theta, bundle=sol)
    assert np.all(piece2.dk_star_paths == 0.0)
    assert np.all(piece2.jump_k_paths == 0.0)


def test_local_solution_random_intervals(instance):
    sol = solve_doubly_reflected(instance)
    tree = instance.tree
    rng = np.random.default_rng(4)
    mask_a = [rng.random(tree.level_size(k)) < 0.2 for k in range(tree.levels)]
    tau = StoppingRule(tree, mask_a)
    sigma = StoppingRule(tree, [rng.random(tree.level_size(k)) < 0.3 for k in range(tree.levels)], prior=tau)
    piece = local_solution(instance, tau, sigma, bundle=sol)
    assert piece.report.budget_residual <= 1e-10
    assert abs(piece.report.lower_skorokhod) <= 1e-9
    assert abs(piece.report.upper_skorokhod) <= 1e-9


def test_local_solution_rejects_inverted_interval(instance):
    tree = instance.tree
    with pytest.raises(PreconditionError):
        local_solution(instance, StoppingRule.at_terminal(tree), StoppingRule.at_zero(tree))


def test_alternating_sequence_untouched_barriers():
    tree = build_binomial(4, 0.0, 0.5, -0.5, 0.5)
    grid = TimeGrid.uniform(1.0, 4)
    inst = ProblemInstance(
        tree, grid, np.zeros(5), zero_driver(),
        BarrierPair(RegulatedField.constant(tree, -4.0), RegulatedField.constant(tree, 4.0)),
    )
    sol = solve_doubly_reflected(inst)
    rules, report = alternating_sequence(sol.y, inst.barriers)
    assert report.max_index == 1
    assert np.all(rules[1].levels() == tree.depth)


def test_alternating_sequence_sawtooth_known_count():
    # barriers forcing alternation: Y is pinned to U then L then U on the spine
    tree = build_binomial(4, 0.0, 1.0, -1.0, 0.5)
    grid = TimeGrid.uniform(1.0, 4)
    lo = [np.full(k + 1, -3.0) for k in range(5)]
    up = [np.full(k + 1, 3.0) for k in range(5)]
    # pin the whole level: U = 0 at level 1, L = 0 at level 2, U = 0 at level 3
    up[1][:] = 0.0
    lo[2][:] = 0.0
    up[3][:] = 0.0
    lo = RegulatedField.from_values(tree, lo)
    up = RegulatedField.from_values(tree, up)
    inst = ProblemInstance(tree, grid, np.zeros(5), zero_driver(), BarrierPair(lo, up))
    sol = solve_doubly_reflected(inst)
    rules, report = alternating_sequence(sol.y, inst.barriers)
    # tau_1 hits U at level 1, tau_2 hits L at level 2, tau_3 hits U at level 3,
    # tau_4 = N: stationarity index 4 on every path
    assert np.all(rules[1].levels() == 1)
    assert np.all(rules[2].levels() == 2)
    assert np.all(rules[3].levels() == 3)
    assert report.max_index == 4


def test_alternating_sequence_stuck_detector():
    tree = build_binomial(3, 0.0, 1.0, -1.0, 0.5)
    grid = TimeGrid.uniform(1.0, 3)
    lo = [np.full(k + 1, -1.0) for k in range(4)]
    up = [np.full(k + 1, 1.0) for k in range(4)]
    lo[1][:] = 0.0
    up[1][:] = 0.0  # touching barriers at level 1
    inst = ProblemInstance(
        tree, grid, np.zeros(4), zero_driver(),
        BarrierPair(RegulatedField.from_values(tree, lo), RegulatedField.from_values(tree, up)),
    )
    sol = solve_doubly_reflected(inst)
    with pytest.raises(AlternationStuckError) as err:
        alternating_sequence(sol.y, inst.barriers)
    assert err.value.gap == 0.0


def test_patch_single_piece_identity(instance):
    sol = solve_doubly_reflected(instance)
    tree = instance.tree
    piece = local_solution(
        instance, StoppingRule.at_zero(tree), StoppingRule.at_terminal(tree), bundle=sol
    )
    patched = patch_global(instance, [piece])
    for k in range(tree.levels):
        assert np.allclose(patched.y.value.level(k), sol.y.value.level(k), atol=1e-12)
    assert patched.method == "patched"


def test_patch_over_alternating_intervals_reproduces_direct(instance):
    sol = solve_doubly_reflected(instance)
    rules, report = alternating_sequence(sol.y, instance.barriers)
    pieces = [
        local_solution(instance, rules[i], rules[i + 1], bundle=sol)
        for i in range(len(rules) - 1)
    ]
    patched = patch_global(instance, pieces)
    from rbsde_lab.lattice import sup_distance

    assert sup_distance(patched.y.value, sol.y.value) <= 1e-9
    ka_patched = patched.cumulative_k_paths() - patched.cumulative_a_paths()
    ka_direct = sol.cumulative_k_paths() - sol.cumulative_a_paths()
    assert np.max(np.abs(ka_patched - ka_direct)) <= 1e-9


def _sawtooth_instance():
    tree = build_binomial(4, 0.0, 1.0, -1.0, 0.5)
    grid = TimeGrid.uniform(1.0, 4)
    lo = [np.full(k + 1, -3.0) for k in range(5)]
    up = [np.full(k + 1, 3.0) for k in range(5)]
    up[1][:] = 0.0
    lo[2][:] = 0.0
    up[3][:] = 0.0
    return ProblemInstance(
        tree, grid, np.zeros(5), zero_driver(),
        BarrierPair(RegulatedField.from_values(tree, lo), RegulatedField.from_values(tree, up)),
    )


def test_patch_seam_perturbation_detected():
    inst = _sawtooth_instance()
    sol = solve_doubly_reflected(inst)
    rules, _ = alternating_sequence(sol.y, inst.barriers)
    assert len(rules) >= 3
    pieces = [
        local_solution(inst, rules[i], rules[i + 1], bundle=sol)
        for i in range(len(rules) - 1)
    ]
    pieces[1].y_paths.flags.writeable = True
    rows = np.arange(pieces[1].y_paths.shape[0])
    pieces[1].y_paths[rows, pieces[1].tau_levels] += 1e-6
    with pytest.raises(PatchingError):
        patch_global(inst, pieces)


def test_patch_over_sawtooth_alternations():
    inst = _sawtooth_instance()
    sol = solve_doubly_reflected(inst)
    rules, report = alternating_sequence(sol.y, inst.barriers)
    pieces = [
        local_solution(inst, rules[i], rules[i + 1], bundle=sol)
        for i in range(len(rules) - 1)
    ]
    patched = patch_global(inst, pieces)
    from rbsde_lab.lattice import sup_distance

    assert sup_distance(patched.y.value, sol.y.value) <= 1e-9


def at_level(tree, k: int) -> StoppingRule:
    """The rule stopping at level k on every path."""
    return StoppingRule(tree, [np.full(tree.level_size(i), i == k) for i in range(tree.levels)])


@pytest.mark.parametrize(
    "bounds, message",
    [
        ([(1, None)], "^first piece must open at time zero on every path$"),
        ([(0, 1), (2, None)], "^pieces 0 and 1 do not tile on path 0$"),
        ([(0, 1)], "^last piece must close at the terminal level on every path$"),
    ],
)
def test_patch_refuses_pieces_that_do_not_tile(instance, bounds, message):
    sol = solve_doubly_reflected(instance)
    tree = instance.tree
    depth = tree.depth
    pieces = [
        local_solution(instance, at_level(tree, a), at_level(tree, depth if b is None else b), bundle=sol)
        for a, b in bounds
    ]
    with pytest.raises(PatchingError, match=message):
        patch_global(instance, pieces)


def test_patch_refuses_paths_that_disagree_at_a_node(instance):
    sol = solve_doubly_reflected(instance)
    tree = instance.tree
    piece = local_solution(
        instance, StoppingRule.at_zero(tree), StoppingRule.at_terminal(tree), bundle=sol
    )
    y_paths = piece.y_paths.copy()
    y_paths[0, 1] += 0.5  # path 0 only; other paths pass through the same level-1 node
    with pytest.raises(PatchingError, match="^patched Y disagrees across paths at level 1 by "):
        patch_global(instance, [replace(piece, y_paths=y_paths)])


def test_patch_refuses_a_solution_off_the_direct_solve(instance):
    sol = solve_doubly_reflected(instance)
    shift = RegulatedField(sol.y.value.map(lambda v: v + 1e-3), sol.y.right_value.map(lambda v: v + 1e-3))
    tree = instance.tree
    piece = local_solution(
        instance, StoppingRule.at_zero(tree), StoppingRule.at_terminal(tree), bundle=replace(sol, y=shift)
    )
    with pytest.raises(PatchingError, match=r"^patched solution deviates from the direct solve: Y by 0\.00"):
        patch_global(instance, [piece])


def test_sandwich_failure_names_a_reached_node():
    # node (1,1) has no parent: Y far below L there must neither count nor be named
    tree = FiltrationTree([[0.0], [0.0, 1.0], [0.0]], [[[0]], [[0], [0]]], [[[1.0]], [[1.0], [1.0]]])
    y = RegulatedField.from_values(tree, [np.zeros(1), np.array([-1.2, -3.0]), np.zeros(1)])
    barriers = BarrierPair(RegulatedField.constant(tree, -1.0), RegulatedField.constant(tree, 1.0))
    rep = verify_local_properties(y, barriers, StoppingRule.at_zero(tree))
    assert rep.lower_sandwich_violation == pytest.approx(0.2)
    assert f"Y drops below the lower barrier at node (1,0) by {rep.lower_sandwich_violation}" in rep.failures


def test_stop_mask_levels_must_hold_one_boolean_per_node():
    tree = load_instance(Path(__file__).resolve().parents[1] / "instances" / "two_sided_affine.json").tree
    masks = [np.zeros(tree.level_size(k), dtype=bool) for k in range(tree.levels)]
    masks[2][:] = True
    assert np.all(StoppingRule(tree, masks).levels() == 2)
    longer = list(masks)
    longer[1] = np.zeros(tree.level_size(1) + 1, dtype=bool)  # every later flat offset would shift
    width_one = list(masks)
    width_one[3] = np.ones(1, dtype=bool)  # a node-side walk would broadcast it over the level
    numbers = list(masks)
    numbers[4] = masks[4].astype(np.int8)
    for bad, k in ((longer, 1), (width_one, 3), (numbers, 4)):
        with pytest.raises(PreconditionError, match=rf"^stop mask level {k}: expected {tree.level_size(k)} booleans"):
            StoppingRule(tree, bad)
