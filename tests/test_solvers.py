import numpy as np
import pytest

from rbsde_lab.bundles import (
    SolutionBundle,
    lu4_residual,
    right_jump_identity_defect,
    sandwich_violation,
    skorokhod_residual,
)
from rbsde_lab.drivers import linear_driver, zero_driver
from rbsde_lab.engine import PenalizationMode, penalization_sweep
from rbsde_lab.errors import PreconditionError
from rbsde_lab.lattice import AdaptedField, EdgeField, TimeGrid, build_binomial, sup_distance
from rbsde_lab.oracle import (
    InstanceRecipe,
    _enumerate_stop_rules,
    game_value_field,
    random_instance,
)
from rbsde_lab.regulated import BarrierPair, ProblemInstance, RegulatedField
from rbsde_lab.solvers import (
    negation_dual,
    solve_doubly_reflected,
    solve_reflected_lower,
    solve_reflected_upper,
)


def _lower_only(tree, grid, terminal, lower, driver=None):
    return ProblemInstance(
        tree, grid, terminal, driver or zero_driver(), BarrierPair(lower, None)
    )


def test_plain_equation_when_no_barriers():
    tree = build_binomial(4, 0.0, 0.6, -0.6, 0.5)
    grid = TimeGrid.uniform(1.0, 4)
    rng = np.random.default_rng(0)
    terminal = rng.normal(size=5)
    inst = ProblemInstance(tree, grid, terminal, zero_driver(), BarrierPair(None, None))
    sol = solve_reflected_lower(inst)
    expect = [None] * 5
    expect[4] = terminal
    for k in range(3, -1, -1):
        expect[k] = np.asarray(
            [0.5 * expect[k + 1][j] + 0.5 * expect[k + 1][j + 1] for j in range(k + 1)]
        )
    for k in range(5):
        assert np.array_equal(sol.y.value.level(k), expect[k])
        assert np.all(sol.dk_star.level(k) == 0.0)
        assert np.all(sol.jump_k.level(k) == 0.0)


def _stopping_value_bruteforce(tree, probs_and_paths, payoff_paths, terminal_paths):
    """Max over all adapted stopping rules of E[payoff_tau 1_{tau<N} + xi 1_{tau=N}]."""
    nodes, _, probs = probs_and_paths
    depth = nodes.shape[1] - 1
    best = -np.inf
    rows = np.arange(nodes.shape[0])
    for rule in _enumerate_stop_rules(tree, 1_000_000):
        hit = np.empty(nodes.shape, dtype=bool)
        for k in range(depth):
            hit[:, k] = rule[k][nodes[:, k]]
        hit[:, depth] = True
        tau = np.argmax(hit, axis=1)
        stopped = np.where(tau < depth, payoff_paths[rows, tau], terminal_paths)
        best = max(best, float(np.sum(probs * stopped)))
    return best


def test_lower_reflected_is_optimal_stopping_envelope():
    tree = build_binomial(5, 0.0, 1.0, -1.0, 0.5)
    grid = TimeGrid.uniform(1.0, 5)
    rng = np.random.default_rng(21)
    lower_levels = [0.4 * tree.states[k] - 0.1 + rng.uniform(-0.3, 0.3, k + 1) for k in range(6)]
    lower = RegulatedField.from_values(tree, lower_levels)
    terminal = lower_levels[5] + rng.uniform(0.0, 0.8, 6)
    inst = _lower_only(tree, grid, terminal, lower)
    sol = solve_reflected_lower(inst)

    nodes, choices, probs = tree.path_arrays()
    payoff_paths = lower.value.path_matrix()
    terminal_paths = terminal[nodes[:, -1]]
    oracle = _stopping_value_bruteforce(
        tree, (nodes, choices, probs), payoff_paths, terminal_paths
    )
    assert sol.y.value[(0, 0)] == pytest.approx(oracle, abs=1e-12)
    # flat-off by construction
    rep = skorokhod_residual(sol, inst.barriers)
    assert abs(rep.lower_residual) <= 1e-12
    assert lu4_residual(sol, inst) <= 1e-12


def test_lower_reflected_agrees_with_pure_lower_sweep():
    inst = random_instance(InstanceRecipe(seed=9, steps=(6, 8), one_sided="lower", right_jumps=2))
    eps = 1e-6
    sweep = penalization_sweep(inst, PenalizationMode.PURE_LOWER, eps=eps)
    assert sweep.converged
    sol = solve_reflected_lower(inst)
    assert sup_distance(sweep.final.y.value, sol.y.value) <= 10 * eps


def test_upper_reflected_duality_is_exact():
    inst = random_instance(InstanceRecipe(seed=13, steps=(5, 7), one_sided="upper", right_jumps=2))
    sol = solve_reflected_upper(inst)
    dual_sol = solve_reflected_lower(negation_dual(inst))
    for k in range(inst.tree.levels):
        assert np.array_equal(sol.y.value.level(k), -dual_sol.y.value.level(k))
        assert np.array_equal(sol.da_star.level(k), dual_sol.dk_star.level(k))
        assert np.array_equal(sol.jump_a.level(k), dual_sol.jump_k.level(k))
    rep = skorokhod_residual(sol, inst.barriers)
    assert abs(rep.upper_residual) <= 1e-12


def test_doubly_reflected_trivial_sandwich():
    tree = build_binomial(4, 0.0, 0.5, -0.5, 0.5)
    grid = TimeGrid.uniform(1.0, 4)
    inst = ProblemInstance(
        tree, grid, np.full(5, 0.25), zero_driver(),
        BarrierPair(RegulatedField.constant(tree, -1.0), RegulatedField.constant(tree, 1.0)),
    )
    sol = solve_doubly_reflected(inst)
    for k in range(5):
        assert np.all(sol.y.value.level(k) == 0.25)
        assert np.all(sol.dk_star.level(k) == 0.0)
        assert np.all(sol.da_star.level(k) == 0.0)


def test_doubly_reflected_matches_game_value_everywhere():
    for seed in (1, 2, 3, 4, 5):
        inst = random_instance(
            InstanceRecipe(seed=seed, steps=(5, 5), driver_family="constant", right_jumps=1)
        )
        sol = solve_doubly_reflected(inst)
        game = game_value_field(inst)
        assert sup_distance(sol.y.value, game) <= 1e-10


def test_doubly_reflected_invariants_on_random_instances():
    for seed in range(6):
        inst = random_instance(InstanceRecipe(seed=seed, steps=(6, 10), right_jumps=2))
        sol = solve_doubly_reflected(inst)
        assert sandwich_violation(sol, inst.barriers) <= 1e-10
        assert lu4_residual(sol, inst) <= 1e-10
        assert right_jump_identity_defect(sol) <= 1e-15
        rep = skorokhod_residual(sol, inst.barriers)
        assert abs(rep.lower_residual) <= 1e-9
        assert abs(rep.upper_residual) <= 1e-9
        assert rep.lower_residual >= -1e-12
        assert rep.upper_residual >= -1e-12
        assert sol.dm.conditional_mean_deviation() <= 1e-12
        assert not sol.degenerate_nodes
        # flat-off nodewise: pushes only while touching
        for k in range(inst.tree.depth):
            y = sol.y.value.level(k)
            lo = inst.lower.value.level(k)
            up = inst.upper.value.level(k)
            assert np.max(sol.dk_star.level(k) * (y - lo)) <= 1e-9
            assert np.max(sol.da_star.level(k) * (up - y)) <= 1e-9
        # supports never overlap under strict separation
        for k in range(inst.tree.depth):
            k_push = sol.dk_star.level(k) + sol.jump_k.level(k)
            a_push = sol.da_star.level(k) + sol.jump_a.level(k)
            assert np.max(np.minimum(k_push, a_push)) == 0.0


def test_doubly_agrees_with_both_sweeps():
    inst = random_instance(InstanceRecipe(seed=40, steps=(8, 10), right_jumps=2))
    eps = 1e-5
    sol = solve_doubly_reflected(inst)
    for mode in (
        PenalizationMode.LOWER_PENALTY_UPPER_REFLECT,
        PenalizationMode.UPPER_PENALTY_LOWER_REFLECT,
    ):
        sweep = penalization_sweep(inst, mode, eps=eps)
        assert sweep.converged
        assert sup_distance(sweep.final.y.value, sol.y.value) <= 1e-4


def test_skorokhod_detector_fires_on_violating_bundle():
    tree = build_binomial(3, 0.0, 1.0, -1.0, 0.5)
    grid = TimeGrid.uniform(1.0, 3)
    lower = RegulatedField.constant(tree, 0.0)
    upper = RegulatedField.constant(tree, 5.0)
    inst = ProblemInstance(
        tree, grid, np.full(4, 0.2), zero_driver(), BarrierPair(lower, upper)
    )
    sol = solve_doubly_reflected(inst)
    # Y - L = 0.2 everywhere; inject dK* = 0.7 at the root
    dk = [np.array(sol.dk_star.level(k)) for k in range(4)]
    dk[0][0] = 0.7
    tampered = SolutionBundle(
        tree=tree, grid=grid, y=sol.y, dm=sol.dm,
        dk_star=AdaptedField(tree, dk), jump_k=sol.jump_k,
        da_star=sol.da_star, jump_a=sol.jump_a, method="tampered",
    )
    rep = skorokhod_residual(tampered, inst.barriers)
    assert rep.lower_residual == pytest.approx(0.2 * 0.7, abs=1e-12)


def test_lu4_detector_fires_on_zeroed_martingale_and_perturbed_k():
    inst = random_instance(InstanceRecipe(seed=3, steps=(4, 5)))
    sol = solve_doubly_reflected(inst)
    zeroed = SolutionBundle(
        tree=sol.tree, grid=sol.grid, y=sol.y, dm=EdgeField.zeros(sol.tree),
        dk_star=sol.dk_star, jump_k=sol.jump_k, da_star=sol.da_star,
        jump_a=sol.jump_a, method="tampered",
    )
    # residual equals the largest conditional deviation of Y
    worst = 0.0
    for k in range(sol.tree.depth):
        for j in range(sol.tree.level_size(k)):
            worst = max(worst, float(np.max(np.abs(sol.dm.edges(k, j)))))
    assert lu4_residual(zeroed, inst) == pytest.approx(worst, abs=1e-12)

    # deterministic single-path tree: perturbing K shifts the budget by delta
    from rbsde_lab.lattice import FiltrationTree

    chain = FiltrationTree(
        states=[[0.0], [0.0], [0.0]],
        children=[[[0]], [[0]]],
        probs=[[[1.0]], [[1.0]]],
    )
    cgrid = TimeGrid.uniform(1.0, 2)
    cinst = ProblemInstance(
        chain, cgrid, np.asarray([0.5]), zero_driver(),
        BarrierPair(RegulatedField.constant(chain, -1.0), RegulatedField.constant(chain, 1.0)),
    )
    csol = solve_doubly_reflected(cinst)
    dk = [np.array(csol.dk_star.level(k)) for k in range(3)]
    dk[1][0] += 0.125
    tampered = SolutionBundle(
        tree=chain, grid=cgrid, y=csol.y, dm=csol.dm,
        dk_star=AdaptedField(chain, dk), jump_k=csol.jump_k,
        da_star=csol.da_star, jump_a=csol.jump_a, method="tampered",
    )
    assert lu4_residual(tampered, cinst) == pytest.approx(0.125, abs=1e-15)


def test_negation_dual_involution_and_solution_duality():
    inst = random_instance(InstanceRecipe(seed=8, steps=(5, 7), right_jumps=2))
    dual = negation_dual(inst)
    back = negation_dual(dual)
    assert np.array_equal(back.terminal, inst.terminal)
    assert back.driver == inst.driver
    for k in range(inst.tree.levels):
        assert np.array_equal(back.lower.value.level(k), inst.lower.value.level(k))
        assert np.array_equal(back.upper.right_value.level(k), inst.upper.right_value.level(k))

    sol = solve_doubly_reflected(inst)
    dual_sol = solve_doubly_reflected(dual)
    for k in range(inst.tree.levels):
        assert np.array_equal(dual_sol.y.value.level(k), -sol.y.value.level(k))
        assert np.array_equal(dual_sol.dk_star.level(k), sol.da_star.level(k))
        assert np.array_equal(dual_sol.jump_k.level(k), sol.jump_a.level(k))
        assert np.array_equal(dual_sol.da_star.level(k), sol.dk_star.level(k))
        assert np.array_equal(dual_sol.jump_a.level(k), sol.jump_k.level(k))


def test_one_barrier_solver_preconditions():
    inst = random_instance(InstanceRecipe(seed=2, steps=(4, 5)))
    with pytest.raises(PreconditionError):
        solve_reflected_lower(inst)  # upper barrier present
    with pytest.raises(PreconditionError):
        solve_reflected_upper(inst)  # lower barrier present
    lower_only = random_instance(InstanceRecipe(seed=2, steps=(4, 5), one_sided="lower"))
    with pytest.raises(PreconditionError):
        solve_doubly_reflected(lower_only)


def test_comparison_property_of_projection_solver():
    rng = np.random.default_rng(777)
    from rbsde_lab.oracle import ordered_widening

    for seed in range(5):
        inst = random_instance(InstanceRecipe(seed=seed + 60, steps=(6, 9), right_jumps=1))
        wider = ordered_widening(inst, rng)
        ya = solve_doubly_reflected(inst).y.value
        yb = solve_doubly_reflected(wider).y.value
        for k in range(inst.tree.levels):
            assert np.max(ya.level(k) - yb.level(k)) <= 1e-12


def test_comparison_property_for_all_three_methods():
    from rbsde_lab.engine import solve_penalized
    from rbsde_lab.oracle import ordered_widening

    rng = np.random.default_rng(888)
    inst = random_instance(InstanceRecipe(seed=90, steps=(6, 8), right_jumps=1))
    wider = ordered_widening(inst, rng)

    def assert_ordered(a, b):
        for k in range(inst.tree.levels):
            assert np.max(a.y.value.level(k) - b.y.value.level(k)) <= 1e-12

    assert_ordered(solve_doubly_reflected(inst), solve_doubly_reflected(wider))
    for mode in (
        PenalizationMode.LOWER_PENALTY_UPPER_REFLECT,
        PenalizationMode.UPPER_PENALTY_LOWER_REFLECT,
    ):
        for n in (1, 8, 128, 4096):
            assert_ordered(solve_penalized(inst, n, mode), solve_penalized(wider, n, mode))


@pytest.mark.parametrize("steps", [3, 4])
def test_skorokhod_residual_refuses_an_upper_barrier_on_another_tree(steps):
    tree = build_binomial(3, 0.0, 1.0, -1.0, 0.5)
    inst = ProblemInstance(
        tree, TimeGrid.uniform(1.0, 3), np.zeros(4), zero_driver(),
        BarrierPair(None, RegulatedField.constant(tree, 1.0)),
    )
    sol = solve_reflected_upper(inst)
    other = build_binomial(steps, 0.0, 1.0, -1.0, 0.5)  # same shape as ``tree`` at 3 steps, deeper at 4
    with pytest.raises(PreconditionError, match="^bundle and barriers must share one tree$"):
        skorokhod_residual(sol, BarrierPair(None, RegulatedField.constant(other, 1.0)))


def test_degenerate_nodes_are_where_both_sides_push_listed_last_level_first():
    """The lower right limit jumps above the upper value at the instant:
    Y+ holds at L+ while the instant correction pulls Y down to U."""
    tree = build_binomial(6, 0.0, 0.3, -0.3, 0.5)
    lower = RegulatedField.from_values(tree, [tree.states[k] * 0.5 - 0.1 for k in range(7)])
    upper = RegulatedField.from_values(tree, [tree.states[k] * 0.5 + 0.1 for k in range(7)])
    sites = [(k, j) for k in range(6) for j in range(k + 1) if (k + j) % 2 == 0]
    lower = lower.with_right_jumps([(k, j, lower.value[(k, j)] + 0.25) for k, j in sites])
    upper = upper.with_right_jumps([(k, j, upper.value[(k, j)] + 0.3) for k, j in sites])
    inst = ProblemInstance(
        tree, TimeGrid.uniform(1.0, 6), tree.states[6] * 0.5, linear_driver(0.3, -0.5), BarrierPair(lower, upper)
    )
    sol = solve_doubly_reflected(inst)
    nodes = sol.degenerate_nodes
    assert len(nodes) > 1
    assert list(nodes) == sorted(nodes, key=lambda node: (-node[0], node[1]))
    for node in nodes:
        assert sol.jump_a[node] > 0.0
        assert sol.y.right_value[node] == lower.right_value[node]
