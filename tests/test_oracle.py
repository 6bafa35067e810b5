import numpy as np
import pytest

from rbsde_lab.drivers import Driver, constant_driver, custom_driver, linear_driver, zero_driver
from rbsde_lab.errors import (
    EnumerationCapError,
    PreconditionError,
    UnsupportedDriverError,
)
from rbsde_lab.lattice import TimeGrid, build_binomial, sup_distance
from rbsde_lab.oracle import (
    InstanceRecipe,
    _enumerate_stop_rules,
    _pair_game_matrix,
    comparison_check,
    dynkin_value_bruteforce,
    exhaustive_game_values,
    game_value_field,
    ordered_widening,
    random_instance,
    uniqueness_probe,
)
from rbsde_lab.regulated import BarrierPair, ProblemInstance, RegulatedField, check_separation, validate_instance
from rbsde_lab.solvers import solve_doubly_reflected


def test_game_value_trivial_sandwich():
    tree = build_binomial(3, 0.0, 1.0, -1.0, 0.5)
    grid = TimeGrid.uniform(1.0, 3)
    inst = ProblemInstance(
        tree, grid, np.zeros(4), zero_driver(),
        BarrierPair(RegulatedField.constant(tree, -1.0), RegulatedField.constant(tree, 1.0)),
    )
    field = game_value_field(inst)
    for k in range(4):
        assert np.all(field.level(k) == 0.0)
    assert dynkin_value_bruteforce(inst, exhaustive=True) == 0.0


def test_exhaustive_equals_fast_on_two_step_walk():
    tree = build_binomial(2, 0.0, 1.0, -1.0, 0.5)
    grid = TimeGrid.uniform(1.0, 2)
    lower = RegulatedField.from_values(tree, [tree.states[k] - 0.5 for k in range(3)])
    upper = RegulatedField.from_values(tree, [tree.states[k] + 0.5 for k in range(3)])
    inst = ProblemInstance(
        tree, grid, np.array(tree.states[2]), zero_driver(), BarrierPair(lower, upper)
    )
    sup_inf, inf_sup = exhaustive_game_values(inst)
    fast = dynkin_value_bruteforce(inst)
    assert sup_inf == inf_sup == fast


def test_exhaustive_payoff_matches_path_enumeration_expectation():
    # independent cross-check of the pair payoff kernel on a tiny tree
    tree = build_binomial(2, 0.0, 1.0, -1.0, 0.4)
    grid = TimeGrid.uniform(1.0, 2)
    lower = RegulatedField.constant(tree, -0.6)
    upper = RegulatedField.constant(tree, 0.9)
    inst = ProblemInstance(
        tree, grid, np.array([-0.5, 0.1, 0.7]), constant_driver(0.3),
        BarrierPair(lower, upper),
    )
    rules = _enumerate_stop_rules(tree, 10_000)
    matrix = _pair_game_matrix(inst, rules, rules)
    nodes, _, probs = tree.path_arrays()
    rows = np.arange(nodes.shape[0])
    lo_paths = lower.value.path_matrix()
    up_paths = upper.value.path_matrix()
    for ri, rho in enumerate(rules):
        for ni, nu in enumerate(rules):
            hit_r = np.empty(nodes.shape, dtype=bool)
            hit_n = np.empty(nodes.shape, dtype=bool)
            for k in range(2):
                hit_r[:, k] = rho[k][nodes[:, k]]
                hit_n[:, k] = nu[k][nodes[:, k]]
            hit_r[:, 2] = True
            hit_n[:, 2] = True
            tau_r = np.argmax(hit_r, axis=1)
            tau_n = np.argmax(hit_n, axis=1)
            stop = np.minimum(tau_r, tau_n)
            drift_per_step = 0.3 * 0.5
            payoff = stop * drift_per_step
            both_terminal = (tau_r == 2) & (tau_n == 2)
            r_first = (tau_r <= tau_n) & (tau_r < 2)
            n_first = tau_n < tau_r
            payoff = payoff + np.where(
                both_terminal,
                inst.terminal[nodes[:, 2]],
                np.where(
                    r_first,
                    lo_paths[rows, stop],
                    np.where(n_first, up_paths[rows, stop], 0.0),
                ),
            )
            expected = float(np.sum(probs * payoff))
            assert matrix[ri, ni] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_exhaustive_equals_fast_and_solver_on_random_instances(seed):
    inst = random_instance(
        InstanceRecipe(seed=seed, steps=(3, 4), driver_family="constant", right_jumps=1)
    )
    sup_inf, inf_sup = exhaustive_game_values(inst)
    fast = dynkin_value_bruteforce(inst)
    assert sup_inf == inf_sup == fast
    y0 = solve_doubly_reflected(inst).y.value[(0, 0)]
    assert abs(fast - y0) <= 1e-10


def test_game_stops_at_an_inward_right_limit():
    # L = 0 jumps up to L+ = 1 at the root: the low player stops just after
    # the instant and collects 1, above the continuation value 0.5
    tree = build_binomial(1, 0.0, 1.0, -1.0, 0.5)
    lower = RegulatedField.constant(tree, 0.0).with_right_jumps([(0, 0, 1.0)])
    inst = ProblemInstance(
        tree, TimeGrid.uniform(1.0, 1), np.array([0.0, 1.0]), zero_driver(),
        BarrierPair(lower, RegulatedField.constant(tree, 2.0)),
    )
    sol = solve_doubly_reflected(inst)
    assert sol.y.value[(0, 0)] == sol.y.right_value[(0, 0)] == 1.0
    assert dynkin_value_bruteforce(inst) == 1.0
    assert exhaustive_game_values(inst) == (1.0, 1.0)


@pytest.mark.parametrize("seed", range(6))
def test_exhaustive_game_with_right_jumps_both_ways(seed):
    """Both barriers jump inward and outward; the exhaustive game, the fast
    recursion and the solver agree."""
    rng = np.random.default_rng(seed)
    tree = build_binomial(3, 0.0, 1.0, -1.0, 0.45)
    lo = [0.3 * tree.states[k] - 0.5 + rng.uniform(-0.05, 0.05, k + 1) for k in range(4)]
    hi = [level + 0.4 + rng.uniform(0.0, 0.3, level.size) for level in lo]
    sites = [(0, 0), (1, int(rng.integers(0, 2))), (2, int(rng.integers(0, 3)))]
    lower = RegulatedField.from_values(tree, lo).with_right_jumps(
        [(k, j, lo[k][j] + rng.uniform(-0.3, 0.3)) for k, j in sites])
    upper = RegulatedField.from_values(tree, hi).with_right_jumps(
        [(k, j, hi[k][j] + rng.uniform(-0.3, 0.3)) for k, j in sites[::-1]])
    terminal = lo[3] + rng.uniform(0.05, 0.95, 4) * (hi[3] - lo[3])
    inst = ProblemInstance(tree, TimeGrid.uniform(1.0, 3), terminal, constant_driver(0.2), BarrierPair(lower, upper))
    if not validate_instance(inst).ok:
        pytest.skip("the jumps crossed the barriers")
    sup_inf, inf_sup = exhaustive_game_values(inst)
    assert sup_inf == inf_sup == dynkin_value_bruteforce(inst)
    assert sup_distance(game_value_field(inst), solve_doubly_reflected(inst).y.value) <= 1e-12


def test_game_oracle_refusals():
    inst = random_instance(InstanceRecipe(seed=1, steps=(4, 5), driver_family="linear"))
    if inst.driver.y_independent:
        pytest.skip("recipe produced a y-independent driver")
    with pytest.raises(UnsupportedDriverError):
        dynkin_value_bruteforce(inst)
    big = random_instance(InstanceRecipe(seed=1, steps=(8, 8), driver_family="zero"))
    with pytest.raises(EnumerationCapError):
        dynkin_value_bruteforce(big, exhaustive=True)
    small = random_instance(InstanceRecipe(seed=1, steps=(3, 3), driver_family="zero"))
    with pytest.raises(PreconditionError):
        dynkin_value_bruteforce(small, node=(1, 0), exhaustive=True)


def test_comparison_identical_instances_equal():
    inst = random_instance(InstanceRecipe(seed=23, steps=(5, 7)))
    report = comparison_check(inst, inst)
    assert report.passed
    assert report.max_violation == 0.0


def test_comparison_ordered_pair_and_refusal():
    rng = np.random.default_rng(42)
    inst = random_instance(InstanceRecipe(seed=24, steps=(5, 7), right_jumps=1))
    wider = ordered_widening(inst, rng)
    report = comparison_check(inst, wider)
    assert report.passed
    # flipped order must be refused as a precondition failure, not a violation
    with pytest.raises(PreconditionError):
        comparison_check(wider, inst)


def test_comparison_refuses_lower_barriers_out_of_order():
    tree = build_binomial(3, 0.0, 1.0, -1.0, 0.5)
    grid = TimeGrid.uniform(1.0, 3)
    low = [np.full(k + 1, -1.0) for k in range(4)]
    low[2][1] = -0.5

    def instance(lower_levels):
        barriers = BarrierPair(RegulatedField.from_values(tree, lower_levels), RegulatedField.constant(tree, 1.0))
        return ProblemInstance(tree, grid, np.zeros(4), zero_driver(), barriers)

    with pytest.raises(PreconditionError, match=r"^lower barrier value not ordered at node \(2,1\): -0\.5 > -1\.0$"):
        comparison_check(instance(low), instance([np.full(k + 1, -1.0) for k in range(4)]))


def test_comparison_names_the_first_level_out_of_order_and_its_worst_node():
    tree = build_binomial(4, 0.0, 1.0, -1.0, 0.5)
    floor = [np.full(k + 1, -1.0) for k in range(5)]

    def instance(lower_levels, right_jumps=()):
        lower = RegulatedField.from_values(tree, lower_levels).with_right_jumps(right_jumps)
        barriers = BarrierPair(lower, RegulatedField.constant(tree, 1.0))
        return ProblemInstance(tree, TimeGrid.uniform(1.0, 4), np.zeros(5), zero_driver(), barriers)

    low = [level.copy() for level in floor]
    low[3][1] = -0.2  # a value out of order on a later level
    jumps = [(2, 0, -0.9), (2, 1, -0.5)]
    first = r"^lower barrier right_value not ordered at node \(2,1\): -0\.5 > -1\.0$"
    with pytest.raises(PreconditionError, match=first):
        comparison_check(instance(low, jumps), instance(floor))
    low[2][2] = -0.95  # on that level the value comes before the right value, however small
    first = r"^lower barrier value not ordered at node \(2,2\): -0\.95 > -1\.0$"
    with pytest.raises(PreconditionError, match=first):
        comparison_check(instance(low, jumps), instance(floor))


def test_comparison_refuses_drivers_out_of_order():
    tree = build_binomial(3, 0.0, 1.0, -1.0, 0.5)
    barriers = BarrierPair(RegulatedField.constant(tree, -1.0), RegulatedField.constant(tree, 1.0))

    def instance(rate):
        return ProblemInstance(tree, TimeGrid.uniform(1.0, 3), np.zeros(4), constant_driver(rate), barriers)

    with pytest.raises(PreconditionError, match=r"^drivers not ordered at t=0\.0, y=-2\.0: 0\.5 > 0\.2$"):
        comparison_check(instance(0.5), instance(0.2))


def test_comparison_names_the_first_unordered_driver_point_instant_major(monkeypatch):
    tree = build_binomial(3, 0.0, 1.0, -1.0, 0.5)
    grid = TimeGrid.uniform(1.0, 3)
    barriers = BarrierPair(RegulatedField.constant(tree, -1.0), RegulatedField.constant(tree, 1.0))
    a, b = (
        ProblemInstance(tree, grid, np.zeros(4), custom_driver(rule, 1.0), barriers)
        for rule in (lambda t, y: t * y, lambda t, y: 0.5)
    )
    calls = []
    level = Driver.level
    monkeypatch.setattr(Driver, "level", lambda self, t, y: calls.append(self) or level(self, t, y))
    # t * y > 0.5 first at t = 1/3, y = 1.6 in instant-major order (y-major would give t = 2/3, y = 0.8)
    t, y = float(grid.instants[1]), float(np.linspace(-2.0, 2.0, 21)[18])
    with pytest.raises(PreconditionError) as info:
        comparison_check(a, b)
    assert str(info.value) == f"drivers not ordered at t={t}, y={y}: {t * y} > 0.5"
    assert calls == [a.driver, b.driver]


def test_stop_rule_enumeration_refuses_beyond_its_cap():
    tree = build_binomial(3, 0.0, 1.0, -1.0, 0.5)
    with pytest.raises(EnumerationCapError, match="^stopping-rule enumeration exceeds cap 1; use the fast variant$"):
        _enumerate_stop_rules(tree, 1)


def test_comparison_seeded_corpus_no_violations():
    rng = np.random.default_rng(2024)
    for seed in range(25):
        inst = random_instance(InstanceRecipe(seed=seed + 300, steps=(5, 8), right_jumps=seed % 3))
        wider = ordered_widening(inst, rng)
        assert comparison_check(inst, wider).passed


def test_uniqueness_probe_on_separated_instance():
    inst = random_instance(InstanceRecipe(seed=71, steps=(6, 8), right_jumps=1))
    report = uniqueness_probe(inst, eps=1e-5)
    assert report.separation_holds
    assert max(report.y_distances.values()) <= 2e-5
    assert max(report.ka_distances.values()) <= 2e-5
    assert report.passed


def test_uniqueness_probe_trivial_instance_zero_distances():
    tree = build_binomial(4, 0.0, 0.5, -0.5, 0.5)
    grid = TimeGrid.uniform(1.0, 4)
    inst = ProblemInstance(
        tree, grid, np.full(5, 0.3), zero_driver(),
        BarrierPair(RegulatedField.constant(tree, -2.0), RegulatedField.constant(tree, 2.0)),
    )
    report = uniqueness_probe(inst)
    assert max(report.y_distances.values()) == 0.0
    assert max(report.k_distances.values()) == 0.0
    assert max(report.a_distances.values()) == 0.0


def test_uniqueness_probe_without_separation_gates_only_y_and_ka():
    from rbsde_lab.io_formats import load_instance
    from pathlib import Path

    inst = load_instance(Path(__file__).resolve().parents[1] / "instances/touching_barriers.json")
    report = uniqueness_probe(inst, eps=1e-5)
    assert not report.separation_holds
    # pass/fail rests on Y and K - A alone; K and A are reported either way
    assert report.passed == (
        max([*report.y_distances.values(), *report.ka_distances.values()]) <= report.tolerance
    )
    assert set(report.k_distances) == set(report.y_distances)


def test_random_instance_deterministic_in_seed():
    a = random_instance(InstanceRecipe(seed=99, steps=(6, 9), right_jumps=2))
    b = random_instance(InstanceRecipe(seed=99, steps=(6, 9), right_jumps=2))
    assert a.tree.depth == b.tree.depth
    assert np.array_equal(a.terminal, b.terminal)
    for k in range(a.tree.levels):
        assert np.array_equal(a.tree.states[k], b.tree.states[k])
        assert np.array_equal(a.lower.value.level(k), b.lower.value.level(k))
        assert np.array_equal(a.lower.right_value.level(k), b.lower.right_value.level(k))
        assert np.array_equal(a.upper.right_value.level(k), b.upper.right_value.level(k))
    assert a.driver == b.driver


def test_random_instances_valid_and_separated():
    for seed in range(1000):
        recipe = InstanceRecipe(seed=seed, steps=(5, 12), gap=0.25, right_jumps=seed % 4)
        inst = random_instance(recipe)
        assert validate_instance(inst).ok
        report = check_separation(inst.barriers)
        assert report.satisfied
        assert report.margin >= recipe.gap - 1e-12


def test_symmetric_recipe_produces_odd_data():
    inst = random_instance(InstanceRecipe(seed=5, steps=(6, 8), symmetric=True, right_jumps=1))
    assert validate_instance(inst).ok
    for k in range(inst.tree.levels):
        assert np.array_equal(inst.lower.value.level(k), -inst.upper.value.level(k))
        assert np.array_equal(inst.lower.right_value.level(k), -inst.upper.right_value.level(k))
    # terminal payoff odd in the state on the symmetric tree
    x = inst.tree.states[inst.tree.depth]
    xi = inst.terminal
    order = np.argsort(x)
    rev = np.argsort(-x)
    assert np.allclose(xi[order], -xi[rev], atol=1e-12)


def test_game_oracle_refuses_a_constant_driver_given_a_slope_by_replace():
    from dataclasses import replace
    from pathlib import Path

    from rbsde_lab.io_formats import load_instance

    inst = load_instance(Path(__file__).resolve().parents[1] / "instances/barrier_jumps.json")
    sloped = replace(constant_driver(0.2), slope=0.3)
    assert (sloped.mu, sloped.y_independent) == (0.3, False)
    with pytest.raises(UnsupportedDriverError):
        dynkin_value_bruteforce(replace(inst, driver=sloped))
