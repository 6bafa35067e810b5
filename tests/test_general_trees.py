"""End-to-end checks on arbitrary finite trees (variable child counts)."""
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from rbsde_lab.bundles import (
    SolutionBundle,
    lu4_residual,
    minimality_terms,
    process_distances,
    right_jump_identity_defect,
    sandwich_violation,
    skorokhod_residual,
)
from rbsde_lab.drivers import constant_driver, custom_driver, linear_driver
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
from rbsde_lab.errors import AlternationStuckError, EnumerationCapError, NumericalError
from rbsde_lab.io_formats import load_instance
from rbsde_lab.lattice import (
    AdaptedField,
    conditional_expectation,
    FiltrationTree,
    TimeGrid,
    build_binomial,
    enumerate_paths,
    expect_level,
    martingale_increments,
    sup_distance,
)
from rbsde_lab.oracle import InstanceRecipe, dynkin_value_bruteforce, game_value_field, random_instance
from rbsde_lab.regulated import (
    BarrierPair,
    ProblemInstance,
    RegulatedField,
    jump_exhaustion_schedule,
    negation_dual,
    validate_instance,
)
from rbsde_lab.solvers import solve_doubly_reflected, solve_reflected_lower, solve_reflected_upper
from rbsde_lab.stopping import (
    HIT_TOL,
    PathContext,
    StoppingRule,
    alternating_sequence,
    chain_report,
    hitting_time_lower,
    hitting_time_upper,
    local_solution,
    patch_global,
    verify_local_properties,
)


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


# --- node-level recursions against the path oracle --------------------------
#
# Each recursion is checked on seeded binomial trees (recombining) and
# explicit trees with fan-out 1-4, zero-probability edges, right jumps on
# both barriers and one-sided barrier pairs, all shallow enough to enumerate.
# Where the oracle adds along a path one term at a time the results are
# equal; numpy's row sums turn pairwise from 8 terms on, and the K/A
# distances difference whole sums, so those agree to 1e-12 relative.


def explicit_tree(rng: np.random.Generator, depth: int, recombining: bool) -> FiltrationTree:
    """Fan-out 1-4, some zero-probability edges; recombining: node j's children start at j."""
    states, children, probs = [[0.0]], [], []
    for k in range(depth):
        counts = rng.integers(1, 5, size=len(states[k]))
        starts = np.arange(counts.size) if recombining else np.cumsum(counts) - counts
        ids = [list(range(int(s), int(s + c))) for s, c in zip(starts, counts)]
        plist = []
        for group in ids:
            raw = rng.uniform(0.2, 1.0, size=len(group))
            raw[rng.random(raw.size) < 0.25] = 0.0
            raw[0] += raw.sum() == 0.0
            plist.append(list(raw / raw.sum()))
        children.append(ids)
        probs.append(plist)
        width = max(group[-1] for group in ids) + 1
        states.append(list(np.sort(rng.normal(0.0, 0.3 * np.sqrt(k + 1), size=width))))
    return FiltrationTree(states, children, probs)


def zigzag_instance(seed: int, depth: int, tree: str = "binomial", sides: str = "both") -> ProblemInstance:
    """Barriers swinging up and down level by level, right jumps on both: Y alternates often."""
    rng = np.random.default_rng(seed)
    if tree == "binomial":
        tree = build_binomial(depth, 0.0, 0.3, -0.3, float(rng.uniform(0.35, 0.65)))
    else:
        tree = explicit_tree(rng, depth, recombining=tree == "recombining")
    swing = [
        0.2 * (-1) ** k + 0.1 * tree.states[k] + rng.uniform(-0.05, 0.05, size=tree.level_size(k))
        for k in range(tree.levels)
    ]
    lower = RegulatedField.from_values(tree, [s - 0.2 for s in swing])
    upper = RegulatedField.from_values(tree, [s + 0.2 + rng.uniform(0.0, 0.1, size=s.size) for s in swing])

    def sites():
        return sorted({(int(k), int(rng.integers(tree.level_size(k)))) for k in rng.integers(0, depth, 3)})

    lower = lower.with_right_jumps([(k, j, lower.value[(k, j)] - rng.uniform(0.05, 0.2)) for k, j in sites()])
    upper = upper.with_right_jumps([(k, j, upper.value[(k, j)] + rng.uniform(0.05, 0.2)) for k, j in sites()])
    leaf_lo, leaf_hi = lower.value.level(depth), upper.value.level(depth)
    terminal = leaf_lo + rng.uniform(0.05, 0.95, size=leaf_lo.size) * (leaf_hi - leaf_lo)
    pair = {"both": (lower, upper), "lower": (lower, None), "upper": (None, upper)}[sides]
    driver = linear_driver(float(rng.uniform(-0.3, 0.3)), float(rng.uniform(-1.0, 1.0)))
    inst = ProblemInstance(tree, TimeGrid.uniform(1.0, depth), terminal, driver, BarrierPair(*pair))
    assert validate_instance(inst).ok
    return inst


CASES = {
    "binomial-5": lambda: zigzag_instance(5, 5),
    "binomial-7": lambda: zigzag_instance(7, 7),
    "binomial-9": lambda: zigzag_instance(9, 9),
    "binomial-12": lambda: zigzag_instance(12, 12),
    "binomial-lower-only": lambda: random_instance(InstanceRecipe(seed=45, steps=(8, 8), one_sided="lower")),
    "binomial-upper-only": lambda: zigzag_instance(6, 6, sides="upper"),
    "explicit-tree-6": lambda: zigzag_instance(21, 6, tree="explicit"),
    "explicit-tree-5-upper-only": lambda: zigzag_instance(52, 5, tree="explicit", sides="upper"),
    "explicit-recombining-7": lambda: zigzag_instance(14, 7, tree="recombining"),
    "explicit-recombining-8": lambda: zigzag_instance(23, 8, tree="recombining"),
    "explicit-recombining-8-lower-only": lambda: zigzag_instance(55, 8, tree="recombining", sides="lower"),
}
TWO_SIDED = [name for name in CASES if "only" not in name]


def solved(name: str):
    inst = CASES[name]()
    sides = (inst.lower, inst.upper)
    if None in sides:
        sol = solve_reflected_lower(inst) if inst.upper is None else solve_reflected_upper(inst)
    else:
        sol = solve_doubly_reflected(inst)
    return inst, sol


def perturbed(bundle: SolutionBundle, seed: int, y_scale: float = 0.0) -> SolutionBundle:
    """The bundle with noise on K, A (and Y when ``y_scale``) at a third of the nodes."""
    rng = np.random.default_rng(seed)
    tree = bundle.tree

    def bump(field: AdaptedField, scale: float, last: int) -> AdaptedField:
        levels = [np.array(field.level(k)) for k in range(tree.levels)]
        for lv in levels[:last]:
            hit = rng.random(lv.size) < 0.35
            lv[hit] += scale * rng.uniform(-0.5, 1.0, size=int(hit.sum()))
        return AdaptedField(tree, levels)

    y = bundle.y
    if y_scale:
        y = RegulatedField(bump(y.value, y_scale, tree.depth), bump(y.right_value, y_scale, tree.depth))
    return SolutionBundle(
        tree=tree, grid=bundle.grid, y=y, dm=bundle.dm,
        dk_star=bump(bundle.dk_star, 0.2, tree.depth), jump_k=bump(bundle.jump_k, 0.2, tree.depth),
        da_star=bump(bundle.da_star, 0.2, tree.depth), jump_a=bump(bundle.jump_a, 0.2, tree.depth),
        method="perturbed",
    )


def assert_close(dp: float, oracle: float, depth: int, scale: float) -> None:
    """Equal when the oracle sums one term at a time (depth < 8), else to 1e-12 relative."""
    if depth < 8:
        assert dp == oracle
    else:
        assert abs(dp - oracle) <= 1e-12 * max(scale, abs(oracle))


def sequential_path_sums(bundle, barrier, lower: bool) -> np.ndarray:
    nodes, _, _ = bundle.tree.path_arrays()
    terms = minimality_terms(bundle, barrier, lower)
    paths = np.column_stack([terms[k][nodes[:, k]] for k in range(bundle.tree.depth)])
    return np.cumsum(paths, axis=1)[:, -1]  # one term at a time


@pytest.mark.parametrize("name", list(CASES))
def test_skorokhod_recursion_matches_path_oracle(name):
    inst, sol = solved(name)
    depth = inst.tree.depth
    for bundle in (sol, perturbed(sol, seed=depth)):
        rep = skorokhod_residual(bundle, inst.barriers)
        for barrier, lower, residual, paths in (
            (inst.lower, True, rep.lower_residual, rep.lower_paths),
            (inst.upper, False, rep.upper_residual, rep.upper_paths),
        ):
            if barrier is None:
                assert residual == 0.0 and not np.any(paths)
                continue
            assert residual == float(np.max(sequential_path_sums(bundle, barrier, lower)))
            assert_close(residual, float(np.max(paths)), depth, float(np.max(np.abs(paths))))


@pytest.mark.parametrize("name", list(CASES))
def test_process_distances_match_path_oracle(name):
    inst, sol = solved(name)
    first, second = perturbed(sol, seed=1), perturbed(sol, seed=2)
    k1, a1 = first.cumulative_k_paths(), first.cumulative_a_paths()
    k2, a2 = second.cumulative_k_paths(), second.cumulative_a_paths()
    oracle = [np.max(np.abs(k1 - k2)), np.max(np.abs(a1 - a2)), np.max(np.abs((k1 - a1) - (k2 - a2)))]
    scale = max(np.max(np.abs(m)) for m in (k1, a1, k2, a2))
    for dp, want in zip(process_distances(first, second), oracle):
        assert dp > 0.0
        assert abs(dp - want) <= 1e-12 * scale
    assert process_distances(sol, sol) == (0.0, 0.0, 0.0)


def path_local_properties(y, barriers, tau, tol):
    """The local-property deviations, read off the enumerated paths."""
    rows = np.arange(y.tree.path_arrays()[0].shape[0])
    y_paths = y.value.path_matrix()
    out = []
    for hit, barrier in ((hitting_time_upper, barriers.upper), (hitting_time_lower, barriers.lower)):
        stop = hit(y, barrier, tau, tol).levels()
        gaps = np.abs(y_paths - barrier.value.path_matrix())[rows, stop][stop < y.tree.depth]
        out.append(float(np.max(gaps)) if gaps.size else 0.0)
    out.append(max(0.0, float(np.max(barriers.lower.value.path_matrix() - y_paths))))
    out.append(max(0.0, float(np.max(y_paths - barriers.upper.value.path_matrix()))))
    return out


@pytest.mark.parametrize("name", TWO_SIDED)
def test_local_property_deviations_match_path_oracle(name):
    inst, sol = solved(name)
    tree = inst.tree
    rng = np.random.default_rng(tree.depth)
    y = perturbed(sol, seed=3, y_scale=0.1).y
    first = StoppingRule(tree, [rng.random(tree.level_size(k)) < 0.15 for k in range(tree.levels)])
    second = StoppingRule(tree, [rng.random(tree.level_size(k)) < 0.3 for k in range(tree.levels)], prior=first)
    for tau in (StoppingRule.at_zero(tree), first, second, StoppingRule.at_terminal(tree)):
        for tol in (HIT_TOL, 0.05):
            rep = verify_local_properties(y, inst.barriers, tau, tol)
            got = [rep.upper_hit_deviation, rep.lower_hit_deviation,
                   rep.lower_sandwich_violation, rep.upper_sandwich_violation]
            assert got == path_local_properties(y, inst.barriers, tau, tol)


def pieces_of(inst, sol):
    rules, _ = alternating_sequence(sol.y, inst.barriers)
    return [local_solution(inst, rules[i], rules[i + 1], bundle=sol) for i in range(len(rules) - 1)]


@pytest.mark.parametrize("name", TWO_SIDED)
def test_chain_report_matches_local_solutions_and_patching(name):
    inst, sol = solved(name)
    depth = inst.tree.depth
    for bundle in (sol, perturbed(sol, seed=4, y_scale=0.02)):
        for tol in (HIT_TOL, 0.02):
            chain = chain_report(inst, bundle, tol)
            rules, stat = alternating_sequence(bundle.y, inst.barriers, tol)
            assert chain.stationarity_index == stat.max_index
            context = PathContext(inst, bundle)
            pieces = [local_solution(inst, rules[i], rules[i + 1], context=context)
                      for i in range(len(rules) - 1)]
            assert len(chain.intervals) == len(pieces)
            for got, piece in zip(chain.intervals, pieces):
                want = piece.report
                assert got.budget_residual == want.budget_residual
                assert got.sandwich_violation == want.sandwich_violation
                assert_close(got.lower_skorokhod, want.lower_skorokhod, depth, 1.0)
                assert_close(got.upper_skorokhod, want.upper_skorokhod, depth, 1.0)
    patched = patch_global(inst, pieces_of(inst, sol))
    ka_oracle = np.max(np.abs(
        (patched.cumulative_k_paths() - patched.cumulative_a_paths())
        - (sol.cumulative_k_paths() - sol.cumulative_a_paths())
    ))
    chain = chain_report(inst, sol)
    assert chain.y_gap == sup_distance(patched.y.value, sol.y.value) == 0.0
    assert chain.ka_gap <= 1e-12 and ka_oracle <= 1e-12


def touching_instance(name: str) -> tuple[ProblemInstance, int]:
    """The case with its barriers set to their midpoint at some nodes of one level, and that level."""
    inst = CASES[name]()
    tree = inst.tree
    rng = np.random.default_rng(tree.depth)
    k = int(rng.integers(1, tree.depth))
    touch = rng.random(tree.level_size(k)) < 0.5
    touch[int(rng.integers(tree.level_size(k)))] = True
    low = [np.array(inst.lower.value.level(i)) for i in range(tree.levels)]
    up = [np.array(inst.upper.value.level(i)) for i in range(tree.levels)]
    low[k][touch] = up[k][touch] = 0.5 * (low[k][touch] + up[k][touch])
    barriers = BarrierPair(RegulatedField.from_values(tree, low), RegulatedField.from_values(tree, up))
    return ProblemInstance(tree, inst.grid, inst.terminal, inst.driver, barriers), k


@pytest.mark.parametrize("name", TWO_SIDED)
def test_stall_diagnostic_matches_path_oracle_on_touching_barriers(name):
    touching, k = touching_instance(name)
    sol = solve_doubly_reflected(touching)
    with pytest.raises(AlternationStuckError) as path_err:
        alternating_sequence(sol.y, touching.barriers)
    with pytest.raises(AlternationStuckError) as node_err:
        chain_report(touching, sol)
    assert node_err.value.level == path_err.value.level == k
    assert node_err.value.gap == path_err.value.gap == 0.0
    assert node_err.value.where.startswith("node ")


@pytest.mark.parametrize("name", TWO_SIDED)
def test_path_oracle_stall_names_the_path(name):
    touching, k = touching_instance(name)
    sol = solve_doubly_reflected(touching)
    with pytest.raises(AlternationStuckError) as err:
        alternating_sequence(sol.y, touching.barriers)
    assert err.value.level == k
    assert err.value.where.startswith("path ")


def test_injected_violation_beyond_the_enumeration_cap():
    inst = random_instance(InstanceRecipe(seed=7, steps=(40, 40)))
    with pytest.raises(EnumerationCapError):
        inst.tree.path_arrays()
    proj = solve_doubly_reflected(inst)
    assert skorokhod_residual(proj, inst.barriers).lower_residual == 0.0
    injected = 0.37
    k = 30
    gaps = proj.y.right_value.level(k) - inst.lower.right_value.level(k)
    j = int(np.argmax(gaps))
    weight = float(gaps[j])
    assert weight > 0.05
    dk = [np.array(proj.dk_star.level(i)) for i in range(inst.tree.levels)]
    dk[k][j] += injected
    tampered = SolutionBundle(
        tree=proj.tree, grid=proj.grid, y=proj.y, dm=proj.dm,
        dk_star=AdaptedField(proj.tree, dk), jump_k=proj.jump_k,
        da_star=proj.da_star, jump_a=proj.jump_a, method="tampered",
    )
    rep = skorokhod_residual(tampered, inst.barriers)
    assert abs(rep.lower_residual - weight * injected) <= 1e-12
    assert rep.upper_residual == 0.0


def test_recursions_skip_nodes_no_path_reaches():
    # node (1, 2) has no parent: no path passes it, so no check may read it
    tree = FiltrationTree(
        [[0.0], [-1.0, 1.0, 5.0], [-1.5, 0.0, 1.5]],
        [[[0, 1]], [[0, 1], [1, 2], [2]]],
        [[[0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5], [1.0]]],
    )
    lower = RegulatedField.from_values(tree, [0.3 * s - 0.5 for s in tree.states])
    upper = RegulatedField.from_values(tree, [0.3 * s + 0.5 for s in tree.states])
    inst = ProblemInstance(
        tree, TimeGrid.uniform(1.0, 2), np.zeros(3), linear_driver(0.1, -0.5), BarrierPair(lower, upper)
    )
    sol = solve_doubly_reflected(inst)
    y = [np.array(sol.y.value.level(k)) for k in range(3)]
    y[1][2] = -10.0  # far below L at the unreachable node
    dk = [np.array(sol.dk_star.level(k)) for k in range(3)]
    dk[1][2] = -1.0  # a minimality term of +11 there
    bad = SolutionBundle(
        tree=tree, grid=sol.grid, y=RegulatedField(AdaptedField(tree, y)), dm=sol.dm,
        dk_star=AdaptedField(tree, dk), jump_k=sol.jump_k, da_star=sol.da_star, jump_a=sol.jump_a,
        method="orphan",
    )
    assert sandwich_violation(bad, inst.barriers) > 9.0  # the nodewise check still sees it
    tau = StoppingRule.at_zero(tree)
    rep = verify_local_properties(bad.y, inst.barriers, tau)
    got = [rep.upper_hit_deviation, rep.lower_hit_deviation,
           rep.lower_sandwich_violation, rep.upper_sandwich_violation]
    assert got == path_local_properties(bad.y, inst.barriers, tau, HIT_TOL)
    assert rep.passed
    sk = skorokhod_residual(bad, inst.barriers)
    assert sk.lower_residual == float(np.max(sk.lower_paths)) < 1.0


def jumps_both_barriers(seed: int, depth: int = 6, tree: str = "random") -> ProblemInstance:
    """A random explicit tree whose barriers both jump up and down at random nodes.

    ``tree`` "random" has fan-out 1-4; "explicit" and "recombining" also have
    zero-probability edges (see :func:`explicit_tree`).
    """
    rng = np.random.default_rng(seed)
    if tree == "random":
        tree = random_tree(rng, depth, max_children=4)
    else:
        tree = explicit_tree(rng, depth, recombining=tree == "recombining")
    lo = [tree.states[k] * 0.3 - 0.5 + rng.uniform(-0.05, 0.05, tree.level_size(k)) for k in range(depth + 1)]
    hi = [level + 0.4 + rng.uniform(0.0, 0.3, level.size) for level in lo]
    lower = RegulatedField.from_values(tree, lo)
    upper = RegulatedField.from_values(tree, hi)

    def sites():
        levels = rng.integers(0, depth, 6)
        return [(int(k), int(rng.integers(0, tree.level_size(int(k))))) for k in levels]

    lower = lower.with_right_jumps([(k, j, lo[k][j] + rng.uniform(-0.3, 0.1)) for k, j in sites()])
    upper = upper.with_right_jumps([(k, j, hi[k][j] + rng.uniform(-0.1, 0.3)) for k, j in sites()])
    terminal = lo[depth] + rng.uniform(0.05, 0.95, lo[depth].size) * (hi[depth] - lo[depth])
    driver = linear_driver(float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-2.0, 2.0)))
    inst = ProblemInstance(tree, TimeGrid.uniform(1.0, depth), terminal, driver, BarrierPair(lower, upper))
    assert validate_instance(inst).ok
    return inst


def right_limit_gaps(bundle, inst) -> tuple[float, float]:
    """max(L+ - Y+) and max(Y+ - U+) over the nodes."""
    y_plus = bundle.y.right_value.values
    return (
        float(np.max(inst.lower.right_value.values - y_plus)),
        float(np.max(y_plus - inst.upper.right_value.values)),
    )


@pytest.mark.parametrize("seed", range(8))
def test_right_limits_stay_between_the_barrier_right_limits(seed):
    """L+ <= Y+ <= U+ for every solver; a penalized side within the sweep accuracy."""
    inst = jumps_both_barriers(1000 + seed)
    eps = 1e-5
    sol = solve_doubly_reflected(inst)
    assert max(right_limit_gaps(sol, inst)) <= 0.0
    assert sandwich_violation(sol, inst.barriers) == 0.0
    for n in (1, 64, 4096):
        # the reflected side is clamped exactly at every penalty level
        inc = solve_penalized(inst, n, PenalizationMode.LOWER_PENALTY_UPPER_REFLECT)
        dec = solve_penalized(inst, n, PenalizationMode.UPPER_PENALTY_LOWER_REFLECT)
        assert right_limit_gaps(inc, inst)[1] <= 0.0
        assert right_limit_gaps(dec, inst)[0] <= 0.0
    for mode in (PenalizationMode.LOWER_PENALTY_UPPER_REFLECT, PenalizationMode.UPPER_PENALTY_LOWER_REFLECT):
        sweep = penalization_sweep(inst, mode, eps=eps)
        assert sweep.converged
        assert max(right_limit_gaps(sweep.final, inst)) <= 2.0 * eps
        assert sandwich_violation(sweep.final, inst.barriers) <= 2.0 * eps


@pytest.mark.parametrize("seed", range(8))
def test_game_value_follows_the_right_limits(seed):
    """With inward jumps Y itself moves; the game recursion clamps into [L+, U+] too."""
    inst = jumps_both_barriers(1000 + seed)
    inst = ProblemInstance(inst.tree, inst.grid, inst.terminal, constant_driver(0.3), inst.barriers)
    assert sup_distance(game_value_field(inst), solve_doubly_reflected(inst).y.value) <= 1e-12


# --- the flat bookkeeping against the scalar steps ---------------------------


def scalar_rebuild(inst: ProblemInstance, mode: PenalizationMode, n: int | None) -> dict[str, np.ndarray]:
    """Y, Y+, dK*, jumpK, dA*, jumpA and dM, rebuilt node by node from the scalar steps.

    ``n`` None rebuilds the projection, else the lower-side ``mode`` at
    penalty level n; the right-limit value is assembled as (Y - jumpK) + jumpA.
    """
    tree, grid, driver, lower, upper = inst.tree, inst.grid, inst.driver, inst.lower, inst.upper
    scheduled = set() if n is None else jump_exhaustion_schedule(lower, n).node_set()
    out = {name: np.zeros(tree.node_count()) for name in ("y", "y_plus", "dk_star", "jump_k", "da_star", "jump_a")}
    out["dm"] = np.zeros(int(tree.edge_start[-1]))
    out["y"][tree.node_start[-2] :] = out["y_plus"][tree.node_start[-2] :] = inst.terminal
    for k in range(tree.depth - 1, -1, -1):
        t, dt = float(grid.instants[k]), grid.dt(k)
        y_next = out["y"][tree.node_start[k + 1] : tree.node_start[k + 2]]
        for j in range(tree.level_size(k)):
            e = conditional_expectation(y_next, (k, j), tree)
            lo, lo_r = (None, None) if lower is None else (lower.value[(k, j)], lower.right_value[(k, j)])
            up, up_r = (None, None) if upper is None else (upper.value[(k, j)], upper.right_value[(k, j)])
            if n is None:
                y, dk, da = implicit_step(e, t, dt, driver), 0.0, 0.0
                if lo_r is not None and y < lo_r:
                    y, dk = lo_r, max(lo_r - (e + driver(t, lo_r) * dt), 0.0)
                if up_r is not None and y > up_r:
                    y, da = up_r, max((e + driver(t, up_r) * dt) - up_r, 0.0)
                lower_at = lower is not None and lower.right_jump((k, j)) != 0.0
                mode = PenalizationMode.LOWER_PENALTY_UPPER_REFLECT
            else:
                y, dk, da = penalized_step(e, t, dt, n, mode, lo_r, up_r, driver)
                lower_at = (k, j) in scheduled
            upper_at = upper is not None and upper.right_jump((k, j)) != 0.0
            y, jk, ja = right_jump_correction(y, mode, lo, up, lower_scheduled=lower_at, upper_declared=upper_at)
            node = tree.node_start[k] + j
            for name, value in zip(out, (y, (y - jk) + ja, dk, jk, da, ja)):
                out[name][node] = value
            for edge in range(tree.offsets[k][j], tree.offsets[k][j + 1]):
                out["dm"][tree.edge_start[k] + edge] = y_next[tree.edge_child[k][edge]] - e
    return out


def bundle_rows(bundle: SolutionBundle) -> dict[str, np.ndarray]:
    fields = (bundle.y.value, bundle.y.right_value, bundle.dk_star, bundle.jump_k, bundle.da_star, bundle.jump_a)
    names = ("y", "y_plus", "dk_star", "jump_k", "da_star", "jump_a", "dm")
    return dict(zip(names, [f.values for f in fields] + [bundle.dm.values]))


@pytest.mark.parametrize("tree, depth, seed", [("explicit", 5, 26), ("recombining", 6, 55)])
@pytest.mark.parametrize("custom", [False, True], ids=["affine", "custom"])
def test_flat_bookkeeping_matches_the_scalar_steps_bit_for_bit(tree, depth, seed, custom):
    """Every bundle equals its node-by-node rebuild from the scalar steps, in
    every mode at low, middle and high penalty and for the projection."""
    inst = jumps_both_barriers(seed, depth=depth, tree=tree)
    if custom:
        driver = custom_driver(CountingRule(), mu=0.4)
        inst = ProblemInstance(inst.tree, inst.grid, inst.terminal, driver, inst.barriers)
    dual = negation_dual(inst)
    projection = scalar_rebuild(inst, PenalizationMode.LOWER_PENALTY_UPPER_REFLECT, None)
    cases = [(solve_doubly_reflected(inst), projection)]
    for mode in PenalizationMode:
        for n in (1, 64, 2 ** 20):
            if mode.penalizes_lower:
                reference = scalar_rebuild(inst, mode, n)
            else:  # the upper side is the negated lower side of the dual
                rows = scalar_rebuild(dual, mode.dual, n)
                reference = {
                    "y": -rows["y"], "y_plus": -rows["y_plus"], "dm": -rows["dm"],
                    "dk_star": rows["da_star"], "jump_k": rows["jump_a"],
                    "da_star": rows["dk_star"], "jump_a": rows["jump_k"],
                }
            cases.append((solve_penalized(inst, n, mode), reference))
    acted = dict.fromkeys(("dk_star", "jump_k", "da_star", "jump_a"), False)
    for bundle, reference in cases:
        for name, values in bundle_rows(bundle).items():
            assert [v.hex() for v in values.tolist()] == [v.hex() for v in reference[name].tolist()], (
                bundle.method, bundle.n, name)
            if name in acted:
                acted[name] |= bool(np.any(values > 0.0))
    assert all(acted.values())  # every increment is booked somewhere


# --- the two-state walk of chain_report against the phase walk ----------------

INTERVAL_FIELDS = ("budget_residual", "sandwich_violation", "lower_skorokhod", "upper_skorokhod")


def worst_over_intervals(chain) -> dict[str, float]:
    """The largest magnitude of each residual over the phase walk's intervals."""
    return {f: max(abs(getattr(r, f)) for r in chain.intervals) for f in INTERVAL_FIELDS}


def raised(bundle: SolutionBundle, seed: int) -> SolutionBundle:
    """The bundle with K and A pushed up at a third of the nodes below N: its
    minimality terms stay >= 0 wherever Y lies between the barriers."""
    rng = np.random.default_rng(seed)
    inner = np.arange(bundle.tree.node_count()) < bundle.tree.node_start[-2]

    def up(field: AdaptedField) -> AdaptedField:
        bump = (rng.random(inner.size) < 0.35) & inner
        return AdaptedField.from_flat(bundle.tree, field.values + bump * rng.uniform(0.0, 0.2, inner.size))

    return dataclasses.replace(bundle, dk_star=up(bundle.dk_star), jump_k=up(bundle.jump_k),
                               da_star=up(bundle.da_star), jump_a=up(bundle.jump_a), method="raised")


def test_two_state_walk_matches_the_phase_walk_on_projection_bundles():
    cases = [CASES[name]() for name in TWO_SIDED]
    cases += [random_instance(InstanceRecipe(seed=seed, right_jumps=seed % 3)) for seed in range(200)]
    for inst in cases:
        sol = solve_doubly_reflected(inst)
        for bundle in (sol, raised(sol, inst.tree.depth)):
            chain = chain_report(inst, bundle)
            assert chain.worst is not None  # no reached minimality term is negative
            worst = chain.worst_interval()
            assert list(worst) == list(INTERVAL_FIELDS)
            assert worst == worst_over_intervals(chain)
            assert chain.stationarity_index == alternating_sequence(bundle.y, inst.barriers)[1].max_index
        assert worst["lower_skorokhod"] > 0.0 and worst["upper_skorokhod"] > 0.0


def test_two_state_walk_skips_nodes_no_path_reaches():
    # node (1, 2) has no parent; Y far below L and a budget defect there must not count
    tree = FiltrationTree(
        [[0.0], [-1.0, 1.0, 5.0], [-1.5, 0.0, 1.5]],
        [[[0, 1]], [[0, 1], [1, 2], [2]]],
        [[[0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5], [1.0]]],
    )
    lower = RegulatedField.from_values(tree, [0.3 * s - 0.5 for s in tree.states])
    upper = RegulatedField.from_values(tree, [0.3 * s + 0.5 for s in tree.states])
    inst = ProblemInstance(
        tree, TimeGrid.uniform(1.0, 2), np.zeros(3), linear_driver(0.1, -0.5), BarrierPair(lower, upper)
    )
    sol = raised(solve_doubly_reflected(inst), 2)
    y = np.array(sol.y.value.values)
    y[tree.node_start[1] + 2] = -10.0
    bad = dataclasses.replace(sol, y=RegulatedField(AdaptedField.from_flat(tree, y)))
    chain = chain_report(inst, bad)
    assert chain.worst is not None
    assert chain.worst_interval() == worst_over_intervals(chain)
    assert chain.worst_interval()["sandwich_violation"] < 1.0


@pytest.mark.parametrize("name", TWO_SIDED)
def test_interval_walk_spreads_the_terminal_sandwich_over_the_skipped_intervals(name):
    """Y pushed outside the barriers at the leaves, by a different amount at
    each: instant N lies in every interval from a path's phase there on."""
    inst, sol = solved(name)
    tree, rng = inst.tree, np.random.default_rng(inst.tree.depth)
    leaves = np.arange(tree.node_count()) >= tree.node_start[-2]
    shift = leaves * rng.uniform(-0.5, 0.5, leaves.size)
    y = RegulatedField(sol.y.value.map(lambda v: v + shift), sol.y.right_value.map(lambda v: v + shift))
    bundle = dataclasses.replace(sol, y=y, method="leaves moved")
    rules, _ = alternating_sequence(bundle.y, inst.barriers)
    context = PathContext(inst, bundle)
    reports = [local_solution(inst, a, b, context=context).report for a, b in zip(rules, rules[1:])]
    assert [r.sandwich_violation for r in chain_report(inst, bundle).intervals] == [
        r.sandwich_violation for r in reports]
    assert max(r.sandwich_violation for r in reports) > 0.0


STALL_TEXTS = {  # as the phase walk named them
    "touching_barriers.json": "node 1 at level 2",
    "binomial-5": "node 2 at level 3",
    "binomial-7": "node 2 at level 6",
    "binomial-9": "node 0 at level 4",
    "binomial-12": "node 1 at level 7",
    "explicit-tree-6": "node 2 at level 3",
    "explicit-recombining-7": "node 2 at level 6",
    "explicit-recombining-8": "node 1 at level 6",
}


@pytest.mark.parametrize("name", list(STALL_TEXTS))
def test_two_state_walk_names_the_stall_as_the_phase_walk_did(name):
    if name.endswith(".json"):
        touching = load_instance(Path(__file__).resolve().parents[1] / "instances" / name)
    else:
        touching, _ = touching_instance(name)
    with pytest.raises(AlternationStuckError) as err:
        chain_report(touching, solve_doubly_reflected(touching))
    assert str(err.value) == f"alternating sequence stuck on {STALL_TEXTS[name]}; local barrier gap U - L = 0.0"
