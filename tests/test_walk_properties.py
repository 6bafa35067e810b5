"""Property tests: the level-wise stopping walks against the path oracle on
random general trees (fan-out 1-4, zero-probability edges, recombining or
not, right jumps on both barriers, barriers that swing level by level or
touch at one level)."""
import pytest

pytest.importorskip("hypothesis")

import numpy as np
from hypothesis import given, settings, strategies as st

from rbsde_lab.errors import AlternationStuckError
from rbsde_lab.regulated import BarrierPair, ProblemInstance, RegulatedField
from rbsde_lab.solvers import solve_doubly_reflected
from rbsde_lab.stopping import (
    HIT_TOL,
    PathContext,
    StoppingRule,
    alternating_sequence,
    chain_report,
    local_solution,
    verify_local_properties,
)
from test_general_trees import (
    general_instance,
    jumps_both_barriers,
    path_local_properties,
    perturbed,
    raised,
    zigzag_instance,
)

FIELDS = ("budget_residual", "sandwich_violation", "lower_skorokhod", "upper_skorokhod")


@st.composite
def instances(draw):
    """An instance from the general-tree generators, its barriers touching at
    some nodes of one level below N when ``touching`` is drawn."""
    seed = draw(st.integers(0, 2**32 - 1))
    family = draw(st.sampled_from(["general", "jumps", "zigzag"]))
    depth = draw(st.integers(4 if family == "jumps" else 2, 7))  # below 4, mu * dt of a jumps driver may pass 0.5
    tree = "recombining" if draw(st.booleans()) else "explicit"
    touching = draw(st.none() | st.integers(0, depth - 1))
    if family == "general":
        inst = general_instance(seed, depth)
    elif family == "jumps":
        inst = jumps_both_barriers(seed, depth, tree=tree)
    else:
        inst = zigzag_instance(seed, depth, tree=tree)
    if touching is None:
        return inst
    tree, rng = inst.tree, np.random.default_rng(seed)
    low = [np.array(inst.lower.value.level(k)) for k in range(tree.levels)]
    up = [np.array(inst.upper.value.level(k)) for k in range(tree.levels)]
    touch = rng.random(tree.level_size(touching)) < 0.5
    touch[int(rng.integers(tree.level_size(touching)))] = True
    low[touching][touch] = up[touching][touch] = 0.5 * (low[touching][touch] + up[touching][touch])
    barriers = BarrierPair(RegulatedField.from_values(tree, low), RegulatedField.from_values(tree, up))
    return ProblemInstance(tree, inst.grid, inst.terminal, inst.driver, barriers)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(instances())
def test_two_state_walk_matches_the_path_oracle(inst):
    sol = solve_doubly_reflected(inst)
    for bundle in (sol, raised(sol, inst.tree.depth), perturbed(sol, seed=inst.tree.depth, y_scale=0.02)):
        try:
            rules, stat = alternating_sequence(bundle.y, inst.barriers)
        except AlternationStuckError as path_err:
            with pytest.raises(AlternationStuckError) as node_err:
                chain_report(inst, bundle)
            assert (node_err.value.level, node_err.value.gap) == (path_err.level, path_err.gap)
            continue
        chain = chain_report(inst, bundle)
        assert chain.stationarity_index == stat.max_index
        context = PathContext(inst, bundle)
        reports = [local_solution(inst, a, b, context=context).report for a, b in zip(rules, rules[1:])]
        assert chain.intervals == reports  # sums of at most 7 terms, one at a time on both sides
        assert chain.worst_interval() == {f: max(abs(getattr(r, f)) for r in reports) for f in FIELDS}


@settings(derandomize=True, deadline=None, max_examples=100)
@given(instances(), st.integers(0, 2**32 - 1))
def test_first_hit_pass_matches_the_path_oracle(inst, seed):
    tree, rng = inst.tree, np.random.default_rng(seed)
    sol = solve_doubly_reflected(inst)
    first = StoppingRule(tree, [rng.random(tree.level_size(k)) < 0.15 for k in range(tree.levels)])
    second = StoppingRule(tree, [rng.random(tree.level_size(k)) < 0.3 for k in range(tree.levels)], prior=first)
    for y in (sol.y, perturbed(sol, seed=seed, y_scale=0.1).y):
        for tau in (StoppingRule.at_zero(tree), first, second):
            for tol in (HIT_TOL, 0.05):
                rep = verify_local_properties(y, inst.barriers, tau, tol)
                got = [rep.upper_hit_deviation, rep.lower_hit_deviation,
                       rep.lower_sandwich_violation, rep.upper_sandwich_violation]
                assert got == path_local_properties(y, inst.barriers, tau, tol)
