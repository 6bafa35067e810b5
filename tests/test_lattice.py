import math

import numpy as np
import pytest

from rbsde_lab.errors import EnumerationCapError, InvalidInstanceError, PreconditionError
from rbsde_lab.lattice import (
    AdaptedField,
    EdgeField,
    FiltrationTree,
    TimeGrid,
    build_binomial,
    conditional_expectation,
    enumerate_paths,
    expect_level,
    martingale_increments,
    sup_distance,
)


def test_one_step_symmetric_walk():
    tree = build_binomial(1, 0.0, 1.0, -1.0, 0.5)
    assert tree.node_count() == 3
    assert sorted(tree.states[1]) == [-1.0, 1.0]
    paths = enumerate_paths(tree)
    assert len(paths) == 2
    assert all(p.probability == 0.5 for p in paths)


def test_two_step_recombination():
    tree = build_binomial(2, 0.0, 1.0, -1.0, 0.5)
    assert list(tree.states[2]) == [-2.0, 0.0, 2.0]
    paths = enumerate_paths(tree)
    assert len(paths) == 4
    counts = {}
    for p in paths:
        counts[p.nodes[-1]] = counts.get(p.nodes[-1], 0) + 1
    assert [counts[j] for j in range(3)] == [1, 2, 1]
    assert all(p.probability == 0.25 for p in paths)


def test_twenty_step_leaf_probabilities_match_binomial_coefficients():
    tree = build_binomial(20, 100.0, 1.0, -1.0, 0.5)
    assert tree.node_count() == sum(k + 1 for k in range(21)) == 231
    # leaf j reached by C(20, j) of the 2^20 equiprobable paths
    nodes, _, probs = tree.path_arrays()
    assert nodes.shape[0] == 2 ** 20
    leaf_prob = np.zeros(21)
    np.add.at(leaf_prob, nodes[:, -1], probs)
    expected = np.asarray([math.comb(20, j) / 2 ** 20 for j in range(21)])
    assert np.max(np.abs(leaf_prob - expected)) < 1e-12


def test_build_binomial_rejects_bad_parameters():
    with pytest.raises(InvalidInstanceError):
        build_binomial(0, 0.0, 1.0, -1.0, 0.5)
    with pytest.raises(InvalidInstanceError):
        build_binomial(3, 0.0, 1.0, -1.0, 0.0)
    with pytest.raises(InvalidInstanceError):
        build_binomial(3, 0.0, 1.0, -1.0, 1.0)
    with pytest.raises(InvalidInstanceError):
        build_binomial(3, 0.0, -1.0, 1.0, 0.5)


def test_conditional_expectation_simple_cases():
    tree = FiltrationTree(
        states=[[0.0], [1.0, 3.0]],
        children=[[[0, 1]]],
        probs=[[[0.5, 0.5]]],
    )
    field = AdaptedField(tree, [[0.0], [1.0, 3.0]])
    assert conditional_expectation(field, (0, 0)) == 2.0

    single = FiltrationTree(states=[[0.0], [7.0]], children=[[[0]]], probs=[[[1.0]]])
    f = AdaptedField(single, [[0.0], [7.0]])
    assert conditional_expectation(f, (0, 0)) == 7.0


def test_conditional_expectation_martingale_property_by_path_enumeration():
    tree = build_binomial(3, 0.0, 1.0, -1.0, 0.5)
    state = AdaptedField(tree, [tree.states[k] for k in range(4)])
    for k in range(3):
        for j in range(tree.level_size(k)):
            # oracle: average the terminal state over all paths through (k, j)
            nodes, _, probs = tree.path_arrays()
            through = nodes[:, k] == j
            cond = float(np.sum(probs[through] * nodes[through, k + 1].astype(float) * 0))
            e = conditional_expectation(
                AdaptedField(tree, [tree.states[i] for i in range(4)]).level(k + 1),
                (k, j),
                tree=tree,
            )
            assert e == pytest.approx(tree.state(k, j), abs=1e-12)
            del cond
    # level mismatch must be refused
    with pytest.raises(PreconditionError):
        conditional_expectation(np.zeros(99), (0, 0), tree=tree)


def test_tower_property():
    tree = build_binomial(3, 0.5, 0.7, -0.4, 0.6)
    rng = np.random.default_rng(7)
    field = AdaptedField(tree, [rng.normal(size=tree.level_size(k)) for k in range(4)])
    nodes, _, probs = tree.path_arrays()
    vals = field.path_matrix()
    for k in range(2):
        for j in range(tree.level_size(k)):
            # iterate conditional expectations two levels down
            inner = np.asarray(
                [
                    conditional_expectation(field.level(k + 2), (k + 1, jj), tree=tree)
                    for jj in range(tree.level_size(k + 1))
                ]
            )
            nested = conditional_expectation(inner, (k, j), tree=tree)
            through = nodes[:, k] == j
            direct = float(np.sum(probs[through] * vals[through, k + 2]) / np.sum(probs[through]))
            assert nested == pytest.approx(direct, abs=1e-12)


def test_martingale_increments_constant_and_walk():
    tree = build_binomial(3, 0.0, 1.0, -1.0, 0.5)
    const = AdaptedField.constant(tree, 4.2)
    dm = martingale_increments(const)
    for k in range(3):
        for j in range(tree.level_size(k)):
            assert np.all(dm.edges(k, j) == 0.0)
    walk = AdaptedField(tree, [tree.states[k] for k in range(4)])
    dm = martingale_increments(walk)
    for k in range(3):
        for j in range(tree.level_size(k)):
            assert sorted(dm.edges(k, j)) == [-1.0, 1.0]


def test_martingale_increments_conditionally_centered():
    tree = build_binomial(3, 0.0, 0.9, -0.6, 0.43)
    rng = np.random.default_rng(11)
    field = AdaptedField(tree, [rng.normal(size=tree.level_size(k)) for k in range(4)])
    dm = martingale_increments(field)
    assert dm.conditional_mean_deviation() <= 1e-12


def test_enumerate_paths_probability_sum_and_cap():
    tree = build_binomial(10, 0.0, 1.0, -1.0, 0.37)
    paths = enumerate_paths(tree)
    assert len(paths) == 1024
    assert abs(sum(p.probability for p in paths) - 1.0) < 1e-12
    with pytest.raises(EnumerationCapError):
        enumerate_paths(tree, cap=9)


def test_sup_distance():
    tree = build_binomial(3, 0.0, 1.0, -1.0, 0.5)
    rng = np.random.default_rng(3)
    f = AdaptedField(tree, [rng.normal(size=tree.level_size(k)) for k in range(4)])
    assert sup_distance(f, f) == 0.0
    shifted = f.map(lambda v: v + 0.75)
    assert sup_distance(f, shifted) == pytest.approx(0.75, abs=1e-15)
    g = AdaptedField(tree, [rng.normal(size=tree.level_size(k)) for k in range(4)])
    exhaustive = max(
        float(np.max(np.abs(f.level(k) - g.level(k)))) for k in range(4)
    )
    assert sup_distance(f, g) == exhaustive


def test_time_grid_invariants():
    grid = TimeGrid.uniform(2.0, 4)
    assert grid.steps == 4
    assert grid.horizon == 2.0
    assert grid.dt(0) == pytest.approx(0.5)
    with pytest.raises(InvalidInstanceError):
        TimeGrid([0.0, 0.5, 0.5, 1.0])
    with pytest.raises(InvalidInstanceError):
        TimeGrid([0.1, 0.5])


def shared_children_tree(rng: np.random.Generator, depth: int) -> tuple[list, list, list]:
    """Explicit tree data: fan-out 1-4, children shared between parents in
    shuffled slot order, about a quarter of the edges with probability 0."""
    widths = [1] + [int(rng.integers(2, 6)) for _ in range(depth)]
    states = [list(rng.normal(size=w)) for w in widths]
    children, probs = [], []
    for k in range(depth):
        nxt = widths[k + 1]
        level = [list(rng.permutation(nxt)[: int(rng.integers(1, min(4, nxt) + 1))]) for _ in range(widths[k])]
        for orphan in sorted(set(range(nxt)) - {c for cs in level for c in cs}):
            level[int(rng.integers(0, len(level)))].append(orphan)
        children.append([[int(c) for c in cs] for cs in level])
        level_probs = []
        for cs in level:
            w = rng.uniform(0.1, 1.0, size=len(cs))
            w[rng.uniform(size=len(cs)) < 0.25] = 0.0
            if not np.any(w):
                w[-1] = 1.0
            level_probs.append(list(w / np.sum(w)))
        probs.append(level_probs)
    return states, children, probs


@pytest.mark.parametrize("seed", range(8))
def test_flat_kernels_match_the_scalar_reference_on_explicit_trees(seed):
    rng = np.random.default_rng(seed)
    states, children, probs = shared_children_tree(rng, depth=6)
    tree = FiltrationTree(states, children, probs)
    assert any(len(set(c for cs in level for c in cs)) < sum(map(len, level)) for level in children)
    assert any(p == 0.0 for level in probs for ps in level for p in ps)
    field = AdaptedField(tree, [rng.normal(size=tree.level_size(k)) for k in range(tree.levels)])
    for k in range(tree.depth):
        nxt = field.level(k + 1)
        reference = [conditional_expectation(nxt, (k, j), tree=tree) for j in range(tree.level_size(k))]
        # bit for bit: compare the IEEE encodings, not the values
        assert [v.hex() for v in expect_level(tree, k, nxt).tolist()] == [v.hex() for v in reference]
        for j in range(tree.level_size(k)):
            assert tree.children[k][j].tolist() == children[k][j]
            assert tree.probs[k][j].tolist() == probs[k][j]
    assert martingale_increments(field).conditional_mean_deviation() <= 1e-12
    assert tree.same_shape(FiltrationTree(states, children, probs))
    # move 1e-3 of probability between two edges of one node
    k, j = next((k, j) for k, level in enumerate(probs) for j, ps in enumerate(level) if len(ps) > 1)
    nudged = [[list(ps) for ps in level] for level in probs]
    i = int(np.argmax(nudged[k][j]))
    nudged[k][j][i] -= 1e-3
    nudged[k][j][(i + 1) % len(nudged[k][j])] += 1e-3
    assert not tree.same_shape(FiltrationTree(states, children, nudged))


def test_tree_rejects_non_finite_probabilities_naming_the_node():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(InvalidInstanceError, match=r"node \(1,1\)"):
            FiltrationTree(
                [[0.0], [1.0, 2.0], [0.0, 1.0]],
                [[[0, 1]], [[0], [0, 1]]],
                [[[0.5, 0.5]], [[1.0], [bad, 0.5]]],
            )


def test_edge_field_rejects_non_finite_values():
    tree = build_binomial(2, 0.0, 1.0, -1.0, 0.5)
    good = [np.zeros(2), np.zeros(4)]
    assert EdgeField(tree, good).conditional_mean_deviation() == 0.0
    for bad in (float("nan"), float("inf")):
        values = [np.zeros(2), np.array([0.0, 0.0, bad, 0.0])]
        with pytest.raises(InvalidInstanceError, match="non-finite"):
            EdgeField(tree, values)
