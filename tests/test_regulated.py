import dataclasses

import numpy as np
import pytest

from rbsde_lab.drivers import linear_driver, negate_driver, zero_driver
from rbsde_lab.errors import InvalidInstanceError, PreconditionError
from rbsde_lab.lattice import AdaptedField, TimeGrid, build_binomial
from rbsde_lab.regulated import (
    BarrierPair,
    ProblemInstance,
    RegulatedField,
    check_separation,
    jump_exhaustion_schedule,
    negation_dual,
    right_jump,
    validate_instance,
)


@pytest.fixture
def tree():
    return build_binomial(4, 0.0, 1.0, -1.0, 0.5)


def test_right_jump_defaults_and_declared(tree):
    flat = RegulatedField.constant(tree, 1.0)
    assert right_jump(flat, (2, 1)) == 0.0
    jumped = flat.with_right_jumps([(2, 1, 0.7)])
    assert right_jump(jumped, (2, 1)) == pytest.approx(-0.3)
    # full-field scan matches the declared event list
    assert jumped.jump_events() == [(2, 1, pytest.approx(-0.3))]


def test_no_terminal_right_jump(tree):
    flat = RegulatedField.constant(tree, 1.0)
    with pytest.raises(InvalidInstanceError):
        flat.with_right_jumps([(tree.depth, 0, 0.5)])


def test_negation_duality_of_fields(tree):
    field = RegulatedField.constant(tree, 2.0).with_right_jumps([(1, 0, 1.4)])
    neg = field.negate()
    assert neg.value[(1, 0)] == -2.0
    assert neg.right_value[(1, 0)] == pytest.approx(-1.4)
    assert neg.right_jump((1, 0)) == -field.right_jump((1, 0))
    twice = neg.negate()
    for k in range(tree.levels):
        assert np.array_equal(twice.value.level(k), field.value.level(k))
        assert np.array_equal(twice.right_value.level(k), field.right_value.level(k))


def test_check_separation_simple(tree):
    lower = RegulatedField.constant(tree, 0.0)
    upper = RegulatedField.constant(tree, 1.0)
    report = check_separation(BarrierPair(lower, upper))
    assert report.satisfied
    assert report.margin == 1.0

    touching_levels = [np.ones(tree.level_size(k)) for k in range(tree.levels)]
    touching_levels[2][1] = 0.0
    touching = RegulatedField.from_values(tree, touching_levels)
    report = check_separation(BarrierPair(lower, touching))
    assert not report.satisfied
    assert any(v.level == 2 and v.node == 1 for v in report.violations)


def test_order_violations_are_listed_level_by_level(tree):
    upper_levels = [np.ones(tree.level_size(k)) for k in range(tree.levels)]
    upper_levels[1][1] = -0.5
    upper_levels[3][2] = 0.0
    upper = RegulatedField.from_values(tree, upper_levels).with_right_jumps([(1, 0, 0.0), (3, 0, -1.0)])
    lower = RegulatedField.constant(tree, 0.0)
    report = check_separation(BarrierPair(lower, upper))
    assert [(v.which, v.level, v.node, v.gap) for v in report.violations] == [
        ("value", 1, 1, -0.5),
        ("right_value", 1, 0, 0.0),
        ("right_value", 1, 1, -0.5),
        ("value", 3, 2, 0.0),
        ("right_value", 3, 0, -1.0),
        ("right_value", 3, 2, 0.0),
    ]
    order = [v for v in validate_instance(_instance(tree, lower=lower, upper=upper)).violations
             if v.kind.startswith("barrier_order")]
    assert [(v.kind, v.location, v.detail) for v in order] == [
        ("barrier_order_value", "node (1,1)", 0.5),
        ("barrier_order_right_value", "node (1,1)", 0.5),
        ("barrier_order_right_value", "node (3,0)", 1.0),
    ]


def test_check_separation_randomized_margin(tree):
    rng = np.random.default_rng(5)
    lower_levels = [rng.normal(size=tree.level_size(k)) for k in range(tree.levels)]
    gaps = [0.05 + rng.random(tree.level_size(k)) for k in range(tree.levels)]
    upper_levels = [lo + g for lo, g in zip(lower_levels, gaps)]
    pair = BarrierPair(
        RegulatedField.from_values(tree, lower_levels),
        RegulatedField.from_values(tree, upper_levels),
    )
    report = check_separation(pair)
    assert report.satisfied
    exhaustive = min(
        float(np.min(hi - lo)) for lo, hi in zip(lower_levels, upper_levels)
    )
    assert report.margin == exhaustive
    assert report.margin == pytest.approx(min(float(np.min(g)) for g in gaps), abs=1e-12)
    # monotone: widening preserves satisfaction
    widened = BarrierPair(
        pair.lower,
        RegulatedField.from_values(tree, [u + 0.5 for u in upper_levels]),
    )
    assert check_separation(widened).satisfied


def test_schedule_thresholds_single_jump(tree):
    barrier = RegulatedField.constant(tree, 0.0).with_right_jumps([(1, 1, -0.6)])
    assert jump_exhaustion_schedule(barrier, 1).events == ()
    for n in (2, 3, 10):
        events = jump_exhaustion_schedule(barrier, n).events
        assert [(e.level, e.node) for e in events] == [(1, 1)]


def test_schedule_sizes_and_small_jump_first_at_21(tree):
    barrier = RegulatedField.constant(tree, 0.0).with_right_jumps(
        [(0, 0, -1.5), (1, 0, -0.4), (2, 2, -0.05)]
    )
    sizes = [len(jump_exhaustion_schedule(barrier, n).events) for n in range(1, 25)]
    assert sizes[0] == 1  # n=1: only the -1.5 jump
    assert sizes[1] == 1  # n=2: -0.4 not < -1/2
    assert sizes[2] == 2  # n=3: -0.4 < -1/3
    assert all(s == 2 for s in sizes[3:20])  # up to n=20 the -0.05 jump is absent
    assert sizes[20] == 3  # n=21 is the first level scheduling -0.05
    first = next(n for n in range(1, 25) if len(jump_exhaustion_schedule(barrier, n).events) == 3)
    assert first == 21


def test_schedule_nesting_and_exhaustion(tree):
    rng = np.random.default_rng(9)
    jumps = []
    for k in range(tree.depth):
        for j in range(tree.level_size(k)):
            if rng.random() < 0.4:
                jumps.append((k, j, -float(rng.uniform(0.001, 2.0))))
    barrier = RegulatedField.constant(tree, 0.0).with_right_jumps(
        [(k, j, d) for k, j, d in jumps]
    )
    prev = set()
    union = set()
    for n in range(1, 4000):
        sched = jump_exhaustion_schedule(barrier, n).node_set()
        assert prev <= sched
        prev = sched
        union |= sched
    negative = {(k, j) for k, j, d in jumps}
    assert union == negative


def test_schedule_empty_without_jumps(tree):
    barrier = RegulatedField.constant(tree, 0.0)
    for n in (1, 2, 64):
        assert jump_exhaustion_schedule(barrier, n).events == ()
    with pytest.raises(PreconditionError):
        jump_exhaustion_schedule(barrier, 0)


def test_upper_schedule_by_negation_duality(tree):
    barrier = RegulatedField.constant(tree, 1.0).with_right_jumps([(1, 1, 1.6), (2, 0, 0.9)])
    up = jump_exhaustion_schedule(barrier, 2, side="upper")
    assert {(e.level, e.node) for e in up.events} == {(1, 1)}
    dual = jump_exhaustion_schedule(barrier.negate(), 2, side="lower")
    assert {(e.level, e.node) for e in dual.events} == {(e.level, e.node) for e in up.events}


def _instance(tree, lower=None, upper=None, terminal=None, driver=None, horizon=1.0):
    grid = TimeGrid.uniform(horizon, tree.depth)
    if terminal is None:
        terminal = np.zeros(tree.level_size(tree.depth))
    return ProblemInstance(
        tree,
        grid,
        terminal,
        driver if driver is not None else zero_driver(),
        BarrierPair(lower, upper),
    )


def test_validate_constant_admissible(tree):
    inst = _instance(
        tree,
        lower=RegulatedField.constant(tree, -1.0),
        upper=RegulatedField.constant(tree, 1.0),
    )
    assert validate_instance(inst).ok


def test_validate_flags_terminal_sandwich(tree):
    terminal = np.zeros(tree.level_size(tree.depth))
    terminal[2] = -3.0
    inst = _instance(
        tree,
        lower=RegulatedField.constant(tree, -1.0),
        upper=RegulatedField.constant(tree, 1.0),
        terminal=terminal,
    )
    report = validate_instance(inst)
    assert not report.ok
    assert any(v.kind == "terminal_below_lower" and "leaf 2" in v.location for v in report.violations)


def test_validate_flags_stability(tree):
    inst = _instance(
        tree,
        lower=RegulatedField.constant(tree, -1.0),
        upper=RegulatedField.constant(tree, 1.0),
        driver=linear_driver(0.0, -2.4),  # mu * dt = 2.4 * 0.25 = 0.6
    )
    report = validate_instance(inst)
    assert any(v.kind == "stability" and v.detail == pytest.approx(0.6) for v in report.violations)


def test_validate_flags_barrier_order(tree):
    lower_levels = [np.zeros(tree.level_size(k)) for k in range(tree.levels)]
    lower_levels[1][0] = 2.0
    inst = _instance(
        tree,
        lower=RegulatedField.from_values(tree, lower_levels),
        upper=RegulatedField.constant(tree, 1.0),
    )
    report = validate_instance(inst)
    assert any(v.kind == "barrier_order_value" for v in report.violations)


def test_negated_driver_is_exact_involution():
    f = linear_driver(0.3, -0.5)
    g = negate_driver(f)
    assert g(0.0, 2.0) == -f(0.0, -2.0)
    assert negate_driver(g) == f

    def rule(t, y):
        return np.sin(y) + t

    from rbsde_lab.drivers import custom_driver

    h = custom_driver(rule, mu=1.0)
    hh = negate_driver(negate_driver(h))
    assert hh is h


def test_driver_lipschitz_spot_check():
    rng = np.random.default_rng(2)
    f = linear_driver(0.1, 1.7)
    for _ in range(200):
        t = float(rng.uniform(0, 1))
        y1, y2 = rng.normal(size=2)
        assert abs(f(t, y1) - f(t, y2)) <= f.mu * abs(y1 - y2) + 1e-12


def test_validation_report_is_computed_once_per_instance(tree):
    inst = _instance(tree, lower=RegulatedField.constant(tree, -1.0), upper=RegulatedField.constant(tree, 1.0))
    assert validate_instance(inst) is validate_instance(inst)
    assert inst.validation is validate_instance(inst)


def test_derived_data_is_computed_once_per_instance_and_pair(tree):
    lower = RegulatedField.constant(tree, -1.0).with_right_jumps([(1, 0, -1.5)])
    inst = _instance(tree, lower=lower, upper=RegulatedField.constant(tree, 1.0))
    assert negation_dual(inst) is negation_dual(inst)
    assert negation_dual(inst) is inst.dual and negation_dual(inst).dual is not inst  # no reference back
    assert check_separation(inst.barriers) is check_separation(inst.barriers)
    assert inst.limits is inst.limits and inst.clocks is inst.clocks
    assert lower.jumps is lower.jumps and not lower.jumps.flags.writeable


def test_limits_and_clocks_read_the_barriers_and_the_grid(tree):
    lower = RegulatedField.constant(tree, -1.0).with_right_jumps([(1, 0, -1.5)])
    inst = _instance(tree, lower=lower, upper=None)
    l, l_right, u, u_right = inst.limits
    assert l is lower.value.values and l_right is lower.right_value.values
    assert u.shape == u_right.shape == (tree.node_count(),) and np.all(u == np.inf) and np.all(u_right == np.inf)
    times, steps = inst.clocks
    for k in range(tree.levels):
        level = slice(tree.node_start[k], tree.node_start[k + 1])
        assert np.all(times[level] == inst.grid.instants[k])
        assert np.all(steps[level] == (inst.grid.dt(k) if k < tree.depth else 0.0))


def test_exhaustion_rule_takes_one_level_or_a_column_of_levels(tree):
    barrier = RegulatedField.constant(tree, 0.0).with_right_jumps([(1, 0, -0.3), (2, 1, -0.7), (3, 2, 0.9)])
    ns = np.array([1.0, 2.0, 4.0])[:, None]
    rows = barrier.exhausted(ns)
    for n, row in zip([1, 2, 4], rows):
        assert np.array_equal(row, barrier.exhausted(n))
        scheduled = set(zip(*(v.tolist() for v in tree.locate(np.flatnonzero(row)))))
        assert scheduled == jump_exhaustion_schedule(barrier, n).node_set()


def test_instances_and_barrier_pairs_are_frozen(tree):
    pair = BarrierPair(RegulatedField.constant(tree, -1.0), RegulatedField.constant(tree, 1.0))
    inst = _instance(tree, lower=pair.lower, upper=pair.upper)
    for value in (pair, inst):
        for f in dataclasses.fields(value):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, f.name, getattr(value, f.name))


def test_negation_dual_gets_its_own_validation_report(tree):
    terminal = np.zeros(tree.level_size(tree.depth))
    terminal[3] = -3.0  # below L = -1 at leaf 3
    inst = _instance(
        tree,
        lower=RegulatedField.constant(tree, -1.0),
        upper=RegulatedField.constant(tree, 1.0),
        terminal=terminal,
    )
    assert [(v.kind, v.location) for v in validate_instance(inst).violations] == [("terminal_below_lower", "leaf 3")]
    dual = validate_instance(negation_dual(inst))
    assert [(v.kind, v.location, v.detail) for v in dual.violations] == [("terminal_above_upper", "leaf 3", 2.0)]


def test_validate_flags_stability_of_a_driver_made_stiff_by_replace(tree):
    inst = _instance(
        tree,
        lower=RegulatedField.constant(tree, -1.0),
        upper=RegulatedField.constant(tree, 1.0),
        driver=dataclasses.replace(zero_driver(), slope=-2.4),  # mu * dt = 2.4 * 0.25 = 0.6
    )
    report = validate_instance(inst)
    assert [(v.kind, v.detail) for v in report.violations] == [("stability", pytest.approx(0.6))]
