"""Independent oracles and seeded instance generation.

The zero-sum stopping game gives an independent route to the doubly
reflected value when the driver does not depend on y: the fast variant is a
three-line backward recursion, the exhaustive variant enumerates adapted
stopping rules outright.  Both share the solver's conditional-expectation
kernel, so agreement is exact rather than approximate.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .bundles import SolutionBundle, pairwise_process_distances
from .drivers import Driver, constant_driver, linear_driver, zero_driver
from .engine import PenalizationMode, penalization_sweep
from .errors import (
    EnumerationCapError,
    InvalidInstanceError,
    PreconditionError,
    TheoremViolationError,
    UnsupportedDriverError,
)
from .lattice import AdaptedField, FiltrationTree, TimeGrid, build_binomial, expect_level, sup_distance
from .regulated import (
    BarrierPair,
    ProblemInstance,
    RegulatedField,
    _flagged,
    _order_gaps,
    check_separation,
    jump_masks,
    validate_instance,
)
from .solvers import solve_doubly_reflected
from .tolerances import COMPARISON_TOL, DEFAULT_EPS, sweep_gate

MAX_EXHAUSTIVE_DEPTH = 7
MAX_EXHAUSTIVE_RULES = 4096


def _game_recursion(instance: ProblemInstance) -> list[np.ndarray]:
    """Backward game value, V_T = terminal: the continuation E[V'] + f dt is
    clamped into [L+, U+] (stops just after the instant), then into [L, U]."""
    tree, grid, driver = instance.tree, instance.grid, instance.driver
    lower, upper = instance.lower, instance.upper
    depth = tree.depth
    levels: list[np.ndarray] = [np.empty(0)] * (depth + 1)
    levels[depth] = np.array(instance.terminal, dtype=float)
    for k in range(depth - 1, -1, -1):
        drift = driver(float(grid.instants[k]), 0.0) * grid.dt(k)
        c = expect_level(tree, k, levels[k + 1]) + drift
        # np.where, not np.maximum/np.minimum: a tie keeps the barrier value, sign of zero included
        for lo, up in ((lower.right_value, upper.right_value), (lower.value, upper.value)):
            c = np.where(c > lo.level(k), c, lo.level(k))
            c = np.where(c < up.level(k), c, up.level(k))
        levels[k] = c
    return levels


def _require_game_instance(instance: ProblemInstance) -> None:
    if not instance.driver.y_independent:
        raise UnsupportedDriverError(
            "the stopping-game oracle requires a driver independent of y"
        )
    if instance.lower is None or instance.upper is None:
        raise PreconditionError("the stopping game needs both barriers")


def _enumerate_stop_rules(
    tree: FiltrationTree, max_rules: int, plus: list[np.ndarray] | None = None
) -> list[list[np.ndarray]]:
    """Canonical adapted stopping rules as per-level stop codes.

    Code 0 continues, 1 stops at the instant and 2 just after it, at the
    barrier's right limit; code 2 is offered only at the nodes of ``plus``
    (per-level masks, none by default).  Codes are chosen level by level over
    the nodes still reachable without a prior stop, so no two enumerated
    rules induce the same stopping time.  Level N needs no codes (everything
    stops at the horizon).
    """
    depth = tree.depth
    rules: list[list[np.ndarray]] = []

    def rec(k: int, reachable: np.ndarray, codes: list[np.ndarray]) -> None:
        if len(rules) > max_rules:
            raise EnumerationCapError(
                f"stopping-rule enumeration exceeds cap {max_rules}; use the fast variant"
            )
        if k == depth:
            rules.append([c.copy() for c in codes])
            return
        radix = np.full(reachable.size, 2) if plus is None else np.where(plus[k][reachable], 3, 2)
        place = np.cumprod(np.concatenate([[1], radix[:-1]]))
        for number in range(int(np.prod(radix))):
            digits = number // place % radix
            code = np.zeros(tree.level_size(k), dtype=np.int8)
            code[reachable] = digits
            alive = np.zeros(tree.level_size(k), dtype=bool)
            alive[reachable[digits == 0]] = True
            codes.append(code)
            rec(k + 1, np.flatnonzero(tree.push_max(k, alive)), codes)
            codes.pop()

    rec(0, np.zeros(1, dtype=np.int64), [])
    return rules


def _pair_game_matrix(
    instance: ProblemInstance,
    rho_rules: list[list[np.ndarray]],
    nu_rules: list[list[np.ndarray]],
) -> np.ndarray:
    """Root payoff J(rho, nu) for every rule pair, shape (n_rho, n_nu).

    Stops at the instant pay L or U and come before stops just after it,
    which pay L+ or U+; the low barrier player moves first at ties.  Payoffs
    are evaluated by the same backward conditional-expectation kernel as the
    fast recursion, vectorized across the second player's rules.
    """
    tree, grid, driver = instance.tree, instance.grid, instance.driver
    lower, upper = instance.lower, instance.upper
    depth = tree.depth
    nu_stack = [np.stack([rule[k] for rule in nu_rules], axis=0) for k in range(depth)]
    out = np.empty((len(rho_rules), len(nu_rules)))
    terminal = np.array(instance.terminal, dtype=float)
    for r, rho in enumerate(rho_rules):
        values = np.tile(terminal, (len(nu_rules), 1))
        for k in range(depth - 1, -1, -1):
            drift = driver(float(grid.instants[k]), 0.0) * grid.dt(k)
            values = expect_level(tree, k, values) + drift
            for code, lo, up in ((2, lower.right_value, upper.right_value), (1, lower.value, upper.value)):
                values = np.where(rho[k] == code, lo.level(k), np.where(nu_stack[k] == code, up.level(k), values))
        out[r, :] = values[:, 0]
    return out


def exhaustive_game_values(instance: ProblemInstance) -> tuple[float, float]:
    """(sup-inf, inf-sup) over every pair of adapted stopping rules."""
    _require_game_instance(instance)
    if instance.tree.depth > MAX_EXHAUSTIVE_DEPTH:
        raise EnumerationCapError(
            f"exhaustive game limited to {MAX_EXHAUSTIVE_DEPTH} levels; use the fast variant"
        )
    tree = instance.tree
    rho_rules, nu_rules = (
        _enumerate_stop_rules(tree, MAX_EXHAUSTIVE_RULES, tree.split_levels(jump_masks(side, tree)))
        for side in (instance.lower, instance.upper)
    )
    matrix = _pair_game_matrix(instance, rho_rules, nu_rules)
    sup_inf = float(np.max(np.min(matrix, axis=1)))
    inf_sup = float(np.min(np.max(matrix, axis=0)))
    return sup_inf, inf_sup


def dynkin_value_bruteforce(
    instance: ProblemInstance,
    node: tuple[int, int] = (0, 0),
    exhaustive: bool = False,
) -> float:
    """Value of the zero-sum stopping game between the barrier players.

    Fast variant: backward recursion at any node.  Exhaustive variant
    (root only): enumerate every adapted stopping-rule pair and take the
    sup-inf, cross-checked against the inf-sup.
    """
    _require_game_instance(instance)
    if not exhaustive:
        k, j = node
        return float(_game_recursion(instance)[k][j])
    if node != (0, 0):
        raise PreconditionError("the exhaustive game value is computed at the root")
    sup_inf, inf_sup = exhaustive_game_values(instance)
    if sup_inf != inf_sup:
        raise TheoremViolationError(
            f"game value gap: sup-inf {sup_inf!r} != inf-sup {inf_sup!r}"
        )
    return sup_inf


def game_value_field(instance: ProblemInstance) -> AdaptedField:
    """Fast game values at every node, for cross-solver identity tests."""
    _require_game_instance(instance)
    return AdaptedField(instance.tree, _game_recursion(instance))


@dataclass
class ComparisonReport:
    max_violation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tolerance


def _check_field_order(
    name: str, a: RegulatedField | None, b: RegulatedField | None
) -> None:
    if (a is None) != (b is None):
        raise PreconditionError(f"{name}: barriers must be both present or both absent")
    if a is None or b is None:
        return
    hits = _flagged(a.tree, _order_gaps(b, a), lambda g: g > 0.0)
    if hits:  # the first level out of order, and its worst node
        which, k = hits[0][:2]
        x, y = (getattr(side, which).level(k) for side in (a, b))
        j = int(np.argmax(x - y))
        raise PreconditionError(f"{name} {which} not ordered at node ({k},{j}): {float(x[j])} > {float(y[j])}")


def _check_driver_order(a: ProblemInstance, b: ProblemInstance) -> None:
    sides = [s.value.values for inst in (a, b) for s in (inst.lower, inst.upper) if s is not None]
    values = np.concatenate([a.terminal, b.terminal, *sides])
    ys = np.linspace(float(np.min(values)) - 1.0, float(np.max(values)) + 1.0, 21)
    t, y = np.repeat(a.grid.instants[:-1], ys.size), np.tile(ys, a.grid.steps)  # instant-major
    fa, fb = a.driver.level(t, y), b.driver.level(t, y)
    bad = np.flatnonzero(fa > fb)
    if bad.size:
        t, y, fa, fb = (float(v[bad[0]]) for v in (t, y, fa, fb))
        raise PreconditionError(f"drivers not ordered at t={t}, y={y}: {fa} > {fb}")


def comparison_check(a: ProblemInstance, b: ProblemInstance) -> ComparisonReport:
    """Ordered data must give ordered solutions.

    Verifies the four data orderings first and refuses if any fails; then
    solves both by projection and reports the worst nodewise violation of
    Y <= Y'.
    """
    if a.tree is not b.tree and not a.tree.same_shape(b.tree):
        raise PreconditionError("comparison requires instances on the same tree")
    bad = a.terminal - b.terminal
    j = int(np.argmax(bad))
    if float(bad[j]) > 0.0:
        raise PreconditionError(
            f"terminal payoffs not ordered at leaf {j}: {float(a.terminal[j])} > {float(b.terminal[j])}"
        )
    _check_field_order("lower barrier", a.lower, b.lower)
    _check_field_order("upper barrier", a.upper, b.upper)
    _check_driver_order(a, b)
    ya = solve_doubly_reflected(a).y.value
    yb = solve_doubly_reflected(b).y.value
    worst = max(0.0, float(np.max(ya.values - yb.values)))
    return ComparisonReport(max_violation=worst, tolerance=COMPARISON_TOL)


@dataclass
class UniquenessReport:
    y_distances: dict[str, float]
    k_distances: dict[str, float]
    a_distances: dict[str, float]
    ka_distances: dict[str, float]
    separation_holds: bool
    tolerance: float
    converged: dict[str, bool]  # per penalization sweep

    @property
    def converged_all(self) -> bool:
        """Both penalization sweeps reached eps before the top of their ladder."""
        return all(self.converged.values())

    @property
    def passed(self) -> bool:
        """Both sweeps converged and every gated distance is within the tolerance.

        The distances of a sweep that stopped short of eps measure its
        truncation, not the solutions, so they decide nothing.
        """
        gate = [*self.y_distances.values(), *self.ka_distances.values()]
        if self.separation_holds:
            gate += [*self.k_distances.values(), *self.a_distances.values()]
        return self.converged_all and max(gate) <= self.tolerance


def uniqueness_probe(
    instance: ProblemInstance, eps: float = DEFAULT_EPS, projection: SolutionBundle | None = None
) -> UniquenessReport:
    """Solve by projection and by both penalization sweeps, compare everything.

    Y and K - A must agree across methods; K and A separately are gated only
    when the barriers are strictly separated (otherwise only their difference
    is pinned down, and the individual distances are reported, not failed).
    ``projection`` is the instance's :func:`solve_doubly_reflected` bundle,
    when the caller holds it already.
    """
    proj = solve_doubly_reflected(instance) if projection is None else projection
    inc = penalization_sweep(instance, PenalizationMode.LOWER_PENALTY_UPPER_REFLECT, eps=eps)
    dec = penalization_sweep(instance, PenalizationMode.UPPER_PENALTY_LOWER_REFLECT, eps=eps)
    bundles = {"projection": proj, "increasing": inc.final, "decreasing": dec.final}
    pairs = {f"{a}/{b}": (bundles[a], bundles[b]) for a, b in combinations(bundles, 2)}
    y_d = {key: sup_distance(bi.y.value, bj.y.value) for key, (bi, bj) in pairs.items()}
    gaps = dict(zip(pairs, pairwise_process_distances(list(pairs.values()))))
    k_d, a_d, ka_d = ({key: gap[c] for key, gap in gaps.items()} for c in range(3))
    return UniquenessReport(
        y_distances=y_d,
        k_distances=k_d,
        a_distances=a_d,
        ka_distances=ka_d,
        separation_holds=check_separation(instance.barriers).satisfied,
        tolerance=sweep_gate(eps),
        converged={"increasing": inc.converged, "decreasing": dec.converged},
    )


@dataclass(frozen=True)
class InstanceRecipe:
    """Seeded construction knobs for random admissible instances.

    Every instance lives on a binomial tree over [0, 1] with a number of
    steps drawn from ``steps``.  Its barriers are drawn constant, affine in
    the state or affine plus tabulated noise; a symmetric recipe draws that
    family too, then uses constant barriers.  A linear driver's slope stays
    within 2.0 (and 0.45 / dt).  ``gap`` is the separation floor kept
    between the barriers (and their right limits); generated instances
    always pass validation.
    """

    seed: int
    steps: tuple[int, int] = (10, 15)
    driver_family: str = "mixed"  # zero | constant | linear | mixed
    gap: float = 0.3
    right_jumps: int = 0
    one_sided: str | None = None  # None | "lower" | "upper"
    symmetric: bool = False


def _pick_driver(recipe: InstanceRecipe, rng: np.random.Generator, dt: float) -> Driver:
    family = recipe.driver_family
    if family == "mixed":
        family = ("zero", "constant", "linear")[int(rng.integers(0, 3))]
    if family == "zero":
        return zero_driver()
    if family == "constant":
        return constant_driver(float(rng.uniform(-1.0, 1.0)))
    if family == "linear":
        cap = min(2.0, 0.45 / dt)
        slope = float(rng.uniform(-cap, cap))
        intercept = 0.0 if recipe.symmetric else float(rng.uniform(-1.0, 1.0))
        return linear_driver(intercept, slope)
    raise InvalidInstanceError(f"unknown driver family {family!r}")


def _jump_sites(rng: np.random.Generator, tree: FiltrationTree, count: int) -> list[tuple[int, int]]:
    sites = []
    for _ in range(count):
        k = int(rng.integers(0, tree.depth))
        j = int(rng.integers(0, tree.level_size(k)))
        sites.append((k, j))
    return sorted(set(sites))


def _admissible(instance: ProblemInstance) -> ProblemInstance:
    """The generated instance, refused if it fails validation."""
    report = validate_instance(instance)
    if not report.ok:
        raise InvalidInstanceError(f"recipe produced an invalid instance: {report.violations[0]}")
    return instance


def random_instance(recipe: InstanceRecipe) -> ProblemInstance:
    """Deterministic-in-seed admissible instance from the recipe."""
    if recipe.gap <= 0.0:
        raise InvalidInstanceError("separation floor must be positive")
    rng = np.random.default_rng(recipe.seed)
    steps = int(rng.integers(recipe.steps[0], recipe.steps[1] + 1))
    grid = TimeGrid.uniform(1.0, steps)
    dt = 1.0 / steps
    vol = float(rng.uniform(0.5, 1.5))
    move = vol * float(np.sqrt(dt))
    x0 = 0.0 if recipe.symmetric else float(rng.uniform(-1.0, 1.0))
    p_up = 0.5 if recipe.symmetric else float(rng.uniform(0.35, 0.65))
    tree = build_binomial(steps, x0, move, -move, p_up)
    driver = _pick_driver(recipe, rng, dt)

    family = ("constant", "affine", "tabulated")[int(rng.integers(0, 3))]  # of the barriers

    if recipe.symmetric:
        u_base = recipe.gap / 2.0 + float(rng.uniform(0.3, 1.5))
        upper = RegulatedField.constant(tree, u_base)
        lower = RegulatedField.constant(tree, -u_base)
        if recipe.right_jumps:
            sites = _jump_sites(rng, tree, recipe.right_jumps)
            deltas = [float(rng.uniform(0.05, 0.5)) for _ in sites]
            upper = upper.with_right_jumps(
                [(k, j, u_base + d) for (k, j), d in zip(sites, deltas)]
            )
            lower = lower.with_right_jumps(
                [(k, j, -(u_base + d)) for (k, j), d in zip(sites, deltas)]
            )
        x_leaf = tree.states[tree.depth]
        scale = 0.9 * u_base / float(np.max(np.abs(x_leaf))) if np.max(np.abs(x_leaf)) > 0 else 0.0
        return _admissible(ProblemInstance(tree, grid, scale * x_leaf, driver, BarrierPair(lower, upper)))

    l_base = float(rng.uniform(-1.5, -0.2))
    spread = recipe.gap + 0.05 + float(rng.uniform(0.0, 0.75))
    u_base = l_base + spread
    slope = 0.0 if family == "constant" else float(rng.uniform(-0.6, 0.6))
    l_levels, u_levels = ([base + slope * x for x in tree.states] for base in (l_base, u_base))
    if family == "tabulated":
        noise = min(0.2, (spread - recipe.gap) / 2.0 * 0.9)
        for k in range(tree.levels):
            l_levels[k] = l_levels[k] + rng.uniform(-noise, noise, size=l_levels[k].size)
            u_levels[k] = u_levels[k] + rng.uniform(-noise, noise, size=u_levels[k].size)
    lower = RegulatedField.from_values(tree, l_levels)
    upper = RegulatedField.from_values(tree, u_levels)
    if recipe.right_jumps:  # lower jumps go down, upper ones up; the lower side draws first
        lower, upper = (
            side.with_right_jumps(
                [
                    (k, j, float(side.value.level(k)[j]) + sign * float(rng.uniform(0.02, 0.5)))
                    for k, j in _jump_sites(rng, tree, recipe.right_jumps)
                ]
            )
            for side, sign in ((lower, -1.0), (upper, 1.0))
        )

    leaf_lo = lower.value.level(tree.depth)
    leaf_hi = upper.value.level(tree.depth)
    mix = rng.uniform(0.02, 0.98, size=leaf_lo.size)
    terminal = leaf_lo + mix * (leaf_hi - leaf_lo)

    if recipe.one_sided == "lower":
        barriers = BarrierPair(lower, None)
    elif recipe.one_sided == "upper":
        terminal = leaf_hi - rng.uniform(0.1, 1.5, size=leaf_hi.size)
        barriers = BarrierPair(None, upper)
    else:
        barriers = BarrierPair(lower, upper)
    return _admissible(ProblemInstance(tree, grid, terminal, driver, barriers))


def ordered_widening(
    instance: ProblemInstance, rng: np.random.Generator
) -> ProblemInstance:
    """A second instance dominating the first datum-by-datum.

    Shifts satisfy lower <= terminal <= upper so both instances stay
    admissible, and the driver gains a nonnegative constant.
    """
    if instance.lower is None or instance.upper is None:
        raise PreconditionError("ordered widening expects a two-barrier instance")
    b = float(rng.uniform(0.0, 0.4))
    c = b + float(rng.uniform(0.0, 0.4))
    a = float(rng.uniform(b, c))
    d = float(rng.uniform(0.0, 0.5))
    driver = instance.driver
    if driver.affine:
        shifted = replace(driver, intercept=driver.intercept + d)
    else:
        shifted = replace(driver, family="custom", fn=lambda t, y: driver(t, y) + d)

    def raised(side: RegulatedField, by: float) -> RegulatedField:
        return RegulatedField(side.value.map(lambda v: v + by), side.right_value.map(lambda v: v + by))

    return replace(
        instance,
        terminal=instance.terminal + a,
        driver=shifted,
        barriers=BarrierPair(raised(instance.lower, b), raised(instance.upper, c)),
    )
