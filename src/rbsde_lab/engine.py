"""The shared backward sweep, and the plain and penalized steps on the tree.

:func:`backward_sweep` is the one backward induction of the package: it
owns the level loop, the conditional expectations, the martingale
increments and the assembly of the solution bundle.  A solver supplies
only the step that turns the expectations of one level into its values
and increments; the penalized step lives here, the projection step in
:mod:`rbsde_lab.solvers`.

The driver integral is treated implicitly (solve y = e + f(t, y) dt) and so
is the penalty term n (y - L)^- dt: the piecewise-linear equation is solved
exactly by case analysis, with fixed-point refinement only for non-affine
drivers.  Explicit penalties would blow up along the level schedule.

The per-node kernel is lower-side only.  Upper-side modes are solved by
negation duality: (Y, M, K, A) solves the upper problem iff (-Y, -M, A, K)
solves the lower problem for the negated data.  :func:`solve_penalized`
negates once per call, :func:`penalization_sweep` once per sweep (not per
penalty level).  Negation is exact, so the duality identities hold bit for
bit.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .bundles import SolutionBundle, lu4_residual, skorokhod_residual
from .drivers import Driver
from .errors import (
    NumericalError,
    PreconditionError,
    SchemeMonotonicityError,
    StabilityError,
)
from .lattice import AdaptedField, EdgeField, edge_increments, expect_level
from .regulated import (
    ProblemInstance,
    RegulatedField,
    jump_exhaustion_schedule,
    jump_masks,
    negation_dual,
    require_valid,
)

# (k, e) -> the level's rows (y, dK*, jumpK, dA*, jumpA), shape (5, width)
LevelStep = Callable[[int, np.ndarray], np.ndarray]

FIXED_POINT_TOL = 1e-13
FIXED_POINT_MAX_ITER = 200
MONOTONICITY_TOL = 1e-10
DEFAULT_MAX_PENALTY = 2 ** 20


class PenalizationMode(enum.Enum):
    PURE_LOWER = "pure-lower"
    PURE_UPPER = "pure-upper"
    LOWER_PENALTY_UPPER_REFLECT = "lower-penalty-upper-reflect"
    UPPER_PENALTY_LOWER_REFLECT = "upper-penalty-lower-reflect"

    def __init__(self, value: str) -> None:
        self.penalizes_lower = value in ("pure-lower", "lower-penalty-upper-reflect")
        self.reflects = value.endswith("-reflect")

    @property
    def dual(self) -> "PenalizationMode":
        return {
            PenalizationMode.PURE_LOWER: PenalizationMode.PURE_UPPER,
            PenalizationMode.PURE_UPPER: PenalizationMode.PURE_LOWER,
            PenalizationMode.LOWER_PENALTY_UPPER_REFLECT: PenalizationMode.UPPER_PENALTY_LOWER_REFLECT,
            PenalizationMode.UPPER_PENALTY_LOWER_REFLECT: PenalizationMode.LOWER_PENALTY_UPPER_REFLECT,
        }[self]


def _check_stability(driver: Driver, dt: float) -> None:
    if not driver.mu * dt < 0.5:
        raise StabilityError(
            f"mu * dt = {driver.mu * dt} is not < 1/2; refusing the implicit step"
        )


def implicit_step(e: float, t: float, dt: float, driver: Driver) -> float:
    """The unique y with y = e + f(t, y) dt.

    Affine drivers are solved in closed form; general Lipschitz drivers by
    fixed-point iteration to 1e-13, a guaranteed contraction while
    mu * dt < 1/2.
    """
    _check_stability(driver, dt)
    if driver.affine:
        a, b = driver.coefficients(t)
        return (e + a * dt) / (1.0 - b * dt)
    z = e
    for _ in range(FIXED_POINT_MAX_ITER):
        z_next = e + driver(t, z) * dt
        if abs(z_next - z) <= FIXED_POINT_TOL:
            return z_next
        z = z_next
    raise NumericalError(
        f"implicit step failed to converge: e={e!r}, t={t!r}, dt={dt!r}, "
        f"last iterate {z!r}"
    )


def _pl_lower(c: float, scale: float, n: int, dt: float, lower: float) -> tuple[float, float]:
    """Exact solve of scale*y = c + n dt (lower - y)^+ by case analysis.

    Returns (y, dk_star).  ``scale`` is 1 - b*dt for affine drivers, 1 else.
    """
    if c >= lower * scale:
        return c / scale, 0.0
    y = (c + n * dt * lower) / (scale + n * dt)
    return y, n * dt * max(lower - y, 0.0)


def _flow_unclamped(
    e: float, t: float, dt: float, n: int, driver: Driver, lower: float
) -> tuple[float, float]:
    """Implicit flow value over one interval with the lower penalty."""
    if driver.affine:
        a, b = driver.coefficients(t)
        return _pl_lower(e + a * dt, 1.0 - b * dt, n, dt, lower)
    z = e
    for _ in range(FIXED_POINT_MAX_ITER):
        y, pen = _pl_lower(e + driver(t, z) * dt, 1.0, n, dt, lower)
        if abs(y - z) <= FIXED_POINT_TOL:
            return y, pen
        z = y
    raise NumericalError(
        f"penalized step failed to converge: e={e!r}, t={t!r}, dt={dt!r}, n={n}"
    )


def _require_lower_side(mode: PenalizationMode) -> None:
    if not mode.penalizes_lower:
        raise PreconditionError(f"mode {mode.value} is upper-side; solve its negation dual")


def penalized_step(
    e: float,
    t: float,
    dt: float,
    n: int,
    mode: PenalizationMode,
    lower: float | None,
    upper: float | None,
    driver: Driver,
) -> tuple[float, float, float]:
    """One implicit interval step with the lower penalty and, in the reflect
    mode, a clamp at the upper barrier.

    Returns (y, dk_star, da_star).  The recorded clamp increment re-solves
    the budget at the barrier exactly, so the one-step identity holds to
    round-off.  Pass ``None`` for ``upper`` at nodes where a declared right
    jump takes over (the value correction then books the excess).  Only
    lower-side modes are accepted; upper-side modes are solved on the
    negated problem.
    """
    _require_lower_side(mode)
    _check_stability(driver, dt)
    if lower is None:
        raise PreconditionError(f"mode {mode.value} needs the lower barrier")
    y, dk = _flow_unclamped(e, t, dt, n, driver, lower)
    if mode.reflects and upper is not None and y > upper:
        dk = n * dt * max(lower - upper, 0.0)
        da = max((e + driver(t, upper) * dt + dk) - upper, 0.0)
        return upper, dk, da
    return y, dk, 0.0


def right_jump_correction(
    y_plus: float,
    mode: PenalizationMode,
    lower: float | None,
    upper: float | None,
    *,
    lower_scheduled: bool = False,
    upper_declared: bool = False,
) -> tuple[float, float, float]:
    """Value-at-the-instant correction from the right-limit value.

    A node scheduled at the current penalty level is absorbed fully to the
    lower barrier; in the reflect mode a node with a declared upper jump is
    pulled down to the upper barrier.  Identity elsewhere.  Only lower-side
    modes are accepted.  Returns (y, jump_k, jump_a).
    """
    _require_lower_side(mode)
    y = y_plus
    jump_k = 0.0
    jump_a = 0.0
    if lower_scheduled and lower is not None and y < lower:
        jump_k = lower - y
        y = lower
    if mode.reflects and upper_declared and upper is not None and y > upper:
        jump_a = y - upper
        y = upper
    return y, jump_k, jump_a


def backward_sweep(
    instance: ProblemInstance, step: LevelStep, method: str, n: int | None = None
) -> SolutionBundle:
    """Backward induction from the terminal payoff, one level at a time.

    At level k the conditional expectations ``e`` of the level-(k+1) values
    and the martingale increments on the edges out of level k are taken
    here; ``step(k, e)`` returns the level's rows (y, dK*, jumpK, dA*,
    jumpA).  The right-limit value is assembled as (value - jumpK) + jumpA.
    """
    tree = instance.tree
    depth = tree.depth
    terminal = np.array(instance.terminal, dtype=float)
    rows: list = [None] * depth + [[terminal] + [np.zeros(terminal.size)] * 4]
    dm_levels: list = [None] * depth
    for k in range(depth - 1, -1, -1):
        y_next = rows[k + 1][0]
        e = expect_level(tree, k, y_next)
        dm_levels[k] = edge_increments(tree, k, y_next, e)
        rows[k] = step(k, e)
    value, dk_star, jump_k, da_star, jump_a = (AdaptedField(tree, lv) for lv in zip(*rows))
    right = AdaptedField(
        tree,
        [(value.level(k) - jump_k.level(k)) + jump_a.level(k) for k in range(depth + 1)],
    )
    return SolutionBundle(
        tree=tree,
        grid=instance.grid,
        y=RegulatedField(value, right),
        dm=EdgeField(tree, dm_levels),
        dk_star=dk_star,
        jump_k=jump_k,
        da_star=da_star,
        jump_a=jump_a,
        method=method,
        n=n,
    )


def _penalized_lower_side(instance: ProblemInstance, n: int, mode: PenalizationMode) -> SolutionBundle:
    """The penalized sweep of a lower-side mode on a validated instance."""
    tree, grid, driver = instance.tree, instance.grid, instance.driver
    lower = instance.lower
    if lower is None:
        raise PreconditionError(f"mode {mode.value} needs the lower barrier")
    upper = instance.upper
    if mode.reflects and upper is None:
        raise PreconditionError(f"mode {mode.value} needs the upper barrier to reflect on")

    sched = jump_exhaustion_schedule(lower, n, side="lower").mask(tree)
    upper_jumps = jump_masks(upper, tree)
    reflects = mode.reflects

    def step(k: int, e: np.ndarray) -> np.ndarray:
        t = float(grid.instants[k])
        dt = grid.dt(k)
        lo_vals = lower.value.level(k)
        up_vals = None if upper is None else upper.value.level(k)
        out = []
        for j, e_j in enumerate(e.tolist()):
            lo = float(lo_vals[j])
            up = None if up_vals is None else float(up_vals[j])
            declared = reflects and bool(upper_jumps[k][j])
            clamp_upper = up if reflects and not declared else None
            y_plus, dk, da = penalized_step(e_j, t, dt, n, mode, lo, clamp_upper, driver)
            y, jk, ja = right_jump_correction(
                y_plus,
                mode,
                lo,
                up,
                lower_scheduled=bool(sched[k][j]),
                upper_declared=declared,
            )
            out.append((y, dk, jk, da, ja))
        return np.array(out).T

    return backward_sweep(instance, step, mode.value, n)


def solve_penalized(instance: ProblemInstance, n: int, mode: PenalizationMode) -> SolutionBundle:
    """Full backward sweep of one penalization scheme at level n.

    Lower-side modes run directly; upper-side modes run on the negated
    problem and swap (K, A) back, which realizes the duality exactly.
    """
    if n < 1:
        raise PreconditionError("penalty level must be >= 1")
    require_valid(instance)
    if mode.penalizes_lower:
        return _penalized_lower_side(instance, n, mode)
    dual = _penalized_lower_side(negation_dual(instance), n, mode.dual)
    return dual.negate_swap(method=mode.value)


@dataclass
class TraceRow:
    n: int
    sup_distance: float
    lower_skorokhod_residual: float | None = None
    upper_skorokhod_residual: float | None = None
    lu4_residual: float | None = None


@dataclass
class SweepResult:
    mode: PenalizationMode
    eps: float
    converged: bool
    levels: list[int]
    final: SolutionBundle
    trace: list[TraceRow]
    monotone_violation: float

    @property
    def y(self) -> RegulatedField:
        return self.final.y


def default_levels(n_max: int = DEFAULT_MAX_PENALTY) -> list[int]:
    """Doubling penalty schedule 1, 2, 4, ... up to n_max."""
    out = [1]
    while out[-1] * 2 <= n_max:
        out.append(out[-1] * 2)
    return out


def penalization_sweep(
    instance: ProblemInstance,
    mode: PenalizationMode,
    levels: list[int] | None = None,
    eps: float = 1e-5,
    compute_residuals: bool = False,
) -> SweepResult:
    """Run one penalization scheme along an increasing level schedule.

    Stops once consecutive solutions are eps-close in sup norm; asserts the
    monotonicity the comparison argument dictates (nondecreasing for the
    lower-penalty modes, nonincreasing for the upper-penalty modes) and
    raises when it fails beyond 1e-10.  Non-convergence within the schedule
    is reported in the result, not raised.

    An upper-side mode sweeps the negation dual of the validated instance and
    maps back only the final bundle, plus each level's when residuals are
    asked for.  Negation is exact: distances and monotonicity carry over.
    """
    if levels is None:
        levels = default_levels()
    if not levels or any(b <= a for a, b in zip(levels, levels[1:])):
        raise PreconditionError("penalty levels must be strictly increasing")
    upper_side = not mode.penalizes_lower
    if upper_side:
        require_valid(instance)
    frame = negation_dual(instance) if upper_side else instance
    frame_mode = mode.dual if upper_side else mode
    prev: SolutionBundle | None = None
    trace: list[TraceRow] = []
    ran: list[int] = []
    worst_mono = 0.0
    converged = False
    sol: SolutionBundle | None = None
    for n in levels:
        sol = solve_penalized(frame, n, frame_mode)
        ran.append(n)
        if prev is not None:
            dist = 0.0
            for k in range(instance.tree.levels):
                diff = sol.y.value.level(k) - prev.y.value.level(k)
                dist = max(dist, float(np.max(np.abs(diff))))
                worst_mono = max(worst_mono, float(np.max(-diff)))
            row = TraceRow(n, dist)
            if compute_residuals:
                here = sol.negate_swap(mode.value) if upper_side else sol
                rep = skorokhod_residual(here, instance.barriers)
                row.lower_skorokhod_residual = rep.lower_residual
                row.upper_skorokhod_residual = rep.upper_residual
                row.lu4_residual = lu4_residual(here, instance)
            trace.append(row)
            if worst_mono > MONOTONICITY_TOL:
                raise SchemeMonotonicityError(
                    f"{mode.value} sweep lost monotonicity by {worst_mono} at level {n}"
                )
            if dist < eps:
                converged = True
                break
        prev = sol
    assert sol is not None
    label = "decreasing-penalization" if upper_side else "increasing-penalization"
    final = sol.negate_swap(label) if upper_side else replace(sol, method=label)
    return SweepResult(
        mode=mode,
        eps=eps,
        converged=converged,
        levels=ran,
        final=final,
        trace=trace,
        monotone_violation=worst_mono,
    )
