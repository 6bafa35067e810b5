"""The shared backward sweep, and the plain and penalized steps on the tree.

:func:`backward_sweep` is the one backward induction of the package: it
owns the level loop, the conditional expectations, the martingale
increments and the assembly of the solution bundle.  A solver supplies
only the step that turns the expectations of one level into its values
and increments; the penalized step lives here, the projection step in
:mod:`rbsde_lab.solvers`.

The driver integral is treated implicitly (solve y = e + f(t, y) dt) and so
is the penalty term n (y - L+)^- dt: the piecewise-linear equation is solved
exactly by case analysis, with fixed-point refinement only for non-affine
drivers.  Explicit penalties would blow up along the level schedule.

The steps act on whole levels, with masked updates where nodes differ, and
one fixed-point loop serves both implicit solves; the scalar steps
(:func:`implicit_step` and the like) run the level code on one entry.

The penalized step is lower-side only.  Upper-side modes are solved by
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

# (k, e) -> the level's rows (y, dK*, jumpK, dA*, jumpA), one array each
LevelStep = Callable[[int, np.ndarray], tuple[np.ndarray, ...]]

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
        raise StabilityError(f"mu * dt = {driver.mu * dt} is not < 1/2; refusing the implicit step")


def positive_part(x: np.ndarray) -> np.ndarray:
    """The builtin max(x, 0.0) entry by entry: keeps -0.0 and NaN, unlike np.maximum."""
    return np.where(0.0 > x, 0.0, x)


def _fixed_point(e: np.ndarray, t: float, dt: float, driver: Driver, settle, failure: str):
    """Level-wide solve of y = settle(e + f(t, y) dt) for an implicit step.

    ``settle(c, scale, at)`` returns, at the entries ``at``, the y with
    scale*y = c plus the step's own terms.  Affine drivers move b*y to the
    left: one call with c = e + a dt and scale = 1 - b dt.  Other drivers
    iterate y -> settle(e + f(t, y) dt, 1) from y = e, a contraction while
    mu * dt < 1/2; each entry stops once its own iterates are within 1e-13,
    so it repeats its scalar sequence and the driver is not called on it
    again.  Returns (y, c, scale) of the last iterate.
    """
    if driver.affine:
        c, scale = e + driver.intercept * dt, 1.0 - driver.slope * dt
        return settle(c, scale, slice(None)), c, scale
    y, c = e.copy(), np.empty_like(e)
    live = np.arange(e.size)
    for _ in range(FIXED_POINT_MAX_ITER):
        c[live] = e[live] + driver.level(t, y[live]) * dt
        nxt = settle(c[live], 1.0, live)
        done = np.abs(nxt - y[live]) <= FIXED_POINT_TOL
        y[live] = nxt
        live = live[~done]
        if not live.size:
            return y, c, 1.0
    raise NumericalError(failure.format(e=float(e[live[0]]), t=t, dt=dt, z=float(y[live[0]])))


def implicit_level(e: np.ndarray, t: float, dt: float, driver: Driver) -> np.ndarray:
    """The unique y with y = e + f(t, y) dt, entry by entry."""
    failure = "implicit step failed to converge: e={e!r}, t={t!r}, dt={dt!r}, last iterate {z!r}"
    return _fixed_point(e, t, dt, driver, lambda c, scale, at: c / scale, failure)[0]


def penalized_level(
    e: np.ndarray, t: float, dt: float, n: int,
    lower: np.ndarray, upper: np.ndarray, clamp: np.ndarray, driver: Driver,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The implicit step with the lower penalty n (lower - y)^+ dt, then, at
    the entries of ``clamp``, a clamp at ``upper``: (y, dk_star, da_star).

    A clamped entry re-solves the budget at the barrier exactly, so the
    one-step identity holds to round-off.
    """
    ndt = n * dt

    def settle(c, scale, at):
        lo = lower[at]
        return np.where(c >= lo * scale, c / scale, (c + ndt * lo) / (scale + ndt))

    failure = f"penalized step failed to converge: e={{e!r}}, t={{t!r}}, dt={{dt!r}}, n={n}"
    y, c, scale = _fixed_point(e, t, dt, driver, settle, failure)
    dk, da = np.where(c >= lower * scale, 0.0, ndt * positive_part(lower - y)), np.zeros(y.size)
    i = (clamp & (y > upper)).nonzero()[0]
    cap = upper[i]
    dk[i] = ndt * positive_part(lower[i] - cap)
    da[i] = positive_part(e[i] + driver.level(t, cap) * dt + dk[i] - cap)
    y[i] = cap
    return y, dk, da


def jump_corrections(
    y: np.ndarray, lower: np.ndarray, upper: np.ndarray, at_lower: np.ndarray, at_upper: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Value-at-the-instant corrections of the right-limit value y: (y, jump_k, jump_a).

    Entries of ``at_lower`` below ``lower`` move up to it, booked as a right
    jump of K; then entries of ``at_upper`` above ``upper`` move down to it,
    a right jump of A.  A jump is positive exactly where its side acted.
    """
    y, jump_k, jump_a = y.copy(), np.zeros(y.size), np.zeros(y.size)
    if not (np.count_nonzero(at_lower) or np.count_nonzero(at_upper)):
        return y, jump_k, jump_a
    i = (at_lower & (y < lower)).nonzero()[0]
    jump_k[i] = lower[i] - y[i]
    y[i] = lower[i]
    i = (at_upper & (y > upper)).nonzero()[0]
    jump_a[i] = y[i] - upper[i]
    y[i] = upper[i]
    return y, jump_k, jump_a


def _one(value: float | None) -> np.ndarray:
    """A one-entry level; an absent barrier (None) sits under an unset mask."""
    return np.array([0.0 if value is None else value], dtype=float)


def implicit_step(e: float, t: float, dt: float, driver: Driver) -> float:
    """The unique y with y = e + f(t, y) dt: :func:`implicit_level` on one
    entry, refused unless mu * dt < 1/2."""
    _check_stability(driver, dt)
    return float(implicit_level(_one(e), t, dt, driver)[0])


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
    """:func:`penalized_level` of a lower-side mode on one entry: (y, dk_star, da_star).

    ``lower`` and ``upper`` are the barriers' right limits L+ and U+ at the
    node, and ``y`` is the right-limit value; the clamp at ``upper`` acts in
    the reflect mode.  :func:`right_jump_correction` then moves ``y`` to the
    value at the instant.
    """
    _require_lower_side(mode)
    _check_stability(driver, dt)
    if lower is None:
        raise PreconditionError(f"mode {mode.value} needs the lower barrier")
    clamp = np.array([mode.reflects and upper is not None])
    rows = penalized_level(_one(e), t, dt, n, _one(lower), _one(upper), clamp, driver)
    return tuple(float(v[0]) for v in rows)


def right_jump_correction(
    y_plus: float,
    mode: PenalizationMode,
    lower: float | None,
    upper: float | None,
    *,
    lower_scheduled: bool = False,
    upper_declared: bool = False,
) -> tuple[float, float, float]:
    """:func:`jump_corrections` of a lower-side mode on one entry: (y, jump_k, jump_a).

    ``y_plus`` is the right-limit value and ``lower``/``upper`` the barrier
    values L and U at the instant.  A node scheduled at the current penalty
    level is absorbed fully to the lower barrier; in the reflect mode a node
    with a declared upper jump is pulled down to the upper barrier.
    """
    _require_lower_side(mode)
    at_lower = np.array([lower_scheduled and lower is not None])
    at_upper = np.array([mode.reflects and upper_declared and upper is not None])
    rows = jump_corrections(_one(y_plus), _one(lower), _one(upper), at_lower, at_upper)
    return tuple(float(v[0]) for v in rows)


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
    nodes, edges = tree.node_start, tree.edge_start
    rows = np.zeros((5, tree.node_count()))  # y, dK*, jumpK, dA*, jumpA in level order
    rows[0, nodes[-2]:] = instance.terminal
    dm = np.empty(int(edges[-1]))
    for k in range(tree.depth - 1, -1, -1):
        y_next = rows[0, nodes[k + 1] : nodes[k + 2]]
        e = expect_level(tree, k, y_next)
        dm[edges[k] : edges[k + 1]] = edge_increments(tree, k, y_next, e)
        rows[:, nodes[k] : nodes[k + 1]] = step(k, e)
    value, dk_star, jump_k, da_star, jump_a = (AdaptedField.from_flat(tree, row) for row in rows)
    right = AdaptedField.from_flat(tree, (rows[0] - rows[2]) + rows[4])
    return SolutionBundle(
        tree=tree,
        grid=instance.grid,
        y=RegulatedField(value, right),
        dm=EdgeField.from_flat(tree, dm),
        dk_star=dk_star,
        jump_k=jump_k,
        da_star=da_star,
        jump_a=jump_a,
        method=method,
        n=n,
    )


def _require_barriers(instance: ProblemInstance, mode: PenalizationMode) -> None:
    """Raise unless the instance has the barriers ``mode`` acts on, named in its frame."""
    penalized, reflected = ("lower", "upper") if mode.penalizes_lower else ("upper", "lower")
    if getattr(instance, penalized) is None:
        raise PreconditionError(f"mode {mode.value} needs the {penalized} barrier")
    if mode.reflects and getattr(instance, reflected) is None:
        raise PreconditionError(f"mode {mode.value} needs the {reflected} barrier to reflect on")


def _penalized_lower_side(instance: ProblemInstance, n: int, mode: PenalizationMode) -> SolutionBundle:
    """The penalized sweep of a lower-side mode on a validated instance."""
    tree, grid, driver = instance.tree, instance.grid, instance.driver
    lower, upper = instance.lower, instance.upper
    sched = jump_exhaustion_schedule(lower, n, side="lower").mask(tree)
    declared = jump_masks(upper if mode.reflects else None, tree)
    # the upper barrier, or the lower one standing in where no mask reads it
    cap = lower if upper is None else upper

    def step(k: int, e: np.ndarray) -> tuple[np.ndarray, ...]:
        t, dt = float(grid.instants[k]), grid.dt(k)
        lo, lo_r = lower.value.level(k), lower.right_value.level(k)
        up, up_r = cap.value.level(k), cap.right_value.level(k)
        # the right-limit value: penalized toward L+, clamped at U+ when reflecting
        y, dk, da = penalized_level(e, t, dt, n, lo_r, up_r, np.full(e.size, mode.reflects), driver)
        # the value at the instant: scheduled nodes absorbed fully to L, declared upper jumps pulled to U
        y, jk, ja = jump_corrections(y, lo, up, sched[k], declared[k])
        return y, dk, jk, da, ja

    return backward_sweep(instance, step, mode.value, n)


def solve_penalized(instance: ProblemInstance, n: int, mode: PenalizationMode) -> SolutionBundle:
    """Full backward sweep of one penalization scheme at level n.

    Lower-side modes run directly; upper-side modes run on the negated
    problem and swap (K, A) back, which realizes the duality exactly.
    """
    if n < 1:
        raise PreconditionError("penalty level must be >= 1")
    require_valid(instance)
    _require_barriers(instance, mode)
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
        _require_barriers(instance, mode)
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
            diff = sol.y.value.values - prev.y.value.values
            dist = max(0.0, float(np.max(np.abs(diff))))
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
