"""The one backward level loop, its two consumers, and the plain and penalized steps.

:func:`_value_levels` is the only level loop of the package.  It reads the
barriers from the instance and, from the terminal payoff down, yields for
each tree level the conditional expectations, the right-limit values Y+ a
pure value kernel returns with where each side acted, and the values Y at
the instant (:func:`corrected_value`, on the levels that hold a jump
correction).  Two consumers read it:

- :func:`backward_sweep` stores the levels in flat arrays, then books the
  increments once, as array expressions over all nodes in level order: dK*
  and dA* by an increment kernel, jumpK and jumpA by
  :func:`jump_corrections`, and dM as Y(child) - E(parent) on every edge.
  A solver hands it its two kernels and jump masks; the penalized kernels
  live here, the projection kernels in :mod:`rbsde_lab.solvers`.  Given
  the values Y of every level, it skips the loop and books the same
  quantities from them over all nodes at once.
- :func:`_ladder_pass` runs a penalization sweep's whole ladder through the
  same loop, on ``(ladder, width)`` blocks with n as a ``(ladder, 1)``
  column the value kernel broadcasts.  It keeps the sup distance and the
  monotonicity drop of each consecutive pair of penalty levels, and the
  rows that can still be the stop row (:func:`_stop_index`).  The sweep's
  stopping rule reads the pairs, and :func:`solve_penalized` books the
  final bundle from the stop row: one backward pass per sweep.
  :func:`ladder_distances` is the pass without the row.

The driver integral is treated implicitly (solve y = e + f(t, y) dt) and so
is the penalty term n (y - L+)^- dt: the piecewise-linear equation is solved
exactly by case analysis, with fixed-point refinement only for non-affine
drivers.  Explicit penalties would blow up along the level schedule.  The
steps act on whole levels, with masked updates where nodes differ, and one
fixed-point loop serves both implicit solves; the scalar steps
(:func:`implicit_step` and the like) run the level code on one entry, so the
flat bookkeeping equals a node-by-node recursion bit for bit.

The penalized step is lower-side only.  Upper-side modes are solved by
negation duality: (Y, M, K, A) solves the upper problem iff (-Y, -M, A, K)
solves the lower problem for the negated data.  :func:`_lower_side`
validates an instance and moves an upper-side mode to that frame, its
dual, built once per instance; :func:`solve_penalized` and
:func:`penalization_sweep` both start there.  Negation is exact, so the
duality identities hold bit for bit.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Iterator

import numpy as np

from .bundles import SolutionBundle, lu4_residual, skorokhod_residual
from .drivers import Driver
from .errors import (
    NumericalError,
    PreconditionError,
    SchemeMonotonicityError,
    StabilityError,
)
from .lattice import AdaptedField, edge_increments, expect_level, expect_tree
from .regulated import (
    STABILITY_BOUND,
    ProblemInstance,
    RegulatedField,
    jump_masks,
    negation_dual,
    require_valid,
)
from .tolerances import DEFAULT_EPS, FIXED_POINT_MAX_ITER, FIXED_POINT_TOL, MONOTONICITY_TOL

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
    if not driver.mu * dt < STABILITY_BOUND:
        raise StabilityError(f"mu * dt = {driver.mu * dt} is not < 1/2; refusing the implicit step")


def positive_part(x: np.ndarray) -> np.ndarray:
    """The builtin max(x, 0.0) entry by entry: keeps -0.0 and NaN, unlike np.maximum."""
    return np.where(0.0 > x, 0.0, x)


def _fixed_point(e: np.ndarray, t, dt, driver: Driver, settle, failure: str | None):
    """Level-wide solve of y = settle(e + f(t, y) dt) for an implicit step.

    ``t`` and ``dt`` are one instant and step, or one per entry of ``e``.
    ``settle(c, scale, at)`` returns, at the entries ``at``, the y with
    scale*y = c plus the step's own terms.  Affine drivers move b*y to the
    left: one call with c = e + a dt and scale = 1 - b dt.  Other drivers
    iterate y -> settle(e + f(t, y) dt, 1) from y = e, a contraction while
    mu * dt < 1/2; each entry stops once its own iterates are within
    FIXED_POINT_TOL, so it repeats its scalar sequence and the driver is not
    called on it again.  Returns (y, c, scale) of the last iterate.  Entries
    still moving after FIXED_POINT_MAX_ITER iterates raise ``failure``, or
    with no ``failure`` are left NaN for the caller to find.
    """
    if driver.affine:
        c, scale = e + driver.intercept * dt, 1.0 - driver.slope * dt
        return settle(c, scale, slice(None)), c, scale
    t, dt = np.broadcast_to(t, e.shape), np.broadcast_to(dt, e.shape)
    y, c = e.copy(), np.empty_like(e)
    live = np.arange(e.size)
    for _ in range(FIXED_POINT_MAX_ITER):
        c[live] = e[live] + driver.level(t[live], y[live]) * dt[live]
        nxt = settle(c[live], 1.0, live)
        done = np.abs(nxt - y[live]) <= FIXED_POINT_TOL
        y[live] = nxt
        live = live[~done]
        if not live.size:
            return y, c, 1.0
    if failure is None:
        y[live] = np.nan
        return y, c, 1.0
    at = live[0]
    raise NumericalError(failure.format(e=float(e[at]), t=t[at].item(), dt=dt[at].item(), z=float(y[at])))


def implicit_level(e: np.ndarray, t: float, dt: float, driver: Driver) -> np.ndarray:
    """The unique y with y = e + f(t, y) dt, entry by entry."""
    failure = "implicit step failed to converge: e={e!r}, t={t!r}, dt={dt!r}, last iterate {z!r}"
    return _fixed_point(e, t, dt, driver, lambda c, scale, at: c / scale, failure)[0]


def _settle(c: np.ndarray, scale: float, lower: np.ndarray, ndt) -> tuple[np.ndarray, np.ndarray]:
    """(y, pushed): the y with scale*y = c + ndt (lower - y)^+, by the penalty's two cases."""
    pushed = c < lower * scale
    return np.where(pushed, (c + ndt * lower) / (scale + ndt), c / scale), pushed


def _penalized_values(
    e: np.ndarray, t: float, dt: float, lower: np.ndarray, upper: np.ndarray,
    n: int | np.ndarray, clamp: np.ndarray | bool, driver: Driver,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | bool]:
    """The values of :func:`penalized_level`, and where each side acted: (y, pushed, clamped).

    ``pushed`` marks the entries whose implicit solve met the penalty,
    ``clamped`` those of ``clamp`` then moved down to ``upper`` (False when
    ``clamp`` is).  ``t`` and ``dt`` are one instant and step, or one per
    entry.  ``n`` is one penalty level, or a ``(ladder, 1)`` column against a
    ``(ladder, width)`` block ``e``; there a stalled fixed point leaves its
    entries NaN, since only the caller knows what it will read.
    """
    ndt = n * dt
    if driver.affine:
        y, pushed = _settle(e + driver.intercept * dt, 1.0 - driver.slope * dt, lower, ndt)
    else:  # the entries as one vector, each stopping on its own
        lo, nd = (np.broadcast_to(v, e.shape).ravel() for v in (lower, ndt))
        failure = None if np.ndim(n) else "penalized step failed to converge: e={e!r}, t={t!r}, dt={dt!r}, n=" + str(n)
        y, c, _ = _fixed_point(e.ravel(), t, dt, driver, lambda c, sc, at: _settle(c, sc, lo[at], nd[at])[0], failure)
        y, pushed = y.reshape(e.shape), c.reshape(e.shape) < lower
    if clamp is False:
        return y, pushed, False
    clamped = y > upper if clamp is True else clamp & (y > upper)  # True & array is one more array op
    np.copyto(y, upper, where=clamped)
    return y, pushed, clamped


def _penalized_increments(
    e: np.ndarray, t: np.ndarray, dt: np.ndarray, lower: np.ndarray, upper: np.ndarray,
    y: np.ndarray, pushed: np.ndarray, clamped: np.ndarray, n: int, driver: Driver,
) -> tuple[np.ndarray, np.ndarray]:
    """(dk_star, da_star) of the values of :func:`_penalized_values`, entry by
    entry; ``t`` and ``dt`` hold each entry's instant and step.  A clamped
    entry sits at ``upper``, so only ``y`` is read there."""
    dk, da = np.where(pushed | clamped, n * dt * positive_part(lower - y), 0.0), np.zeros(y.size)
    i = clamped.nonzero()[0]
    da[i] = positive_part(e[i] + driver.level(t[i], y[i]) * dt[i] + dk[i] - y[i])
    return dk, da


def penalized_level(
    e: np.ndarray, t: float, dt: float, n: int,
    lower: np.ndarray, upper: np.ndarray, clamp: np.ndarray, driver: Driver,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The implicit step with the lower penalty n (lower - y)^+ dt, then, at
    the entries of ``clamp``, a clamp at ``upper``: (y, dk_star, da_star).

    A clamped entry re-solves the budget at the barrier exactly, so the
    one-step identity holds to round-off.
    """
    y, pushed, clamped = _penalized_values(e, t, dt, lower, upper, n, clamp, driver)
    times, steps = np.full(e.size, t), np.full(e.size, dt)
    return (y, *_penalized_increments(e, times, steps, lower, upper, y, pushed, clamped, n, driver))


def corrected_value(
    y: np.ndarray, lower: np.ndarray, upper: np.ndarray, at_lower: np.ndarray, at_upper: np.ndarray
) -> np.ndarray:
    """The value at the instant of the right-limit value y: entries of ``at_lower``
    below ``lower`` move up to it, then entries of ``at_upper`` above ``upper`` down to it."""
    lifted = np.where(at_lower & (y < lower), lower, y)
    return np.where(at_upper & (lifted > upper), upper, lifted)


def jump_corrections(
    y: np.ndarray, lower: np.ndarray, upper: np.ndarray, at_lower: np.ndarray, at_upper: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`corrected_value` with its moves booked as right jumps of K (up) and A
    (down): (y, jump_k, jump_a).  A jump is positive exactly where its side
    acted, and an exact 0.0 (x - x) elsewhere."""
    lifted = corrected_value(y, lower, upper, at_lower, False)
    value = corrected_value(lifted, lower, upper, False, at_upper)
    return value, lifted - y, lifted - value


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


def _value_levels(
    instance: ProblemInstance, values: Callable[..., tuple], at_lower: np.ndarray, at_upper: np.ndarray, y: np.ndarray
) -> Iterator[tuple]:
    """The backward level loop from the level-N values ``y``: for k = N-1,
    ..., 0 it yields ``(a, b, e, y_plus, first, second, y)``.

    [a, b) is level k's flat node range and ``e`` the conditional
    expectations of the level-(k+1) values.  The pure kernel ``values(e, t,
    dt, L+, U+)`` gives the right-limit values Y+ and where its first and
    second side acted; ``y`` is Y+ moved to the value at the instant by
    :func:`corrected_value` on the levels holding a node of ``at_lower`` or
    ``at_upper``, else Y+ itself.  The next level reads ``y``, so a consumer
    may change it in place.  The barriers are the instance's ``limits``; a
    leading (ladder) axis of ``y`` and ``at_lower`` broadcasts through.
    """
    tree, instants, count = instance.tree, instance.grid.instants, instance.tree.node_count()
    lower, lower_right, upper, upper_right = instance.limits
    bounds, t_k, dt_k = tree.node_start.tolist(), instants.tolist(), np.diff(instants).tolist()
    acting = (at_lower | at_upper).reshape(-1, count).any(axis=0)
    corrected = set(tree.locate(np.flatnonzero(acting))[0].tolist())
    for k in range(tree.depth - 1, -1, -1):
        a, b = bounds[k : k + 2]
        e = expect_level(tree, k, y)
        y_plus, first, second = values(e, t_k[k], dt_k[k], lower_right[a:b], upper_right[a:b])
        y = y_plus
        if k in corrected:
            y = corrected_value(y_plus, lower[a:b], upper[a:b], at_lower[..., a:b], at_upper[a:b])
        yield a, b, e, y_plus, first, second, y


def backward_sweep(
    instance: ProblemInstance,
    values: Callable[..., tuple[np.ndarray, np.ndarray, np.ndarray]],
    increments: Callable[..., tuple[np.ndarray, np.ndarray]],
    at_lower: np.ndarray,
    at_upper: np.ndarray,
    method: str,
    n: int | None = None,
    booked: np.ndarray | None = None,
) -> tuple[SolutionBundle, np.ndarray, np.ndarray]:
    """Backward induction from the terminal payoff: (bundle, first, second).

    The levels of :func:`_value_levels` are stored in flat arrays: E, Y+, Y
    and the masks ``first`` and ``second`` of where each side acted.  The
    increments are then booked once, over all nodes in level order:
    ``increments(E, t, dt, L+, U+, Y+, first, second)`` gives dK* and dA*
    from the flat expectations, instants and steps; the corrections give
    jumpK and jumpA; dM is Y(child) - E(parent) on every edge; and the
    right-limit value is assembled as (Y - jumpK) + jumpA.

    Given ``booked``, the flat values Y of every level already computed,
    the loop is skipped: E is one whole-tree slot sum of them
    (:func:`expect_tree`), and one call of the value kernel over all nodes
    before the last level, with each node's instant and step, gives Y+ and
    the masks.  Y is then Y+ corrected (:func:`jump_corrections`), which
    the caller compares with ``booked``.
    """
    tree, count, inner = instance.tree, instance.tree.node_count(), instance.tree.node_start[-2]
    (times, steps), (lower, lower_right, upper, upper_right) = instance.clocks, instance.limits
    y, y_plus, expected = np.zeros((3, count))
    first, second = np.zeros((2, count), dtype=bool)
    y[inner:] = y_plus[inner:] = instance.terminal
    if booked is None:
        for a, b, *level in _value_levels(instance, values, at_lower, at_upper, instance.terminal):
            expected[a:b], y_plus[a:b], first[a:b], second[a:b], y[a:b] = level
    else:
        expected[:inner] = expect_tree(tree, booked)
        y_plus[:inner], first[:inner], second[:inner] = values(
            expected[:inner], times[:inner], steps[:inner], lower_right[:inner], upper_right[:inner]
        )
    dk_star, da_star = increments(expected, times, steps, lower_right, upper_right, y_plus, first, second)
    corrected, jump_k, jump_a = jump_corrections(y_plus, lower, upper, at_lower, at_upper)
    if booked is not None:
        y = corrected
    value, right, dk_star, jump_k, da_star, jump_a = (
        AdaptedField.from_flat(tree, v) for v in (y, (y - jump_k) + jump_a, dk_star, jump_k, da_star, jump_a)
    )
    bundle = SolutionBundle(
        tree=tree, grid=instance.grid, y=RegulatedField(value, right), dm=edge_increments(tree, y, expected),
        dk_star=dk_star, jump_k=jump_k, da_star=da_star, jump_a=jump_a, method=method, n=n,
    )
    return bundle, first, second


def _require_barriers(instance: ProblemInstance, mode: PenalizationMode) -> None:
    """Raise unless the instance has the barriers ``mode`` acts on, named in its frame."""
    penalized, reflected = ("lower", "upper") if mode.penalizes_lower else ("upper", "lower")
    if getattr(instance, penalized) is None:
        raise PreconditionError(f"mode {mode.value} needs the {penalized} barrier")
    if mode.reflects and getattr(instance, reflected) is None:
        raise PreconditionError(f"mode {mode.value} needs the {reflected} barrier to reflect on")


def _lower_side(instance: ProblemInstance, mode: PenalizationMode) -> tuple[ProblemInstance, PenalizationMode]:
    """Check the instance for ``mode``, then give the lower-side frame it is
    solved in: (instance, mode), or for an upper-side mode its negation dual."""
    require_valid(instance)
    _require_barriers(instance, mode)
    if mode.penalizes_lower:
        return instance, mode
    return negation_dual(instance), mode.dual


def solve_penalized(
    instance: ProblemInstance, n: int, mode: PenalizationMode, values: np.ndarray | None = None
) -> SolutionBundle:
    """Full backward sweep of one penalization scheme at level n.

    In the lower-side frame the right-limit value is penalized toward L+
    and, when reflecting, clamped at U+; the value at the instant absorbs
    the nodes scheduled at level n fully to L and, when reflecting, pulls
    declared upper jumps to U.  An upper-side mode runs on the negated
    problem and swaps (K, A) back, which realizes the duality exactly.

    ``values``, when given, are the level's flat values Y in the frame of
    ``instance`` (a sweep's stop row, say): the bundle is booked from them
    without the level loop (:func:`backward_sweep`), and values whose
    corrected Y is not bit for bit themselves are refused.
    """
    if n < 1:
        raise PreconditionError("penalty level must be >= 1")
    frame, frame_mode = _lower_side(instance, mode)
    if values is not None:
        values = np.asarray(values, dtype=float)
        count = frame.tree.node_count()
        if values.shape != (count,):
            raise PreconditionError(f"penalty level {n}: values of shape {values.shape} for {count} nodes")
        values = values if mode.penalizes_lower else -values
    bundle = backward_sweep(
        frame,
        partial(_penalized_values, n=n, clamp=mode.reflects, driver=frame.driver),
        partial(_penalized_increments, n=n, driver=frame.driver),
        frame.lower.exhausted(n),
        jump_masks(frame.upper if mode.reflects else None, frame.tree),
        frame_mode.value,
        n,
        values,
    )[0]
    if values is not None and bundle.y.value.values.tobytes() != values.tobytes():
        raise PreconditionError(f"penalty level {n}: the values given are not the level's solution")
    return bundle if mode.penalizes_lower else bundle.negate_swap(method=mode.value)


@dataclass
class TraceRow:
    n: int
    sup_distance: float
    lower_skorokhod_residual: float | None = None
    upper_skorokhod_residual: float | None = None
    lu4_residual: float | None = None


@dataclass
class SweepResult:
    converged: bool
    levels: list[int]
    final: SolutionBundle
    trace: list[TraceRow]
    monotone_violation: float


def default_levels(n_max: int = DEFAULT_MAX_PENALTY) -> list[int]:
    """Doubling penalty schedule 1, 2, 4, ... up to n_max."""
    out = [1]
    while out[-1] * 2 <= n_max:
        out.append(out[-1] * 2)
    return out


def _stop_index(distances: np.ndarray, eps: float, row: int = 1) -> int:
    """The sweep's stopping rule: the row closing the first consecutive pair
    of penalty levels with a sup distance below ``eps``, else the last row.
    The search starts at ``row``: the pairs before it are known not to be close."""
    while row < distances.size and not distances[row - 1] < eps:
        row += 1
    return min(row, distances.size)


def _ladder_pass(
    instance: ProblemInstance, levels: list[int], mode: PenalizationMode, eps: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`ladder_distances`, and the stop row: (distances, drops, failed, y).

    ``y`` is row :func:`_stop_index` of the block, flat over the tree.  The
    running distances only grow as the pass climbs, so the stopping rule
    applied to them gives an index that only rises and never passes the
    final stop.  Each tree level copies its rows from that index on (the
    last row always) into one ``(ladder, nodes before level N)`` buffer
    made with ``np.empty``; the rows below it are never written, so only
    the pages of written rows are touched.
    """
    ns = np.array(levels, dtype=float)[:, None]
    values = partial(_penalized_values, n=ns, clamp=mode.reflects, driver=instance.driver)
    at_upper = jump_masks(instance.upper if mode.reflects else None, instance.tree)
    y = np.broadcast_to(instance.terminal, (ns.size, instance.terminal.size))
    distances, lows = np.zeros((2, ns.size - 1))
    failed = np.zeros(ns.size, dtype=bool)
    kept, low = np.empty((ns.size, instance.tree.node_start[-2])), 1
    for a, b, _, y_plus, _, _, y in _value_levels(instance, values, instance.lower.exhausted(ns), at_upper, y):
        if not np.isfinite(y_plus).all():  # zeroing failed rows keeps the driver and the fixed point off them
            failed |= ~np.isfinite(y_plus).all(axis=1)
            y[failed] = 0.0
        diff = y[1:] - y[:-1]
        np.maximum(distances, np.abs(diff).max(axis=1), out=distances)
        np.minimum(lows, diff.min(axis=1), out=lows)
        low = _stop_index(distances, eps, low)
        kept[low:, a:b] = y[low:]
    row = np.concatenate((kept[_stop_index(distances, eps, low)], instance.terminal))
    return distances, 0.0 - lows, failed, row  # max of Y_{i-1} - Y_i = -(min of Y_i - Y_{i-1})


def ladder_distances(
    instance: ProblemInstance, levels: list[int], mode: PenalizationMode
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_value_levels` of a lower-side mode at every penalty level of
    ``levels`` at once: (distances, drops, failed).

    Row i of each yielded ``(ladder, width)`` block holds the values Y of
    :func:`solve_penalized` at ``levels[i]``, bit for bit: ``n`` is a
    ``(ladder, 1)`` column and the lower jump-exhaustion mask carries the
    ladder on its leading axis, both broadcast (nothing is tiled).  For each
    consecutive pair (i-1, i), ``distances`` is the sup distance of the two
    Y and ``drops`` the max of Y_{i-1} - Y_i, both from 0.0.  ``failed[i]``
    marks a level whose fixed point stalled or whose Y+ left the finite
    numbers, where :func:`solve_penalized` raises; its rows are zeroed from
    there on and its pairs mean nothing.  The instance is not checked here.
    This is :func:`_ladder_pass` keeping only the last row.
    """
    return _ladder_pass(instance, levels, mode, 0.0)[:3]


def penalization_sweep(
    instance: ProblemInstance,
    mode: PenalizationMode,
    levels: list[int] | None = None,
    eps: float = DEFAULT_EPS,
    compute_residuals: bool = False,
) -> SweepResult:
    """Run one penalization scheme along an increasing level schedule.

    Stops once consecutive solutions are eps-close in sup norm; asserts the
    monotonicity the comparison argument dictates (nondecreasing for the
    lower-penalty modes, nonincreasing for the upper-penalty modes) and
    raises when it fails beyond MONOTONICITY_TOL.  Non-convergence
    within the schedule is reported in the result, not raised.

    One stacked pass, :func:`_ladder_pass`, gives the distances of every
    consecutive pair of the whole schedule and the values Y at the stopping
    level (:func:`_stop_index`).  The pairs up to the stop are then read in
    order, and :func:`solve_penalized` books the final bundle from those
    values, without a second backward pass.  When residuals are asked for,
    each traced level is solved in full for its residual row only.  An
    upper-side mode sweeps the negation dual of the validated instance and
    maps back only the bundles it solves.  Negation is exact: distances and
    monotonicity carry over.
    """
    if levels is None:
        levels = default_levels()
    if not levels or any(b <= a for a, b in zip(levels, levels[1:])):
        raise PreconditionError("penalty levels must be strictly increasing")
    if levels[0] < 1:
        raise PreconditionError("penalty level must be >= 1")
    frame, frame_mode = _lower_side(instance, mode)
    upper_side = not mode.penalizes_lower
    distances, drops, failed, stop_row = _ladder_pass(frame, levels, frame_mode, eps)
    ran = list(levels[: _stop_index(distances, eps) + 1])
    trace: list[TraceRow] = []
    worst_mono = 0.0
    for i, n in enumerate(ran):
        if failed[i]:
            solve_penalized(frame, n, frame_mode)  # raises what stopped the level
            raise NumericalError(f"penalty level {n} failed in the stacked pass only")
        if not i:
            continue
        worst_mono = max(worst_mono, float(drops[i - 1]))
        row = TraceRow(n, float(distances[i - 1]))
        if compute_residuals:
            here = solve_penalized(frame, n, frame_mode)
            here = here.negate_swap(mode.value) if upper_side else here
            rep = skorokhod_residual(here, instance.barriers)
            row.lower_skorokhod_residual = rep.lower_residual
            row.upper_skorokhod_residual = rep.upper_residual
            row.lu4_residual = lu4_residual(here, instance)
        trace.append(row)
        if worst_mono > MONOTONICITY_TOL:
            raise SchemeMonotonicityError(
                f"{mode.value} sweep lost monotonicity by {worst_mono} at level {n}"
            )
    sol = solve_penalized(frame, ran[-1], frame_mode, stop_row)
    label = "decreasing-penalization" if upper_side else "increasing-penalization"
    final = sol.negate_swap(label) if upper_side else replace(sol, method=label)
    return SweepResult(
        converged=bool(trace) and trace[-1].sup_distance < eps,
        levels=ran,
        final=final,
        trace=trace,
        monotone_violation=worst_mono,
    )
