"""Reference reflected solutions by direct projection.

The projection step of the shared backward sweep
(:func:`rbsde_lab.engine.backward_sweep`) clamps the implicit flow values of
a whole level into the barriers' right limits [L+, U+], which gives the
right-limit value Y+ and the cadlag increments dK*, dA*; then, at nodes with
declared barrier jumps, it corrects Y+ into [L, U] at the instant and books
the correction as a right jump of the respective increasing process.  These
bundles are the ground truth the penalization sweeps are cross-checked
against.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from .bundles import SolutionBundle
from .engine import backward_sweep, implicit_level, jump_corrections, positive_part
from .errors import PreconditionError
from .regulated import ProblemInstance, jump_masks, negation_dual, require_valid


def _projection_sweep(instance: ProblemInstance) -> SolutionBundle:
    """Backward recursion with double clamp; either barrier may be absent."""
    tree, grid, driver = instance.tree, instance.grid, instance.driver
    lower, upper = instance.lower, instance.upper
    l_jump, u_jump = jump_masks(lower, tree), jump_masks(upper, tree)
    degenerate: list[tuple[int, int]] = []

    def step(k: int, e: np.ndarray) -> tuple[np.ndarray, ...]:
        t, dt = float(grid.instants[k]), grid.dt(k)
        absent = np.full(e.size, np.inf)
        lo, lo_r = (-absent, -absent) if lower is None else (lower.value.level(k), lower.right_value.level(k))
        up, up_r = (absent, absent) if upper is None else (upper.value.level(k), upper.right_value.level(k))
        # clamps into the right limits are cadlag increments over the interval
        y, dk, da = implicit_level(e, t, dt, driver), np.zeros(e.size), np.zeros(e.size)
        below = y < lo_r
        i = below.nonzero()[0]
        if i.size:
            dk[i] = positive_part(lo_r[i] - (e[i] + driver.level(t, lo_r[i]) * dt))
            y[i] = lo_r[i]
        above = y > up_r
        i = above.nonzero()[0]
        if i.size:
            da[i] = positive_part((e[i] + driver.level(t, up_r[i]) * dt) - up_r[i])
            y[i] = up_r[i]
        # declared-jump corrections act on the value at the instant
        y, jk, ja = jump_corrections(y, lo, up, l_jump[k], u_jump[k])
        both = ((jk > 0.0) | below) & ((ja > 0.0) | above)
        degenerate.extend((k, int(j)) for j in both.nonzero()[0])
        return y, dk, jk, da, ja

    bundle = backward_sweep(instance, step, "projection")
    return replace(bundle, degenerate_nodes=tuple(degenerate))


def solve_reflected_lower(instance: ProblemInstance) -> SolutionBundle:
    """One-barrier solution held above the lower barrier.

    The upper barrier must be absent.  With a zero driver the value process
    is the exact discrete optimal-stopping envelope of the barrier with the
    terminal payoff.
    """
    if instance.upper is not None:
        raise PreconditionError("solve_reflected_lower requires an absent upper barrier")
    require_valid(instance)
    return _projection_sweep(instance)


def solve_reflected_upper(instance: ProblemInstance) -> SolutionBundle:
    """One-barrier solution held below the upper barrier, via negation duality."""
    if instance.lower is not None:
        raise PreconditionError("solve_reflected_upper requires an absent lower barrier")
    require_valid(instance)
    return _projection_sweep(negation_dual(instance)).negate_swap()


def solve_doubly_reflected(instance: ProblemInstance) -> SolutionBundle:
    """Two-barrier solution by double projection.

    Both barriers required.  A node where both sides push is reported in
    ``degenerate_nodes``.  Validation enforces L <= U and L+ <= U+, so a
    value pushed onto one barrier sits inside the other, touching barriers
    included; only a right limit that jumps across the other barrier's value
    at the instant (L+ > U, say) makes both sides push at one node.
    """
    if instance.lower is None or instance.upper is None:
        raise PreconditionError("solve_doubly_reflected requires both barriers")
    require_valid(instance)
    return _projection_sweep(instance)
