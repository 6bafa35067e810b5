"""Reference reflected solutions by direct projection.

The projection step of the shared backward sweep
(:func:`rbsde_lab.engine.backward_sweep`) clamps the implicit flow value
into the barriers, recording clamp increments in the cadlag parts and, at
nodes with declared barrier jumps, booking the correction as a right jump of
the respective increasing process.  These bundles are the ground truth the
penalization sweeps are cross-checked against.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from .bundles import SolutionBundle
from .engine import backward_sweep, implicit_step
from .errors import PreconditionError
from .regulated import ProblemInstance, jump_masks, negation_dual, require_valid


def _projection_sweep(instance: ProblemInstance) -> SolutionBundle:
    """Backward recursion with double clamp; either barrier may be absent."""
    tree, grid, driver = instance.tree, instance.grid, instance.driver
    lower, upper = instance.lower, instance.upper
    l_jump = jump_masks(lower, tree)
    u_jump = jump_masks(upper, tree)
    degenerate: list[tuple[int, int]] = []

    def step(k: int, e: np.ndarray) -> np.ndarray:
        t = float(grid.instants[k])
        dt = grid.dt(k)
        lo_vals = None if lower is None else lower.value.level(k)
        up_vals = None if upper is None else upper.value.level(k)
        out = []
        for j, e_j in enumerate(e.tolist()):
            y = implicit_step(e_j, t, dt, driver)
            dk = jk = da = ja = 0.0
            pushed_up = False
            pushed_down = False
            # declared-jump corrections act on the value at the instant
            if lo_vals is not None and l_jump[k][j]:
                lo = float(lo_vals[j])
                if y < lo:
                    jk = lo - y
                    y = lo
                    pushed_up = True
            if up_vals is not None and u_jump[k][j]:
                up = float(up_vals[j])
                if y > up:
                    ja = y - up
                    y = up
                    pushed_down = True
            # plain-node clamps are cadlag increments over the interval
            if lo_vals is not None and not l_jump[k][j]:
                lo = float(lo_vals[j])
                if y < lo:
                    dk = max(lo - (e_j + driver(t, lo) * dt), 0.0)
                    y = lo
                    pushed_up = True
            if up_vals is not None and not u_jump[k][j]:
                up = float(up_vals[j])
                if y > up:
                    da = max((e_j + driver(t, up) * dt) - up, 0.0)
                    y = up
                    pushed_down = True
            if pushed_up and pushed_down:
                degenerate.append((k, j))
            out.append((y, dk, jk, da, ja))
        return np.array(out).T

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

    Both barriers required.  With weak ordering at most one side pushes at
    any node; nodes where both fire (possible only with touching barriers)
    are reported in ``degenerate_nodes``.
    """
    if instance.lower is None or instance.upper is None:
        raise PreconditionError("solve_doubly_reflected requires both barriers")
    require_valid(instance)
    return _projection_sweep(instance)
