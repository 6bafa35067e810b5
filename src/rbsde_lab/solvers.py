"""Reference reflected solutions by direct projection.

The projection kernels of the shared backward sweep
(:func:`rbsde_lab.engine.backward_sweep`): the value kernel clamps the
implicit flow values of a whole level into the barriers' right limits
[L+, U+], which gives the right-limit value Y+, and the increment kernel
books the clamps as the cadlag increments dK*, dA*.  At nodes with declared
barrier jumps the sweep then corrects Y+ into [L, U] at the instant and
books the correction as a right jump of the respective increasing process.
These bundles are the ground truth the penalization sweeps are
cross-checked against.
"""
from __future__ import annotations

from dataclasses import replace
from functools import partial

import numpy as np

from .bundles import SolutionBundle
from .drivers import Driver
from .engine import backward_sweep, implicit_level, positive_part
from .errors import PreconditionError
from .regulated import ProblemInstance, jump_masks, negation_dual, require_valid


def _projection_values(
    e: np.ndarray, t: float, dt: float, lower: np.ndarray, upper: np.ndarray, driver: Driver
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The implicit values clamped into [lower, upper]: (y, below, above),
    where ``below`` marks the entries moved up to ``lower`` and ``above``
    those then moved down to ``upper``."""
    y = implicit_level(e, t, dt, driver)
    below = y < lower
    np.copyto(y, lower, where=below)
    above = y > upper
    np.copyto(y, upper, where=above)
    return y, below, above


def _projection_increments(
    e: np.ndarray, t: np.ndarray, dt: np.ndarray, lower: np.ndarray, upper: np.ndarray,
    y: np.ndarray, below: np.ndarray, above: np.ndarray, driver: Driver,
) -> tuple[np.ndarray, np.ndarray]:
    """(dk_star, da_star) of the clamps of :func:`_projection_values`, entry by entry.

    ``t`` and ``dt`` hold each entry's instant and step.  A clamped entry
    books what the budget at its barrier needs, cut at zero; ``y`` sits at
    that barrier there, so it is not read.
    """
    dk, da = np.zeros(e.size), np.zeros(e.size)
    i = below.nonzero()[0]
    dk[i] = positive_part(lower[i] - (e[i] + driver.level(t[i], lower[i]) * dt[i]))
    i = above.nonzero()[0]
    da[i] = positive_part((e[i] + driver.level(t[i], upper[i]) * dt[i]) - upper[i])
    return dk, da


def _projection_sweep(instance: ProblemInstance) -> SolutionBundle:
    """Backward recursion with double clamp; either barrier may be absent.

    Clamps into the right limits are cadlag increments over the interval;
    declared-jump corrections act on the value at the instant.
    """
    tree, driver = instance.tree, instance.driver
    bundle, below, above = backward_sweep(
        instance,
        partial(_projection_values, driver=driver),
        partial(_projection_increments, driver=driver),
        jump_masks(instance.lower, tree),
        jump_masks(instance.upper, tree),
        "projection",
    )
    # both sides pushed, at the instant or over the interval; listed last level first
    both = ((bundle.jump_k.values > 0.0) | below) & ((bundle.jump_a.values > 0.0) | above)
    levels, nodes = tree.locate(np.flatnonzero(both))
    order = np.lexsort((nodes, -levels))
    return replace(bundle, degenerate_nodes=tuple(zip(levels[order].tolist(), nodes[order].tolist())))


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
