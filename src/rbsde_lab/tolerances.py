"""Every tolerance and gate margin the solver and ``verify`` read, each stated once.

All are absolute.  This module imports nothing from the package.
"""

PROB_TOL = 1e-12  # how far a node's edge probabilities may sum from 1
FIXED_POINT_TOL = 1e-13  # an implicit fixed-point entry has settled once its iterates are this close
FIXED_POINT_MAX_ITER = 200  # iterates after which a fixed-point entry still moving has stalled
ROUNDOFF_TOL = 1e-10  # round-off forgiven by the hitting-value, sandwich and game-value gates
MONOTONICITY_TOL = ROUNDOFF_TOL  # the drop between consecutive penalty levels a sweep forgives
DEFAULT_EPS = 1e-5  # sweep accuracy: stop once consecutive levels are this close
HIT_TOL = 1e-9  # Y within this of a barrier hits it
PATCH_TOL = 1e-9  # seams, path agreement, and patched against direct solve
DEFAULT_RESIDUAL_TOL = 1e-9  # the residual gate of ``solve`` and ``verify`` unless RBSDE_LAB_TOL is set
COMPARISON_TOL = 1e-12  # the violation of Y <= Y' that ordered data may show


def sweep_gate(eps: float) -> float:
    """The gate for what a sweep stopped at accuracy ``eps`` may miss by: penalty slack and method distances."""
    return 2.0 * eps
