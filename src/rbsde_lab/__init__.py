"""Doubly reflected backward SDEs with regulated barriers on finite trees.

Exact penalization schemes, projection reference solvers, minimality
residual checks, local solutions on stochastic intervals, and the
alternating-hitting-time patching construction, plus independent
stopping-game oracles.
"""

from .lattice import (
    AdaptedField,
    EdgeField,
    FiltrationTree,
    PathIndex,
    TimeGrid,
    build_binomial,
    conditional_expectation,
    enumerate_paths,
    martingale_increments,
    sup_distance,
)
from .drivers import (
    Driver,
    constant_driver,
    custom_driver,
    linear_driver,
    negate_driver,
    zero_driver,
)
from .regulated import (
    BarrierPair,
    JumpExhaustionSchedule,
    ProblemInstance,
    RegulatedField,
    check_separation,
    jump_exhaustion_schedule,
    negation_dual,
    right_jump,
    validate_instance,
)
from .bundles import (
    SkorokhodReport,
    SolutionBundle,
    lu4_residual,
    process_distances,
    sandwich_violation,
    skorokhod_residual,
)
from .engine import (
    PenalizationMode,
    SweepResult,
    implicit_step,
    penalization_sweep,
    penalized_step,
    right_jump_correction,
    solve_penalized,
)
from .solvers import (
    solve_doubly_reflected,
    solve_reflected_lower,
    solve_reflected_upper,
)
from .stopping import (
    ChainReport,
    LocalSolution,
    PathContext,
    StoppingRule,
    alternating_sequence,
    chain_report,
    hitting_time_lower,
    hitting_time_upper,
    local_solution,
    patch_global,
    verify_local_properties,
)
from .oracle import (
    InstanceRecipe,
    comparison_check,
    dynkin_value_bruteforce,
    game_value_field,
    ordered_widening,
    random_instance,
    uniqueness_probe,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
