"""Solution containers and residual checkers.

A solution bundle holds the value process, its martingale increments, and the
two increasing processes split into their cadlag step parts (``dk_star`` /
``da_star``, one increment per node, acting on the interval that starts
there) and their right jumps at the node itself (``jump_k`` / ``jump_a``).
The checkers are independent of any solver: they recompute the backward
budget identity and the minimality sums from stored data alone.
"""
from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .lattice import AdaptedField, EdgeField, FiltrationTree, TimeGrid
from .regulated import BarrierPair, ProblemInstance, RegulatedField
from .errors import PreconditionError


@dataclass
class SolutionBundle:
    """Adapted quadruple (Y, M, K, A) with K, A stored as per-node increments."""

    tree: FiltrationTree
    grid: TimeGrid
    y: RegulatedField
    dm: EdgeField
    dk_star: AdaptedField
    jump_k: AdaptedField
    da_star: AdaptedField
    jump_a: AdaptedField
    method: str
    n: int | None = None
    degenerate_nodes: tuple = ()

    def negate_swap(self, method: str | None = None) -> "SolutionBundle":
        """The bundle of the negated problem: Y, M flip sign; K and A swap roles."""
        return SolutionBundle(
            tree=self.tree,
            grid=self.grid,
            y=self.y.negate(),
            dm=self.dm.negate(),
            dk_star=self.da_star,
            jump_k=self.jump_a,
            da_star=self.dk_star,
            jump_a=self.jump_k,
            method=self.method if method is None else method,
            n=self.n,
            degenerate_nodes=self.degenerate_nodes,
        )

    def cumulative_k_paths(self) -> np.ndarray:
        """K_t along every path, shape (P, N+1); K_0 = 0.

        The increment between t_k and t_{k+1} is jump_k + dk_star at the
        level-k node of the path.
        """
        return self._cumulative_paths(self.jump_k, self.dk_star)

    def cumulative_a_paths(self) -> np.ndarray:
        return self._cumulative_paths(self.jump_a, self.da_star)

    @staticmethod
    def _cumulative_paths(jump: AdaptedField, star: AdaptedField) -> np.ndarray:
        inc = jump.path_matrix()[:, :-1] + star.path_matrix()[:, :-1]
        out = np.zeros((inc.shape[0], inc.shape[1] + 1))
        np.cumsum(inc, axis=1, out=out[:, 1:])
        return out


@dataclass
class SkorokhodReport:
    """Pathwise minimality sums for the two increasing processes.

    ``lower_residual`` is the max over paths of
    sum_k (Y_k+ - L_k+) dK*_k + (Y_k - L_k) jumpK_k, and symmetrically for
    the upper side with (U - Y) weights.  The ``alt_*`` figures weight the
    jump sums by left limits (previous post-jump values) instead; they are
    diagnostics for the alternative reading of the jump minimality term.
    """

    lower_residual: float
    upper_residual: float
    lower_paths: np.ndarray
    upper_paths: np.ndarray
    alt_lower_residual: float
    alt_upper_residual: float


def _left_limit_paths(value_paths: np.ndarray, right_paths: np.ndarray) -> np.ndarray:
    """Left limits at each level along paths: previous post-jump values.

    At level 0 the value itself is used (nothing precedes time zero).
    """
    out = np.empty_like(value_paths)
    out[:, 0] = value_paths[:, 0]
    out[:, 1:] = right_paths[:, :-1]
    return out


def skorokhod_residual(bundle: SolutionBundle, barriers: BarrierPair) -> SkorokhodReport:
    """Minimality sums of (K, A) against the barriers, per path."""
    if barriers.lower is not None and barriers.lower.tree is not bundle.tree:
        raise PreconditionError("bundle and barriers must share one tree")
    n_steps = bundle.tree.depth
    y_val = bundle.y.value.path_matrix()
    y_right = bundle.y.right_value.path_matrix()
    zeros = np.zeros(y_val.shape[0])

    def side(barrier: RegulatedField | None, dstar: AdaptedField, jump: AdaptedField, is_lower: bool):
        if barrier is None:
            return zeros, zeros
        b_val = barrier.value.path_matrix()
        b_right = barrier.right_value.path_matrix()
        if is_lower:
            w_star = y_right - b_right
            w_jump = y_val - b_val
        else:
            w_star = b_right - y_right
            w_jump = b_val - y_val
        ds = dstar.path_matrix()[:, :n_steps]
        js = jump.path_matrix()[:, :n_steps]
        sums = np.sum(w_star[:, :n_steps] * ds + w_jump[:, :n_steps] * js, axis=1)
        y_left = _left_limit_paths(y_val, y_right)
        b_left = _left_limit_paths(b_val, b_right)
        w_alt = (y_left - b_left) if is_lower else (b_left - y_left)
        alt = np.sum(w_star[:, :n_steps] * ds + w_alt[:, :n_steps] * js, axis=1)
        return sums, alt

    lower_sums, lower_alt = side(barriers.lower, bundle.dk_star, bundle.jump_k, True)
    upper_sums, upper_alt = side(barriers.upper, bundle.da_star, bundle.jump_a, False)
    return SkorokhodReport(
        lower_residual=float(np.max(lower_sums)),
        upper_residual=float(np.max(upper_sums)),
        lower_paths=lower_sums,
        upper_paths=upper_sums,
        alt_lower_residual=float(np.max(lower_alt)),
        alt_upper_residual=float(np.max(upper_alt)),
    )


def lu4_residual(bundle: SolutionBundle, instance: ProblemInstance) -> float:
    """Max one-step budget identity defect over every tree edge.

    Checks Y_k = Y_{k+1} + f(t_k, Y_k+) dt + (dK*_k + jumpK_k)
    - (dA*_k + jumpA_k) - dM on each edge, with the driver evaluated at the
    right-limit value that rules the open interval.
    """
    tree, grid, driver, y = bundle.tree, bundle.grid, instance.driver, bundle.y

    def level_defect(k: int) -> float:
        parent = tree.edge_parent[k]
        drift = driver.level(float(grid.instants[k]), y.right_value.level(k)) * grid.dt(k)
        r = (
            y.value.level(k)[parent]
            - y.value.level(k + 1)[tree.edge_child[k]]
            + bundle.dm.level(k)
            - drift[parent]
            - bundle.dk_star.level(k)[parent]
            - bundle.jump_k.level(k)[parent]
            + bundle.da_star.level(k)[parent]
            + bundle.jump_a.level(k)[parent]
        )
        return np.max(np.abs(r))

    # np.max, unlike the builtin, propagates a NaN defect into the residual
    return float(np.max([level_defect(k) for k in range(tree.depth)]))


def sandwich_defect(bundle: SolutionBundle, barrier: RegulatedField | None, lower: bool) -> float:
    """Max nodewise defect of L <= Y (``lower``) or Y <= U on the stored values.

    Zero when the barrier is absent or never crossed.
    """
    worst = 0.0
    if barrier is not None:
        for k in range(bundle.tree.levels):
            y, b = bundle.y.value.level(k), barrier.value.level(k)
            worst = max(worst, float(np.max(b - y if lower else y - b)))
    return worst


def sandwich_violation(bundle: SolutionBundle, barriers: BarrierPair) -> float:
    """Max nodewise defect of L <= Y <= U on the stored values."""
    return max(
        sandwich_defect(bundle, barriers.lower, lower=True),
        sandwich_defect(bundle, barriers.upper, lower=False),
    )


def right_jump_identity_defect(bundle: SolutionBundle) -> float:
    """Max nodewise defect of (right jump of Y) = -(jumpK - jumpA).

    Checked as right_value == (value - jumpK) + jumpA, the association used
    when bundles are assembled, so solver outputs score an exact zero.
    """
    worst = 0.0
    for k in range(bundle.tree.levels):
        target = (bundle.y.value.level(k) - bundle.jump_k.level(k)) + bundle.jump_a.level(k)
        worst = max(worst, float(np.max(np.abs(bundle.y.right_value.level(k) - target))))
    return worst
