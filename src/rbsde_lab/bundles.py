"""Solution containers and residual checkers.

A solution bundle holds the value process, its martingale increments, and the
two increasing processes split into their cadlag step parts (``dk_star`` /
``da_star``, one increment per node, acting on the interval that starts
there) and their right jumps at the node itself (``jump_k`` / ``jump_a``).
The checkers are independent of any solver: they recompute the backward
budget identity and the minimality sums from stored data alone.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .lattice import AdaptedField, EdgeField, FiltrationTree, TimeGrid, running_sum_maxima
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
    the upper side with (U - Y) weights.  ``lower_paths`` and ``upper_paths``
    hold every path's sum; reading them enumerates the paths, so they are
    computed on first read and refused beyond the enumeration cap.
    """

    lower_residual: float
    upper_residual: float
    bundle: SolutionBundle = field(repr=False)
    barriers: BarrierPair = field(repr=False)

    @cached_property
    def lower_paths(self) -> np.ndarray:
        return _path_sums(self.bundle, self.barriers.lower, lower=True)

    @cached_property
    def upper_paths(self) -> np.ndarray:
        return _path_sums(self.bundle, self.barriers.upper, lower=False)


def minimality_terms(bundle: SolutionBundle, barrier: RegulatedField, lower: bool) -> list[np.ndarray]:
    """Per level k < N, each node's term of the minimality sum of K (``lower``) or A.

    (Y+ - L+) dK* + (Y - L) jumpK for K; (U+ - Y+) dA* + (U - Y) jumpA for A.
    """
    y = bundle.y
    star, jump = (bundle.dk_star, bundle.jump_k) if lower else (bundle.da_star, bundle.jump_a)
    terms = []
    for k in range(bundle.tree.depth):
        if lower:
            w_star = y.right_value.level(k) - barrier.right_value.level(k)
            w_jump = y.value.level(k) - barrier.value.level(k)
        else:
            w_star = barrier.right_value.level(k) - y.right_value.level(k)
            w_jump = barrier.value.level(k) - y.value.level(k)
        terms.append(w_star * star.level(k) + w_jump * jump.level(k))
    return terms


def _path_sums(bundle: SolutionBundle, barrier: RegulatedField | None, lower: bool) -> np.ndarray:
    """Every enumerated path's minimality sum (the path oracle); zeros without a barrier."""
    nodes = bundle.tree.path_gather()[0][:, :-1]
    if barrier is None:
        return np.zeros(nodes.shape[0])
    terms = minimality_terms(bundle, barrier, lower)
    return np.sum(np.concatenate(terms)[nodes], axis=1)


def skorokhod_residual(bundle: SolutionBundle, barriers: BarrierPair) -> SkorokhodReport:
    """Minimality sums of (K, A) against the barriers, maximised over paths.

    One max-plus recursion over the levels, no path enumeration: the sums
    add the node terms in path order from 0.0, so each residual equals the
    sequential sum along its worst path bit for bit.
    """
    if barriers.lower is not None and barriers.lower.tree is not bundle.tree:
        raise PreconditionError("bundle and barriers must share one tree")
    tree = bundle.tree
    sides = []
    for barrier, lower in ((barriers.lower, True), (barriers.upper, False)):
        if barrier is None:
            sides.append([np.zeros(tree.level_size(k)) for k in range(tree.depth)])
        else:
            sides.append(minimality_terms(bundle, barrier, lower))
    leaves = running_sum_maxima(tree, [np.stack(level) for level in zip(*sides)])[-1]
    lower_residual, upper_residual = np.max(leaves, axis=1).tolist()
    return SkorokhodReport(lower_residual, upper_residual, bundle, barriers)


def process_distances(first: SolutionBundle, second: SolutionBundle) -> tuple[float, float, float]:
    """Max over paths and instants of |K - K'|, |A - A'| and |(K - A) - (K' - A')|.

    Each is the largest |running sum| of the per-node increment differences,
    from one forward max recursion over the levels (no path enumeration).
    """
    def increments(b: SolutionBundle, k: int) -> tuple[np.ndarray, np.ndarray]:
        return b.jump_k.level(k) + b.dk_star.level(k), b.jump_a.level(k) + b.da_star.level(k)

    def gaps(k: int) -> np.ndarray:
        (k1, a1), (k2, a2) = increments(first, k), increments(second, k)
        rows = np.array([k1 - k2, a1 - a2, (k1 - a1) - (k2 - a2)])
        return np.stack([rows, -rows])  # the max of both signs is the max |.|

    tree = first.tree
    maxima = running_sum_maxima(tree, [gaps(k) for k in range(tree.depth)])
    worst = np.max([np.max(level, axis=-1) for level in maxima], axis=0).max(axis=0)
    k_gap, a_gap, ka_gap = worst.tolist()
    return k_gap, a_gap, ka_gap


def budget_defects(bundle: SolutionBundle, instance: ProblemInstance) -> list[np.ndarray]:
    """Per level k < N, each edge's defect of the one-step budget identity.

    Y_k - Y_{k+1} + dM - f(t_k, Y_k+) dt - (dK*_k + jumpK_k) + (dA*_k +
    jumpA_k) on the edge, with the driver evaluated at the right-limit value
    that rules the open interval; zero on an exact solution.
    """
    tree, grid, driver, y = bundle.tree, bundle.grid, instance.driver, bundle.y
    defects = []
    for k in range(tree.depth):
        parent = tree.edge_parent[k]
        drift = driver.level(float(grid.instants[k]), y.right_value.level(k)) * grid.dt(k)
        defects.append(
            y.value.level(k)[parent]
            - y.value.level(k + 1)[tree.edge_child[k]]
            + bundle.dm.level(k)
            - drift[parent]
            - bundle.dk_star.level(k)[parent]
            - bundle.jump_k.level(k)[parent]
            + bundle.da_star.level(k)[parent]
            + bundle.jump_a.level(k)[parent]
        )
    return defects


def lu4_residual(bundle: SolutionBundle, instance: ProblemInstance) -> float:
    """Max one-step budget identity defect over every tree edge.

    Checks Y_k = Y_{k+1} + f(t_k, Y_k+) dt + (dK*_k + jumpK_k)
    - (dA*_k + jumpA_k) - dM on each edge (see :func:`budget_defects`).
    """
    # np.max, unlike the builtin, propagates a NaN defect into the residual
    return float(np.max([np.max(np.abs(d)) for d in budget_defects(bundle, instance)]))


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
