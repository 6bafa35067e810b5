"""Solution containers and residual checkers.

A solution bundle holds the value process, its martingale increments, and the
two increasing processes split into their cadlag step parts (``dk_star`` /
``da_star``, one increment per node, acting on the interval that starts
there) and their right jumps at the node itself (``jump_k`` / ``jump_a``).
The checkers are independent of any solver: they recompute the backward
budget identity and the minimality sums from stored data alone.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
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
        return replace(
            self,
            y=self.y.negate(),
            dm=self.dm.negate(),
            dk_star=self.da_star,
            jump_k=self.jump_a,
            da_star=self.dk_star,
            jump_a=self.jump_k,
            method=self.method if method is None else method,
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


def _node_terms(bundle: SolutionBundle, barrier: RegulatedField | None, lower: bool) -> np.ndarray:
    """Each node's term of the minimality sum of K (``lower``) or A, flat in level order.

    (Y+ - L+) dK* + (Y - L) jumpK for K; (U+ - Y+) dA* + (U - Y) jumpA for A;
    zeros without a barrier.  The sums stop before the terminal level.
    """
    y = bundle.y
    if barrier is None:
        return np.zeros(bundle.tree.node_count())
    if lower:
        w_star = y.right_value.values - barrier.right_value.values
        w_jump = y.value.values - barrier.value.values
        return w_star * bundle.dk_star.values + w_jump * bundle.jump_k.values
    w_star = barrier.right_value.values - y.right_value.values
    w_jump = barrier.value.values - y.value.values
    return w_star * bundle.da_star.values + w_jump * bundle.jump_a.values


def minimality_terms(bundle: SolutionBundle, barrier: RegulatedField, lower: bool) -> list[np.ndarray]:
    """Per level k < N, each node's term of the minimality sum of K (``lower``) or A."""
    return bundle.tree.split_levels(_node_terms(bundle, barrier, lower))[:-1]


def minimality_levels(bundle: SolutionBundle, barriers: BarrierPair) -> list[np.ndarray]:
    """Per level k < N, the rows (K, A) of each node's minimality terms."""
    rows = np.stack([_node_terms(bundle, barriers.lower, True), _node_terms(bundle, barriers.upper, False)])
    return bundle.tree.split_levels(rows)[:-1]


def _path_sums(bundle: SolutionBundle, barrier: RegulatedField | None, lower: bool) -> np.ndarray:
    """Every enumerated path's minimality sum (the path oracle); zeros without a barrier."""
    nodes = bundle.tree.path_gather()[0][:, :-1]
    return np.sum(_node_terms(bundle, barrier, lower)[nodes], axis=1)


def skorokhod_residual(bundle: SolutionBundle, barriers: BarrierPair) -> SkorokhodReport:
    """Minimality sums of (K, A) against the barriers, maximised over paths.

    One max-plus recursion over the levels, no path enumeration: the sums
    add the node terms in path order from 0.0, so each residual equals the
    sequential sum along its worst path bit for bit.
    """
    if any(side is not None and side.tree is not bundle.tree for side in (barriers.lower, barriers.upper)):
        raise PreconditionError("bundle and barriers must share one tree")
    leaves = deque(running_sum_maxima(bundle.tree, minimality_levels(bundle, barriers)), maxlen=1).pop()
    lower_residual, upper_residual = np.max(leaves, axis=1).tolist()
    return SkorokhodReport(lower_residual, upper_residual, bundle, barriers)


def process_distances(first: SolutionBundle, second: SolutionBundle) -> tuple[float, float, float]:
    """Max over paths and instants of |K - K'|, |A - A'| and |(K - A) - (K' - A')|."""
    return pairwise_process_distances([(first, second)])[0]


def pairwise_process_distances(pairs: list[tuple[SolutionBundle, SolutionBundle]]) -> list[tuple[float, ...]]:
    """:func:`process_distances` of each pair of bundles on one tree.

    Each is the largest |running sum| of the per-node increment differences,
    from one forward max recursion over the levels (no path enumeration),
    run once for all pairs: each channel has its own sums and max.
    """
    rows = []
    for first, second in pairs:
        (k1, a1), (k2, a2) = ((b.jump_k.values + b.dk_star.values, b.jump_a.values + b.da_star.values)
                              for b in (first, second))
        rows += [k1 - k2, a1 - a2, (k1 - a1) - (k2 - a2)]
    rows, tree = np.array(rows), pairs[0][0].tree
    signed = (np.stack((level, -level)) for level in tree.split_levels(rows)[:-1])  # the max of both is the max |.|
    worst = np.zeros(len(rows))  # the sums at the root
    for maxima in running_sum_maxima(tree, signed):
        worst = np.maximum(worst, np.max(maxima, axis=(0, 2)))
    return [tuple(worst[i : i + 3].tolist()) for i in range(0, len(worst), 3)]


def budget_defects(bundle: SolutionBundle, instance: ProblemInstance) -> np.ndarray:
    """Each edge's defect of the one-step budget identity, flat in the tree's edge order.

    Y_k - Y_{k+1} + dM - f(t_k, Y_k+) dt - (dK*_k + jumpK_k) + (dA*_k +
    jumpA_k) on the edge, with the driver evaluated at the right-limit value
    that rules the open interval; zero on an exact solution.
    """
    tree, y, (t, dt) = bundle.tree, bundle.y, instance.clocks
    parent, child = tree.edge_source, tree.edge_target
    drift = instance.driver.level(t, y.right_value.values) * dt  # one call over all nodes; edges read their parents'
    return (
        y.value.values[parent]
        - y.value.values[child]
        + bundle.dm.values
        - drift[parent]
        - bundle.dk_star.values[parent]
        - bundle.jump_k.values[parent]
        + bundle.da_star.values[parent]
        + bundle.jump_a.values[parent]
    )


def lu4_residual(bundle: SolutionBundle, instance: ProblemInstance) -> float:
    """Max one-step budget identity defect over every tree edge.

    Checks Y_k = Y_{k+1} + f(t_k, Y_k+) dt + (dK*_k + jumpK_k)
    - (dA*_k + jumpA_k) - dM on each edge (see :func:`budget_defects`).
    """
    # np.max, unlike the builtin, propagates a NaN defect into the residual
    return float(np.max(np.abs(budget_defects(bundle, instance))))


def sandwich_defect(bundle: SolutionBundle, barrier: RegulatedField | None, lower: bool) -> float:
    """Max nodewise defect of L <= Y and L+ <= Y+ (``lower``), or of Y <= U and Y+ <= U+.

    Zero when the barrier is absent or never crossed.
    """
    if barrier is None:
        return 0.0
    y = bundle.y
    gaps = (barrier.value.values - y.value.values, barrier.right_value.values - y.right_value.values)
    return max(0.0, *(float(np.max(g if lower else -g)) for g in gaps))


def sandwich_violation(bundle: SolutionBundle, barriers: BarrierPair) -> float:
    """Max nodewise defect of L <= Y <= U and L+ <= Y+ <= U+."""
    return max(
        sandwich_defect(bundle, barriers.lower, lower=True),
        sandwich_defect(bundle, barriers.upper, lower=False),
    )


def right_jump_identity_defect(bundle: SolutionBundle) -> float:
    """Max nodewise defect of (right jump of Y) = -(jumpK - jumpA).

    Checked as right_value == (value - jumpK) + jumpA, the association used
    when bundles are assembled, so solver outputs score an exact zero.
    """
    target = (bundle.y.value.values - bundle.jump_k.values) + bundle.jump_a.values
    return max(0.0, float(np.max(np.abs(bundle.y.right_value.values - target))))
