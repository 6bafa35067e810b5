"""Stopping rules, local solutions on stochastic intervals, and patching.

Stopping rules are stored as per-node stop sets, optionally chained to a
prior rule ("first hit at or after the prior stop").  The chain keeps the
rules adapted by construction even on recombining trees, where the prior
stop level is path information rather than node information.  Pathwise
evaluation uses the enumerated path matrices, which the tree caps at a
manageable depth.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bundles import SolutionBundle
from .errors import AlternationStuckError, PatchingError, PreconditionError
from .lattice import AdaptedField, EdgeField, FiltrationTree, sup_distance
from .regulated import BarrierPair, ProblemInstance, RegulatedField
from .solvers import solve_doubly_reflected

HIT_TOL = 1e-9


class StoppingRule:
    """First hit of a per-node stop set at or after a prior rule's stop.

    With no prior the search starts at level 0; with no stop set the rule
    stops at the terminal level.  Two paths that agree up to a level and
    both stop by it stop together, because the decision at a level reads
    only the path prefix.
    """

    def __init__(
        self,
        tree: FiltrationTree,
        stop_mask: list[np.ndarray] | None,
        prior: "StoppingRule | None" = None,
        label: str = "",
    ):
        if stop_mask is not None and len(stop_mask) != tree.levels:
            raise PreconditionError("stop mask must cover every level")
        self.tree = tree
        self.stop_mask = stop_mask
        self.prior = prior
        self.label = label
        self._levels_cache: np.ndarray | None = None

    @classmethod
    def at_zero(cls, tree: FiltrationTree) -> "StoppingRule":
        mask = [np.zeros(tree.level_size(k), dtype=bool) for k in range(tree.levels)]
        mask[0][:] = True
        return cls(tree, mask, label="zero")

    @classmethod
    def at_terminal(cls, tree: FiltrationTree) -> "StoppingRule":
        return cls(tree, None, label="terminal")

    def levels(self) -> np.ndarray:
        """Per-path stopping level, in {0, ..., N}; cached."""
        if self._levels_cache is not None:
            return self._levels_cache
        nodes, _, _ = self.tree.path_arrays()
        n_paths, width = nodes.shape
        depth = width - 1
        if self.prior is None:
            start = np.zeros(n_paths, dtype=np.int64)
        else:
            start = self.prior.levels()
        if self.stop_mask is None:
            out = np.full(n_paths, depth, dtype=np.int64)
        else:
            hit = np.empty((n_paths, width), dtype=bool)
            for k in range(width):
                hit[:, k] = self.stop_mask[k][nodes[:, k]]
            nxt = np.full((n_paths, width), depth, dtype=np.int64)
            for k in range(depth - 1, -1, -1):
                nxt[:, k] = np.where(hit[:, k], k, nxt[:, k + 1])
            out = nxt[np.arange(n_paths), start]
        out.setflags(write=False)
        self._levels_cache = out
        return out

    def adaptedness_violations(self) -> list[tuple[int, int]]:
        """Path pairs breaking prefix-measurability of the stop decision.

        Groups paths by their choice prefix at each level; paths sharing a
        prefix through level k that both stop at or before k must stop at
        the same level.
        """
        _, choices, _ = self.tree.path_arrays()
        levels = self.levels()
        bad: list[tuple[int, int]] = []
        for k in range(self.tree.depth + 1):
            groups: dict[tuple, tuple[int, int]] = {}
            for p in range(choices.shape[0]):
                if levels[p] <= k:
                    key = tuple(choices[p, :k])
                    if key in groups:
                        q, lv = groups[key]
                        if lv != levels[p]:
                            bad.append((q, p))
                    else:
                        groups[key] = (p, int(levels[p]))
        return bad


def hitting_time_upper(
    y: RegulatedField, upper: RegulatedField, tau: StoppingRule, tol: float = HIT_TOL
) -> StoppingRule:
    """First level at or after tau where Y reaches the upper barrier.

    Equality is read as Y >= U - tol; paths that never hit stop at N.
    """
    if y.tree is not upper.tree:
        raise PreconditionError("fields must share one tree")
    mask = [
        y.value.level(k) >= upper.value.level(k) - tol for k in range(y.tree.levels)
    ]
    return StoppingRule(y.tree, mask, prior=tau, label="hit-upper")


def hitting_time_lower(
    y: RegulatedField, lower: RegulatedField, tau: StoppingRule, tol: float = HIT_TOL
) -> StoppingRule:
    """First level at or after tau where Y reaches the lower barrier."""
    if y.tree is not lower.tree:
        raise PreconditionError("fields must share one tree")
    mask = [
        y.value.level(k) <= lower.value.level(k) + tol for k in range(y.tree.levels)
    ]
    return StoppingRule(y.tree, mask, prior=tau, label="hit-lower")


@dataclass
class LocalPropertiesReport:
    upper_hit_deviation: float
    lower_sandwich_violation: float
    lower_hit_deviation: float
    upper_sandwich_violation: float
    tol: float
    failures: list[str]

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_local_properties(
    y: RegulatedField, barriers: BarrierPair, tau: StoppingRule, tol: float = HIT_TOL
) -> LocalPropertiesReport:
    """Hitting-value identities and barrier domination for a solved Y.

    On every path whose upper hitting time is interior, Y equals the upper
    barrier there (within tol); Y dominates the lower barrier everywhere.
    Mirrored for the lower hitting time.
    """
    if barriers.lower is None or barriers.upper is None:
        raise PreconditionError("local property checks need both barriers")
    tree = y.tree
    nodes, _, _ = tree.path_arrays()
    n_paths = nodes.shape[0]
    depth = tree.depth
    y_paths = y.value.path_matrix()
    u_paths = barriers.upper.value.path_matrix()
    l_paths = barriers.lower.value.path_matrix()
    rows = np.arange(n_paths)

    delta = hitting_time_upper(y, barriers.upper, tau, tol).levels()
    interior = delta < depth
    up_dev = 0.0
    if interior.any():
        up_dev = float(
            np.max(np.abs(y_paths[rows, delta] - u_paths[rows, delta])[interior])
        )
    theta = hitting_time_lower(y, barriers.lower, tau, tol).levels()
    interior_lo = theta < depth
    lo_dev = 0.0
    if interior_lo.any():
        lo_dev = float(
            np.max(np.abs(y_paths[rows, theta] - l_paths[rows, theta])[interior_lo])
        )
    lower_violation = max(0.0, float(np.max(l_paths - y_paths)))
    upper_violation = max(0.0, float(np.max(y_paths - u_paths)))

    failures = []
    bound = tol + 1e-10
    if up_dev > bound:
        failures.append(f"upper hitting value deviates by {up_dev}")
    if lo_dev > bound:
        failures.append(f"lower hitting value deviates by {lo_dev}")
    if lower_violation > 1e-10:
        k, j = _worst_node(y, barriers.lower, below=True)
        failures.append(f"Y drops below the lower barrier at node ({k},{j}) by {lower_violation}")
    if upper_violation > 1e-10:
        k, j = _worst_node(y, barriers.upper, below=False)
        failures.append(f"Y exceeds the upper barrier at node ({k},{j}) by {upper_violation}")
    return LocalPropertiesReport(
        upper_hit_deviation=up_dev,
        lower_sandwich_violation=lower_violation,
        lower_hit_deviation=lo_dev,
        upper_sandwich_violation=upper_violation,
        tol=tol,
        failures=failures,
    )


def _worst_node(y: RegulatedField, barrier: RegulatedField, below: bool) -> tuple[int, int]:
    worst, where = -np.inf, (0, 0)
    for k in range(y.tree.levels):
        gap = (barrier.value.level(k) - y.value.level(k)) if below else (
            y.value.level(k) - barrier.value.level(k)
        )
        j = int(np.argmax(gap))
        if float(gap[j]) > worst:
            worst, where = float(gap[j]), (k, j)
    return where


@dataclass
class IntervalReport:
    budget_residual: float
    sandwich_violation: float
    lower_skorokhod: float
    upper_skorokhod: float


class PathContext:
    """Pathwise matrices of a solved bundle and its instance, gathered once.

    Restricting a solve to many intervals re-reads the same fields; building
    the (paths x levels) matrices a single time keeps that linear instead of
    quadratic in the number of intervals.
    """

    def __init__(self, instance: ProblemInstance, bundle: SolutionBundle):
        self.instance = instance
        self.bundle = bundle
        self.y = bundle.y.value.path_matrix()
        self.y_right = bundle.y.right_value.path_matrix()
        self.dk = bundle.dk_star.path_matrix()[:, :-1]
        self.jk = bundle.jump_k.path_matrix()[:, :-1]
        self.da = bundle.da_star.path_matrix()[:, :-1]
        self.ja = bundle.jump_a.path_matrix()[:, :-1]
        self.dm = bundle.dm.path_matrix()
        self.l_val = None if instance.lower is None else instance.lower.value.path_matrix()
        self.l_right = None if instance.lower is None else instance.lower.right_value.path_matrix()
        self.u_val = None if instance.upper is None else instance.upper.value.path_matrix()
        self.u_right = None if instance.upper is None else instance.upper.right_value.path_matrix()
        self.drift = _drift_matrix(instance, self.y_right)
        self.budget_residuals = (
            self.y[:, :-1]
            - self.y[:, 1:]
            - self.drift
            - (self.dk + self.jk)
            + (self.da + self.ja)
            + self.dm
        )


@dataclass
class LocalSolution:
    """Restriction of a solved bundle to a pathwise stochastic interval.

    The increasing processes restart from zero at the interval opening; the
    stored matrices are masked outside the interval.
    """

    instance: ProblemInstance
    source: SolutionBundle
    tau: StoppingRule
    sigma: StoppingRule
    tau_levels: np.ndarray
    sigma_levels: np.ndarray
    y_paths: np.ndarray
    y_right_paths: np.ndarray
    dk_star_paths: np.ndarray
    jump_k_paths: np.ndarray
    da_star_paths: np.ndarray
    jump_a_paths: np.ndarray
    dm_paths: np.ndarray
    k_paths: np.ndarray
    a_paths: np.ndarray
    report: IntervalReport


def _drift_matrix(instance: ProblemInstance, y_right_paths: np.ndarray) -> np.ndarray:
    """f(t_k, Y_k+) * dt_k along paths, shape (P, N)."""
    grid, driver = instance.grid, instance.driver
    return np.column_stack([
        driver.level(float(grid.instants[k]), y_right_paths[:, k]) * grid.dt(k)
        for k in range(instance.tree.depth)
    ])


def local_solution(
    instance: ProblemInstance,
    tau: StoppingRule,
    sigma: StoppingRule,
    bundle: SolutionBundle | None = None,
    context: PathContext | None = None,
) -> LocalSolution:
    """Restrict the global solve to [tau, sigma], rebasing K and A to zero.

    On the interval the restricted processes satisfy the one-step budget
    identity, stay between the barriers, and keep the minimality sums flat;
    the report carries the measured residuals.  Pass a shared ``context``
    when restricting one solve to many intervals.
    """
    tl = tau.levels()
    sl = sigma.levels()
    if np.any(tl > sl):
        p = int(np.argmax(tl > sl))
        raise PreconditionError(
            f"interval opening after closing on path {p}: tau={int(tl[p])}, sigma={int(sl[p])}"
        )
    if context is None:
        if bundle is None:
            bundle = solve_doubly_reflected(instance)
        context = PathContext(instance, bundle)
    bundle = context.bundle
    tree = instance.tree
    depth = tree.depth
    kk = np.arange(depth + 1)
    in_vals = (tl[:, None] <= kk[None, :]) & (kk[None, :] <= sl[:, None])
    in_incs = (tl[:, None] <= kk[None, :-1]) & (kk[None, :-1] < sl[:, None])

    y_paths = context.y * in_vals
    y_right_paths = context.y_right * in_vals
    dk = context.dk * in_incs
    jk = context.jk * in_incs
    da = context.da * in_incs
    ja = context.ja * in_incs
    dm = context.dm * in_incs

    k_cum = np.zeros((y_paths.shape[0], depth + 1))
    np.cumsum(dk + jk, axis=1, out=k_cum[:, 1:])
    a_cum = np.zeros_like(k_cum)
    np.cumsum(da + ja, axis=1, out=a_cum[:, 1:])
    k_cum *= in_vals
    a_cum *= in_vals

    # budget identity on interval steps, driver at the right-limit value
    full_y = context.y
    full_right = context.y_right
    resid = context.budget_residuals
    budget = float(np.max(np.abs(resid * in_incs))) if resid.size else 0.0

    sandwich = 0.0
    lo_sum = np.zeros(y_paths.shape[0])
    up_sum = np.zeros(y_paths.shape[0])
    if instance.lower is not None:
        l_val, l_right = context.l_val, context.l_right
        sandwich = max(sandwich, float(np.max((l_val - full_y) * in_vals)))
        lo_sum = np.sum(
            ((full_right[:, :-1] - l_right[:, :-1]) * dk + (full_y[:, :-1] - l_val[:, :-1]) * jk),
            axis=1,
        )
    if instance.upper is not None:
        u_val, u_right = context.u_val, context.u_right
        sandwich = max(sandwich, float(np.max((full_y - u_val) * in_vals)))
        up_sum = np.sum(
            ((u_right[:, :-1] - full_right[:, :-1]) * da + (u_val[:, :-1] - full_y[:, :-1]) * ja),
            axis=1,
        )
    report = IntervalReport(
        budget_residual=budget,
        sandwich_violation=max(sandwich, 0.0),
        lower_skorokhod=float(np.max(lo_sum)),
        upper_skorokhod=float(np.max(up_sum)),
    )
    return LocalSolution(
        instance=instance,
        source=bundle,
        tau=tau,
        sigma=sigma,
        tau_levels=tl,
        sigma_levels=sl,
        y_paths=y_paths,
        y_right_paths=y_right_paths,
        dk_star_paths=dk,
        jump_k_paths=jk,
        da_star_paths=da,
        jump_a_paths=ja,
        dm_paths=dm,
        k_paths=k_cum,
        a_paths=a_cum,
        report=report,
    )


@dataclass
class StationarityReport:
    """Per-path first index with tau_n = T, and the worst such index."""

    indices: np.ndarray
    max_index: int


def alternating_sequence(
    y: RegulatedField, barriers: BarrierPair, tol: float = HIT_TOL
) -> tuple[list[StoppingRule], StationarityReport]:
    """tau_0 = 0, then alternating first hits of the upper and lower barrier.

    Odd indices hit the upper barrier, even ones the lower, each capped at
    the terminal level.  With separated barriers the sequence is stationary
    on every path with index at most N + 1; a path whose alternation stalls
    before the terminal level (touching barriers within tol) raises a
    diagnostic naming the path and the local gap.
    """
    if barriers.lower is None or barriers.upper is None:
        raise PreconditionError("alternating sequence needs both barriers")
    tree = y.tree
    depth = tree.depth
    nodes, _, _ = tree.path_arrays()
    n_paths = nodes.shape[0]
    rules = [StoppingRule.at_zero(tree)]
    levels = rules[0].levels()
    indices = np.where(levels >= depth, 0, -1)
    n = 0
    while np.any(indices < 0):
        n += 1
        if n > depth + 1:
            raise AlternationStuckError(int(np.argmin(indices)), depth, float("nan"))
        if n % 2 == 1:
            rule = hitting_time_upper(y, barriers.upper, rules[-1], tol)
        else:
            rule = hitting_time_lower(y, barriers.lower, rules[-1], tol)
        new_levels = rule.levels()
        stalled = (new_levels == levels) & (new_levels < depth) & (n >= 2)
        if np.any(stalled):
            p = int(np.argmax(stalled))
            k = int(new_levels[p])
            node = int(nodes[p, k])
            gap = float(
                barriers.upper.value.level(k)[node] - barriers.lower.value.level(k)[node]
            )
            raise AlternationStuckError(p, k, gap)
        rules.append(rule)
        levels = new_levels
        indices = np.where((levels >= depth) & (indices < 0), n, indices)
    return rules, StationarityReport(indices=indices, max_index=int(np.max(indices)))


def _scatter_consistent(
    tree: FiltrationTree, matrix: np.ndarray, what: str, tol: float
) -> list[np.ndarray]:
    """Re-project pathwise values to node fields, checking path agreement."""
    nodes, _, _ = tree.path_arrays()
    out = []
    for k in range(matrix.shape[1]):
        width = tree.level_size(k)
        rep = np.zeros(width)
        rep[nodes[:, k]] = matrix[:, k]
        spread = float(np.max(np.abs(matrix[:, k] - rep[nodes[:, k]])))
        if spread > tol:
            raise PatchingError(
                f"patched {what} disagrees across paths at level {k} by {spread}"
            )
        out.append(rep)
    return out


def patch_global(instance: ProblemInstance, pieces: list[LocalSolution]) -> SolutionBundle:
    """Concatenate local solutions tiling [0, T] into a global bundle.

    Pieces must tile pathwise (each closes where the next opens, the first
    opens at 0, the last closes at T) and agree on Y at the seams.  The
    increasing processes accumulate across seams.  The result is verified
    against the direct solve before it is returned.
    """
    if not pieces:
        raise PreconditionError("no pieces to patch")
    tree = instance.tree
    depth = tree.depth
    nodes, _, _ = tree.path_arrays()
    n_paths = nodes.shape[0]
    if np.any(pieces[0].tau_levels != 0):
        raise PatchingError("first piece must open at time zero on every path")
    for i in range(len(pieces) - 1):
        if np.any(pieces[i].sigma_levels != pieces[i + 1].tau_levels):
            p = int(np.argmax(pieces[i].sigma_levels != pieces[i + 1].tau_levels))
            raise PatchingError(f"pieces {i} and {i + 1} do not tile on path {p}")
    if np.any(pieces[-1].sigma_levels != depth):
        raise PatchingError("last piece must close at the terminal level on every path")

    rows = np.arange(n_paths)
    for i in range(len(pieces) - 1):
        seam = pieces[i].sigma_levels
        left = pieces[i].y_paths[rows, seam]
        right = pieces[i + 1].y_paths[rows, seam]
        gap = float(np.max(np.abs(left - right)))
        if gap > 1e-9:
            p = int(np.argmax(np.abs(left - right)))
            raise PatchingError(
                f"seam {i}: Y mismatch {gap} on path {p} at level {int(seam[p])}"
            )

    kk = np.arange(depth + 1)
    y_pathwise = np.zeros((n_paths, depth + 1))
    y_right_pathwise = np.zeros((n_paths, depth + 1))
    dk = np.zeros((n_paths, depth))
    jk = np.zeros((n_paths, depth))
    da = np.zeros((n_paths, depth))
    ja = np.zeros((n_paths, depth))
    dm = np.zeros((n_paths, depth))
    owned_val = np.zeros((n_paths, depth + 1), dtype=bool)
    for piece in pieces:
        vals = (piece.tau_levels[:, None] <= kk[None, :]) & (
            kk[None, :] <= piece.sigma_levels[:, None]
        )
        take = vals & ~owned_val
        y_pathwise = np.where(take, piece.y_paths, y_pathwise)
        y_right_pathwise = np.where(take, piece.y_right_paths, y_right_pathwise)
        owned_val |= vals
        incs = (piece.tau_levels[:, None] <= kk[None, :-1]) & (
            kk[None, :-1] < piece.sigma_levels[:, None]
        )
        dk += piece.dk_star_paths * incs
        jk += piece.jump_k_paths * incs
        da += piece.da_star_paths * incs
        ja += piece.jump_a_paths * incs
        dm += piece.dm_paths * incs
    if not np.all(owned_val):
        raise PatchingError("pieces leave uncovered instants")

    tol = 1e-9
    y_levels = _scatter_consistent(tree, y_pathwise, "Y", tol)
    y_right_levels = _scatter_consistent(tree, y_right_pathwise, "right limit of Y", tol)
    pad = np.zeros((n_paths, 1))
    dk_levels = _scatter_consistent(tree, np.hstack([dk, pad]), "dK*", tol)
    jk_levels = _scatter_consistent(tree, np.hstack([jk, pad]), "right jumps of K", tol)
    da_levels = _scatter_consistent(tree, np.hstack([da, pad]), "dA*", tol)
    ja_levels = _scatter_consistent(tree, np.hstack([ja, pad]), "right jumps of A", tol)

    dm_rows: list[np.ndarray] = []
    _, choices, _ = tree.path_arrays()
    for k, offsets in enumerate(tree.offsets):
        flat = np.zeros(int(offsets[-1]))
        flat[offsets[nodes[:, k]] + choices[:, k]] = dm[:, k]
        dm_rows.append(flat)

    y_field = AdaptedField(tree, y_levels)
    patched = SolutionBundle(
        tree=tree,
        grid=instance.grid,
        y=RegulatedField(y_field, AdaptedField(tree, y_right_levels)),
        dm=EdgeField(tree, dm_rows),
        dk_star=AdaptedField(tree, dk_levels),
        jump_k=AdaptedField(tree, jk_levels),
        da_star=AdaptedField(tree, da_levels),
        jump_a=AdaptedField(tree, ja_levels),
        method="patched",
    )
    direct = solve_doubly_reflected(instance)
    y_gap = sup_distance(patched.y.value, direct.y.value)
    ka_inc = (dk + jk) - (da + ja)
    ka_patched = np.zeros((n_paths, depth + 1))
    np.cumsum(ka_inc, axis=1, out=ka_patched[:, 1:])
    ka_gap = float(
        np.max(
            np.abs(ka_patched - (direct.cumulative_k_paths() - direct.cumulative_a_paths()))
        )
    )
    if y_gap > 1e-9 or ka_gap > 1e-9:
        raise PatchingError(
            f"patched solution deviates from the direct solve: Y by {y_gap}, K - A by {ka_gap}"
        )
    return patched
