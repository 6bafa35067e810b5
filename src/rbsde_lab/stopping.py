"""Stopping rules, local solutions on stochastic intervals, and patching.

Stopping rules are stored as per-node stop sets, optionally chained to a
prior rule ("first hit at or after the prior stop").  The chain keeps the
rules adapted by construction even on recombining trees, where the prior
stop level is path information rather than node information.

A chain of first hits is evaluated by one forward recursion over
``(phase, node)`` states, the phase counting the rules already stopped:
the local-property checks, the alternating sequence's stationarity index
and stall diagnostic, and the per-interval residuals of the patching gate
all read it, in time polynomial in the depth.  The path-based evaluation
(``StoppingRule.levels``, ``alternating_sequence``, ``local_solution``,
``patch_global``) enumerates the paths and is kept as the small-depth
reference oracle.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bundles import SolutionBundle, budget_defects, minimality_levels
from .errors import AlternationStuckError, PatchingError, PreconditionError
from .lattice import AdaptedField, EdgeField, FiltrationTree, sup_distance
from .regulated import BarrierPair, ProblemInstance, RegulatedField
from .solvers import solve_doubly_reflected

HIT_TOL = 1e-9
PATCH_TOL = 1e-9  # seams, path agreement, and patched against direct solve


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
    ):
        if stop_mask is not None and len(stop_mask) != tree.levels:
            raise PreconditionError("stop mask must cover every level")
        self.tree = tree
        self.stop_mask = stop_mask
        self.prior = prior
        self._levels_cache: np.ndarray | None = None

    @classmethod
    def at_zero(cls, tree: FiltrationTree) -> "StoppingRule":
        return cls(tree, tree.split_levels(np.arange(tree.node_count()) == 0))

    @classmethod
    def at_terminal(cls, tree: FiltrationTree) -> "StoppingRule":
        return cls(tree, None)

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
            hit = np.concatenate(self.stop_mask)[self.tree.path_gather()[0]]
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


def _hit_mask(y: RegulatedField, barrier: RegulatedField, tol: float, upper: bool) -> list[np.ndarray]:
    """Per level, where Y reaches the barrier: Y >= U - tol (``upper``) or Y <= L + tol."""
    if y.tree is not barrier.tree:
        raise PreconditionError("fields must share one tree")
    yv, b = y.value.values, barrier.value.values
    return y.tree.split_levels(yv >= b - tol if upper else yv <= b + tol)


def hitting_time_upper(
    y: RegulatedField, upper: RegulatedField, tau: StoppingRule, tol: float = HIT_TOL
) -> StoppingRule:
    """First level at or after tau where Y reaches the upper barrier.

    Equality is read as Y >= U - tol; paths that never hit stop at N.
    """
    return StoppingRule(y.tree, _hit_mask(y, upper, tol, upper=True), prior=tau)


def hitting_time_lower(
    y: RegulatedField, lower: RegulatedField, tau: StoppingRule, tol: float = HIT_TOL
) -> StoppingRule:
    """First level at or after tau where Y reaches the lower barrier."""
    return StoppingRule(y.tree, _hit_mask(y, lower, tol, upper=False), prior=tau)


def _chain_masks(rule: StoppingRule) -> list:
    """The stop sets of a rule's chain, first rule first."""
    masks = []
    while rule is not None:
        masks.append(rule.stop_mask)
        rule = rule.prior
    return masks[::-1]


def _chain_walk(tree: FiltrationTree, pattern: list, n_rules: int, terms: list[np.ndarray] | None = None):
    """Forward recursion over ``(phase, node)`` states of a chain of first hits.

    The chain has ``n_rules`` rules; rule r's per-level stop set is
    ``pattern[(r - 1) % len(pattern)]`` (None: no stop before the terminal
    level).  Rule 1 stops at the first level where its set holds, rule r at
    the first level at or after rule r-1's stop, and a rule that never hits
    stops at N.  A path is in phase a at a node when a rules stopped before
    that node's level.  A path advances at most one period at one node: if
    every stop set of the period holds there (a stall, for the alternating
    sequence) it leaves ``len(pattern)`` phases later.  Only phases some
    path is in are carried, so a level costs its width times the phases
    alive there.

    ``terms[k]`` (k < N) holds C rows of per-node terms at level k.  Each
    path keeps, for its current phase, the sum of the terms since the phase
    opened, in path order from 0.0 (one channel of zeros when ``terms`` is
    None).  Yields ``(k, arrive, depart)`` per level: ``arrive`` (C, phases,
    width) is, per arrival phase and node, the max of that sum over the
    paths reaching the node in that phase (-inf where none does), and
    ``depart`` (phases, width) the phase after the level's stops
    (``n_rules`` at level N).
    """
    period = len(pattern)
    channels = 1 if terms is None else len(terms[0])
    arrive = np.zeros((channels, 1, 1))
    for k in range(tree.levels):
        width = tree.level_size(k)
        phases = np.arange(arrive.shape[1])[:, None]
        if k == tree.depth:
            yield k, arrive, np.full((phases.size, width), n_rules)
            return
        hits = np.zeros((period, width), dtype=bool)
        for r, mask in enumerate(pattern):
            if mask is not None:
                hits[r] = mask[k]
        depart = np.repeat(phases, width, axis=1)
        nodes = np.arange(width)
        for _ in range(period):
            step = (depart < n_rules) & hits[depart % period, nodes]
            if not step.any():
                break
            depart += step
        yield k, arrive, depart

        live = arrive[0] > -np.inf
        shift = np.where(live, depart - phases, -1)
        vals = np.where(shift > 0, 0.0, arrive)  # a phase opened here restarts its sum
        if terms is not None:
            vals = vals + terms[k][:, None, :]
        out = np.full((channels, int(np.max(depart[live])) + 1, width), -np.inf)
        for s in sorted(set(shift[live].tolist())):
            n = min(phases.size, out.shape[1] - s)
            moved = np.where(shift == s, vals, -np.inf)[:, :n]
            out[:, s : s + n] = np.maximum(out[:, s : s + n], moved)
        arrive = tree.push_max(k, out[..., tree.edge_parent[k]])


def _interior_stop_max(rule: StoppingRule, values: list[np.ndarray]) -> float:
    """Max of ``values`` over the nodes where ``rule`` stops before level N (0.0 if none)."""
    masks = _chain_masks(rule)
    last = len(masks)
    worst = 0.0
    for k, arrive, depart in _chain_walk(rule.tree, masks, last):
        if k == rule.tree.depth:
            break
        stops = np.any((arrive[0, :last] > -np.inf) & (depart[:last] == last), axis=0)
        if stops.any():
            worst = max(worst, float(np.max(values[k][stops])))
    return worst


@dataclass
class LocalPropertiesReport:
    upper_hit_deviation: float
    lower_sandwich_violation: float
    lower_hit_deviation: float
    upper_sandwich_violation: float
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
    Mirrored for the lower hitting time.  Evaluated level by level over the
    nodes the paths reach, without enumerating paths.
    """
    if barriers.lower is None or barriers.upper is None:
        raise PreconditionError("local property checks need both barriers")
    tree = y.tree
    y_val, u_val, l_val = y.value.values, barriers.upper.value.values, barriers.lower.value.values
    up_dev = _interior_stop_max(
        hitting_time_upper(y, barriers.upper, tau, tol), tree.split_levels(np.abs(y_val - u_val))
    )
    lo_dev = _interior_stop_max(
        hitting_time_lower(y, barriers.lower, tau, tol), tree.split_levels(np.abs(y_val - l_val))
    )
    reached = np.concatenate(tree.reached)
    below = np.where(reached, l_val - y_val, -np.inf)  # nodes no path reaches are not measured
    above = np.where(reached, y_val - u_val, -np.inf)
    lower_violation = max(0.0, float(np.max(below)))
    upper_violation = max(0.0, float(np.max(above)))

    failures = []
    bound = tol + 1e-10
    if up_dev > bound:
        failures.append(f"upper hitting value deviates by {up_dev}")
    if lo_dev > bound:
        failures.append(f"lower hitting value deviates by {lo_dev}")
    if lower_violation > 1e-10:
        k, j = tree.locate(int(np.argmax(below)))
        failures.append(f"Y drops below the lower barrier at node ({k},{j}) by {lower_violation}")
    if upper_violation > 1e-10:
        k, j = tree.locate(int(np.argmax(above)))
        failures.append(f"Y exceeds the upper barrier at node ({k},{j}) by {upper_violation}")
    return LocalPropertiesReport(
        upper_hit_deviation=up_dev,
        lower_sandwich_violation=lower_violation,
        lower_hit_deviation=lo_dev,
        upper_sandwich_violation=upper_violation,
        failures=failures,
    )


@dataclass
class IntervalReport:
    budget_residual: float
    sandwich_violation: float
    lower_skorokhod: float
    upper_skorokhod: float


def _sandwich_gaps(y: RegulatedField, instance: ProblemInstance) -> np.ndarray:
    """Each node's max(L - Y, Y - U), flat in level order, an absent L (U) read as -inf (+inf)."""
    lower, _, upper, _ = instance.limits
    return np.maximum(lower - y.value.values, y.value.values - upper)


class PathContext:
    """The per-node quantities of a solved bundle, gathered along every path once.

    The bundle's fields, each edge's budget defect, each node's minimality
    terms of K and A (:func:`minimality_levels`, stacked on the first axis)
    and each node's sandwich gap.  Restricting a solve to many intervals
    re-reads them; gathering the (paths x levels) matrices a single time
    keeps that linear instead of quadratic in the number of intervals.
    """

    def __init__(self, instance: ProblemInstance, bundle: SolutionBundle):
        nodes, edges = instance.tree.path_gather()
        inner = nodes[:, :-1]
        self.y = bundle.y.value.values[nodes]
        self.y_right = bundle.y.right_value.values[nodes]
        self.dk, self.jk, self.da, self.ja = (
            f.values[inner] for f in (bundle.dk_star, bundle.jump_k, bundle.da_star, bundle.jump_a)
        )
        self.dm = bundle.dm.values[edges]
        self.budget_residuals = budget_defects(bundle, instance)[edges]
        self.minimality = np.concatenate(minimality_levels(bundle, instance.barriers), axis=1)[:, inner]
        self.sandwich_gaps = _sandwich_gaps(bundle.y, instance)[nodes]


@dataclass
class LocalSolution:
    """Restriction of a solved bundle to a pathwise stochastic interval.

    The increasing processes restart from zero at the interval opening; the
    stored matrices are zero outside the interval.
    """

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
    kk = np.arange(instance.tree.depth + 1)
    in_vals = (tl[:, None] <= kk) & (kk <= sl[:, None])
    in_incs = (tl[:, None] <= kk[:-1]) & (kk[:-1] < sl[:, None])
    dk, jk, da, ja, dm = (m * in_incs for m in (context.dk, context.jk, context.da, context.ja, context.dm))

    def rebased(star: np.ndarray, jump: np.ndarray) -> np.ndarray:
        """The running sum of the interval's increments from zero at its opening."""
        out = np.zeros(in_vals.shape)
        np.cumsum(star + jump, axis=1, out=out[:, 1:])
        return out * in_vals

    # budget identity on the interval's steps, sandwich on its instants;
    # one (P, N) sum per side, as one (2, P, N) sum may add in another order
    sums = [np.sum(terms * in_incs, axis=1) for terms in context.minimality]
    report = IntervalReport(
        budget_residual=float(np.max(np.abs(context.budget_residuals), where=in_incs, initial=0.0)),
        sandwich_violation=max(0.0, float(np.max(context.sandwich_gaps, where=in_vals, initial=-np.inf))),
        lower_skorokhod=float(np.max(sums[0])),
        upper_skorokhod=float(np.max(sums[1])),
    )
    return LocalSolution(
        tau_levels=tl,
        sigma_levels=sl,
        y_paths=context.y * in_vals,
        y_right_paths=context.y_right * in_vals,
        dk_star_paths=dk,
        jump_k_paths=jk,
        da_star_paths=da,
        jump_a_paths=ja,
        dm_paths=dm,
        k_paths=rebased(dk, jk),
        a_paths=rebased(da, ja),
        report=report,
    )


@dataclass
class StationarityReport:
    """The worst per-path first index with tau_n = T."""

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
    rules = [StoppingRule.at_zero(tree)]
    levels = rules[0].levels()
    indices = np.where(levels >= depth, 0, -1)
    n = 0
    while np.any(indices < 0):
        n += 1
        if n > depth + 1:
            raise AlternationStuckError(f"path {int(np.argmin(indices))}", depth, float("nan"))
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
            raise AlternationStuckError(f"path {p}", k, gap)
        rules.append(rule)
        levels = new_levels
        indices = np.where((levels >= depth) & (indices < 0), n, indices)
    return rules, StationarityReport(max_index=int(np.max(indices)))


@dataclass
class ChainReport:
    """The alternating sequence of a solved bundle and its patching residuals.

    ``intervals[n]`` measures the bundle restricted to the n-th interval
    [tau_n, tau_{n+1}] of the sequence, as :func:`local_solution` does, for
    n below the stationarity index.  ``y_gap`` and ``ka_gap`` compare the
    processes patched from those restrictions with the bundle: the
    restrictions of one bundle patch back to that bundle, so both are 0.0
    by construction.  The path oracle :func:`patch_global` patches path by
    path instead, and compares with a direct solve.
    """

    stationarity_index: int
    intervals: list[IntervalReport]
    y_gap: float
    ka_gap: float

    def worst_interval(self) -> dict[str, float]:
        """Each interval residual's largest magnitude over the intervals."""
        fields = ("budget_residual", "sandwich_violation", "lower_skorokhod", "upper_skorokhod")
        return {f: max(abs(getattr(r, f)) for r in self.intervals) for f in fields}


def _spread_max(acc: np.ndarray, first: np.ndarray, last: np.ndarray, values: np.ndarray) -> None:
    """acc[n] = max(acc[n], value) for every n in first..last, entry by entry."""
    for s in range(int(np.max(last - first, initial=-1)) + 1):
        sel = last - first >= s
        np.maximum.at(acc, first[sel] + s, values[sel])


def chain_report(instance: ProblemInstance, bundle: SolutionBundle, tol: float = HIT_TOL) -> ChainReport:
    """The alternating sequence of ``bundle`` and the patching checks, path-free.

    tau_0 = 0, then alternating first hits of the upper (odd indices) and
    lower barrier, evaluated by one :func:`_chain_walk` over the depth.  A
    path whose two consecutive hits fall on one level before N (touching
    barriers within tol) raises :class:`AlternationStuckError` naming the
    node, at the smallest index where any path stalls.  Otherwise, per
    interval: the budget identity on its steps, the sandwich on its
    instants, and the minimality sums of K and A rebased to zero at its
    opening.  Restrictions of one bundle tile [0, T] and agree at every seam
    by construction, so the patched Y and K - A are the bundle's own and no
    second solve is made.
    """
    lower, upper = instance.lower, instance.upper
    if lower is None or upper is None:
        raise PreconditionError("alternating sequence needs both barriers")
    tree = instance.tree
    depth = tree.depth
    y = bundle.y
    hit_up = _hit_mask(y, upper, tol, upper=True)
    hit_lo = _hit_mask(y, lower, tol, upper=False)
    terms = minimality_levels(bundle, instance.barriers)
    node_budget = np.zeros(tree.node_count())  # per node, its largest budget defect over its edges
    np.maximum.at(node_budget, tree.edge_source, np.abs(budget_defects(bundle, instance)))
    outside = tree.split_levels(_sandwich_gaps(y, instance))

    n_phases = depth + 2
    budget = np.zeros(n_phases)
    sandwich = np.full(n_phases, -np.inf)
    sums = np.full((2, n_phases), -np.inf)
    stall = None  # (stalled index, level, node), smallest index first
    index = 0
    for k, arrive, depart in _chain_walk(tree, [hit_up, hit_lo], depth + 1, terms):
        live = arrive[0] > -np.inf
        phase, node = np.nonzero(live)
        leave = depart[phase, node]
        _spread_max(sandwich, phase, leave, outside[k][node])  # instant k is in intervals phase..leave
        # an interval closing here ends its sum; the ones it skips are empty
        closing = leave > phase
        shut, skip_to, at = phase[closing], leave[closing] - 1, node[closing]
        for side in range(2):
            np.maximum.at(sums[side], shut, arrive[side, shut, at])
            _spread_max(sums[side], shut + 1, skip_to, np.zeros(shut.size))
        if k == depth:
            index = int(np.max(phase)) + 1
            break
        stalled = leave - phase >= 2
        if stalled.any():
            first = min(zip(phase[stalled] + 2, node[stalled]))
            if stall is None or first[0] < stall[0]:
                stall = (int(first[0]), k, int(first[1]))
        np.maximum.at(budget, leave, node_budget[tree.node_start[k] + node])
    if stall is not None:
        _, k, j = stall
        gap = float(upper.value.level(k)[j] - lower.value.level(k)[j])
        raise AlternationStuckError(f"node {j}", k, gap)

    intervals = [
        IntervalReport(
            budget_residual=float(budget[n]),
            sandwich_violation=max(0.0, float(sandwich[n])),
            lower_skorokhod=float(sums[0, n]),
            upper_skorokhod=float(sums[1, n]),
        )
        for n in range(index)
    ]
    return ChainReport(
        stationarity_index=index,
        intervals=intervals,
        y_gap=0.0,
        ka_gap=0.0,
    )


def _scatter_consistent(tree: FiltrationTree, matrix: np.ndarray, what: str) -> AdaptedField:
    """Re-project the first levels' pathwise values to a node field (0.0 beyond), checking path agreement."""
    index = tree.path_gather()[0][:, : matrix.shape[1]]
    flat = np.zeros(tree.node_count())
    flat[index] = matrix
    spread = np.max(np.abs(matrix - flat[index]), axis=0)
    if np.any(spread > PATCH_TOL):
        k = int(np.argmax(spread > PATCH_TOL))
        raise PatchingError(
            f"patched {what} disagrees across paths at level {k} by {float(spread[k])}"
        )
    return AdaptedField.from_flat(tree, flat)


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
        if gap > PATCH_TOL:
            p = int(np.argmax(np.abs(left - right)))
            raise PatchingError(
                f"seam {i}: Y mismatch {gap} on path {p} at level {int(seam[p])}"
            )

    kk = np.arange(depth + 1)
    y_pathwise = np.zeros((n_paths, depth + 1))
    y_right_pathwise = np.zeros((n_paths, depth + 1))
    for piece in reversed(pieces):  # a seam instant goes to the piece that closes there
        vals = (piece.tau_levels[:, None] <= kk) & (kk <= piece.sigma_levels[:, None])
        y_pathwise = np.where(vals, piece.y_paths, y_pathwise)
        y_right_pathwise = np.where(vals, piece.y_right_paths, y_right_pathwise)
    # each piece's increments are zero outside its interval
    dk, jk, da, ja, dm = (
        sum(getattr(piece, name) for piece in pieces)
        for name in ("dk_star_paths", "jump_k_paths", "da_star_paths", "jump_a_paths", "dm_paths")
    )
    flat = np.zeros(int(tree.edge_start[-1]))
    flat[tree.path_gather()[1]] = dm
    patched = SolutionBundle(  # Y, its right limit, K and A are checked for path agreement in this order
        tree=tree,
        grid=instance.grid,
        y=RegulatedField(
            _scatter_consistent(tree, y_pathwise, "Y"), _scatter_consistent(tree, y_right_pathwise, "right limit of Y")
        ),
        dm=EdgeField.from_flat(tree, flat),
        dk_star=_scatter_consistent(tree, dk, "dK*"),
        jump_k=_scatter_consistent(tree, jk, "right jumps of K"),
        da_star=_scatter_consistent(tree, da, "dA*"),
        jump_a=_scatter_consistent(tree, ja, "right jumps of A"),
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
    if y_gap > PATCH_TOL or ka_gap > PATCH_TOL:
        raise PatchingError(
            f"patched solution deviates from the direct solve: Y by {y_gap}, K - A by {ka_gap}"
        )
    return patched
