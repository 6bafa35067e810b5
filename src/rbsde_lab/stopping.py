"""Stopping rules, local solutions on stochastic intervals, and patching.

Stopping rules are stored as per-node stop sets, optionally chained to a
prior rule ("first hit at or after the prior stop").  The chain keeps the
rules adapted by construction even on recombining trees, where the prior
stop level is path information rather than node information.

``verify`` reads the first hits level by level, keeping per node a state
that does not grow with the number of hits a path makes:

- the local-property checks run one boolean forward pass over the phases
  of a chain (the rules passed so far), the upper and lower hitting times
  stacked (``_first_hit_maxima``);
- the patching gate (:func:`chain_report`) runs one walk over two states,
  the barrier a path waits for next, for the stationarity index, the stall
  diagnostic and the worst residual over the intervals.

Both read the same stacked hit masks (``_hit_masks``) and step to the next
level with ``FiltrationTree.push_max``.  The per-interval residuals
(``ChainReport.intervals``) come from a walk over the phases of the
alternating sequence (``_interval_reports``), run on first read; its state
per node grows with the phases some path is in there.  The path-based
evaluation (``StoppingRule.levels``, ``alternating_sequence``,
``local_solution``, ``patch_global``) enumerates the paths and is kept as
the small-depth reference oracle.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .bundles import SolutionBundle, budget_defects, minimality_levels
from .errors import AlternationStuckError, PatchingError, PreconditionError
from .lattice import AdaptedField, EdgeField, FiltrationTree, sup_distance
from .regulated import BarrierPair, ProblemInstance, RegulatedField
from .solvers import solve_doubly_reflected
from .tolerances import HIT_TOL, PATCH_TOL, ROUNDOFF_TOL


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
        for k, mask in enumerate(() if stop_mask is None else stop_mask):  # another width would shift or broadcast
            if np.asarray(mask).dtype != bool or np.shape(mask) != (tree.level_size(k),):
                raise PreconditionError(f"stop mask level {k}: expected {tree.level_size(k)} booleans")
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


def _hit_mask(y: RegulatedField, barrier: RegulatedField, tol: float, upper: bool) -> np.ndarray:
    """Where Y reaches the barrier, flat in level order: Y >= U - tol (``upper``) or Y <= L + tol."""
    if y.tree is not barrier.tree:
        raise PreconditionError("fields must share one tree")
    yv, b = y.value.values, barrier.value.values
    return yv >= b - tol if upper else yv <= b + tol


def hitting_time_upper(
    y: RegulatedField, upper: RegulatedField, tau: StoppingRule, tol: float = HIT_TOL
) -> StoppingRule:
    """First level at or after tau where Y reaches the upper barrier.

    Equality is read as Y >= U - tol; paths that never hit stop at N.
    """
    return StoppingRule(y.tree, y.tree.split_levels(_hit_mask(y, upper, tol, upper=True)), prior=tau)


def hitting_time_lower(
    y: RegulatedField, lower: RegulatedField, tau: StoppingRule, tol: float = HIT_TOL
) -> StoppingRule:
    """First level at or after tau where Y reaches the lower barrier."""
    return StoppingRule(y.tree, y.tree.split_levels(_hit_mask(y, lower, tol, upper=False)), prior=tau)


def _hit_masks(y: RegulatedField, barriers: BarrierPair, tol: float) -> np.ndarray:
    """Where Y reaches U (row 0) and L (row 1), flat in level order."""
    return np.stack((_hit_mask(y, barriers.upper, tol, upper=True), _hit_mask(y, barriers.lower, tol, upper=False)))


def _chain_masks(rule: StoppingRule) -> list:
    """The stop sets of a rule's chain, first rule first."""
    masks = []
    while rule is not None:
        masks.append(rule.stop_mask)
        rule = rule.prior
    return masks[::-1]


def _first_hit_maxima(tau: StoppingRule, hits: np.ndarray, values: np.ndarray) -> list[float]:
    """Per row of ``hits``, the max of that row of ``values`` over the nodes
    where the first hit at or after ``tau`` falls before level N (0.0 if none).

    ``hits`` and ``values`` are flat in level order, one row per stop set.
    One boolean forward pass serves every row: ``at[row, a, node]`` holds
    where some path arrives having passed a rules of the chain (tau's rules,
    then the row's hit), and a path passes every rule whose set holds in
    turn at one node.
    """
    tree, chain = tau.tree, _chain_masks(tau)
    stops = np.zeros(hits.shape, dtype=bool)
    at = np.zeros((hits.shape[0], len(chain) + 2, 1), dtype=bool)
    at[:, 0] = True
    for k, last, stop in zip(range(tree.depth), tree.split_levels(hits), tree.split_levels(stops)):
        width = tree.level_size(k)
        depart = np.empty(at.shape[:2] + (width,), dtype=bool)
        carried = at[:, 0]
        for b, mask in enumerate([np.zeros(width, bool) if m is None else m[k] for m in chain] + [last]):
            depart[:, b] = carried & ~mask
            entered = carried & mask
            carried = entered | at[:, b + 1]
        stop[...] = entered  # the paths that pass the last rule here
        depart[:, -1] = carried
        at = tree.push_max(k, depart)
    return np.max(values, axis=1, where=stops, initial=0.0).tolist()


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
    up_dev, lo_dev = _first_hit_maxima(tau, _hit_masks(y, barriers, tol), np.abs(y_val - np.stack((u_val, l_val))))
    reached = np.concatenate(tree.reached)
    below = np.where(reached, l_val - y_val, -np.inf)  # nodes no path reaches are not measured
    above = np.where(reached, y_val - u_val, -np.inf)
    lower_violation = max(0.0, float(np.max(below)))
    upper_violation = max(0.0, float(np.max(above)))

    failures = []
    bound = tol + ROUNDOFF_TOL
    if up_dev > bound:
        failures.append(f"upper hitting value deviates by {up_dev}")
    if lo_dev > bound:
        failures.append(f"lower hitting value deviates by {lo_dev}")
    if lower_violation > ROUNDOFF_TOL:
        k, j = tree.locate(int(np.argmax(below)))
        failures.append(f"Y drops below the lower barrier at node ({k},{j}) by {lower_violation}")
    if upper_violation > ROUNDOFF_TOL:
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
    n below the stationarity index; the phase walk that gives it runs on
    first read.  ``y_gap`` and ``ka_gap`` compare the processes patched from
    those restrictions with the bundle: the restrictions of one bundle patch
    back to that bundle, so both are 0.0 by construction.  The path oracle
    :func:`patch_global` patches path by path instead, and compares with a
    direct solve.
    """

    stationarity_index: int
    worst: dict[str, float] | None = field(repr=False)  # the two-state walk's maxima, where they are exact
    phase_walk: Callable[[], list[IntervalReport]] = field(repr=False)
    y_gap: float = 0.0
    ka_gap: float = 0.0

    @cached_property
    def intervals(self) -> list[IntervalReport]:
        return self.phase_walk()

    def worst_interval(self) -> dict[str, float]:
        """Each interval residual's largest magnitude over the intervals."""
        if self.worst is not None:
            return dict(self.worst)
        fields = ("budget_residual", "sandwich_violation", "lower_skorokhod", "upper_skorokhod")
        return {f: max(abs(getattr(r, f)) for r in self.intervals) for f in fields}


def _interval_reports(instance: ProblemInstance, bundle: SolutionBundle, hits: np.ndarray,
                      index: int) -> list[IntervalReport]:
    """Per interval [tau_n, tau_{n+1}], n < ``index``, the residuals
    :func:`local_solution` reports: the budget identity on its steps, the
    sandwich on its instants and the minimality sums at its closing.

    ``hits`` are the :func:`_hit_masks` of a sequence :func:`chain_report`
    found stall-free, so before level N a path in phase a (a hits so far)
    passes at most the barrier it waits for, row a % 2, and at N every open
    phase closes.  One forward walk carries, per phase some path is in and
    per node, the largest sums of the K and A terms since the phase opened
    over the paths arriving there (-inf where none does).
    """
    tree, depth = instance.tree, instance.tree.depth
    node_budget = np.zeros(tree.node_count())  # per node, its largest budget defect over its edges
    np.maximum.at(node_budget, tree.edge_source, np.abs(budget_defects(bundle, instance)))
    gaps = tree.split_levels(_sandwich_gaps(bundle.y, instance))
    terms = minimality_levels(bundle, instance.barriers)
    rows = np.full((4, depth + 2), -np.inf)  # per interval: budget, sandwich, K sum, A sum
    rows[0] = 0.0

    def book(row: int | slice, n: slice, values: np.ndarray, where: np.ndarray) -> None:  # per phase, the max
        rows[row, n] = np.maximum(rows[row, n], np.max(np.where(where, values, -np.inf), axis=-1))

    arrive = np.zeros((2, 1, 1))
    for k, level_hits, budget in zip(range(depth), tree.split_levels(hits), tree.split_levels(node_budget)):
        live = arrive[0] > -np.inf
        phases, width = live.shape
        hit = live & level_hits[np.arange(phases) % 2]  # the paths that meet the barrier they wait for
        leave = np.pad(live & ~hit, ((0, 1), (0, 0))) | np.pad(hit, ((1, 0), (0, 0)))
        book(0, slice(phases + 1), budget, leave)  # a step is in the interval a path leaves in
        book(1, slice(phases), gaps[k], live)  # instant k is in the interval a path arrives in
        book(1, slice(1, phases + 1), gaps[k], hit)  # and in the one it leaves in
        book(slice(2, 4), slice(phases), arrive, hit)  # a hit closes the phase with its sums
        vals = np.where(hit, 0.0, arrive) + terms[k][:, None]  # a phase opened here restarts its sum
        out = np.full((2, phases + 1, width), -np.inf)
        out[:, :-1] = np.where(hit, -np.inf, vals)
        out[:, 1:] = np.maximum(out[:, 1:], np.where(hit, vals, -np.inf))
        arrive = tree.push_max(k, out[:, : phases + bool(hit[-1].any())])
    live = arrive[0] > -np.inf  # at N every open phase closes
    gap = np.full(depth + 2, -np.inf)
    gap[: len(live)] = np.max(np.where(live, gaps[depth], -np.inf), axis=1)
    rows[1] = np.maximum(rows[1], np.maximum.accumulate(gap))  # instant N is in every interval from a path's phase on
    book(slice(2, 4), slice(len(live)), arrive, live)
    lowest = int(np.argmax(live.any(axis=1)))
    rows[2:, lowest + 1 :] = np.maximum(rows[2:, lowest + 1 :], 0.0)  # the intervals a path skips are empty
    return [IntervalReport(b, max(0.0, s), lo, up) for b, s, lo, up in rows[:, :index].T.tolist()]


def chain_report(instance: ProblemInstance, bundle: SolutionBundle, tol: float = HIT_TOL) -> ChainReport:
    """The alternating sequence of ``bundle`` and the patching checks, path-free.

    tau_0 = 0, then alternating first hits of the upper (odd indices) and
    lower barrier.  One forward walk over two states, the barrier a path
    waits for, carries per state and node the largest and smallest phase
    (the hits so far) and the minimality sums of K and A since the phase
    opened; a hit closes the phase, records its sums and swaps the state,
    and a stall (both barriers hit at one node before N, touching barriers
    within tol) passes two phases and keeps it.  A stall raises
    :class:`AlternationStuckError` naming the node, at the smallest index
    where any path stalls.  The stationarity index is 1 + the largest phase
    at the leaves.  Every reached node lies in some interval, so the worst
    budget and sandwich residuals are maxima over the reached nodes; the
    worst minimality sum is the largest recorded sum where no reached term
    is negative, and is read off ``intervals`` otherwise.  Restrictions of
    one bundle tile [0, T] and agree at every seam by construction, so the
    patched Y and K - A are the bundle's own and no second solve is made.
    """
    lower, upper = instance.lower, instance.upper
    if lower is None or upper is None:
        raise PreconditionError("alternating sequence needs both barriers")
    tree, y = instance.tree, bundle.y
    hits = _hit_masks(y, instance.barriers, tol)
    terms = minimality_levels(bundle, instance.barriers)
    # channels: max phase, -(min phase), the K and A sums; states: waits for U (even phase), for L (odd)
    at = np.full((4, 2, 1), -np.inf)
    at[:, 0] = 0.0
    sums = np.full(2, -np.inf)
    stall = (np.inf, 0, 0)  # (smallest stalled index, its level, its node)
    for k, level_hits in zip(range(tree.depth), tree.split_levels(hits)):
        meet = (at[0] > -np.inf) & level_hits  # the live states whose barrier is hit
        both = level_hits[0] & level_hits[1]
        if both.any():
            first = np.where(both, 2.0 - np.max(at[1], axis=0), np.inf)  # the smallest phase + 2
            j = int(np.argmin(first))
            stall = min(stall, (first[j], k, j))
        sums = np.maximum(sums, np.max(at[2:], axis=(1, 2), where=meet, initial=-np.inf))
        step = np.where(meet, np.where(both, 2.0, 1.0), 0.0)
        moved = np.concatenate((at[:1] + step, at[1:2] - step, np.where(meet, 0.0, at[2:]) + terms[k][:, None]))
        swap = meet & ~both
        out = np.maximum(np.where(swap, -np.inf, moved), np.where(swap, moved, -np.inf)[:, ::-1])
        at = tree.push_max(k, out)
    if stall[0] < np.inf:
        _, k, j = stall
        gap = float(upper.value.level(k)[j] - lower.value.level(k)[j])
        raise AlternationStuckError(f"node {j}", k, gap)

    index = int(np.max(at[0])) + 1
    sums = np.maximum(sums, np.max(at[2:], axis=(1, 2)))
    reached = np.concatenate(tree.reached)
    worst = None
    if np.all(np.concatenate(terms, axis=1)[:, reached[: tree.node_start[-2]]] >= 0.0):
        worst = {
            "budget_residual": float(np.max(np.abs(budget_defects(bundle, instance)),
                                            where=reached[tree.edge_source], initial=0.0)),
            "sandwich_violation": max(0.0, float(np.max(_sandwich_gaps(y, instance), where=reached,
                                                        initial=-np.inf))),
            "lower_skorokhod": float(sums[0]),
            "upper_skorokhod": float(sums[1]),
        }
    return ChainReport(index, worst, partial(_interval_reports, instance, bundle, hits, index))


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
