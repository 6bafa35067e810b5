"""Regulated (ladlag) process model on a tree.

A regulated field carries two values per node: the value at the instant and
the value just after it.  Declared right jumps are the difference.  Left
limits at an instant are identified with the right value at the preceding
instant, the only discrete reading consistent with regulated trajectories.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .drivers import Driver, negate_driver
from .errors import InvalidInstanceError, PreconditionError
from .lattice import AdaptedField, FiltrationTree, TimeGrid

STABILITY_BOUND = 0.5  # mu * max(dt) must stay strictly below this


class RegulatedField:
    """Adapted field plus declared right-limit values (right jumps allowed)."""

    def __init__(self, value: AdaptedField, right_value: AdaptedField | None = None):
        if right_value is None:
            right_value = value
        if right_value.tree is not value.tree:
            raise InvalidInstanceError("value and right_value must share one tree")
        terminal = value.tree.depth
        if not np.array_equal(value.level(terminal), right_value.level(terminal)):
            raise InvalidInstanceError("no right jump allowed at the terminal level")
        self.value = value
        self.right_value = right_value

    @property
    def tree(self) -> FiltrationTree:
        return self.value.tree

    @classmethod
    def constant(cls, tree: FiltrationTree, c: float) -> "RegulatedField":
        f = AdaptedField.constant(tree, c)
        return cls(f, f)

    @classmethod
    def from_values(cls, tree: FiltrationTree, levels: Sequence[np.ndarray]) -> "RegulatedField":
        f = AdaptedField(tree, levels)
        return cls(f, f)

    def with_right_jumps(self, jumps: Sequence[tuple[int, int, float]]) -> "RegulatedField":
        """Return a copy whose right value at each (level, node) is replaced.

        ``jumps`` entries are ``(level, node, new_right_value)``; level and
        node must be integral and name a node before the terminal level.
        """
        tree = self.tree
        right = self.right_value.values.copy()
        for k, j, new_value in jumps:
            where = f"right jump at (level {k!r}, node {j!r})"
            if any(np.asarray(i).dtype.kind not in "iuf" or i != np.trunc(i) for i in (k, j)):
                raise InvalidInstanceError(f"{where}: level and node must be integers")
            if k == tree.depth:
                raise InvalidInstanceError("right jumps at the terminal instant are not allowed")
            if not 0 <= k < tree.depth:
                raise InvalidInstanceError(f"{where}: level out of range 0..{tree.depth - 1}")
            width = tree.level_size(int(k))
            if not 0 <= j < width:
                raise InvalidInstanceError(f"{where}: node out of range 0..{width - 1}")
            right[tree.node_start[int(k)] + int(j)] = new_value
        return RegulatedField(self.value, AdaptedField.from_flat(tree, right))

    def right_jump(self, node: tuple[int, int]) -> float:
        k, j = node
        return float(self.right_value.level(k)[j]) - float(self.value.level(k)[j])

    @property
    def jumps(self) -> np.ndarray:
        """Right value minus value at every node, flat in level order (zero at level N)."""
        return self.right_value.values - self.value.values

    def jump_events(self) -> list[tuple[int, int, float]]:
        """All nodes with a nonzero declared right jump, time-ordered."""
        jumps = self.jumps
        at = np.flatnonzero(jumps)
        levels, nodes = self.tree.locate(at)
        return list(zip(levels.tolist(), nodes.tolist(), jumps[at].tolist()))

    def negate(self) -> "RegulatedField":
        return RegulatedField(self.value.negate(), self.right_value.negate())


def right_jump(field: RegulatedField, node: tuple[int, int]) -> float:
    """Right jump at a node: right value minus value (0 when none declared)."""
    return field.right_jump(node)


def jump_masks(barrier: RegulatedField | None, tree: FiltrationTree) -> list[np.ndarray]:
    """Per level, the nodes where the barrier declares a right jump (none if absent)."""
    declared = np.zeros(tree.node_count(), dtype=bool) if barrier is None else barrier.jumps != 0.0
    return tree.split_levels(declared)


@dataclass(frozen=True)
class ScheduleEvent:
    level: int
    node: int
    jump: float


@dataclass(frozen=True)
class JumpExhaustionSchedule:
    """Nodes whose right jumps exceed the level-n threshold, time-ordered.

    Lower side: right jumps below -1/n.  Upper side: right jumps above +1/n,
    obtained from the lower rule on the negated field.
    """

    n: int
    side: str
    events: tuple[ScheduleEvent, ...]

    def node_set(self) -> set[tuple[int, int]]:
        return {(e.level, e.node) for e in self.events}

    def mask(self, tree: FiltrationTree) -> list[np.ndarray]:
        """Per level, the scheduled nodes."""
        out = np.zeros(tree.node_count(), dtype=bool)
        out[[tree.node_start[e.level] + e.node for e in self.events]] = True
        return tree.split_levels(out)


def jump_exhaustion_schedule(barrier: RegulatedField, n: int, side: str = "lower") -> JumpExhaustionSchedule:
    """Threshold rule exhausting one-sided right jumps of a barrier.

    At penalty level n the lower schedule holds exactly the nodes with
    right jump < -1/n; schedules are nested in n and their union over n is
    every node with a negative right jump.
    """
    if n < 1:
        raise PreconditionError("penalty level must be >= 1")
    if side not in ("lower", "upper"):
        raise PreconditionError("side must be 'lower' or 'upper'")
    jumps = barrier.jumps
    at = np.flatnonzero((-jumps if side == "upper" else jumps) < -1.0 / n)
    levels, nodes = barrier.tree.locate(at)
    events = zip(levels.tolist(), nodes.tolist(), jumps[at].tolist())
    return JumpExhaustionSchedule(n, side, tuple(ScheduleEvent(k, j, v) for k, j, v in events))


class BarrierPair:
    """Lower/upper barrier pair; ``None`` encodes an absent (infinite) barrier."""

    def __init__(self, lower: RegulatedField | None, upper: RegulatedField | None):
        if lower is not None and upper is not None and lower.tree is not upper.tree:
            raise InvalidInstanceError("barriers must live on the same tree")
        self.lower = lower
        self.upper = upper

    @property
    def tree(self) -> FiltrationTree:
        side = self.lower if self.lower is not None else self.upper
        if side is None:
            raise InvalidInstanceError("barrier pair with both sides absent has no tree")
        return side.tree

    def negate_swap(self) -> "BarrierPair":
        """The pair for the negated problem: (L, U) -> (-U, -L)."""
        return BarrierPair(
            None if self.upper is None else self.upper.negate(),
            None if self.lower is None else self.lower.negate(),
        )


@dataclass
class SeparationViolation:
    which: str  # "value" or "right_value"
    level: int
    node: int
    gap: float


@dataclass
class SeparationReport:
    satisfied: bool
    margin: float
    violations: list[SeparationViolation]


def _order_gaps(lower: RegulatedField, upper: RegulatedField) -> dict[str, np.ndarray]:
    """U - L on the values and on the right values, flat in level order."""
    return {
        "value": upper.value.values - lower.value.values,
        "right_value": upper.right_value.values - lower.right_value.values,
    }


def _flagged(tree: FiltrationTree, gaps: dict[str, np.ndarray], flag) -> list[tuple]:
    """(name, level, node, gap) wherever ``flag(gap)`` holds: level by level,
    within a level the value before the right value, then by node."""
    out: list[tuple] = []
    if not any(np.any(flag(g)) for g in gaps.values()):  # the usual case: no level loop
        return out
    per_level = {which: tree.split_levels(g) for which, g in gaps.items()}
    for k in range(tree.levels):
        for which, levels in per_level.items():
            gap = levels[k]
            out += [(which, k, int(j), float(gap[j])) for j in np.flatnonzero(flag(gap))]
    return out


def check_separation(pair: BarrierPair) -> SeparationReport:
    """Strict separation of the barriers and of their left limits.

    On the grid the left-limit condition amounts to strict inequality of the
    declared right values at every non-terminal node, so both the value and
    right-value gaps must be positive everywhere.
    """
    if pair.lower is None or pair.upper is None:
        raise PreconditionError("separation check needs both barriers")
    gaps = _order_gaps(pair.lower, pair.upper)
    margin = min(float(np.min(g)) for g in gaps.values())
    violations = [SeparationViolation(*v) for v in _flagged(pair.lower.tree, gaps, lambda g: g <= 0.0)]
    return SeparationReport(not violations, margin, violations)


@dataclass
class InstanceViolation:
    kind: str
    location: str
    detail: float


@dataclass
class ValidationReport:
    violations: list[InstanceViolation]

    @property
    def ok(self) -> bool:
        return not self.violations


class ProblemInstance:
    """Full datum of a doubly reflected backward equation on a tree.

    Terminal payoff on the leaves, Lipschitz driver, and a barrier pair;
    either barrier may be absent.
    """

    def __init__(
        self,
        tree: FiltrationTree,
        grid: TimeGrid,
        terminal: np.ndarray,
        driver: Driver,
        barriers: BarrierPair,
    ):
        if grid.steps != tree.depth:
            raise InvalidInstanceError("time grid and tree must agree on the number of steps")
        terminal = np.asarray(terminal, dtype=float)
        if terminal.shape != (tree.level_size(tree.depth),):
            raise InvalidInstanceError("terminal payoff must give one value per leaf")
        if not np.all(np.isfinite(terminal)):
            raise InvalidInstanceError("terminal payoff must be finite")
        for side in (barriers.lower, barriers.upper):
            if side is not None and side.tree is not tree:
                raise InvalidInstanceError("barriers must live on the instance tree")
        terminal.setflags(write=False)
        self.tree = tree
        self.grid = grid
        self.terminal = terminal
        self.driver = driver
        self.barriers = barriers

    @property
    def lower(self) -> RegulatedField | None:
        return self.barriers.lower

    @property
    def upper(self) -> RegulatedField | None:
        return self.barriers.upper


def negation_dual(instance: ProblemInstance) -> ProblemInstance:
    """The negated problem: (xi, f, L, U) -> (-xi, -f(t, -y), -U, -L).

    An exact involution; solutions map by (Y, M, K, A) -> (-Y, -M, A, K).
    """
    return ProblemInstance(
        tree=instance.tree,
        grid=instance.grid,
        terminal=-instance.terminal,
        driver=negate_driver(instance.driver),
        barriers=instance.barriers.negate_swap(),
    )


def validate_instance(instance: ProblemInstance) -> ValidationReport:
    """Terminal sandwich, weak barrier ordering, and step-stability checks."""
    v: list[InstanceViolation] = []
    tree = instance.tree
    lower, upper = instance.lower, instance.upper

    for kind, side, sign in (("terminal_below_lower", lower, 1.0), ("terminal_above_upper", upper, -1.0)):
        if side is not None:
            excess = (side.value.level(tree.depth) - instance.terminal) * sign
            bad = np.flatnonzero(excess > 0.0)
            v.extend(InstanceViolation(kind, f"leaf {j}", float(excess[j])) for j in bad)
    if lower is not None and upper is not None:
        l_minus_u = {which: -g for which, g in _order_gaps(lower, upper).items()}
        flagged = _flagged(tree, l_minus_u, lambda e: e > 0.0)
        v.extend(InstanceViolation(f"barrier_order_{w}", f"node ({k},{j})", bad) for w, k, j, bad in flagged)
    stiffness = instance.driver.mu * instance.grid.max_dt
    if not stiffness < STABILITY_BOUND:
        v.append(InstanceViolation("stability", "mu * max(dt)", float(stiffness)))
    return ValidationReport(v)


def require_valid(instance: ProblemInstance) -> None:
    """Raise :class:`InvalidInstanceError` naming the first violations, if any."""
    report = validate_instance(instance)
    if not report.ok:
        heads = "; ".join(f"{v.kind} at {v.location}" for v in report.violations[:4])
        raise InvalidInstanceError(f"instance fails validation: {heads}")
