"""Regulated (ladlag) process model on a tree.

A regulated field carries two values per node: the value at the instant and
the value just after it.  Declared right jumps are the difference.  Left
limits at an instant are identified with the right value at the preceding
instant, the only discrete reading consistent with regulated trajectories.
"""
from __future__ import annotations

from dataclasses import dataclass, field
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
        levels = [np.array(self.right_value.level(k)) for k in range(self.tree.levels)]
        for k, j, new_value in jumps:
            where = f"right jump at (level {k!r}, node {j!r})"
            if any(np.asarray(i).dtype.kind not in "iuf" or i != np.trunc(i) for i in (k, j)):
                raise InvalidInstanceError(f"{where}: level and node must be integers")
            if k == self.tree.depth:
                raise InvalidInstanceError("right jumps at the terminal instant are not allowed")
            if not 0 <= k < self.tree.depth:
                raise InvalidInstanceError(f"{where}: level out of range 0..{self.tree.depth - 1}")
            width = self.tree.level_size(int(k))
            if not 0 <= j < width:
                raise InvalidInstanceError(f"{where}: node out of range 0..{width - 1}")
            levels[int(k)][int(j)] = new_value
        return RegulatedField(self.value, AdaptedField(self.tree, levels))

    def right_jump(self, node: tuple[int, int]) -> float:
        k, j = node
        return float(self.right_value.level(k)[j]) - float(self.value.level(k)[j])

    def jump_levels(self, k: int) -> np.ndarray:
        return self.right_value.level(k) - self.value.level(k)

    def jump_events(self) -> list[tuple[int, int, float]]:
        """All nodes with a nonzero declared right jump, time-ordered."""
        events = []
        for k in range(self.tree.depth):
            jumps = self.jump_levels(k)
            for j in np.nonzero(jumps)[0]:
                events.append((k, int(j), float(jumps[j])))
        return events

    def negate(self) -> "RegulatedField":
        return RegulatedField(self.value.negate(), self.right_value.negate())


def right_jump(field: RegulatedField, node: tuple[int, int]) -> float:
    """Right jump at a node: right value minus value (0 when none declared)."""
    return field.right_jump(node)


def jump_masks(barrier: RegulatedField | None, tree: FiltrationTree) -> list[np.ndarray]:
    """Per level, the nodes where the barrier declares a right jump (none if absent)."""
    if barrier is None:
        return [np.zeros(tree.level_size(k), dtype=bool) for k in range(tree.levels)]
    return [barrier.jump_levels(k) != 0.0 for k in range(tree.levels)]


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
        out = [np.zeros(tree.level_size(k), dtype=bool) for k in range(tree.levels)]
        for e in self.events:
            out[e.level][e.node] = True
        return out


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
    threshold = -1.0 / n
    events = []
    for k in range(barrier.tree.depth):
        jumps = barrier.jump_levels(k)
        below = (-jumps if side == "upper" else jumps) < threshold
        events.extend(ScheduleEvent(k, int(j), float(jumps[j])) for j in np.flatnonzero(below))
    return JumpExhaustionSchedule(n, side, tuple(events))


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


def check_separation(pair: BarrierPair) -> SeparationReport:
    """Strict separation of the barriers and of their left limits.

    On the grid the left-limit condition amounts to strict inequality of the
    declared right values at every non-terminal node, so both the value and
    right-value gaps must be positive everywhere.
    """
    if pair.lower is None or pair.upper is None:
        raise PreconditionError("separation check needs both barriers")
    lower, upper = pair.lower, pair.upper
    margin = np.inf
    violations: list[SeparationViolation] = []
    for k in range(lower.tree.levels):
        for which, lo, hi in (
            ("value", lower.value.level(k), upper.value.level(k)),
            ("right_value", lower.right_value.level(k), upper.right_value.level(k)),
        ):
            gaps = hi - lo
            margin = min(margin, float(np.min(gaps)))
            for j in np.nonzero(gaps <= 0.0)[0]:
                violations.append(SeparationViolation(which, k, int(j), float(gaps[j])))
    return SeparationReport(not violations, float(margin), violations)


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
    terminal_level = tree.depth
    lower, upper = instance.lower, instance.upper

    if lower is not None:
        lt = lower.value.level(terminal_level)
        for j in np.nonzero(lt > instance.terminal)[0]:
            v.append(
                InstanceViolation(
                    "terminal_below_lower",
                    f"leaf {int(j)}",
                    float(lt[j] - instance.terminal[j]),
                )
            )
    if upper is not None:
        ut = upper.value.level(terminal_level)
        for j in np.nonzero(instance.terminal > ut)[0]:
            v.append(
                InstanceViolation(
                    "terminal_above_upper",
                    f"leaf {int(j)}",
                    float(instance.terminal[j] - ut[j]),
                )
            )
    if lower is not None and upper is not None:
        for k in range(tree.levels):
            for which, lo, hi in (
                ("value", lower.value.level(k), upper.value.level(k)),
                ("right_value", lower.right_value.level(k), upper.right_value.level(k)),
            ):
                bad = lo - hi
                for j in np.nonzero(bad > 0.0)[0]:
                    v.append(
                        InstanceViolation(
                            f"barrier_order_{which}",
                            f"node ({k},{int(j)})",
                            float(bad[j]),
                        )
                    )
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
