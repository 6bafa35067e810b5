"""Finite-state filtration model.

Trees with per-node transition probabilities carry every process in the
package.  Conditional expectations are exact weighted sums over children, so
martingale and tower properties can be asserted to round-off rather than
statistically.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import EnumerationCapError, InvalidInstanceError, PreconditionError

PROB_TOL = 1e-12
PATH_ENUMERATION_CAP = 22  # levels; beyond this use node-based routines


class TimeGrid:
    """Strictly increasing instants t_0 = 0 < t_1 < ... < t_N = T."""

    def __init__(self, instants: Sequence[float]):
        arr = np.asarray(instants, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise InvalidInstanceError("time grid needs at least two instants")
        if arr[0] != 0.0:
            raise InvalidInstanceError("time grid must start at 0")
        if not np.all(np.diff(arr) > 0.0):
            raise InvalidInstanceError("time grid instants must be strictly increasing")
        arr.setflags(write=False)
        self.instants = arr

    @classmethod
    def uniform(cls, horizon: float, steps: int) -> "TimeGrid":
        if steps < 1:
            raise InvalidInstanceError("steps must be >= 1")
        if horizon <= 0.0:
            raise InvalidInstanceError("horizon must be positive")
        return cls(np.linspace(0.0, horizon, steps + 1))

    @property
    def steps(self) -> int:
        return self.instants.size - 1

    @property
    def horizon(self) -> float:
        return float(self.instants[-1])

    def dt(self, k: int) -> float:
        return float(self.instants[k + 1] - self.instants[k])

    @property
    def max_dt(self) -> float:
        return float(np.max(np.diff(self.instants)))

    def __eq__(self, other) -> bool:
        return isinstance(other, TimeGrid) and np.array_equal(self.instants, other.instants)

    def __repr__(self) -> str:
        return f"TimeGrid(steps={self.steps}, T={self.horizon})"


class FiltrationTree:
    """Finite rooted tree: nodes indexed by (level, id), all leaves at level N.

    ``children[k][j]`` and ``probs[k][j]`` give the child ids at level ``k+1``
    and their transition probabilities.  Immutable after construction.
    """

    def __init__(
        self,
        states: Sequence[Sequence[float]],
        children: Sequence[Sequence[Sequence[int]]],
        probs: Sequence[Sequence[Sequence[float]]],
    ):
        if len(states) < 2:
            raise InvalidInstanceError("tree needs at least one transition level")
        if len(children) != len(states) - 1 or len(probs) != len(states) - 1:
            raise InvalidInstanceError("children/probs must cover every non-leaf level")
        self.states = tuple(np.asarray(s, dtype=float) for s in states)
        for s in self.states:
            if s.ndim != 1 or s.size == 0:
                raise InvalidInstanceError("each level must hold at least one node")
            s.setflags(write=False)
        self.children = tuple(
            tuple(np.asarray(c, dtype=np.int64) for c in level) for level in children
        )
        self.probs = tuple(
            tuple(np.asarray(p, dtype=float) for p in level) for level in probs
        )
        for k in range(self.levels - 1):
            if len(self.children[k]) != self.level_size(k) or len(self.probs[k]) != self.level_size(k):
                raise InvalidInstanceError(f"level {k}: child lists must match node count")
            width_next = self.level_size(k + 1)
            for j in range(self.level_size(k)):
                c, p = self.children[k][j], self.probs[k][j]
                if c.size == 0:
                    raise InvalidInstanceError(f"node ({k},{j}) has no children")
                if c.size != p.size:
                    raise InvalidInstanceError(f"node ({k},{j}): children/probs length mismatch")
                if np.any(c < 0) or np.any(c >= width_next):
                    raise InvalidInstanceError(f"node ({k},{j}): child id out of range")
                if np.any(p < 0.0):
                    raise InvalidInstanceError(f"node ({k},{j}): negative transition probability")
                if abs(float(np.sum(p)) - 1.0) > PROB_TOL:
                    raise InvalidInstanceError(f"node ({k},{j}): probabilities sum to {np.sum(p)}")
                c.setflags(write=False)
                p.setflags(write=False)
        self._paths_cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @property
    def levels(self) -> int:
        """Number of levels including the root level (N + 1)."""
        return len(self.states)

    @property
    def depth(self) -> int:
        """N: the number of transitions from root to leaves."""
        return len(self.states) - 1

    def level_size(self, k: int) -> int:
        return self.states[k].size

    def node_count(self) -> int:
        return sum(s.size for s in self.states)

    def state(self, k: int, j: int) -> float:
        return float(self.states[k][j])

    def same_shape(self, other: "FiltrationTree") -> bool:
        if self.depth != other.depth:
            return False
        for k in range(self.depth):
            if self.level_size(k) != other.level_size(k):
                return False
            for j in range(self.level_size(k)):
                if not np.array_equal(self.children[k][j], other.children[k][j]):
                    return False
                if not np.array_equal(self.probs[k][j], other.probs[k][j]):
                    return False
        return self.level_size(self.depth) == other.level_size(self.depth)

    @cached_property
    def edge_offsets(self) -> tuple[np.ndarray, ...]:
        """Per level, where each node's edges start in the level's flat edge
        list, then the level's edge count: ``level_size(k) + 1`` entries."""
        out = tuple(np.cumsum([0] + [c.size for c in level]) for level in self.children)
        for offsets in out:
            offsets.setflags(write=False)
        return out

    def path_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All root-to-leaf paths as matrices.

        Returns ``(nodes, choices, probabilities)`` with shapes
        ``(P, N+1)``, ``(P, N)`` and ``(P,)``.  Cached; refuses beyond the
        enumeration cap.
        """
        if self.depth > PATH_ENUMERATION_CAP:
            raise EnumerationCapError(
                f"path enumeration refused: {self.depth} levels exceeds cap "
                f"{PATH_ENUMERATION_CAP}; use node-based routines"
            )
        if self._paths_cache is None:
            nodes = np.zeros((1, 1), dtype=np.int64)
            choices = np.zeros((1, 0), dtype=np.int64)
            probs = np.ones(1)
            for k, offsets in enumerate(self.edge_offsets):
                flat_children = np.concatenate(self.children[k])
                flat_probs = np.concatenate(self.probs[k])
                last = nodes[:, -1]
                counts = offsets[last + 1] - offsets[last]
                rows = np.repeat(np.arange(nodes.shape[0]), counts)
                starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
                slots = np.arange(int(np.sum(counts))) - np.repeat(starts, counts)
                edge = offsets[last[rows]] + slots
                nodes = np.hstack([nodes[rows], flat_children[edge][:, None]])
                choices = np.hstack([choices[rows], slots[:, None]])
                probs = probs[rows] * flat_probs[edge]
            self._paths_cache = (nodes, choices, probs)
            for arr in self._paths_cache:
                arr.setflags(write=False)
        return self._paths_cache


def build_binomial(steps: int, x0: float, up: float, down: float, p_up: float) -> FiltrationTree:
    """Recombining binomial tree: node (k, j) has made j up-moves.

    State at (k, j) is ``x0 + j*up + (k - j)*down``; children are (k+1, j)
    with probability ``1 - p_up`` and (k+1, j+1) with probability ``p_up``.
    """
    if steps < 1:
        raise InvalidInstanceError("steps must be >= 1")
    if not (0.0 < p_up < 1.0):
        raise InvalidInstanceError("p_up must lie strictly between 0 and 1")
    if not up > down:
        raise InvalidInstanceError("up factor must exceed down factor")
    states = [
        [x0 + j * up + (k - j) * down for j in range(k + 1)] for k in range(steps + 1)
    ]
    children = [
        [[j, j + 1] for j in range(k + 1)] for k in range(steps)
    ]
    probs = [
        [[1.0 - p_up, p_up] for _ in range(k + 1)] for k in range(steps)
    ]
    return FiltrationTree(states, children, probs)


class AdaptedField:
    """One real value per tree node."""

    def __init__(self, tree: FiltrationTree, levels: Sequence[np.ndarray]):
        if len(levels) != tree.levels:
            raise InvalidInstanceError("field must define a value at every level")
        vals = []
        for k, lv in enumerate(levels):
            arr = np.array(lv, dtype=float)
            if arr.shape != (tree.level_size(k),):
                raise InvalidInstanceError(
                    f"level {k}: expected {tree.level_size(k)} values, got {arr.shape}"
                )
            if not np.all(np.isfinite(arr)):
                raise InvalidInstanceError(f"level {k}: non-finite field value")
            arr.setflags(write=False)
            vals.append(arr)
        self.tree = tree
        self._levels = tuple(vals)

    @classmethod
    def from_function(cls, tree: FiltrationTree, fn: Callable[[int, int, float], float]) -> "AdaptedField":
        return cls(
            tree,
            [
                np.asarray([fn(k, j, tree.state(k, j)) for j in range(tree.level_size(k))])
                for k in range(tree.levels)
            ],
        )

    @classmethod
    def constant(cls, tree: FiltrationTree, value: float) -> "AdaptedField":
        return cls(tree, [np.full(tree.level_size(k), float(value)) for k in range(tree.levels)])

    @classmethod
    def zeros(cls, tree: FiltrationTree) -> "AdaptedField":
        return cls.constant(tree, 0.0)

    def level(self, k: int) -> np.ndarray:
        return self._levels[k]

    def __getitem__(self, node: tuple[int, int]) -> float:
        k, j = node
        return float(self._levels[k][j])

    def map(self, fn: Callable[[np.ndarray], np.ndarray]) -> "AdaptedField":
        return AdaptedField(self.tree, [fn(lv) for lv in self._levels])

    def negate(self) -> "AdaptedField":
        return self.map(np.negative)

    def path_matrix(self) -> np.ndarray:
        """Field values gathered along every enumerated path: shape (P, N+1)."""
        nodes, _, _ = self.tree.path_arrays()
        out = np.empty(nodes.shape, dtype=float)
        for k in range(self.tree.levels):
            out[:, k] = self._levels[k][nodes[:, k]]
        return out


@dataclass(frozen=True)
class PathIndex:
    """A root-to-leaf path: child-slot choices, node ids per level, probability."""

    choices: tuple[int, ...]
    nodes: tuple[int, ...]
    probability: float


def enumerate_paths(tree: FiltrationTree, cap: int = PATH_ENUMERATION_CAP) -> list[PathIndex]:
    """All root-to-leaf paths.  Refuses when the tree exceeds ``cap`` levels."""
    if tree.depth > cap:
        raise EnumerationCapError(
            f"path enumeration refused: {tree.depth} levels exceeds cap {cap}"
        )
    nodes, choices, probs = tree.path_arrays()
    return [
        PathIndex(tuple(int(c) for c in choices[i]), tuple(int(n) for n in nodes[i]), float(probs[i]))
        for i in range(nodes.shape[0])
    ]


def conditional_expectation(field, node: tuple[int, int], tree: FiltrationTree | None = None) -> float:
    """Exact one-step conditional expectation at ``node`` of a level-(k+1) field.

    ``field`` may be an :class:`AdaptedField` (its level k+1 values are used)
    or a plain array of values for level k+1.
    """
    k, j = node
    if isinstance(field, AdaptedField):
        tree = field.tree
        values = field.level(k + 1)
    else:
        if tree is None:
            raise PreconditionError("tree required when passing raw level values")
        values = np.asarray(field, dtype=float)
        if values.shape != (tree.level_size(k + 1),):
            raise PreconditionError(
                f"level mismatch: expected {tree.level_size(k + 1)} values for level {k + 1}, "
                f"got {values.shape}"
            )
    return expect_children(tree, k, values, j)


def expect_children(tree: FiltrationTree, k: int, values_next: np.ndarray, j: int) -> float:
    """Sum of p_child * value(child) in declared child order."""
    cs = tree.children[k][j]
    ps = tree.probs[k][j]
    total = 0.0
    for slot in range(cs.size):
        total += float(ps[slot]) * float(values_next[cs[slot]])
    return total


def expect_level(tree: FiltrationTree, k: int, values_next: np.ndarray) -> np.ndarray:
    """Conditional expectation of level-(k+1) values at every level-k node."""
    out = np.empty(tree.level_size(k), dtype=float)
    for j in range(tree.level_size(k)):
        out[j] = expect_children(tree, k, values_next, j)
    return out


class EdgeField:
    """One real value per tree edge, indexed ``[level k][parent j][child slot]``.

    Martingale increments live here: on a recombining tree a node can have
    several parents, so the increment over a transition is a function of the
    edge taken, not of the arrival node alone.
    """

    def __init__(self, tree: FiltrationTree, levels: Sequence[Sequence[np.ndarray]]):
        if len(levels) != tree.depth:
            raise InvalidInstanceError("edge field must cover every transition level")
        out = []
        for k, level in enumerate(levels):
            if len(level) != tree.level_size(k):
                raise InvalidInstanceError(f"level {k}: edge lists must match node count")
            row = []
            for j, vals in enumerate(level):
                arr = np.array(vals, dtype=float)
                if arr.shape != tree.children[k][j].shape:
                    raise InvalidInstanceError(f"node ({k},{j}): edge values mismatch children")
                arr.setflags(write=False)
                row.append(arr)
            out.append(tuple(row))
        self.tree = tree
        self._levels = tuple(out)

    @classmethod
    def zeros(cls, tree: FiltrationTree) -> "EdgeField":
        return cls(
            tree,
            [
                [np.zeros(tree.children[k][j].size) for j in range(tree.level_size(k))]
                for k in range(tree.depth)
            ],
        )

    def edges(self, k: int, j: int) -> np.ndarray:
        return self._levels[k][j]

    def negate(self) -> "EdgeField":
        return EdgeField(
            self.tree,
            [[-self._levels[k][j] for j in range(self.tree.level_size(k))] for k in range(self.tree.depth)],
        )

    def conditional_mean_deviation(self) -> float:
        """Max over nodes of |sum_children p * value|; zero for centered fields."""
        worst = 0.0
        for k in range(self.tree.depth):
            for j in range(self.tree.level_size(k)):
                ps = self.tree.probs[k][j]
                vals = self._levels[k][j]
                total = 0.0
                for slot in range(ps.size):
                    total += float(ps[slot]) * float(vals[slot])
                worst = max(worst, abs(total))
        return worst

    def path_matrix(self) -> np.ndarray:
        """Edge values along every path: shape (P, N), entry k is the k -> k+1 increment."""
        nodes, choices, _ = self.tree.path_arrays()
        out = np.empty(choices.shape, dtype=float)
        for k, offsets in enumerate(self.tree.edge_offsets):
            flat = np.concatenate(self._levels[k])
            out[:, k] = flat[offsets[nodes[:, k]] + choices[:, k]]
        return out


def edge_increments(
    tree: FiltrationTree, k: int, values_next: np.ndarray, expected: np.ndarray
) -> list[np.ndarray]:
    """Per edge out of level k: the child value minus the parent's expectation.

    ``expected`` holds the conditional expectations of ``values_next`` at the
    level-k nodes, as :func:`expect_level` returns them.
    """
    return [values_next[cs] - expected[j] for j, cs in enumerate(tree.children[k])]


def martingale_increments(y: AdaptedField) -> EdgeField:
    """Innovation increments of an adapted field, per edge.

    Over the edge from node (k, j) to a child the increment is the child value
    minus the conditional expectation at (k, j), so increments are
    conditionally centered at every node.
    """
    tree = y.tree
    levels = []
    for k in range(tree.depth):
        nxt = y.level(k + 1)
        levels.append(edge_increments(tree, k, nxt, expect_level(tree, k, nxt)))
    return EdgeField(tree, levels)


def _iter_fields(obj) -> Iterable[AdaptedField]:
    if isinstance(obj, AdaptedField):
        yield obj
    elif hasattr(obj, "value") and hasattr(obj, "right_value"):
        yield obj.value
        yield obj.right_value
    else:
        for item in obj:
            yield from _iter_fields(item)


def sup_distance(a, b) -> float:
    """Max over nodes of |a - b|; accepts fields, regulated fields, or sequences."""
    fa, fb = list(_iter_fields(a)), list(_iter_fields(b))
    if len(fa) != len(fb):
        raise PreconditionError("sup_distance arguments must pair up")
    best = 0.0
    for x, y in zip(fa, fb):
        if x.tree is not y.tree and not x.tree.same_shape(y.tree):
            raise PreconditionError("sup_distance requires fields on the same tree")
        for k in range(x.tree.levels):
            d = float(np.max(np.abs(x.level(k) - y.level(k))))
            if d > best:
                best = d
    return best
