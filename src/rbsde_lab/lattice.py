"""Finite-state filtration model.

Trees with per-node transition probabilities carry every process in the
package.  A tree stores the edges out of each level flat (a CSR layout):
node offsets, then one child-id and one probability array per level, and
edge fields keep one flat array per level in the same order.  Conditional
expectations and martingale increments are level-wide expressions on these
arrays, exact weighted sums over children taken slot by slot, so martingale
and tower properties can be asserted to round-off rather than statistically.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import EnumerationCapError, InvalidInstanceError, PreconditionError

PROB_TOL = 1e-12
PATH_ENUMERATION_CAP = 22  # levels; beyond this use node-based routines


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


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
        self.instants = _frozen(arr)

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


def flatten_node_lists(lists: Sequence, what: str) -> tuple[np.ndarray, np.ndarray]:
    """One level's per-node lists as (each node's length, one flat numeric array)."""
    try:
        rect = np.asarray(lists)
    except ValueError:  # ragged: the nodes differ in fan-out
        rect = None
    try:
        if rect is not None and rect.ndim == 2:
            counts, flat = np.full(rect.shape[0], rect.shape[1]), rect.ravel()
        else:
            counts = np.fromiter(map(len, lists), np.int64, len(lists))
            flat = np.asarray(list(chain.from_iterable(lists)))
    except (TypeError, ValueError):
        flat = None
    if flat is None or flat.ndim != 1 or flat.dtype.kind not in "iuf":
        raise InvalidInstanceError(f"{what} must be lists of numbers")
    return counts, flat


def _slot_sums(offsets: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """Per node, the sum of its edge terms (last axis) in child-slot order.

    Node ``j`` owns the terms ``offsets[j]:offsets[j+1]``.  Every sum runs
    from 0.0 one slot at a time, the order of a scalar running sum, so the
    results equal a per-node loop bit for bit.
    """
    starts, counts = offsets[:-1], np.diff(offsets)
    total = np.zeros(terms.shape[:-1] + starts.shape)
    for slot in range(int(counts.max())):
        nodes = np.flatnonzero(counts > slot)
        total[..., nodes] += terms[..., starts[nodes] + slot]
    return total


class FiltrationTree:
    """Finite rooted tree: nodes indexed by (level, id), all leaves at level N.

    The edges out of level ``k`` are stored flat, node by node in child-slot
    order: node ``j`` owns edges ``offsets[k][j]:offsets[k][j+1]``, and edge
    ``e`` leads from node ``edge_parent[k][e]`` to node ``edge_child[k][e]``
    of level ``k+1`` with probability ``edge_prob[k][e]``.  Immutable after
    construction.
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
        self.states = tuple(_frozen(np.asarray(s, dtype=float)) for s in states)
        if any(s.ndim != 1 or s.size == 0 for s in self.states):
            raise InvalidInstanceError("each level must hold at least one node")
        layout = zip(*(self._level_edges(k, children[k], probs[k]) for k in range(self.depth)))
        self.offsets, self.edge_parent, self.edge_child, self.edge_prob = (
            tuple(_frozen(arr) for arr in arrays) for arrays in layout
        )
        self._paths_cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def _level_edges(self, k: int, children: Sequence, probs: Sequence) -> tuple[np.ndarray, ...]:
        """Level k's (offsets, parents, children, probabilities), checked level-wide."""
        width = self.level_size(k)
        if len(children) != width or len(probs) != width:
            raise InvalidInstanceError(f"level {k}: child lists must match node count")
        counts, child = flatten_node_lists(children, f"level {k}: child ids")
        p_counts, prob = flatten_node_lists(probs, f"level {k}: transition probabilities")
        node_checks = ((counts == 0, "has no children"), (counts != p_counts, "children/probs length mismatch"))
        for bad, what in node_checks:
            if np.any(bad):
                raise InvalidInstanceError(f"node ({k},{int(np.argmax(bad))}): {what}")
        offsets = np.concatenate(([0], np.cumsum(counts)))
        parent = np.repeat(np.arange(width), counts)
        for bad, what in (
            (child != np.trunc(child), "child id is not an integer"),
            ((child < 0) | (child >= self.level_size(k + 1)), "child id out of range"),
            (~np.isfinite(prob), "non-finite transition probability"),
            (prob < 0.0, "negative transition probability"),
        ):
            if np.any(bad):
                raise InvalidInstanceError(f"node ({k},{parent[np.argmax(bad)]}): {what}")
        sums = _slot_sums(offsets, prob)
        bad = np.abs(sums - 1.0) > PROB_TOL
        if np.any(bad):
            j = int(np.argmax(bad))
            raise InvalidInstanceError(f"node ({k},{j}): probabilities sum to {sums[j]}")
        return offsets, parent, child.astype(np.int64), prob.astype(float)

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

    @cached_property
    def children(self) -> tuple[tuple[np.ndarray, ...], ...]:
        """``children[k][j]``: node (k, j)'s child ids, read-only views of ``edge_child`` built on first use."""
        return tuple(tuple(np.split(c, o[1:-1])) for c, o in zip(self.edge_child, self.offsets))

    @cached_property
    def probs(self) -> tuple[tuple[np.ndarray, ...], ...]:
        """``probs[k][j]``: node (k, j)'s transition probabilities, views of ``edge_prob``."""
        return tuple(tuple(np.split(p, o[1:-1])) for p, o in zip(self.edge_prob, self.offsets))

    def same_shape(self, other: "FiltrationTree") -> bool:
        if self.depth != other.depth or self.level_size(self.depth) != other.level_size(self.depth):
            return False
        mine = self.offsets + self.edge_child + self.edge_prob
        pairs = zip(mine, other.offsets + other.edge_child + other.edge_prob)
        return all(np.array_equal(a, b) for a, b in pairs)

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
            for k, offsets in enumerate(self.offsets):
                last = nodes[:, -1]
                counts = offsets[last + 1] - offsets[last]
                rows = np.repeat(np.arange(nodes.shape[0]), counts)
                starts = np.cumsum(counts) - counts
                slots = np.arange(int(np.sum(counts))) - np.repeat(starts, counts)
                edge = offsets[last[rows]] + slots
                nodes = np.hstack([nodes[rows], self.edge_child[k][edge][:, None]])
                choices = np.hstack([choices[rows], slots[:, None]])
                probs = probs[rows] * self.edge_prob[k][edge]
            self._paths_cache = (_frozen(nodes), _frozen(choices), _frozen(probs))
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
    nodes = [np.arange(k + 1) for k in range(steps + 1)]
    states = [x0 + j * up + (k - j) * down for k, j in enumerate(nodes)]
    children = [np.stack([j, j + 1], axis=1) for j in nodes[:-1]]
    probs = [np.tile([1.0 - p_up, p_up], (j.size, 1)) for j in nodes[:-1]]
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
            if not np.isfinite(arr).all():
                raise InvalidInstanceError(f"level {k}: non-finite field value")
            vals.append(_frozen(arr))
        self.tree = tree
        self._levels = tuple(vals)

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

    The scalar reference: one running sum over the node's edges, which the
    level-wide :func:`expect_level` matches bit for bit.  ``field`` may be
    an :class:`AdaptedField` (its level k+1 values are used) or a plain
    array of values for level k+1.
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
    total = 0.0
    for e in range(tree.offsets[k][j], tree.offsets[k][j + 1]):
        total += float(tree.edge_prob[k][e]) * float(values[tree.edge_child[k][e]])
    return total


def expect_level(tree: FiltrationTree, k: int, values_next: np.ndarray) -> np.ndarray:
    """Conditional expectation of level-(k+1) values at every level-k node.

    ``values_next`` indexes the level-(k+1) nodes on its last axis; leading
    axes (one row per scenario, say) are kept.
    """
    return _slot_sums(tree.offsets[k], tree.edge_prob[k] * values_next[..., tree.edge_child[k]])


class EdgeField:
    """One real value per tree edge, one flat array per level in the tree's edge order.

    Martingale increments live here: on a recombining tree a node can have
    several parents, so the increment over a transition is a function of the
    edge taken, not of the arrival node alone.
    """

    def __init__(self, tree: FiltrationTree, levels: Sequence[np.ndarray]):
        if len(levels) != tree.depth:
            raise InvalidInstanceError("edge field must cover every transition level")
        out = []
        for k, lv in enumerate(levels):
            arr = np.array(lv, dtype=float)
            if arr.shape != tree.edge_child[k].shape:
                raise InvalidInstanceError(
                    f"level {k}: expected {tree.edge_child[k].size} edge values, got {arr.shape}"
                )
            if not np.isfinite(arr).all():
                raise InvalidInstanceError(f"level {k}: non-finite edge value")
            out.append(_frozen(arr))
        self.tree = tree
        self._levels = tuple(out)

    @classmethod
    def zeros(cls, tree: FiltrationTree) -> "EdgeField":
        return cls(tree, [np.zeros(c.size) for c in tree.edge_child])

    def level(self, k: int) -> np.ndarray:
        """The values on the edges out of level k, flat in the tree's edge order."""
        return self._levels[k]

    def edges(self, k: int, j: int) -> np.ndarray:
        offsets = self.tree.offsets[k]
        return self._levels[k][offsets[j] : offsets[j + 1]]

    def negate(self) -> "EdgeField":
        return EdgeField(self.tree, [-lv for lv in self._levels])

    def conditional_mean_deviation(self) -> float:
        """Max over nodes of |sum_children p * value|; zero for centered fields."""
        tree = self.tree
        return max(
            float(np.max(np.abs(_slot_sums(tree.offsets[k], tree.edge_prob[k] * lv))))
            for k, lv in enumerate(self._levels)
        )

    def path_matrix(self) -> np.ndarray:
        """Edge values along every path: shape (P, N), entry k is the k -> k+1 increment."""
        nodes, choices, _ = self.tree.path_arrays()
        out = np.empty(choices.shape, dtype=float)
        for k, offsets in enumerate(self.tree.offsets):
            out[:, k] = self._levels[k][offsets[nodes[:, k]] + choices[:, k]]
        return out


def edge_increments(
    tree: FiltrationTree, k: int, values_next: np.ndarray, expected: np.ndarray
) -> np.ndarray:
    """Per edge out of level k: the child value minus the parent's expectation.

    ``expected`` holds the conditional expectations of ``values_next`` at the
    level-k nodes, as :func:`expect_level` returns them.
    """
    return values_next[tree.edge_child[k]] - expected[tree.edge_parent[k]]


def martingale_increments(y: AdaptedField) -> EdgeField:
    """Innovation increments of an adapted field, per edge.

    Over the edge from node (k, j) to a child the increment is the child value
    minus the conditional expectation at (k, j), so increments are
    conditionally centered at every node.
    """
    tree = y.tree
    nexts = [y.level(k + 1) for k in range(tree.depth)]
    return EdgeField(tree, [edge_increments(tree, k, v, expect_level(tree, k, v)) for k, v in enumerate(nexts)])


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
