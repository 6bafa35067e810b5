"""Finite-state filtration model.

Trees with per-node transition probabilities carry every process in the
package.  A tree stores the edges out of each level flat (a CSR layout):
node offsets, then one child-id and one probability array per level.  Nodes
are numbered level by level, and edges level by level in that CSR order, so
an adapted field is one flat array over all nodes and an edge field one
flat array over all edges; ``level(k)`` is a read-only view of level k, and
checks that read every node are single array expressions.  Conditional
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


def _flat(values: np.ndarray, starts: np.ndarray, what: str) -> np.ndarray:
    """A frozen copy of ``values``, one finite value per slot in level order.

    Level k occupies ``starts[k]:starts[k+1]``; a non-finite value is
    reported with its level.
    """
    flat = np.array(values, dtype=float)
    if flat.shape != (int(starts[-1]),):
        raise InvalidInstanceError(f"expected {int(starts[-1])} values in level order, got {flat.shape}")
    bad = ~np.isfinite(flat)
    if bad.any():
        k = int(np.searchsorted(starts, np.argmax(bad), side="right")) - 1
        raise InvalidInstanceError(f"level {k}: non-finite {what}")
    return _frozen(flat)


def _joined(levels: Sequence, starts: np.ndarray, unit: str, what: str) -> np.ndarray:
    """Per-level values joined in level order and frozen, checked level by level.

    Level k must hold ``starts[k+1] - starts[k]`` finite values; the first
    failing level is named.
    """
    parts = []
    for k, lv in enumerate(levels):
        arr = np.asarray(lv, dtype=float)
        width = int(starts[k + 1] - starts[k])
        if arr.shape != (width,):
            raise InvalidInstanceError(f"level {k}: expected {width} {unit}, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise InvalidInstanceError(f"level {k}: non-finite {what}")
        parts.append(arr)
    return _frozen(np.concatenate(parts))


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
    of level ``k+1`` with probability ``edge_prob[k][e]``.

    Listed level by level, node (k, j) is node ``node_start[k] + j`` of the
    whole tree and edge (k, e) is edge ``edge_start[k] + e``; ``edge_source``
    and ``edge_target`` give each edge's end nodes in that numbering.
    Immutable after construction.
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
        self.node_start = _frozen(np.cumsum([0] + [s.size for s in self.states]))
        self.edge_start = _frozen(np.cumsum([0] + [c.size for c in self.edge_child]))
        starts = self.node_start.tolist()
        self.edge_source = _frozen(np.concatenate([p + s for p, s in zip(self.edge_parent, starts)]))
        self.edge_target = _frozen(np.concatenate([c + s for c, s in zip(self.edge_child, starts[1:])]))
        self._paths_cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._gather_cache: tuple[np.ndarray, np.ndarray] | None = None

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
        return int(self.node_start[-1])

    def locate(self, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(level, node) of each flat node index."""
        level = np.searchsorted(self.node_start, index, side="right") - 1
        return level, index - self.node_start[level]

    def split_levels(self, values: np.ndarray) -> list[np.ndarray]:
        """Per level, the view of a flat node array (nodes on the last axis)."""
        bounds = self.node_start.tolist()
        return [values[..., a:b] for a, b in zip(bounds, bounds[1:])]

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

    @cached_property
    def _arrivals(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """Per level k, the edges out of k grouped by their child.

        ``(order, starts, targets)``: edge ids sorted by child (stably), where
        each child's group starts in that order, and the child of each group.
        """
        out = []
        for child in self.edge_child:
            order = np.argsort(child, kind="stable")
            ordered = child[order]
            starts = np.flatnonzero(np.diff(ordered, prepend=-1))
            out.append((order, starts, ordered[starts]))
        return tuple(out)

    @cached_property
    def reached(self) -> tuple[np.ndarray, ...]:
        """Per level, which nodes some path from the root passes through."""
        out = [_frozen(np.ones(1, dtype=bool))]
        for k in range(self.depth):
            live = np.where(out[-1], 0.0, -np.inf)[self.edge_parent[k]]
            out.append(_frozen(self.push_max(k, live) == 0.0))
        return tuple(out)

    def push_max(self, k: int, edge_values: np.ndarray) -> np.ndarray:
        """Per level-(k+1) node, the max of ``edge_values`` over the edges into it.

        ``edge_values`` holds one value per edge out of level k on its last
        axis; leading axes are kept.  A node no edge reaches gets -inf.
        """
        order, starts, targets = self._arrivals[k]
        out = np.full(edge_values.shape[:-1] + (self.level_size(k + 1),), -np.inf)
        out[..., targets] = np.maximum.reduceat(edge_values[..., order], starts, axis=-1)
        return out

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

    def path_gather(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat indices that gather fields along every enumerated path.

        ``(node_index, edge_index)`` with shapes ``(P, N+1)`` and ``(P, N)``:
        entry ``[p, k]`` is the position of path p's level-k node among all
        nodes listed level by level, and of its level-k edge among all edges.
        Cached with the path arrays.
        """
        if self._gather_cache is None:
            nodes, choices, _ = self.path_arrays()
            node_index = nodes + self.node_start[:-1]
            first_edge = np.concatenate([o[:-1] + s for o, s in zip(self.offsets, self.edge_start)])
            self._gather_cache = (_frozen(node_index), _frozen(first_edge[node_index[:, :-1]] + choices))
        return self._gather_cache


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
    """One real value per tree node: ``values``, frozen, flat in level order.

    Built from one array per level (each checked, the failing level named)
    or, with :meth:`from_flat`, from the flat array itself.
    """

    def __init__(self, tree: FiltrationTree, levels: Sequence[np.ndarray]):
        if len(levels) != tree.levels:
            raise InvalidInstanceError("field must define a value at every level")
        self.tree = tree
        self.values = _joined(levels, tree.node_start, "values", "field value")

    @classmethod
    def from_flat(cls, tree: FiltrationTree, values: np.ndarray) -> "AdaptedField":
        """A field from a copy of its flat values, level by level in node order."""
        field = cls.__new__(cls)
        field.tree = tree
        field.values = _flat(values, tree.node_start, "field value")
        return field

    @classmethod
    def constant(cls, tree: FiltrationTree, value: float) -> "AdaptedField":
        return cls.from_flat(tree, np.full(tree.node_count(), float(value)))

    @classmethod
    def zeros(cls, tree: FiltrationTree) -> "AdaptedField":
        return cls.constant(tree, 0.0)

    def level(self, k: int) -> np.ndarray:
        """Level k's values, a read-only view of ``values``."""
        return self.values[self.tree.node_start[k] : self.tree.node_start[k + 1]]

    def __getitem__(self, node: tuple[int, int]) -> float:
        k, j = node
        return float(self.level(k)[j])

    def map(self, fn: Callable[[np.ndarray], np.ndarray]) -> "AdaptedField":
        """The field of ``fn`` applied to the flat values; ``fn`` acts entry by entry."""
        return AdaptedField.from_flat(self.tree, fn(self.values))

    def negate(self) -> "AdaptedField":
        return self.map(np.negative)

    def path_matrix(self) -> np.ndarray:
        """Field values gathered along every enumerated path: shape (P, N+1)."""
        return self.values[self.tree.path_gather()[0]]


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
    """One real value per tree edge: ``values``, frozen, flat in the tree's edge order.

    Martingale increments live here: on a recombining tree a node can have
    several parents, so the increment over a transition is a function of the
    edge taken, not of the arrival node alone.
    """

    def __init__(self, tree: FiltrationTree, levels: Sequence[np.ndarray]):
        if len(levels) != tree.depth:
            raise InvalidInstanceError("edge field must cover every transition level")
        self.tree = tree
        self.values = _joined(levels, tree.edge_start, "edge values", "edge value")

    @classmethod
    def from_flat(cls, tree: FiltrationTree, values: np.ndarray) -> "EdgeField":
        """An edge field from a copy of its flat values, in the tree's edge order."""
        field = cls.__new__(cls)
        field.tree = tree
        field.values = _flat(values, tree.edge_start, "edge value")
        return field

    @classmethod
    def zeros(cls, tree: FiltrationTree) -> "EdgeField":
        return cls.from_flat(tree, np.zeros(int(tree.edge_start[-1])))

    def level(self, k: int) -> np.ndarray:
        """The values on the edges out of level k, a read-only view of ``values``."""
        return self.values[self.tree.edge_start[k] : self.tree.edge_start[k + 1]]

    def edges(self, k: int, j: int) -> np.ndarray:
        offsets = self.tree.offsets[k]
        return self.level(k)[offsets[j] : offsets[j + 1]]

    def negate(self) -> "EdgeField":
        return EdgeField.from_flat(self.tree, -self.values)

    def conditional_mean_deviation(self) -> float:
        """Max over nodes of |sum_children p * value|; zero for centered fields."""
        tree = self.tree
        return max(
            float(np.max(np.abs(_slot_sums(tree.offsets[k], tree.edge_prob[k] * self.level(k)))))
            for k in range(tree.depth)
        )

    def path_matrix(self) -> np.ndarray:
        """Edge values along every path: shape (P, N), entry k is the k -> k+1 increment."""
        return self.values[self.tree.path_gather()[1]]


def running_sum_maxima(tree: FiltrationTree, increments: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Per level and node, the max over the paths from the root of a running sum.

    ``increments[k]`` holds one term per level-k node on its last axis
    (k < N; leading axes are kept).  A sum starts from 0.0 at the root and
    adds the terms of the nodes it passes in path order; rounding is
    monotone, so each max equals the sequential sum along its best path
    bit for bit.  Entry k of the result is level k's maxima; a node no path
    reaches holds -inf.
    """
    best = [np.zeros(np.shape(increments[0])[:-1] + (1,))]
    for k, inc in enumerate(increments):
        here = best[-1] + inc
        best.append(tree.push_max(k, here[..., tree.edge_parent[k]]))
    return best


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
        best = max(best, float(np.max(np.abs(x.values - y.values))))
    return best
