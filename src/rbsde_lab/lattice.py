"""Finite-state filtration model.

Trees with per-node transition probabilities carry every process in the
package.  A tree is one flat layout (CSR): nodes numbered level by level,
edges node by node, one child-id and one probability per edge, checked once
over the whole tree; its per-level arrays are read-only views of the flat
ones.  An adapted field is one flat array over all nodes and an edge field
one flat array over all edges; ``level(k)`` is a view of level k, and checks
that read every node are single array expressions.  Conditional expectations
and martingale increments are exact weighted sums over children taken slot
by slot, so martingale and tower properties can be asserted to round-off
rather than statistically.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import EnumerationCapError, InvalidInstanceError, PreconditionError
from .tolerances import PROB_TOL

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
    """One level's per-node lists as (each node's length, one flat numeric array);
    a boolean is refused, though numpy reads one among numbers as 0 or 1."""
    try:
        counts = np.fromiter(map(len, lists), np.int64, len(lists))
        flat = np.asarray(list(chain.from_iterable(lists)))
    except (TypeError, ValueError):
        flat = None
    if flat is None or flat.ndim != 1 or flat.dtype.kind not in "iuf" or (
        not isinstance(lists, np.ndarray) and bool in map(type, chain.from_iterable(lists))
    ):
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


SlotPlan = tuple[tuple[slice | np.ndarray, slice | np.ndarray], ...]


def _slot_plan(offsets: np.ndarray) -> SlotPlan:
    """Edges slot by slot: per child slot, ``(nodes, edges)``.

    ``edges`` are the slot's edges and ``nodes`` the nodes that own them, in
    node order; node ``j`` owns the edges ``offsets[j]:offsets[j+1]`` and has
    at least one.  Where every node has the same fan-out both are plain
    slices.
    """
    starts, counts = offsets[:-1], np.diff(offsets)
    fan_out = int(counts.max(initial=0))
    if np.all(counts == fan_out):
        return tuple((slice(None), slice(slot, None, fan_out)) for slot in range(fan_out))
    plan = []
    for slot in range(fan_out):
        nodes = np.flatnonzero(counts > slot)
        plan.append((slice(None) if nodes.size == counts.size else _frozen(nodes), _frozen(starts[nodes] + slot)))
    return tuple(plan)


def _slot_sums(plan: SlotPlan, terms: np.ndarray) -> np.ndarray:
    """Per node, the sum of its edge terms (last axis) in child-slot order.

    ``plan`` is the nodes' :func:`_slot_plan`.  Every sum runs from 0.0 one
    slot at a time, the order of a scalar running sum, so the results equal
    a per-node loop bit for bit.
    """
    (_, edges), *rest = plan
    total = 0.0 + terms[..., edges]  # slot 0 reaches every node
    for nodes, edges in rest:
        total[..., nodes] += terms[..., edges]
    return total


def _views(flat: np.ndarray, bounds: np.ndarray) -> tuple[np.ndarray, ...]:
    """The pieces ``flat[..., bounds[i]:bounds[i+1]]`` (last axis), as views."""
    bounds = bounds.tolist()
    return tuple(flat[..., a:b] for a, b in zip(bounds, bounds[1:]))


class FiltrationTree:
    """Finite rooted tree: nodes indexed by (level, id), all leaves at level N.

    One flat layout holds the tree: node (k, j) is node ``node_start[k] +
    j``, and edges follow node by node in child-slot order, edge (k, e) being
    edge ``edge_start[k] + e`` from node ``edge_source`` to ``edge_target``.
    The per-level arrays are read-only views of it: ``states[k]``; node j of
    level k owns edges ``offsets[k][j]:offsets[k][j+1]``, and edge e leads to
    node ``edge_child[k][e]`` of level k+1 from ``edge_parent[k][e]`` with
    probability ``edge_prob[k][e]``.  ``slot_plans[k]`` lists level k's edges
    child slot by child slot (:func:`_slot_plan`), the order every sum over a
    node's edges runs in; a whole-tree plan runs the same sums at once.
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
        levels = [np.asarray(s, dtype=float) for s in states]
        if any(s.ndim != 1 or s.size == 0 for s in levels):
            raise InvalidInstanceError("each level must hold at least one node")
        edges, sizes = [], [s.size for s in levels]
        try:
            for k, width in enumerate(sizes[:-1]):
                if len(children[k]) != width or len(probs[k]) != width:
                    raise InvalidInstanceError(f"level {k}: child lists must match node count")
                edges.append(flatten_node_lists(children[k], f"level {k}: child ids")
                             + flatten_node_lists(probs[k], f"level {k}: transition probabilities"))
        finally:  # the levels above a malformed one are checked too: a fault there is named first
            if edges:
                n = len(edges) + 1
                self._lay_out(np.concatenate(levels[:n]), sizes[:n], *map(np.concatenate, zip(*edges)))

    def _lay_out(self, states, sizes, counts, child, p_counts, prob) -> "FiltrationTree":
        """Check the layout over all levels at once, store it and return the tree:
        the level ``sizes`` and, node by node, ``counts`` child ids (level-local)
        in ``child`` and ``p_counts`` probabilities in ``prob``.  The first fault
        by level, then by the order of the checks, is named."""
        node_start, depth = np.cumsum([0, *sizes]), len(sizes) - 1
        nodes, level = np.arange(node_start[-2]), np.repeat(np.arange(depth), sizes[:-1])  # non-leaf nodes, their levels
        owner, p_owner = np.repeat(nodes, counts), np.repeat(nodes, p_counts)  # the node of each id, each probability
        edge_level = level[owner]
        first = np.concatenate(([0], np.cumsum(p_counts)))
        plan = _slot_plan(np.concatenate(([0], first[1:][p_counts > 0])))  # of the nodes with a probability
        sums = _slot_sums(plan, prob) if plan else prob
        checks = (
            (counts == 0, nodes, "has no children"),
            (counts != p_counts, nodes, "children/probs length mismatch"),
            (child != np.trunc(child), owner, "child id is not an integer"),
            ((child < 0) | (child >= np.asarray(sizes)[edge_level + 1]), owner, "child id out of range"),
            (~np.isfinite(prob), p_owner, "non-finite transition probability"),
            (prob < 0.0, p_owner, "negative transition probability"),
            (np.abs(sums - 1.0) > PROB_TOL, np.flatnonzero(p_counts), "probabilities sum to"),
        )
        faults = [(level[node_of[i]], order, node_of[i], i) for order, (bad, node_of, _) in enumerate(checks)
                  for i in np.flatnonzero(bad)[:1]]
        if faults:
            k, order, node, i = min(faults)
            what = checks[order][2] + (f" {sums[i]}" if order == len(checks) - 1 else "")
            raise InvalidInstanceError(f"node ({k},{node - node_start[k]}): {what}")
        # every node now has as many probabilities as child ids, at least one
        child, prob = child.astype(np.int64, copy=False), prob.astype(float, copy=False)
        self.node_start = _frozen(node_start)
        self.edge_start = edge_start = _frozen(first[node_start[:-1]])
        self.edge_source = _frozen(owner)
        self.edge_target = _frozen(child + node_start[edge_level + 1])
        self.states = _views(_frozen(states), node_start)
        self.edge_parent = _views(_frozen(owner - node_start[edge_level]), edge_start)
        self.edge_child = _views(_frozen(child), edge_start)
        self.edge_prob = _views(_frozen(prob), edge_start)
        # level k's offsets, its nodes' first edges and its end, sit at node_start[k] + k
        at = np.repeat(np.arange(depth), np.asarray(sizes[:-1]) + 1)
        local = first[np.arange(at.size) - at] - edge_start[at]
        self.offsets = _views(_frozen(local), node_start[:-1] + np.arange(depth + 1))
        self._first, self._prob, self._plan = _frozen(first), prob, plan
        uniform = isinstance(plan[0][1], slice)  # one fan-out: every level has the whole-tree plan
        self.slot_plans = (plan,) * depth if uniform else tuple(map(_slot_plan, self.offsets))
        self._paths_cache = self._gather_cache = None
        return self

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
        return list(_views(values, self.node_start))

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

        ``(parents, starts, targets)``: with the edges sorted by child
        (stably), each edge's parent, where each child's group starts, and
        the child of each group.
        """
        out = []
        for parent, child in zip(self.edge_parent, self.edge_child):
            order = np.argsort(child, kind="stable")
            ordered = child[order]
            starts = np.flatnonzero(np.diff(ordered, prepend=-1))
            out.append((parent[order], starts, ordered[starts]))
        return tuple(out)

    @cached_property
    def reached(self) -> tuple[np.ndarray, ...]:
        """Per level, which nodes some path from the root passes through."""
        seen = [np.ones(1, dtype=bool)]
        for k in range(self.depth):
            seen.append(self.push_max(k, seen[-1]))
        return tuple(map(_frozen, seen))

    def push_max(self, k: int, values: np.ndarray) -> np.ndarray:
        """Per level-(k+1) node, the max of level-k ``values`` over its parents.

        ``values`` holds one value per level-k node on its last axis; leading
        axes are kept.  Every edge counts, a zero-probability one too.  A
        node no edge reaches gets -inf, or False for booleans, whose max is
        "any".
        """
        parents, starts, targets = self._arrivals[k]
        fill = False if values.dtype == bool else -np.inf
        out = np.full(values.shape[:-1] + (self.level_size(k + 1),), fill)
        out[..., targets] = np.maximum.reduceat(values[..., parents], starts, axis=-1)
        return out

    def same_shape(self, other: "FiltrationTree") -> bool:
        layouts = ((tree.node_start, tree._first, tree.edge_target, tree._prob) for tree in (self, other))
        return all(map(np.array_equal, *layouts))

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
            self._gather_cache = (_frozen(node_index), _frozen(self._first[node_index[:, :-1]] + choices))
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
    sizes = np.arange(1, steps + 2)
    k = np.repeat(np.arange(steps + 1), sizes)
    j = np.arange(k.size) - k * (k + 1) // 2  # node (k, j) is node k(k+1)/2 + j
    inner = j[: -sizes[-1]]  # the nodes before the leaves
    two = np.full(inner.size, 2)
    child, prob = (inner[:, None] + [0, 1]).ravel(), np.tile([1.0 - p_up, p_up], inner.size)
    tree = FiltrationTree.__new__(FiltrationTree)
    return tree._lay_out(x0 + j * up + (k - j) * down, sizes, two, child, two, prob)


class _FlatField:
    """One real value per slot of a tree layout: ``values``, frozen, flat in level order.

    The body :class:`AdaptedField` (slots: nodes) and :class:`EdgeField`
    (slots: edges) share; a subclass names its layout, its ``path_gather()``
    index and its messages.
    """

    _layout: str  # the tree's level bounds over the slots: "node_start" or "edge_start"
    _gathered: int  # the entry of ``path_gather()`` that indexes the slots
    _texts: tuple[str, str, str]  # a level count mismatch, the unit and the value named by the checks

    def __init__(self, tree: FiltrationTree, levels: Sequence[np.ndarray]):
        starts = getattr(tree, self._layout)
        missing, unit, what = self._texts
        if len(levels) != starts.size - 1:
            raise InvalidInstanceError(missing)
        self.tree = tree
        self.values = _joined(levels, starts, unit, what)

    @classmethod
    def from_flat(cls, tree: FiltrationTree, values: np.ndarray) -> "_FlatField":
        """A field from a copy of its flat values, level by level in slot order."""
        field = cls.__new__(cls)
        field.tree = tree
        field.values = _flat(values, getattr(tree, cls._layout), cls._texts[2])
        return field

    @classmethod
    def zeros(cls, tree: FiltrationTree) -> "_FlatField":
        return cls.from_flat(tree, np.zeros(int(getattr(tree, cls._layout)[-1])))

    def level(self, k: int) -> np.ndarray:
        """Level k's values, a read-only view of ``values``."""
        starts = getattr(self.tree, self._layout)
        return self.values[starts[k] : starts[k + 1]]

    def negate(self) -> "_FlatField":
        return type(self).from_flat(self.tree, -self.values)

    def path_matrix(self) -> np.ndarray:
        """Values gathered along every enumerated path: shape (P, N+1) for nodes,
        (P, N) for edges, where entry k is the k -> k+1 increment."""
        return self.values[self.tree.path_gather()[self._gathered]]


class AdaptedField(_FlatField):
    """One real value per tree node: ``values``, frozen, flat in level order.

    Built from one array per level (each checked, the failing level named)
    or, with :meth:`from_flat`, from the flat array itself.
    """

    _layout, _gathered = "node_start", 0
    _texts = ("field must define a value at every level", "values", "field value")

    @classmethod
    def constant(cls, tree: FiltrationTree, value: float) -> "AdaptedField":
        return cls.from_flat(tree, np.full(tree.node_count(), float(value)))

    def __getitem__(self, node: tuple[int, int]) -> float:
        k, j = node
        return float(self.level(k)[j])

    def map(self, fn: Callable[[np.ndarray], np.ndarray]) -> "AdaptedField":
        """The field of ``fn`` applied to the flat values; ``fn`` acts entry by entry."""
        return AdaptedField.from_flat(self.tree, fn(self.values))


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
    return _slot_sums(tree.slot_plans[k], tree.edge_prob[k] * values_next[..., tree.edge_child[k]])


class EdgeField(_FlatField):
    """One real value per tree edge: ``values``, frozen, flat in the tree's edge order.

    Martingale increments live here: on a recombining tree a node can have
    several parents, so the increment over a transition is a function of the
    edge taken, not of the arrival node alone.  ``level(k)`` holds the values
    on the edges out of level k.
    """

    _layout, _gathered = "edge_start", 1
    _texts = ("edge field must cover every transition level", "edge values", "edge value")

    def edges(self, k: int, j: int) -> np.ndarray:
        offsets = self.tree.offsets[k]
        return self.level(k)[offsets[j] : offsets[j + 1]]

    def conditional_mean_deviation(self) -> float:
        """Max over nodes of |sum_children p * value|; zero for centered fields."""
        return float(np.max(np.abs(_slot_sums(self.tree._plan, self.tree._prob * self.values))))


def running_sum_maxima(tree: FiltrationTree, increments: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
    """Per node, the max over the paths from the root of a running sum, one level at a time.

    ``increments`` yields, for k < N in turn, one term per level-k node on
    its last axis (leading axes are kept).  A sum starts from 0.0 at the
    root and adds the terms of the nodes it passes in path order; rounding
    is monotone, so each max equals the sequential sum along its best path
    bit for bit.  Yields the maxima of levels 1 to N in turn; a node no
    path reaches holds -inf.
    """
    best = 0.0
    for k, inc in enumerate(increments):
        best = tree.push_max(k, best + inc)
        yield best


def edge_increments(tree: FiltrationTree, values: np.ndarray, expected: np.ndarray) -> EdgeField:
    """Per edge: the child's value minus the parent's expectation.

    ``values`` holds one value per node and ``expected`` the conditional
    expectations of the next level's values at each node before the last
    (:func:`expect_level`), both flat in level order.
    """
    return EdgeField.from_flat(tree, values[tree.edge_target] - expected[tree.edge_source])


def expect_tree(tree: FiltrationTree, values: np.ndarray) -> np.ndarray:
    """:func:`expect_level` of every level at once, by one whole-tree slot sum.

    ``values`` holds one value per node, flat in level order; the result
    holds the conditional expectation at each node before the last level,
    bit for bit the per-level one.
    """
    return _slot_sums(tree._plan, tree._prob * values[tree.edge_target])


def martingale_increments(y: AdaptedField) -> EdgeField:
    """Innovation increments of an adapted field, per edge.

    Over the edge from node (k, j) to a child the increment is the child value
    minus the conditional expectation at (k, j), so increments are
    conditionally centered at every node.
    """
    return edge_increments(y.tree, y.values, expect_tree(y.tree, y.values))


def sup_distance(a: AdaptedField, b: AdaptedField) -> float:
    """Max over nodes of |a - b|."""
    if a.tree is not b.tree and not a.tree.same_shape(b.tree):
        raise PreconditionError("sup_distance requires fields on the same tree")
    return float(np.max(np.abs(a.values - b.values)))
