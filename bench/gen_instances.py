"""Seeded instance documents for the benchmark workloads.

Every input the benchmark feeds the program is built here, from the
benchmark's own ``random.Random`` stream, as a plain instance document in
the ``io_formats`` schema.  Nothing here imports the package, so a change to
the program cannot change the inputs; the same seed always gives the same
documents, byte for byte.

The *shape* of each instance (steps, tree kind, node and path counts, driver
family, which barriers exist and carry right jumps) is fixed by the caller's
spec and never drawn from the seed.  The seed only moves the numbers.  That
keeps the amount of work per instance the same from seed to seed, so the
benchmark's spreads measure the machine, not the draw.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Spec:
    """Shape of one generated instance; the seed fills in the numbers."""

    steps: int
    tree: str  # "binomial" | "explicit"
    driver: str  # "zero" | "constant" | "linear"
    jumps: bool  # right jumps on every present barrier
    sides: str = "both"  # "both" | "lower" | "upper"
    widths: tuple[int, ...] | None = None  # explicit trees: nodes per level
    zero_prob_edges: bool = False
    jump_share: float = 0.01  # share of non-terminal nodes with a declared jump
    gap: tuple[float, float] = (0.3, 0.35)  # range of U - L at each node
    wide: bool = False  # draw the driver and terminal over the ranges of oracle.random_instance


def explicit_widths(steps: int, leaves: int) -> tuple[int, ...]:
    """Level widths of a non-recombining tree: geometric growth to ``leaves``.

    Consecutive widths keep a ratio in [1, 4], so every node can be given a
    fan-out between 1 and 4.
    """
    widths = [1]
    for k in range(1, steps + 1):
        target = round(leaves ** (k / steps))
        widths.append(max(widths[-1], min(4 * widths[-1], target)))
    return tuple(widths)


# Global scales sit in narrow ranges and the per-node draws stay small: how
# often Y alternates between the barriers (and so how much path work the
# verification does) must not swing from seed to seed.
NOISE = 0.01  # per-node noise on the barriers
MIX = (0.4, 0.6)  # where the terminal payoff sits between the barriers
RATE = (-0.1, 0.1)  # driver intercept or constant rate
# Ranges of ``oracle.random_instance``, for the specs that must show the
# uniqueness defect of linear drivers with right jumps at its full rate.
WIDE_MIX = (0.02, 0.98)
WIDE_RATE = (-1.0, 1.0)
WIDE_SLOPE = 2.0


def _table(levels: list[list[float]]) -> dict:
    return {"family": "table", "values": levels}


def _tree_levels(spec: Spec, rng: random.Random, dt: float):
    """The tree part of the document, and the state values level by level."""
    vol = rng.uniform(0.85, 0.95)
    move = vol * math.sqrt(dt)
    if spec.tree == "binomial":
        x0 = rng.uniform(-0.1, 0.1)
        p_up = rng.uniform(0.48, 0.52)
        doc = {"kind": "binomial", "x0": x0, "up": move, "down": -move, "p_up": p_up}
        states = [
            [x0 + j * move + (k - j) * -move for j in range(k + 1)]
            for k in range(spec.steps + 1)
        ]
        return doc, states
    widths = spec.widths
    if widths is None or len(widths) != spec.steps + 1 or widths[0] != 1:
        raise ValueError("explicit spec needs one width per level, starting at 1")
    states = [[rng.uniform(-0.5, 0.5)]]
    children, probs = [], []
    for k in range(spec.steps):
        parents, width_next = widths[k], widths[k + 1]
        fanout = [1] * parents
        extra = width_next - parents
        room = [j for j in range(parents) for _ in range(3)]
        for j in rng.sample(room, extra):
            fanout[j] += 1
        level_children, level_probs, nxt = [], [], []
        for j in range(parents):
            first = len(nxt)
            level_children.append(list(range(first, first + fanout[j])))
            weights = [rng.uniform(0.2, 1.0) for _ in range(fanout[j])]
            if spec.zero_prob_edges and fanout[j] > 1 and rng.random() < 0.25:
                weights[rng.randrange(fanout[j])] = 0.0
            total = sum(weights)
            level_probs.append([w / total for w in weights])
            x = states[k][j]
            nxt.extend(x + move * rng.uniform(-1.5, 1.5) for _ in range(fanout[j]))
        children.append(level_children)
        probs.append(level_probs)
        states.append(nxt)
    doc = {"kind": "explicit", "states": states, "children": children, "probs": probs}
    return doc, states


def _driver(spec: Spec, rng: random.Random, dt: float) -> dict:
    if spec.driver == "zero":
        return {"family": "zero"}
    if spec.driver == "constant":
        return {"family": "constant", "rate": rng.uniform(*RATE)}
    if spec.wide:
        cap = min(WIDE_SLOPE, 0.45 / dt)
        return {"family": "linear", "intercept": rng.uniform(*WIDE_RATE),
                "slope": rng.uniform(-cap, cap)}
    cap = min(1.0, 0.45 / dt)
    return {
        "family": "linear",
        "intercept": rng.uniform(*RATE),
        "slope": rng.choice((-1.0, 1.0)) * rng.uniform(0.2, cap),
    }


def instance_doc(spec: Spec, rng: random.Random) -> dict:
    """One admissible instance document of the given shape.

    Barriers are tabulated per node (affine in the state plus noise) and
    strictly separated; the terminal payoff sits between them.  Declared
    right jumps move the lower barrier's right value down and the upper
    barrier's up, which keeps both orderings and the separation intact.
    """
    dt = 1.0 / spec.steps
    tree, states = _tree_levels(spec, rng, dt)
    slope = rng.uniform(0.55, 0.65)
    base = rng.uniform(-0.45, -0.35)
    lower, upper = [], []
    for level in states:
        lo_row, up_row = [], []
        for x in level:
            lo = base + slope * x + rng.uniform(-NOISE, NOISE)
            lo_row.append(lo)
            up_row.append(lo + rng.uniform(*spec.gap))
        lower.append(lo_row)
        upper.append(up_row)
    terminal = [
        lo + rng.uniform(*(WIDE_MIX if spec.wide else MIX)) * (up - lo) for lo, up in zip(lower[-1], upper[-1])
    ]
    if spec.sides == "upper":
        terminal = [up - rng.uniform(0.1, 1.0) for up in upper[-1]]
    jumps = []
    if spec.jumps:
        sites = [(k, j) for k in range(spec.steps) for j in range(len(states[k]))]
        count = max(3, round(spec.jump_share * len(sites)))
        for side, table, sign in (("L", lower, -1.0), ("U", upper, 1.0)):
            if (side == "L" and spec.sides == "upper") or (side == "U" and spec.sides == "lower"):
                continue
            for k, j in sorted(rng.sample(sites, count)):
                new_value = table[k][j] + sign * rng.uniform(0.02, 0.5)
                jumps.append({"barrier": side, "level": k, "node": j, "new_value": new_value})
    barriers = {
        "L": None if spec.sides == "upper" else _table(lower),
        "U": None if spec.sides == "lower" else _table(upper),
    }
    if jumps:
        barriers["right_jumps"] = jumps
    return {
        "grid": {"T": 1.0, "steps": spec.steps},
        "tree": tree,
        "terminal": {"family": "table", "values": terminal},
        "driver": _driver(spec, rng, dt),
        "barriers": barriers,
    }
