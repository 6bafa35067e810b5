"""Driver (generator) families.

Affine drivers f(t, y) = a + b*y are solved in closed form inside the
implicit steps; arbitrary Lipschitz callables fall back to fixed-point
iteration.  :meth:`Driver.level` evaluates a rule on a whole level at once.
Negation wrapping supports the duality (Y, M, K, A) -> (-Y, -M, A, K)
between lower- and upper-reflected problems.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import InvalidInstanceError


@dataclass(frozen=True)
class Driver:
    """Evaluation rule f(t, y) with Lipschitz constant mu in y.

    ``intercept``/``slope`` describe the affine case, whose mu is |slope|
    (set here, so a ``dataclasses.replace`` of the slope keeps it true);
    ``fn`` overrides them for custom rules (then ``affine`` is False and mu
    must be supplied).
    """

    family: str
    intercept: float = 0.0
    slope: float = 0.0
    mu: float = 0.0
    fn: Callable[[float, float], float] | None = None

    def __post_init__(self) -> None:
        if self.fn is None:
            object.__setattr__(self, "mu", abs(self.slope))

    def __call__(self, t: float, y: float) -> float:
        if self.fn is not None:
            return self.fn(t, y)
        return self.intercept + self.slope * y

    def level(self, t: float | np.ndarray, y: np.ndarray) -> np.ndarray:
        """f(t, y) entry by entry, at one instant ``t`` or one instant per entry;
        custom rules get one scalar call per entry."""
        if self.fn is None:
            return self.intercept + self.slope * y
        instants = np.broadcast_to(t, y.shape).tolist()
        return np.array([self.fn(s, v) for s, v in zip(instants, y.tolist())], dtype=float)

    @property
    def affine(self) -> bool:
        return self.fn is None

    @property
    def y_independent(self) -> bool:
        return self.fn is None and self.slope == 0.0


def zero_driver() -> Driver:
    return Driver("zero")


def constant_driver(rate: float) -> Driver:
    return Driver("constant", intercept=float(rate))


def linear_driver(intercept: float, slope: float) -> Driver:
    return Driver("linear", intercept=float(intercept), slope=float(slope))


def custom_driver(fn: Callable[[float, float], float], mu: float) -> Driver:
    if mu < 0.0:
        raise InvalidInstanceError("Lipschitz constant must be nonnegative")
    return Driver("custom", mu=float(mu), fn=fn)


class _NegatedRule:
    """g(t, y) = -f(t, -y); keeps a handle on the base rule for unwrapping."""

    def __init__(self, base: Driver):
        self.base = base

    def __call__(self, t: float, y: float) -> float:
        return -self.base(t, -y)


def negate_driver(driver: Driver) -> Driver:
    """The driver of the negated problem; an exact involution."""
    if isinstance(driver.fn, _NegatedRule):
        return driver.fn.base
    if driver.affine:
        return replace(driver, intercept=-driver.intercept)  # -(a + b * (-y)) = -a + b * y
    return replace(driver, family="negated", fn=_NegatedRule(driver))
