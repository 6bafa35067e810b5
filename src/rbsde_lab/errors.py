"""Exception taxonomy shared across the package.

The CLI maps these onto its exit-code contract, so new error types should
subclass one of the groups below rather than raising bare ValueError.
"""


class RBSDELabError(Exception):
    """Base class for all package errors."""


class InvalidInstanceError(RBSDELabError):
    """Malformed or inadmissible problem data (parse / validation failures)."""


class StabilityError(InvalidInstanceError):
    """mu * dt >= 1/2: the implicit step is outside its contraction regime."""


class PreconditionError(RBSDELabError):
    """A caller-facing precondition failed (not a theorem violation)."""


class EnumerationCapError(PreconditionError):
    """A brute-force enumeration would exceed its configured cap."""


class UnsupportedDriverError(PreconditionError):
    """An oracle was asked to handle a driver outside its supported class."""


class NumericalError(RBSDELabError):
    """An iterative solve failed to converge within its iteration budget."""


class TheoremViolationError(RBSDELabError):
    """A machine-checked identity from the underlying theory failed."""


class SchemeMonotonicityError(TheoremViolationError):
    """A penalization sweep lost monotonicity beyond tolerance."""


class PatchingError(RBSDELabError):
    """Local-solution patching failed (seam mismatch or tiling gap)."""


class AlternationStuckError(RBSDELabError):
    """The alternating barrier-hitting sequence failed to advance.

    ``where`` names the path (path oracle) or the node (level-wise
    evaluation) on which two consecutive hits fall on one level.
    """

    def __init__(self, where: str, level: int, gap: float):
        self.where = where
        self.level = level
        self.gap = gap
        super().__init__(
            f"alternating sequence stuck on {where} at level {level}; "
            f"local barrier gap U - L = {gap!r}"
        )
