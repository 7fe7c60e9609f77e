"""Exception types shared across the package."""


class LftdomError(Exception):
    """Base class for all errors raised by lftdom."""


class ShapeError(LftdomError, ValueError):
    """Matrix arguments have inconsistent or unexpected shapes."""


class SingularMatrixError(LftdomError):
    """A matrix that must be invertible failed the invertibility test."""


class SpectrumError(LftdomError):
    """A spectrum constraint is violated (e.g. eigenvalue on the branch cut).

    `index` is the first failing item of a stack, or None.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class ConvergenceError(LftdomError):
    """A series did not converge within its operating bounds.

    `lam` is the exponent the error names, `norm` the series' ||W|| and
    `terms` the term count it reached; each is None where it does not apply.
    """

    def __init__(self, message, lam=None, norm=None, terms=None):
        super().__init__(message)
        self.lam = lam
        self.norm = norm
        self.terms = terms


class StepBoundError(LftdomError):
    """The contraction bound ||X dZ|| < 1 required by a construction fails."""


class PathLeavesDomainError(LftdomError):
    """A chain waypoint or a supplied path point is not a member of the domain.

    `index` is the chain waypoint's position, or the point's index in a supplied path.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class SpaceClosureError(LftdomError):
    """An operator space fails a required closure or membership condition."""


class InternalCheckError(LftdomError):
    """A condition guaranteed by the theory failed numerically; carries diagnostics."""


class HypothesisError(LftdomError, ValueError):
    """A structural hypothesis of a construction fails (e.g. c2 != c1 r)."""
