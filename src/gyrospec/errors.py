"""Exception hierarchy shared across the package."""


class GyrospecError(Exception):
    """Base class for all domain errors raised by gyrospec."""


class ShapeError(GyrospecError):
    """Matrix dimensions incompatible with the rotor model, or non-finite input."""


class SymmetryError(GyrospecError):
    """Symmetry / skew-symmetry violated beyond the construction tolerance."""


class StationaryWaveError(GyrospecError):
    """Wave classification requested exactly at a stationary-wave speed."""


class ConvergenceError(GyrospecError):
    """Iterative solver failed to reach its residual target.

    Carries the best iterates and their residuals so callers can inspect
    how far the computation got.
    """

    def __init__(self, message, best=None, residuals=None):
        super().__init__(message)
        self.best = best
        self.residuals = residuals


class OverflowRescaleError(GyrospecError):
    """Coefficients overflowed; the pencil should be rescaled first."""


class InternalConsistencyError(GyrospecError):
    """Two algebraically equivalent forms disagreed beyond tolerance."""


class SingularConfigurationError(GyrospecError):
    """A formula is undefined for this matrix configuration (e.g. equal
    stiffness eigenvalues)."""


class DegenerateOrientationError(GyrospecError):
    """Umbrella local form has a vanishing denominator."""


class NoRealBoundaryError(GyrospecError):
    """Requested boundary lines are complex; no real boundary exists here."""


class JordanChainDefectError(GyrospecError):
    """Jordan chain residuals exceeded tolerance."""

    def __init__(self, message, residual0=None, residual1=None):
        super().__init__(message)
        self.residual0 = residual0
        self.residual1 = residual1


class InsufficientResolutionError(GyrospecError):
    """Not enough boundary vertices to estimate a slope."""


class InfinitePeriodError(GyrospecError):
    """Periodic analysis requested at zero spin speed."""


class ResolutionError(GyrospecError):
    """Fixed-step integration did not pass its accuracy check."""


class ConfigError(GyrospecError):
    """Invalid run configuration; carries the offending line number."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
