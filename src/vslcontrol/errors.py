"""Exception types raised across the package."""


class VslControlError(Exception):
    """Base class for all package errors."""


class DomainError(VslControlError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class AssumptionError(VslControlError):
    """A fundamental diagram violates a structural assumption needed here."""


class CertificationError(VslControlError):
    """Gain calibration failed a sufficient condition in strict mode."""


class ConvergenceError(VslControlError):
    """A fixed-point iteration did not converge within its budget."""


class StateEscapeError(VslControlError):
    """The closed-loop state or control left its admissible set."""


class SolverDivergenceError(VslControlError):
    """A numerical solution left the physically meaningful range."""


class ConfigError(VslControlError, ValueError):
    """A run configuration could not be parsed or is inconsistent."""
