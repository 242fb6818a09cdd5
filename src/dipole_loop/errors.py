"""Exception types shared across the package.

Each maps onto one CLI exit code: ConfigError -> 2, numeric/domain
errors -> 3, failed internal cross-checks -> 4.
"""

__all__ = [
    "DipoleLoopError",
    "ConfigError",
    "KinematicDomainError",
    "QuadratureError",
    "FitError",
    "OracleError",
    "TruncationError",
    "DynamicsError",
]


class DipoleLoopError(Exception):
    """Base class for all package errors."""


class ConfigError(DipoleLoopError):
    """Invalid configuration input (unknown key, bad value, constraint violation)."""

    def __init__(self, problems):
        # problems: list of strings, each "line N: message" or "key: message"
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class KinematicDomainError(DipoleLoopError):
    """A Feynman-parameter scale (a^2, b^2, M^2(x)) left the positive domain, or |b| >= 1."""


class QuadratureError(DipoleLoopError):
    """A quadrature rule (Gauss-Legendre or tanh-sinh) did not reach the requested tolerance."""


class FitError(DipoleLoopError, ArithmeticError):
    """A fit cannot give the quantity asked of it (vanishing leading coefficient, curved data)."""


class OracleError(DipoleLoopError):
    """An internal closed-form vs quadrature cross-check failed."""


class TruncationError(DipoleLoopError):
    """Fock-space truncation leakage exceeded the configured threshold."""


class DynamicsError(DipoleLoopError):
    """Cavity dynamics cannot be resolved: phases lose precision or no oscillation is seen."""
