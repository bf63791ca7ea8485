"""Exception hierarchy shared across the package."""


class BilgammaError(Exception):
    """Base class for all package-specific errors."""


class DomainError(BilgammaError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class SingularPointError(DomainError):
    """Evaluation requested exactly at a non-removable singularity."""


class OutOfStripError(DomainError):
    """Argument outside the convergence strip of a transform."""


class NonConvergenceError(BilgammaError, RuntimeError):
    """Adaptive quadrature failed to meet the requested tolerance."""


class TruncationFailureError(BilgammaError, RuntimeError):
    """A series or pmf truncation could not reach its mass/tolerance target."""


class SeriesDivergenceError(BilgammaError, ArithmeticError):
    """A mixture series diverges for the requested argument (detected from
    the pmf tail ratio before summation)."""


class NonFiniteResultError(BilgammaError, ArithmeticError):
    """A result overflows a double or is not a finite number."""


class ModelMismatchError(BilgammaError, ValueError):
    """Two models that must share shape/rate parameters do not."""


class EmptySampleError(BilgammaError, ValueError):
    """An empirical-distance estimator received an empty sample."""


class GridError(BilgammaError, ValueError):
    """A time grid violates its contract (start at 0, strictly increasing)."""


class ModelFileError(BilgammaError, ValueError):
    """An input document (a model, pricing or target file) is missing,
    unreadable or malformed; the message names the offending entry."""


class KappaUndefinedError(BilgammaError, ValueError):
    """The amplification factor g/(g-h) is undefined because g <= h.

    Carries the offending ``log_g_n`` and ``log_h_n`` (natural logs, since
    g and h themselves can overflow) so callers can report them.
    """

    def __init__(self, log_g_n: float, log_h_n: float):
        self.log_g_n = log_g_n
        self.log_h_n = log_h_n
        super().__init__(
            f"kappa undefined: log_g_n={log_g_n:.6g} <= log_h_n={log_h_n:.6g} "
            "(requires g_n > h_n)"
        )
