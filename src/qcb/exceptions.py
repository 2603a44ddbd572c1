"""Exception types shared across the package.

All numeric-domain failures derive from :class:`QcbError` so callers (and the
CLI, which maps them to exit code 3) can catch one base class.
"""


class QcbError(ValueError):
    """Base class for domain errors raised by this package."""


def at_first(exc: QcbError, failed) -> QcbError:
    """``exc`` with ``index`` set to the flat position of the first true
    entry of ``failed``, a boolean array over a stack of systems."""
    exc.index = int(failed.argmax())
    return exc


class SplitRequiredError(QcbError):
    """Operation needs bipartite split metadata that the state lacks."""


class DimensionError(QcbError):
    """Matrix or subsystem dimensions incompatible with the operation."""


class DomainError(QcbError):
    """Scalar parameter outside its admissible range."""


class PurityError(QcbError):
    """State not pure enough for a pure-state-only quantity."""


class UndefinedMutualInfoError(QcbError):
    """Normalized mutual information undefined (vanishing denominator)."""


class NonPhysicalCovarianceError(QcbError):
    """Covariance matrix violates the uncertainty relation."""


class SingularCovarianceError(QcbError):
    """Covariance matrix is singular where invertibility is required."""


class EmptySubspaceError(QcbError):
    """Projection onto the requested subspace carries (numerically) no weight."""


class TruncationError(QcbError):
    """Requested truncation leaves too much tail mass for the target accuracy."""


class StabilityError(QcbError):
    """Drift matrix is not strictly stable."""


class DegenerateSystemError(QcbError):
    """Linear system is singular / ground state degenerate where uniqueness is required."""


class SectorAmbiguityError(QcbError):
    """Low-energy sector cannot be identified unambiguously."""


class ResourceError(QcbError):
    """Problem size exceeds the configured desk-scale cap."""


class FitError(QcbError):
    """Nonlinear fit failed to converge."""
