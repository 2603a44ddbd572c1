"""Exception types shared across the package, and the helpers that point a
failure at the member of a stack of systems where it happened.

All numeric-domain failures derive from :class:`QcbError` so callers (and the
CLI, which maps them to exit code 3) can catch one base class.
"""

# Members of a stack that one stacked step takes at a time, which bounds its
# temporaries (16 MB for complex 4 x 4 matrices).
STACK_CHUNK = 2**16


class QcbError(ValueError):
    """Base class for domain errors raised by this package."""


def at_first(exc: QcbError, failed) -> QcbError:
    """``exc`` with ``index`` set to the flat position of the first true
    entry of ``failed``, a boolean array over a stack of systems."""
    exc.index = int(failed.argmax())
    return exc


def by_chunks(fn, stack) -> list:
    """``fn`` of each run of :data:`STACK_CHUNK` members of ``stack`` (an
    array, members along its first axis), in order; an empty stack is one
    empty run.  A failure's ``index`` counts from the start of ``stack``."""
    parts = []
    for start in range(0, max(len(stack), 1), STACK_CHUNK):
        try:
            parts.append(fn(stack[start:start + STACK_CHUNK]))
        except QcbError as exc:
            if hasattr(exc, "index"):
                exc.index += start
            raise
    return parts


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
