"""Exception types for numerical failure modes.

Plain argument errors (wrong shapes, out-of-range indices, malformed files)
raise ``ValueError``. The classes below mark failures of numerical
conditions that callers may want to catch and report separately: they all
derive from :class:`PcwkError`.
"""


class PcwkError(Exception):
    """Base class for numerical failures raised by this package."""


class MinimalityError(PcwkError):
    """The observed-process density is effectively singular somewhere on the
    grid, so the trace of its inverse is not integrable and the estimation
    systems are not well posed."""


class IllPosedError(PcwkError):
    """A linear system is singular or beyond the condition threshold;
    refusing to return garbage."""


class TruncationError(PcwkError):
    """A truncated infinite system did not stabilise within the allowed
    truncation range, or became ill-posed along it."""


class AliasingError(PcwkError):
    """A lag, truncation, horizon or window is not resolvable on the
    configured grid: every grid-resolution refusal, raised before any
    solve by ``spectral._admit_lag``."""


class MultiplicityError(PcwkError):
    """Spectral factorization was asked for a rank-deficient density; only
    the full-rank square case is supported."""


class FactorizationError(PcwkError):
    """The factorization iteration failed to converge."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class SingularFactorError(PcwkError):
    """The causal spectral factor is singular at a grid node; no bounded
    left inverse exists."""


class InfeasibleClassError(PcwkError):
    """The requested density-class constraints admit no feasible member,
    or no finite worst case."""
