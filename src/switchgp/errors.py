"""Exception types shared across the package.

Every error carries enough context to act on: offending state indices,
parameter snapshots, or line numbers, depending on where it arose.
"""

from __future__ import annotations


class SwitchGPError(Exception):
    """Base class for all package-specific errors."""


class SingularEmbeddingError(SwitchGPError):
    """A circulant spectral block is not positive definite.

    Raised when some Fourier-index block of the embedded covariance has an
    eigenvalue <= 0, so the fast likelihood path cannot proceed.
    """

    def __init__(self, message: str, fourier_index: int | None = None):
        super().__init__(message)
        self.fourier_index = fourier_index


class NonPositiveDefiniteError(SwitchGPError):
    """A covariance matrix failed its Cholesky or eigenvalue check."""

    def __init__(self, message: str, state: int | None = None):
        super().__init__(message)
        self.state = state


class DegenerateDurationError(SwitchGPError):
    """Duration samples admit no valid Gamma fit (e.g. all equal)."""


class InsufficientDataError(SwitchGPError):
    """Not enough observations to estimate the requested quantity."""


class FilterCollapseError(SwitchGPError):
    """All forward probability mass vanished at some step."""

    def __init__(self, message: str, time_index: int | None = None):
        super().__init__(message)
        self.time_index = time_index


class NonFiniteObservationError(SwitchGPError):
    """An observed entry of a row fed to the filter is NaN or infinite.

    ``time_index`` is the 1-based row; ``features`` the 0-based observed
    features whose values are not finite. Mark missing values in the mask
    instead.
    """

    def __init__(self, message: str, time_index: int | None = None, features=()):
        super().__init__(message)
        self.time_index = time_index
        self.features = tuple(features)


class OptimizerContractError(SwitchGPError):
    """The optimizer accepted a step that increased the objective."""


class NonFiniteObjectiveError(SwitchGPError):
    """Objective or gradient evaluated to a non-finite value.

    ``params`` holds the offending parameter vector so failed fits can be
    reproduced.
    """

    def __init__(self, message: str, params=None):
        super().__init__(message)
        self.params = params


class UndefinedMetricError(SwitchGPError):
    """A metric was requested over an empty evaluation set."""


class FormatError(SwitchGPError):
    """An input file does not match the expected layout."""

    def __init__(self, message: str, path=None, line: int | None = None):
        super().__init__(message)
        self.path = path
        self.line = line


class InsufficientRankError(SwitchGPError):
    """A projection was requested with more components than the data rank."""
