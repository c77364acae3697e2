"""Exception types shared across the package."""

__all__ = [
    "TransferOptError",
    "ParameterError",
    "SupportError",
    "UnsupportedFamilyError",
    "ConvergenceError",
    "RegimeError",
    "ConfigError",
]


class TransferOptError(Exception):
    """Base class for all package-specific failures."""


class ParameterError(TransferOptError):
    """A parameter vector is invalid for its model family.

    `row` holds the index of the first bad row when a stack of parameter
    vectors was checked at once.
    """

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class SupportError(TransferOptError):
    """An observation lies outside the family's support."""


class UnsupportedFamilyError(TransferOptError):
    """The requested operation is not available for this family."""


class ConvergenceError(TransferOptError):
    """An iterative solve failed to reach tolerance.

    Carries the last iterate and the residual that was still outstanding
    so callers can inspect or restart.
    """

    def __init__(self, message, last_iterate=None, residual=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual


class RegimeError(TransferOptError):
    """A requested source displacement cannot be placed inside the valid
    parameter region (retries exhausted)."""


class ConfigError(TransferOptError):
    """A run configuration failed validation.

    `field` holds a slash-separated path to the offending entry when known.
    """

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field
