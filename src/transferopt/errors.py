"""Exception types shared across the package.

The CLI exits 2 on ConfigError, which only ``config`` raises and which
names its field, and on UnsupportedFamilyError; it exits 3 on
ConvergenceError and SupportError. ``config`` turns every ParameterError
a config can cause into a ConfigError, so one that reaches the CLI is a
library bug and traces back.
"""

__all__ = ["TransferOptError", "ParameterError", "SupportError",
           "UnsupportedFamilyError", "ConvergenceError", "ConfigError"]


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


class ConfigError(TransferOptError):
    """A run configuration failed validation.

    `field` holds a slash-separated path to the offending entry when known.
    """

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field
