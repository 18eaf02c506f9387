"""Exception types shared across the package.

Every error raised on purpose derives from NlfieldError so callers can
catch the package's failures without swallowing programming errors.
"""


class NlfieldError(Exception):
    """Base class for all errors raised by this package."""


class InvalidFieldError(NlfieldError):
    """Field samples contain NaN or infinity, or have the wrong length."""


class GridMismatchError(NlfieldError):
    """Two objects built on different grids were combined."""


class GridTooCoarseError(NlfieldError):
    """Grid spacing too large to resolve the interaction kernel."""


class TimeOrderError(NlfieldError):
    """Evolution requested backwards (t < tau), or over more than MAX_STEPS steps."""


class BlowUpError(NlfieldError):
    """Integration produced a non-finite state."""


class NotBistableError(NlfieldError):
    """Root-count transition not found: three roots persist to h = 2."""


class EmptySetError(NlfieldError):
    """Set distance requested against an empty member set."""


class ConfigError(NlfieldError):
    """Configuration rejected. Carries the offending key path."""

    def __init__(self, message: str, key_path: str = ""):
        self.key_path = key_path
        if key_path:
            message = f"{key_path}: {message}"
        super().__init__(message)
