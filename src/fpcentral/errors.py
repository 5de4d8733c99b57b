"""Exception taxonomy shared by every module.

All failures raised on purpose derive from :class:`FpcError`, so callers
(and the command line front end) can map them onto exit codes without
string matching.
"""


class FpcError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(FpcError):
    """An argument violates a documented precondition."""


class SizeLimitError(FpcError):
    """An exhaustive search was requested above its hard size limit."""


class NumericalError(FpcError):
    """A numerical routine failed, such as a result beyond float64."""


class NonConvergenceError(FpcError):
    """An iteration exhausted its budget; carries the last iterate and residual."""

    def __init__(self, message, last_iterate=None, residual=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual


class SimplicityError(FpcError):
    """The leading eigenvalue is not simple (spectral gap below threshold)."""


class InputFormatError(FpcError):
    """An input file failed to parse; carries the offending line number."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line
