"""Exception hierarchy shared across the package."""


class HoptraceError(Exception):
    """Base class for all package errors."""


class UsageError(HoptraceError, ValueError):
    """A command line, option or run configuration that asks for something
    invalid.  A ValueError too, so callers that validate values catch it."""


class GraphError(HoptraceError):
    """Malformed graph input or an operation violating a graph contract."""


class DataError(HoptraceError):
    """Unreadable or inconsistent dataset files."""


class NumericError(HoptraceError):
    """Non-finite values encountered where finite numbers are required."""
