"""Exception hierarchy shared across the package, and the one reader of
input text files, which raises the caller's error class."""


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


def read_text(path, error) -> str:
    """The whole file at path as text, its line breaks translated to "\\n"
    as text-mode reading does.  Bytes that are no UTF-8 raise error."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as e:
        raise error(f"{path}: not UTF-8 text: {e}") from None
