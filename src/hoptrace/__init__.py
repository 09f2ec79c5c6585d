"""hoptrace: differentiable multi-hop question answering over relation graphs."""

from .errors import DataError, GraphError, HoptraceError, NumericError, UsageError

__version__ = "0.1.0"

__all__ = [
    "DataError",
    "GraphError",
    "HoptraceError",
    "NumericError",
    "UsageError",
    "__version__",
]
