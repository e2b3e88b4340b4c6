"""Exception types shared across the package, and the record helper of
the hot kernels.

Exit-code mapping used by the CLI: ValidationError -> 2, NumericsError -> 3,
argparse usage failures -> 64.
"""


class RRMLabError(Exception):
    """Base class for package errors."""


class ValidationError(RRMLabError):
    """Bad input: domain violation, malformed table, out-of-range parameter."""


class NumericsError(RRMLabError):
    """Numerical failure: non-convergence, bracket failure, blow-up."""


def _record(cls, values: dict):
    """An instance of the frozen dataclass ``cls`` from ``values``, keyed by
    field name in declaration order, set by one ``__dict__`` update instead
    of the generated ``__init__``'s ``object.__setattr__`` per field. It
    runs no ``__post_init__``; ``==``, ``hash``, ``repr``, ``astuple`` and
    ``replace`` work as on a constructor-built instance."""
    record = object.__new__(cls)
    record.__dict__.update(values)
    return record
