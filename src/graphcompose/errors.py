"""Exception taxonomy mapped to process exit codes.

UsageError covers bad arguments and misconfigured networks (exit 1),
DataError covers malformed or missing input data (exit 2), and
NumericError covers numeric failures such as NaN losses (exit 3).
"""

import numpy as np


def _is_int(value) -> bool:
    """A Python or numpy integer; a bool, though a Python int, is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


class GraphComposeError(Exception):
    exit_code = 1


class UsageError(GraphComposeError):
    exit_code = 1


class DataError(GraphComposeError):
    exit_code = 2


class NumericError(GraphComposeError):
    exit_code = 3
