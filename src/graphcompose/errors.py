"""Exception taxonomy mapped to process exit codes.

UsageError covers bad arguments and misconfigured networks (exit 1),
DataError covers malformed or missing input data (exit 2), and
NumericError covers numeric failures such as NaN losses (exit 3).
"""

import numpy as np


def _is_int(value) -> bool:
    """A Python or numpy integer; a bool, though a Python int, is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _row_ids(rows, what: str, count: int) -> np.ndarray:
    """rows as a flat int64 array of ids in [0, count). Floats and bools,
    which numpy would truncate or read as 0 and 1, an empty set, and ids out
    of range, which numpy would wrap or fail on, are a UsageError."""
    ids = np.asarray(rows)
    if ids.size and ids.dtype.kind not in "iu":
        raise UsageError(f"{what} needs integer row ids, got {ids.dtype} values")
    ids = ids.astype(np.int64, copy=False).ravel()
    if ids.size == 0 or ids.min() < 0 or ids.max() >= count:
        raise UsageError(f"{what} needs a nonempty set of rows in [0, {count})")
    return ids


class GraphComposeError(Exception):
    exit_code = 1


class UsageError(GraphComposeError):
    exit_code = 1


class DataError(GraphComposeError):
    exit_code = 2


class NumericError(GraphComposeError):
    exit_code = 3
