"""The package's one exception type, and one rule for each kind of argument.

A number is a numbers.Real (``real``) or numbers.Integral (``whole``), numpy
scalars too, never a bool or a str; a sequence is a list, tuple, range or 1-D
array (``items``). Rejections raise InvalidParameterError naming the argument and value.
"""

import math
import numbers

import numpy as np


class InvalidParameterError(ValueError):
    """A constructor or operation received parameters outside its contract."""


def real(what: str, value, lo: float = 0.0, hi: float = math.inf) -> float:
    """value as a float strictly inside (lo, hi), so finite; else InvalidParameterError."""
    # float and int are named first: they match before the slower ABC check
    if isinstance(value, (float, int, numbers.Real)) and type(value) is not bool:
        try:
            x = float(value)
        except OverflowError:  # an integer past the float range
            x = math.nan
        if lo < x < hi:
            return x
    if hi < math.inf:
        rule = f"lie strictly in ({lo:g}, {hi:g})"
    elif lo == 0.0:
        rule = "be positive and finite"
    else:
        rule = "be finite" if lo == -math.inf else f"be finite and greater than {lo!r}"
    raise InvalidParameterError(f"{what} must {rule}, got {value!r}")


def whole(what: str, value, lo: int, hi: float = math.inf) -> int:
    """value as an int in [lo, hi]; else InvalidParameterError."""
    if isinstance(value, (int, numbers.Integral)) and type(value) is not bool and lo <= value <= hi:
        return int(value)
    rule = f">= {lo}" if hi == math.inf else f"in [{lo}, {hi}]"
    raise InvalidParameterError(f"{what} must be an integer {rule}, got {value!r}")


def items(what: str, values) -> list:
    """The entries of a list, tuple, range or 1-D array as a list (an array's by tolist())."""
    if isinstance(values, (list, tuple, range)):
        return list(values)
    if isinstance(values, np.ndarray) and values.ndim == 1:
        return values.tolist()
    raise InvalidParameterError(f"{what} must be a list, tuple, range or 1-D array, got {values!r}")
