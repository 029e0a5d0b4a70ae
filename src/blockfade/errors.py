"""The package's one exception type, and the one rule for a numeric argument.

Every scalar check in the package goes through ``real`` or ``whole``: a
bool, a str or any other type is not a number, an integer past the float
range is out of range, and every rejection raises InvalidParameterError
naming the argument and the offending value.
"""

import math


class InvalidParameterError(ValueError):
    """A constructor or operation received parameters outside its contract."""


def real(what: str, value, lo: float = 0.0, hi: float = math.inf) -> float:
    """value as a float strictly inside (lo, hi), so finite; else InvalidParameterError."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
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
    if isinstance(value, int) and not isinstance(value, bool) and lo <= value <= hi:
        return int(value)
    rule = f">= {lo}" if hi == math.inf else f"in [{lo}, {hi}]"
    raise InvalidParameterError(f"{what} must be an integer {rule}, got {value!r}")
