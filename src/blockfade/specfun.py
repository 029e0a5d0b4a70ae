"""Standard-normal distribution functions.

Only the two functions the library needs: the cdf and the quantile. The
density is private; only the quantile's Newton step uses it. The cdf is
evaluated through the complementary error function (C library ``erfc``,
a rational/continued-fraction approximation), which keeps full precision
in both tails because no subtraction from 1 ever happens on the small
side.
"""

import math

from .errors import real

__all__ = ["std_normal_cdf", "std_normal_inv_cdf"]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Rational quantile approximation (Acklam), ~1.15e-9 relative error on its
# own; one Newton step against the erfc-based cdf brings it to ~1e-15.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425


def std_normal_cdf(x: float) -> float:
    """Cumulative distribution function of a standard Gaussian.

    Raises InvalidParameterError for anything but a finite number.
    """
    return 0.5 * math.erfc(-real("standard normal cdf argument", x, -math.inf) / _SQRT2)


def _std_normal_pdf(x: float) -> float:
    """Density of a standard Gaussian at a finite x."""
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


def _acklam(p: float) -> float:
    # Three-region rational approximation of the standard normal quantile.
    if p < _P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        return ((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
                / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    if p > 1.0 - _P_LOW:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        return -((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
                 / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    q = p - 0.5
    r = q * q
    return ((((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q
            / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0))


def std_normal_inv_cdf(p: float) -> float:
    """Quantile (inverse cdf) of a standard Gaussian, 0 < p < 1.

    Rational approximation refined by one Newton step on the cdf.
    """
    p = real("quantile argument", p, 0.0, 1.0)
    x = _acklam(p)
    density = _std_normal_pdf(x)
    if density > 0.0:
        x -= (std_normal_cdf(x) - p) / density
    return x
