"""Complex log-gamma, digamma and trigamma.

scipy provides loggamma and digamma for complex arguments; trigamma
(psi') is only wrapped for real input, so it is built here from the
standard recurrence plus the asymptotic series, with a reflection step
for points far out near the negative real axis (DLMF 5.15).  The rules
are written once, in cmath, for one number: a Python complex (numpy's
complex128 included) stays one and costs no numpy call, and an ndarray
is taken point by point through them, so no value depends on the call.
"""
from __future__ import annotations

import cmath
import math

import numpy as np
import scipy.special as _sp

loggamma = _sp.loggamma
digamma = _sp.digamma

# B_{2k} / coefficients of psi'(z) ~ 1/z + 1/(2z^2) + sum b_k z^{-2k-1}
_TRIGAMMA_COEF = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
)

_ASYMPT_RE = 10.0  # asymptotic series kicks in once Re z >= this (or |Im| large)


def _trigamma_asymptotic(z):
    w = 1.0 / z
    w2 = w * w
    acc = 0.0
    for c in reversed(_TRIGAMMA_COEF):
        acc = (acc + c) * w2
    return w + 0.5 * w2 + acc * w


def _trigamma(z: complex) -> complex:
    x = z.real
    if z.imag == 0.0 and x <= 0.0 and (x.is_integer() or x == -math.inf):
        return complex(math.inf, 0.0)      # the poles 0, -1, -2, ...
    if x < -_ASYMPT_RE and abs(z.imag) < 50.0:
        # Far-left strip near the cut: reflect to Re >= 1.  The sin term
        # is computable as long as |Im| stays moderate; its argument is
        # reduced by an even integer first (exactly), so pi*z loses no
        # digits to a large Re z.  It has no limit at Re z = -inf.
        if x == -math.inf:
            return complex(math.nan, math.nan)
        s = cmath.sin(math.pi * (z - 2.0 * round(0.5 * x)))
        return (math.pi / s) ** 2 - _trigamma(1.0 - z)
    # psi'(z) = sum_{k<n} 1/(z+k)^2 + psi'(z+n), n = ceil(10 - Re z), so
    # the series is taken at Re >= 10 (|Im| >= 50 needs no shift).  A
    # non-finite z takes the series: 0 where one part is infinite, else NaN.
    acc = 0.0
    if x < _ASYMPT_RE and abs(z.imag) < 50.0:
        n = math.ceil(_ASYMPT_RE - x)
        for k in range(n):
            t = 1.0 / (z + k)
            acc = acc + t * t
        z = z + n
    return acc + _trigamma_asymptotic(z)


def trigamma(z):
    """psi'(z) for real or complex z: one number, or an ndarray point by point.

    Accurate to ~1e-14 relative away from the poles at 0, -1, -2, ...,
    and inf at them.
    """
    if isinstance(z, complex):
        return _trigamma(complex(z))
    z = np.asarray(z, dtype=complex)
    out = np.array([_trigamma(x) for x in z.ravel().tolist()], dtype=complex)
    return out.reshape(z.shape)[()]
