"""Complex log-gamma, digamma and trigamma.

scipy provides loggamma and digamma for complex arguments; trigamma
(psi') is only wrapped for real input, so it is built here from the
standard recurrence plus the asymptotic series, with a reflection step
for points far out near the negative real axis.  It takes an ndarray or
one number: a finite Python complex (numpy's complex128 included) stays
one, and is worked in cmath by the same recurrence and series, so a
point of the saddle layer costs no numpy call.
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


def _recurrence(z, n, steps: int):
    """(sum_{k<n} 1/(z+k)^2, z + n), taken over k < steps, steps >= n:
    psi'(z) is the sum plus psi'(z + n).  n is one count for one point, or
    one count per point of an array z; (k < n) drops the terms past each."""
    acc = 0.0
    for k in range(steps):
        t = 1.0 / (z + k)
        acc = acc + t * t * (k < n)
    return acc, z + n


def trigamma(z):
    """psi'(z) for real or complex z, one number or an ndarray.

    Accurate to ~1e-14 relative away from the poles at 0, -1, -2, ...,
    and inf at them.
    """
    if isinstance(z, complex) and cmath.isfinite(z):
        z = complex(z)
        if z.imag == 0.0 and z.real <= 0.0 and z.real.is_integer():
            return complex(math.inf, 0.0)
        # the reflection and the shift below, on one point
        if z.real < -_ASYMPT_RE and abs(z.imag) < 50.0:
            s = cmath.sin(math.pi * (z - 2.0 * round(0.5 * z.real)))
            return (math.pi / s) ** 2 - trigamma(1.0 - z)
        acc = 0.0
        if z.real < _ASYMPT_RE and abs(z.imag) < 50.0:
            n = math.ceil(_ASYMPT_RE - z.real)
            acc, z = _recurrence(z, n, n)
        return acc + _trigamma_asymptotic(z)

    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    out = np.empty_like(z)
    pole = z.real <= 0.0
    if pole.any():
        pole &= (z.imag == 0.0) & (z.real == np.round(z.real))
        out[pole] = complex(np.inf, 0.0)

    # Far-left strip near the cut: reflect to Re >= 1.  The sin term is
    # computable as long as |Im| stays moderate; its argument is reduced
    # by an even integer first (exactly), so pi*z loses no digits to a
    # large Re z.
    refl = (z.real < -_ASYMPT_RE) & (np.abs(z.imag) < 50.0) & ~pole
    if np.any(refl):
        zr = z[refl]
        s = np.sin(np.pi * (zr - 2.0 * np.round(0.5 * zr.real)))
        out[refl] = (np.pi / s) ** 2 - trigamma(1.0 - zr)
    work = ~(refl | pole)

    # Recurrence psi'(z) = sum_{k<n} 1/(z+k)^2 + psi'(z+n), each point
    # shifted by its own n = ceil(10 - Re z) steps so that the series is
    # taken at Re >= 10 (|Im| >= 50 needs no shift).
    zz = z[work]
    acc = np.zeros_like(zz)
    need = np.nonzero((zz.real < _ASYMPT_RE) & (np.abs(zz.imag) < 50.0))[0]
    if need.size:
        n = np.ceil(_ASYMPT_RE - zz[need].real)
        acc[need], zz[need] = _recurrence(zz[need], n, int(n.max()))
    out[work] = acc + _trigamma_asymptotic(zz)
    return out[0] if scalar else out
