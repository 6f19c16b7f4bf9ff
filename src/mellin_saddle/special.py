"""Complex log-gamma, digamma and trigamma.

scipy provides loggamma and digamma for complex arguments; trigamma
(psi') is only wrapped for real input, so it is built here from the
standard recurrence plus the asymptotic series, with a reflection step
for points far out near the negative real axis.
"""
from __future__ import annotations

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
    acc = np.zeros_like(z)
    for c in reversed(_TRIGAMMA_COEF):
        acc = (acc + c) * w2
    return w + 0.5 * w2 + acc * w


def trigamma(z):
    """psi'(z) for real or complex z (vectorized).

    Accurate to ~1e-14 relative away from the poles at 0, -1, -2, ...,
    and inf at them.
    """
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
        zn = zz[need]
        n = np.ceil(_ASYMPT_RE - zn.real)
        k = np.arange(n.max())
        terms = np.reciprocal(zn[:, None] + k)
        terms *= terms
        terms[k >= n[:, None]] = 0.0
        acc[need] = terms.sum(axis=1)
        zz[need] = zn + n
    out[work] = acc + _trigamma_asymptotic(zz)
    return out[0] if scalar else out
