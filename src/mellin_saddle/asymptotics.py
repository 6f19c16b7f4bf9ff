"""Closed-form leading asymptotics of K and E at the saddle.

With s = s_z the root of Phi(s) = log z and eps = eps(s_z):

    K(z)            ~ sqrt(s / (2 pi eps)) * exp(-s eps)
    z E(z) + 1/g(0) ~ sqrt(2 pi s / eps)   * exp(+s eps)     inside the
                      growth region, and o(1) outside it.

Both use L/L' = s/eps and s^2 L'/L = s eps.  The square root is positive
on the positive ray and continued along the solver's path: its argument
is assembled from the continuously tracked theta_z, never snapped to a
principal branch.  Magnitudes ride on log_scale so nothing overflows.

Every region test is the one rule RegionTag.of(sol, alpha, rho0): inside
Omega(alpha, rho0) iff |theta_z| < alpha and rho_z > rho0; the tag's alpha
reads |theta_z|.  solve tests alpha0 - 0.02 and classify the caller's
alpha, both with rho0 = f.default_rho0(); the K form and the local saddle
chord test alpha0 - 0.1 with that rho0 and raise RegionError outside; E
tests pi/2 + 0.05 with rho0 = 0, no radius, and its transition band is
|theta_z - pi/2| < 0.05.  The chord's half-length is rho_z^{1 - 0.125}.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import List

import numpy as np

from .catalog import _K_DELTA, AdmissibleFunction
from .errors import QuadratureError, RegionError
from .saddle import RegionTag, SaddleSolution, solve
from .surface import LogSurfacePoint, Tolerances
from .transforms import _path_integral

_SCALE_LIMIT = 300.0
_E_DELTA = 0.05       # E's growth region pi/2 + _E_DELTA and transition band


@dataclass(frozen=True)
class AsymptoticValue:
    """value * exp(log_scale) is the asserted quantity."""

    value: complex
    log_scale: float
    region: RegionTag
    warnings: List[str] = field(default_factory=list)


def _split_scale(logval: complex, region: RegionTag, warnings) -> AsymptoticValue:
    re, im = logval.real, logval.imag
    if abs(re) <= _SCALE_LIMIT:
        return AsymptoticValue(cmath.exp(logval), 0.0, region, list(warnings))
    return AsymptoticValue(cmath.exp(1j * im), re, region, list(warnings))


def _saddle_terms(f: AdmissibleFunction, sol: SaddleSolution):
    """(log sqrt(s_z / eps), s_z eps) at eps = eps(s_z), evaluated once.
    The root's branch is carried from the ray: the argument of s_z is the
    solver's theta_z, the argument of eps stays principal (eps hugs the
    positive axis throughout the sector)."""
    eps = complex(f.epsilon(np.complex128(sol.s_z)))
    arg_q = sol.theta_z - cmath.phase(eps)
    log_abs_q = math.log(abs(sol.s_z)) - math.log(abs(eps))
    return 0.5 * complex(log_abs_q, arg_q), sol.s_z * eps


def K_asymptotic(f: AdmissibleFunction, z: LogSurfacePoint) -> AsymptoticValue:
    """Leading decay form sqrt(s/(2 pi eps)) exp(-s eps) at s = s_z.

    Valid inside Omega(alpha0 - 0.1, f.default_rho0()), whose tag the value
    carries; raises RegionError elsewhere.
    """
    sol, tag = solve(f, z)
    alpha = f.alpha0 - _K_DELTA
    region = RegionTag.of(sol, alpha, tag.rho0_used)
    if not region.inside:
        raise RegionError(
            f"decay asymptotics not applicable at {z}: saddle "
            f"{'missing' if sol is None else f'at theta={sol.theta_z:.4g}, rho={sol.rho_z:.4g}'}"
            f" is outside Omega({alpha:.4g}, {tag.rho0_used:.4g})")
    log_sqrt, s_eps = _saddle_terms(f, sol)
    logval = log_sqrt - 0.5 * math.log(2.0 * math.pi) - s_eps
    return _split_scale(logval, region, [])


def E_asymptotic(f: AdmissibleFunction, z: LogSurfacePoint) -> AsymptoticValue:
    """Asserted value of z E(z) + 1/gamma(0).

    Inside Omega(pi/2 + 0.05, 0), where no radius is tested (the tag's
    rho0_used is 0): the saddle growth form; outside: 0 (the sum is o(1)
    there).  In the transition annulus, |theta_z| within 0.05
    of pi/2, both candidate terms are reported through warnings.  The
    additive o(1) term is always reported as a warning band, not folded
    into the value.
    """
    warnings = []
    eps_bar = f.epsilon_limsup_estimate()
    if eps_bar >= 2.0:
        warnings.append(
            f"eps limsup estimate {eps_bar:.3g} >= 2: growth-side asymptotics "
            "may need the generalized form; treat the value as indicative")
    band = max(1.0, abs(f.one_over_gamma0))
    warnings.append(f"additive o(1) band of width {band:.3g} not folded in")

    sol, _ = solve(f, z)
    half_pi = 0.5 * math.pi
    region = RegionTag.of(sol, half_pi + _E_DELTA, 0.0)
    if not region.inside:
        return AsymptoticValue(0.0, 0.0, region, warnings)
    log_sqrt, s_eps = _saddle_terms(f, sol)
    logval = log_sqrt + 0.5 * math.log(2.0 * math.pi) + s_eps
    if region.alpha >= half_pi - _E_DELTA:
        warnings.append(
            "transition annulus (|theta_z| within 0.05 of pi/2): the saddle "
            f"term exp({logval.real:.4g}) and the o(1) band may be comparable; "
            "both are reported, neither dominates provably")
    return _split_scale(logval, region, warnings)


def local_gaussian_reference(f: AdmissibleFunction,
                             sol: SaddleSolution) -> AsymptoticValue:
    """i sqrt(2 pi s/eps) exp(-s eps) at s_z: the model value the local
    saddle integral converges to; tagged against the sector, Omega(alpha0, 0)."""
    log_sqrt, s_eps = _saddle_terms(f, sol)
    logval = log_sqrt + 0.5 * math.log(2.0 * math.pi) + 0.5j * math.pi - s_eps
    return _split_scale(logval, RegionTag.of(sol, f.alpha0, 0.0), [])


def local_gaussian_saddle(f: AdmissibleFunction, z: LogSurfacePoint) -> complex:
    """Integral of e^{G(z, s)} over the steepest-descent chord through the
    saddle: s = s_z + i t e^{i theta_z / 2}, |t| <= rho_z^{1 - 0.125}.

    One transforms._path_integral with finite ends, seeded from the saddle
    at the Gaussian width 1/sqrt|Phi'(s_z)|; compare against
    local_gaussian_reference.  RegionError outside Omega(alpha0 - 0.1,
    f.default_rho0()), as for the K form.
    """
    sol, tag = solve(f, z)
    if not RegionTag.of(sol, f.alpha0 - _K_DELTA, tag.rho0_used).inside:
        raise RegionError(f"local saddle integral needs an interior saddle at {z}")
    half_len = sol.rho_z ** (1.0 - 0.125)
    direction = 1j * cmath.exp(0.5j * sol.theta_z)

    def g(t):
        s = sol.s_z + t * direction
        return (f.log_gamma(s) - s * z.log_z)[:, None]

    width = 1.0 / math.sqrt(abs(complex(f.d2log_gamma(np.complex128(sol.s_z)))))
    res = _path_integral(g, Tolerances(), -half_len, 0.0,
                         half_len, width, f"local saddle chord at {z}")
    if abs(res.log_scale) > 600.0:
        raise QuadratureError(
            f"local saddle integral magnitude e^{res.log_scale:.3g} leaves the "
            "double range; compare scaled quantities instead")
    return res.value * math.exp(res.log_scale) * direction


def duality_product(f: AdmissibleFunction, z: LogSurfacePoint) -> complex:
    """Formula-level product of the two asymptotic forms; the exponential
    factors cancel exactly, leaving (L/L')(s_z) = s_z / eps(s_z)."""
    k = K_asymptotic(f, z)
    e = E_asymptotic(f, z)
    if e.region.kind != "inside":
        raise RegionError("duality product needs the growth form's saddle")
    return k.value * e.value * cmath.exp(k.log_scale + e.log_scale)
