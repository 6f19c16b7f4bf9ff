"""Construction and evaluation of admissible moment weights gamma.

A weight is carried as the jet of log gamma (value, first and second
derivative), so the saddle machinery gets Phi = (log gamma)' and
Phi' = (log gamma)'' from exact chain-rule composition.  Derived scales:

    log L(s)   = log gamma(s) / s
    eps(s)     = Phi(s) - log L(s)        (= s L'/L)
    eps'(s)    = Phi'(s) - eps(s)/s

The jet takes an order: `AdmissibleFunction.jet(s, order)` calls the
builder's `jet_fn(s, order)`, which computes the fields up to that order
and leaves the rest None.  Each entry point asks for the least order it
reads: `log_gamma` for 0 (Gamma(s) then costs one loggamma, a kernel
weight one Cauchy sum), `dlog_gamma`, `epsilon` and `epsilon_sup` for 1,
`d2log_gamma`, `epsilon_prime` and `phi_log` for 2 (`phi_log(w, 1)` for
1, where the saddle solver's ray bracket reads Phi alone).  A field is
bit-identical at every order that carries it.

A jet takes s as an ndarray or as one number, with the same `jet_fn`:
one number (a Python complex, numpy's complex128 included) travels as a
Python complex, so the fields come back as Python or numpy complex
scalars, never as 0-d arrays.  The saddle layer passes one point at a
time this way, and pays Python operations instead of numpy calls; the
kernel weights sum their Cauchy kernels on arrays either way.

Builders cover: shifted factorial weights Gamma(s+c), exponential
rescaling, shift-normalization, iterated-log weights exp(a*s*log_k^b(s+c)),
powers/products/quotients, the (log L(s+1))^s closure, slowly-varying
integral constructors, and Stieltjes-positive integral representations.
"""
from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Callable, Optional

import numpy as np

from .errors import BuildError, NoSaddleError, SpecError
from .jet import Jet2, as_points
from .special import digamma, loggamma, trigamma

_EULER_GAMMA = 0.5772156649015328606
_K_DELTA = 0.1   # K's form, the saddle chord and the (C) fans: alpha0 - 0.1

# Phi comes from the jet while Re w = log|s| stays below this.  Past
# |s| ~ 1e154 the jets' s^2 overflows and d2 drops a term, so Newton on
# (Phi, dPhi/dw) would converge only linearly; the cut keeps a margin.
_JET_LOG_RADIUS = 300.0

# Gauss-Legendre rules, 0.4 ms each: made on first use (it starts up LAPACK)
_gauss_rule = cache(np.polynomial.legendre.leggauss)
# theorem3's Cauchy-kernel contours leave the real axis along e^{+-i pi/4}
_RAY = cmath.exp(0.25j * math.pi)
# on grids that cover |s| up to 1e8, 1e9, ... (products of 10), 1e154;
# past that the jets' s^2 overflows (inf marks it, and NaN sorts after)
_COVERS = np.append(np.cumprod([1e8] + [10.0] * 145), [1e154, math.inf])

# iterated-log zero ladder: log_k(x) = 0 at x = _logk_unit(k)
# (1, e, e^e, ...); used to place the domain edge of iterated-log weights.
def _logk_unit(k: int) -> float:
    x = 1.0
    for _ in range(k - 1):
        x = math.exp(x)
    return x


def _iterated_log_jet(j: Jet2, k: int) -> Jet2:
    for _ in range(k):
        j = j.log()
    return j


class AdmissibleFunction:
    """Evaluatable weight bundle: log gamma jet plus domain metadata.

    Immutable after construction (caches fill lazily but deterministically,
    the saddle layer's memo of ray roots and continuations among them),
    so instances can be shared freely across threads.
    """

    def __init__(self, label: str, jet_fn: Callable[..., Jet2],
                 c_gamma: float, alpha0: float, *,
                 positive_type: bool = False, degenerate: bool = False,
                 phi_log_fn: Optional[Callable] = None):
        if not (math.pi / 2 < alpha0 <= math.pi + 1e-12):
            raise BuildError(f"alpha0 must lie in (pi/2, pi], got {alpha0}")
        if c_gamma < 0:
            raise BuildError(f"c_gamma must be >= 0, got {c_gamma}")
        self.label = label
        self.c_gamma = float(c_gamma)
        self.alpha0 = float(alpha0)
        self.positive_type = bool(positive_type)
        self.degenerate = bool(degenerate)
        self._jet_fn = jet_fn
        self._phi_log_fn = phi_log_fn
        self._saddle_memo = {}      # saddle._memoized: call -> result

    # -- evaluation ---------------------------------------------------------

    def jet(self, s, order: int = 2) -> Jet2:
        """The jet of log gamma at s, with the fields up to order (0, 1, 2):
        complex scalars for one number s, complex ndarrays otherwise."""
        return self._jet_fn(as_points(s), order)

    def log_gamma(self, s):
        return self.jet(s, 0).val

    def dlog_gamma(self, s):
        return self.jet(s, 1).d1

    def d2log_gamma(self, s):
        return self.jet(s, 2).d2

    def epsilon(self, s):
        s = as_points(s)
        j = self.jet(s, 1)
        return j.d1 - j.val / s

    def epsilon_prime(self, s):
        return self._epsilons(s)[1]

    def _epsilons(self, s):
        """(eps, eps') from one order-2 jet, eps bit-identical to epsilon(s)."""
        s = as_points(s)
        j = self.jet(s, 2)
        eps = j.d1 - j.val / s
        return eps, j.d2 - eps / s

    # -- Phi in w = log s, for the saddle solver ------------------------------

    @property
    def has_log_domain(self) -> bool:
        """True when the family gives Phi past |s| = e^300 as well."""
        return self._phi_log_fn is not None

    def phi_log(self, w, order: int = 2):
        """(Phi(e^w), dPhi/dw) at the points w = log s.

        Taken from the jet while Re w < 300 and from the family's
        asymptotic form past that; a weight without one raises
        NoSaddleError there.  order=1 asks for Phi alone: the jet is then
        taken at order 1 and gives None for dPhi/dw (the asymptotic forms
        give both at no cost).  One number w gives complex scalars.
        """
        w = as_points(w)
        one = isinstance(w, complex)
        far = w.real >= _JET_LOG_RADIUS
        if not (far if one else np.any(far)):
            s = cmath.exp(w) if one else np.exp(w)
            j = self.jet(s, order)
            return j.d1, s * j.d2 if order >= 2 else None
        if self._phi_log_fn is None:
            raise NoSaddleError(f"{self.label}: Phi is known only from the jet, "
                                f"up to |s| = e^{_JET_LOG_RADIUS:g}")
        if one or np.all(far):
            return self._phi_log_fn(w)
        phi = np.empty_like(w)
        dphi = np.empty_like(w)
        phi[~far], dphi[~far] = self.phi_log(w[~far])
        phi[far], dphi[far] = self._phi_log_fn(w[far])
        return phi, dphi

    # -- cached metadata ------------------------------------------------------

    @cached_property
    def one_over_gamma0(self) -> float:
        """1/gamma(0+), with 0 for weights blowing up at the origin."""
        lg6 = complex(self.log_gamma(1e-6 + 0j))
        lg8 = complex(self.log_gamma(1e-8 + 0j))
        if lg8.real - lg6.real > 2.0:
            return 0.0
        return float(np.exp(-lg6).real)

    @cached_property
    def _eps_probe(self):
        # eps on 61 log-spaced radii in [1, 1e6]; [40:] spans [1e4, 1e6].
        # The even ones are _rho0's 31 radii, bit for bit: read from there
        rho = np.geomspace(1.0, 1e6, 61)
        eps = np.empty(rho.size)
        eps[::2] = self._rho0_probe[1].real
        eps[1::2] = self.epsilon(rho[1::2] + 0j).real
        return eps

    def epsilon_sup(self) -> float:
        """sup of eps over a log grid on [1, 1e6]; proxy for limsup estimates."""
        return float(np.max(self._eps_probe))

    def epsilon_limsup_estimate(self) -> float:
        return float(np.max(self._eps_probe[40:]))

    def default_rho0(self) -> float:
        """Smallest probe radius past which the slow-variation ratios
        (B) rho|eps'|/eps and (C) angular spread stay below 0.2.

        The (C) fan here covers |theta| <= min(pi/2, alpha0 - 0.1): the
        radius gates the growth/decay region split, which happens at
        angles near pi/2; the full-sector fan belongs to the audit.
        """
        return self._rho0

    @cached_property
    def _rho0_probe(self):
        """default_rho0's 31 radii in [1, 1e6], with eps and eps' there."""
        rho = np.geomspace(1.0, 1e6, 31)
        return (rho, *self._epsilons(rho + 0j))

    @cached_property
    def _rho0(self) -> float:
        rho, eps, epsp = self._rho0_probe
        with np.errstate(divide="ignore", invalid="ignore"):  # eps = 0: not ok
            b = np.abs(rho * epsp.real / eps.real)
        fan = min(0.5 * math.pi, self.alpha0 - _K_DELTA)
        c = _angular_spread(self, rho, eps, np.linspace(-fan, fan, 5))
        ok = (b < 0.2) & (c < 0.2)
        # first index from which every later grid point stays ok
        bad = np.nonzero(~ok)[0]
        idx = bad[-1] + 1 if bad.size else 0
        if idx >= len(rho):
            return float(rho[-1])
        if idx == 0:
            return float(rho[0])
        # strictly below the first certified point, so that point itself
        # already counts as interior
        return float(math.sqrt(rho[idx - 1] * rho[idx]))

    def __repr__(self):
        return (f"AdmissibleFunction({self.label!r}, c_gamma={self.c_gamma:.4g}, "
                f"alpha0={self.alpha0:.4g})")


def _angular_spread(f: AdmissibleFunction, rho, eps, thetas):
    """Condition (C) at the radii rho, where eps = eps(rho): the largest
    |eps(rho e^{i theta})/eps(rho) - 1| over the angles thetas but 0 (whose
    ratio is 0, or NaN where eps(rho) = 0 and (B) fails already), in one
    call; a NaN ratio makes the spread NaN."""
    z = np.exp(1j * thetas[thetas != 0.0])
    with np.errstate(divide="ignore", invalid="ignore"):  # eps = 0: NaN
        ratio = f.epsilon(np.multiply.outer(rho, z)) / np.expand_dims(eps, -1)
        return np.max(np.abs(ratio - 1.0), axis=-1)


# ---------------------------------------------------------------------------
# Primitive builders
# ---------------------------------------------------------------------------

def gamma_shift(c: float = 0.0) -> AdmissibleFunction:
    """gamma(s) = Gamma(s + c); c = 0 gives the factorial prototype."""
    if c < 0:
        raise BuildError(f"gamma_shift needs c >= 0, got {c}")

    def jet_fn(s, order):
        w = s + c
        return Jet2(loggamma(w), digamma(w) if order >= 1 else None,
                    trigamma(w) if order >= 2 else None)

    def phi_log_fn(w):
        # digamma(s) ~ log s once |s| is huge; ds/dw * psi'(s) = s psi'(s) -> 1
        # (+w copies an array; 0 * w + 1 is 1 in w's form, w finite)
        return +w, 0.0 * w + 1.0

    return AdmissibleFunction(f"gamma(s+{c:g})" if c else "gamma(s)",
                              jet_fn, c, math.pi, phi_log_fn=phi_log_fn)


def iterated_log(a: float = 1.0, b: float = 1.0, k: int = 1,
                 c: float = math.e) -> AdmissibleFunction:
    """Weight with scale L(s) = log_k(s+c)^b, i.e.

        gamma(s) = L(s)^{a s} = exp(a*b*s*log_{k+1}(s+c)),

    log_k the k-th iterated log.  Needs a, b > 0 and c large enough that
    log_k(c) >= 1, which keeps log L >= 0 on the whole ray.
    """
    if a <= 0 or b <= 0 or k < 1:
        raise BuildError(f"iterated_log needs a, b > 0 and k >= 1 (a={a}, b={b}, k={k})")
    ladder = c
    for _ in range(k):
        if ladder <= 0:
            raise BuildError(f"iterated_log: log_{k}({c:g}) undefined, c too small")
        ladder = math.log(ladder)
    if ladder < 1.0 - 1e-9:
        raise BuildError(
            f"iterated_log: need log_{k}(c) >= 1 so the scale stays >= 1; "
            f"got log_{k}({c:g}) = {ladder:.6g}")
    ab = a * b

    def jet_fn(s, order):
        v = Jet2.variable(s, order)
        m = _iterated_log_jet(v + c, k + 1)       # log_{k+1}(s+c)
        return v * m * ab

    def phi_log_fn(w):
        # Phi(s) = a b (M + s M') with M = log_{k+1}(s), s + c taken as s
        # (relative error e^{-Re w}); s M' = dM/dw, so work in the jet in w
        mk = _iterated_log_jet(Jet2.variable(w), k)
        return (mk.val + mk.d1) * ab, (mk.d1 + mk.d2) * ab

    c_gamma = c - _logk_unit(k)
    return AdmissibleFunction(f"(log_{k}(s+{c:g})^{b:g})^({a:g}s)", jet_fn,
                              max(c_gamma, 0.0), math.pi, phi_log_fn=phi_log_fn)


def exp_scale(child: AdmissibleFunction, tau: float) -> AdmissibleFunction:
    """gamma(s) * e^{tau s}."""

    def jet_fn(s, order):
        j = child.jet(s, order)
        return Jet2(j.val + tau * s, j.d1 + tau if order >= 1 else None, j.d2)

    return AdmissibleFunction(f"{child.label}*exp({tau:g}s)", jet_fn,
                              child.c_gamma, child.alpha0)


def shift_normalize(child: AdmissibleFunction, c: float) -> AdmissibleFunction:
    """gamma(s + c) / gamma(c), c > 0."""
    if c <= 0:
        raise BuildError(f"shift_normalize needs c > 0, got {c}")
    lg_c = complex(child.log_gamma(complex(c)))

    def jet_fn(s, order):
        return child.jet(s + c, order) - lg_c

    return AdmissibleFunction(f"{child.label}(s+{c:g})/..({c:g})",
                              jet_fn, child.c_gamma + c, child.alpha0,
                              phi_log_fn=child._phi_log_fn)  # s + c ~ s at |s| > e^300


def _scaled(x, a):
    # a * x; numpy takes a complex array times a real a as times a + 0j,
    # which turns -0.0 into 0.0 and inf into nan, so a = +-1 is exact here
    return x if a == 1.0 else -x if a == -1.0 else x * a


def _combine(label: str, terms) -> AdmissibleFunction:
    """The weight prod gamma_i^{a_i} of terms [(a_i, gamma_i), ...]: its jet,
    and its far-form Phi when every child has one, are sum a_i * the
    child's; c_gamma and alpha0 are the least of the children's."""

    def jet_fn(s, order):
        total = None
        for a, child in terms:
            j = _scaled(child.jet(s, order), a)
            total = j if total is None else total + j
        return total

    phi_log_fn = None
    if all(child.has_log_domain for _, child in terms):
        def phi_log_fn(w):
            phi = dphi = None
            for a, child in terms:
                p, dp = (_scaled(x, a) for x in child.phi_log(w))
                phi, dphi = (p, dp) if phi is None else (phi + p, dphi + dp)
            return phi, dphi
    return AdmissibleFunction(label, jet_fn,
                              min(child.c_gamma for _, child in terms),
                              min(child.alpha0 for _, child in terms),
                              phi_log_fn=phi_log_fn)


def power(child: AdmissibleFunction, a: float) -> AdmissibleFunction:
    """gamma(s)^a, a > 0."""
    if a <= 0:
        raise BuildError(f"power needs a > 0, got {a}")
    return _combine(f"({child.label})^{a:g}", [(a, child)])


def product(c1: AdmissibleFunction, c2: AdmissibleFunction) -> AdmissibleFunction:
    return _combine(f"({c1.label})*({c2.label})", [(1.0, c1), (1.0, c2)])


def quotient(c1: AdmissibleFunction, c2: AdmissibleFunction) -> AdmissibleFunction:
    """gamma1 / gamma2; requires gamma1 >= gamma2 on (0, inf) and the ratio
    rho -> (gamma1/gamma2)^{1/rho} non-decreasing and unbounded.

    Both hypotheses are audited on a log-spaced probe grid, not proven.
    """
    rho = np.geomspace(1.0, 1e6, 121)
    d = np.real(c1.log_gamma(rho + 0j) - c2.log_gamma(rho + 0j))
    if np.any(d < -1e-10):
        bad = rho[np.argmin(d)]
        raise BuildError(f"quotient: gamma1 < gamma2 near rho = {bad:.6g}")
    ratio_scale = d / rho          # log of (gamma1/gamma2)^{1/rho}
    inc = np.diff(ratio_scale)
    if np.any(inc < -1e-12 * np.maximum(1.0, np.abs(ratio_scale[1:]))):
        bad = rho[1:][np.argmin(inc)]
        raise BuildError(
            f"quotient: (gamma1/gamma2)^(1/rho) decreased near rho = {bad:.6g}")
    if ratio_scale[-1] < ratio_scale[0] + 0.05:
        raise BuildError("quotient: (gamma1/gamma2)^(1/rho) shows no growth "
                         "on [1, 1e6]; unboundedness audit failed")
    return _combine(f"({c1.label})/({c2.label})", [(1.0, c1), (-1.0, c2)])


def log_of_scale(child: AdmissibleFunction) -> AdmissibleFunction:
    """From gamma = L(s)^s build (log L(s+1))^s.

    Needs log L(s+1) > 0 along the real domain; probed and rejected
    otherwise (weights with L near 1, like the bare factorial, fail).
    """
    c_new = child.c_gamma + 1.0
    probe = np.concatenate([
        np.linspace(-min(c_new, 0.999) + 1e-3, 1.0, 41), np.geomspace(1.0, 1e6, 41)])
    vals = np.real(child.log_gamma(probe + 1.0 + 0j)) / (probe + 1.0)   # log L(s+1)
    if np.any(vals <= 0):
        bad = probe[int(np.argmin(vals))]
        raise BuildError(
            f"log_of_scale: log L(s+1) <= 0 at s = {bad:.6g}; the scale of "
            f"{child.label} is too small near the origin for this closure")

    def jet_fn(s, order):
        logL = child.jet(s + 1.0, order) / Jet2.variable(s + 1.0, order)
        return Jet2.variable(s, order) * logL.log()

    return AdmissibleFunction(f"(log L_{{{child.label}}}(s+1))^s",
                              jet_fn, c_new, child.alpha0)


def monomial_exponent(p: float, coeff: float = 1.0) -> AdmissibleFunction:
    """gamma(s) = exp(coeff * s^p); p > 1 controls for audits/Carleman."""

    def jet_fn(s, order):
        # numpy's power, also for one point: past the double range it gives
        # inf where a Python complex power raises OverflowError
        s = np.asarray(s)
        return Jet2(coeff * s ** p,
                    coeff * p * s ** (p - 1.0) if order >= 1 else None,
                    coeff * p * (p - 1.0) * s ** (p - 2.0) if order >= 2 else None)

    return AdmissibleFunction(f"exp({coeff:g}*s^{p:g})", jet_fn, 1.0, math.pi)


# ---------------------------------------------------------------------------
# Slowly-varying integral constructor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlowlyVaryingEll:
    """An unboundedly increasing C^1 scale ell given through log ell and
    (log ell)'; c is the lower limit of the construction integral.

    dlog_ell takes complex u as well and must be analytic on the two rays
    u = c + t e^{+-i pi/4}, t >= 0, and between them and the real axis:
    build_theorem3 integrates along those rays.  The constructor probes
    both, at the real probe's radii, for finite values; build_theorem3
    refuses an ell whose two rays disagree on the real axis."""

    log_ell: Callable[[np.ndarray], np.ndarray]
    dlog_ell: Callable[[np.ndarray], np.ndarray]
    c: float
    label: str = "ell"

    def __post_init__(self):
        if self.c <= 0:
            raise BuildError(f"SlowlyVaryingEll needs c > 0, got {self.c}")
        u = np.geomspace(max(self.c, 1e-9), 1e8, 50)
        g = np.asarray(self.dlog_ell(u), dtype=float)
        if np.any(~np.isfinite(g)) or np.any(g <= 0):
            bad = u[int(np.argmin(g))]
            raise BuildError(
                f"{self.label}: (log ell)' must be finite and > 0; fails near "
                f"u = {bad:.6g} (constant or decreasing scales are rejected)")
        if np.max(u * g) > 1e3:
            raise BuildError(f"{self.label}: u * (log ell)'(u) looks unbounded "
                             f"(max {np.max(u * g):.3g} on probe grid)")
        rays = self.c + np.outer((_RAY, _RAY.conjugate()), u - self.c).ravel()
        finite = np.isfinite(np.asarray(self.dlog_ell(rays), dtype=complex))
        if not finite.all():
            bad = rays[int(np.argmin(finite))]
            raise BuildError(f"{self.label}: (log ell)' must be finite on the "
                             f"rays c + t e^(+-i pi/4); fails at u = {bad:.6g}")


def ell_power(a: float = 1.0, c: float = 1.0) -> SlowlyVaryingEll:
    """ell(rho) = (1 + rho)^a."""
    if a <= 0:
        raise BuildError(f"ell_power needs a > 0, got {a}")
    return SlowlyVaryingEll(
        log_ell=lambda u: a * np.log1p(u),
        dlog_ell=lambda u: a / (1.0 + u),
        c=c, label=f"(1+rho)^{a:g}")


def ell_exp_sqrt_log(c: float = 1.0) -> SlowlyVaryingEll:
    """ell(rho) = exp(sqrt(log(1 + rho)))."""
    return SlowlyVaryingEll(
        log_ell=lambda u: np.sqrt(np.log1p(u)),
        dlog_ell=lambda u: 0.5 / (np.sqrt(np.log1p(u)) * (1.0 + u)),
        c=c, label="exp(sqrt(log(1+rho)))")


_ELL_PRESETS = {
    "power": lambda p: ell_power(_param(p, "a", 1.0, float),
                                 _param(p, "c", 1.0, float)),
    "exp_sqrt_log": lambda p: ell_exp_sqrt_log(_param(p, "c", 1.0, float)),
}


def _cauchy_jet(s, q, i, order, ab=None):
    """Jet of log gamma = (A + B s +) q^2 I1 at s, from the Cauchy sums
    i = [I1, .., I_{order+1}] of the kernel 1/(s+u), an (s.size, order+1)
    array; ab = (A, B) is added only when given, so q^2 I1 alone rounds
    as written.  One number s gets Python complex fields."""
    i = i[0].tolist() if isinstance(s, complex) else [x.reshape(s.shape) for x in i.T]
    val = q * q * i[0]
    if ab is not None:
        val = ab[0] + ab[1] * s + val
    if order < 1:
        return Jet2(val)
    d1 = 2.0 * q * i[0] if ab is None else ab[1] + 2.0 * q * i[0]
    # 2 (q^2 I3), not (2 q) q I3: the same bits, and no overflow at |s| = 1e154
    return Jet2(val, d1 - q * q * i[1],
                2.0 * i[0] - 4.0 * q * i[1] + 2.0 * (q * q * i[2])
                if order >= 2 else None)


def _gauss_panels(edges):
    """Nodes and weights of 15-point Gauss-Legendre on each panel
    [edges[i], edges[i+1]], flattened panel by panel."""
    x, w = _gauss_rule(15)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    return ((mid[:, None] + half[:, None] * x[None, :]).ravel(),
            (half[:, None] * w[None, :]).ravel())


def _theorem3_rays(ell, cover):
    """build_theorem3's kernel nodes u and weights w on the rays above and
    below the real axis, complex (2, nodes) arrays, and the radii of their
    panels, for the cover _COVERS[cover]."""
    v_max = math.log(_COVERS[cover] / ell.c) + 45.0
    edges = np.linspace(0.0, v_max, max(8, int(math.ceil(v_max / 0.5))) + 1)
    v, wv = _gauss_panels(edges)
    ray = ell.c * np.array([[_RAY], [_RAY.conjugate()]])
    u = ell.c + np.expm1(v) * ray
    g = np.asarray(ell.dlog_ell(u), dtype=complex)
    return (u, wv * g * np.exp(v) * ray,            # du = e^v ray dv
            abs(ell.c + np.expm1(edges) * ray[0]))


def build_theorem3(ell: SlowlyVaryingEll) -> AdmissibleFunction:
    """Weight with prescribed scale: log gamma(s) = s^2 int_c^inf
    (log ell)'(u) / (s+u) du, derivatives taken under the integral.

    The integrals int f(u) (u+s)^{-m} du, m = 1..3, are sums over fixed
    grids on the ray u = c + c (e^v - 1) e^{i phi}, phi = pi/4 where the
    sign bit of Im s is clear (and at s = 0) and -pi/4 where it is set,
    with (log ell)'(u) du/dv folded into the weights.  The ray turns away
    from the pole u = -s, so by Cauchy's theorem it gives the real-axis
    integral where (log ell)' is analytic between the two (SlowlyVaryingEll;
    Gil, Segura and Temme, Numerical Methods for Special Functions, 2007,
    ch. 5), and the sums keep full precision up to the sector edge, where
    the pole nears the real axis.  The side changes at theta = +-pi: the
    jet does not continue log gamma across the negative axis.

    Each point takes the grid of its own side and cover: the least power
    of ten, 1e8 at the smallest, at or above its |s|.  In v a grid runs
    45 past log(s_cover/c), on 15-point Gauss panels 0.5 long, whose radii
    grow by e^0.5: a point sums 7 panels directly and the rest through
    Taylor tables (cauchy._split_grid).  Both sides of a cover are one
    split grid, built on first use, so no value depends on earlier calls
    or on the other points of a call.  A NaN point gets NaN fields; one
    past |s| = 1e154, where s^2 overflows, raises SpecError.
    """
    from . import cauchy    # loaded by the kernel weights alone
    # the two rays' sums at s = c agree, to rounding, exactly when
    # (log ell)' is analytic between them
    u, w, radii = _theorem3_rays(ell, 0)
    up, down = (w * np.reciprocal(ell.c + u)).sum(axis=1)
    if not abs(up - down) <= 1e-12 * abs(up):
        raise BuildError(
            f"{ell.label}: (log ell)' is not analytic between the rays "
            f"c + t e^(+-i pi/4): their Cauchy sums at s = {ell.c:g} differ "
            f"by {abs(up - down):.3g}")
    grids = {0: cauchy._split_grid(u, w, radii)}    # cover -> both rays' grid

    def sums(s, a, cover, count):
        if cover >= _COVERS.size - 1:       # past the last cover, or NaN
            if cover == _COVERS.size:
                return np.full((s.size, count), complex(math.nan, math.nan))
            raise SpecError(f"{ell.label}: theorem3's jet needs |s| <= "
                            f"{_COVERS[-2]:g}, got |s| = {np.max(a):.6g}")
        if cover not in grids:
            grids[cover] = cauchy._split_grid(*_theorem3_rays(ell, cover))
        return cauchy._cauchy_sums(s, np.copysign(a, s.imag), grids[cover],
                                   count)

    def jet_fn(s, order):
        flat = np.ravel(s)
        a = abs(flat)
        cover = _COVERS.searchsorted(a)
        if cover.size > 1 and cover.min() < cover.max():
            i = np.empty((flat.size, order + 1), complex)
            for c in np.unique(cover).tolist():
                part = cover == c
                i[part] = sums(flat[part], a[part], c, order + 1)
        else:
            i = sums(flat, a, int(cover[0]) if cover.size else 0, order + 1)
        return _cauchy_jet(s, s, i, order)

    return AdmissibleFunction(f"scale[{ell.label}, c={ell.c:g}]", jet_fn,
                              ell.c, math.pi)


# ---------------------------------------------------------------------------
# Positive-type representations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PositiveTypeSpec:
    """log gamma(s) = A + B s + (s-a)^2 int_0^inf m(u) du / (u+s).

    measure_density m must be >= 0 with int m(u)/(u+1) du finite.  The
    numerical measure is truncated at support_cut; for densities with a
    slowly decaying tail the completions tail_kappa1/u + tail_kappa2/u^2
    and a sawtooth term tail_sawtooth*(frac(u)-1/2)/u^2 are integrated in
    closed form past the cut (support_cut should be an integer when the
    sawtooth term is used).  breakpoints lists known kinks/jumps of m.
    """

    A: float
    B: float
    a: float
    measure_density: Callable[[np.ndarray], np.ndarray]
    support_cut: float
    tail_kappa1: float = 0.0
    tail_kappa2: float = 0.0
    tail_sawtooth: float = 0.0
    breakpoints: tuple = ()
    label: str = "positive-type"

    def __post_init__(self):
        if self.support_cut <= 0:
            raise BuildError("support_cut must be positive")


def _positive_type_edges(spec: PositiveTypeSpec):
    cut = spec.support_cut
    pts = {0.0, cut}
    pts.update(b for b in spec.breakpoints if 0.0 < b < cut)
    if spec.tail_sawtooth != 0.0:
        pts.update(float(k) for k in range(1, int(min(cut, 1e6)) + 1))
    else:
        # resolve the u ~ |s| transition with geometric panels
        lo = min((b for b in spec.breakpoints if b > 0), default=1.0)
        pts.update(np.linspace(0.0, min(lo, cut), 5))
        g = min(lo, 1.0)
        while g < cut:
            pts.add(g)
            g *= 1.35
    return np.array(sorted(pts))


def _tail_closed_forms(s, cut, k1, k2, saw, count):
    """Closed-form tails [T1, .., T_count] of I1, I2, I3 for
    m ~ k1/u + k2/u^2 + saw*(frac-1/2)/u^2."""
    # in powers of t = 1/s, which underflow where powers of s overflow
    lc = np.log1p(s / cut)
    d = 1.0 / (s + cut)
    t = 1.0 / s
    g = lc * t
    h = t / cut - lc * t ** 2
    tails = [k1 * g + k2 * h]
    if count >= 2:
        gp = d * t - lc * t ** 2
        hp = -t ** 2 / cut - d * t ** 2 + 2.0 * lc * t ** 3
        tails.append(-(k1 * gp + k2 * hp))
    if count >= 3:
        gpp = -d * d * t - 2.0 * d * t ** 2 + 2.0 * lc * t ** 3
        hpp = 2.0 * t ** 3 / cut + d * d * t ** 2 + 4.0 * d * t ** 3 - 6.0 * lc * t ** 4
        tails.append(0.5 * (k1 * gpp + k2 * hpp))
    if saw != 0.0:
        # Euler-Maclaurin leading term -(1/12) u^{-2} (u+s)^{-m} at u = cut,
        # one copy per kernel power m
        phi = cut ** -2.0 * d
        for m in range(count):
            tails[m] = tails[m] - saw / 12.0 * phi
            phi = phi * d
    return tails


def build_positive_type(spec: PositiveTypeSpec) -> AdmissibleFunction:
    from . import cauchy
    edges = _positive_type_edges(spec)
    u, w = _gauss_panels(edges)
    m = np.asarray(spec.measure_density(u), dtype=float)
    if np.any(m < -1e-12):
        bad = u[int(np.argmin(m))]
        raise BuildError(f"{spec.label}: measure density negative near u = {bad:.6g}")
    m = np.maximum(m, 0.0)
    wts = w * m
    mass_check = float(np.sum(wts / (u + 1.0)))
    if not math.isfinite(mass_check):
        raise BuildError(f"{spec.label}: int m/(u+1) du is not finite")
    degenerate = mass_check < 1e-14 and spec.tail_kappa1 == spec.tail_kappa2 == 0.0

    cut, k1, k2, saw = spec.support_cut, spec.tail_kappa1, spec.tail_kappa2, spec.tail_sawtooth
    a0, A, B = spec.a, spec.A, spec.B
    grid = cauchy._split_grid(u[None] + 0j, wts[None] + 0j, edges)

    def jet_fn(s, order):
        flat = np.ravel(s)
        i = cauchy._cauchy_sums(flat, abs(flat), grid, order + 1)
        if k1 != 0.0 or k2 != 0.0 or saw != 0.0:
            i += np.stack(_tail_closed_forms(flat, cut, k1, k2, saw, order + 1), -1)
        return _cauchy_jet(s, s - a0, i, order, (A, B))

    pos = np.nonzero(m > 0)[0]      # c_gamma: the least node the measure charges
    c_gamma = float(u[pos[0]]) if pos.size else 0.0
    return AdmissibleFunction(spec.label, jet_fn, c_gamma, math.pi,
                              positive_type=True, degenerate=degenerate)


def positive_type_factorial(cut: int = 400) -> PositiveTypeSpec:
    """Classical integral representation with density floor(u)/u^2.

    Reproduces the shifted factorial weight Gamma(s+1) = exp(-euler_gamma*s
    + s^2 int floor(u)/u^2/(u+s) du); floor(u)/u^2 = 1/u - 1/(2u^2)
    - (frac(u)-1/2)/u^2 fixes the tail completions.
    """

    def density(u):
        return np.floor(u) / np.maximum(u, 1e-300) ** 2

    return PositiveTypeSpec(A=0.0, B=-_EULER_GAMMA, a=0.0,
                            measure_density=density, support_cut=float(cut),
                            tail_kappa1=1.0, tail_kappa2=-0.5,
                            tail_sawtooth=-1.0, label="factorial(+1) via measure")


def positive_type_iterated_log(beta: float = 1.0, k: int = 1, c: float = 10.0,
                               cut: float = 1e5) -> PositiveTypeSpec:
    """Jump representation of exp(beta * s * log_{k+1}(s + c)).

    The density is beta * lambda(u)/u with lambda the boundary jump of
    log_{k+1} across the negative ray; positive for c large enough that
    log_{k+1}(c) > 0.
    """
    ladder = c
    for _ in range(k + 1):
        if ladder <= 0:
            raise BuildError(f"positive_type_iterated_log: log_{k+1}({c:g}) undefined")
        ladder = math.log(ladder)
    if ladder <= 0:
        raise BuildError(f"positive_type_iterated_log: need log_{k+1}(c) > 0, "
                         f"got {ladder:.4g}")

    def density(u):
        # lambda(u) = Im log_{k+1}(c - u + i0) / pi; real (hence zero) while
        # log_k(c - u) stays positive, i.e. for u <= c - unit_k.
        w = np.asarray(c - u, dtype=complex)
        out = w + 0j
        for _ in range(k + 1):
            out = np.log(out)
        lam = np.imag(out) / math.pi
        lam = np.where(u <= c - _logk_unit(k), 0.0, lam)
        return beta * np.maximum(lam, 0.0) / np.maximum(u, 1e-300)

    # estimated 1/u tail coefficient at the cut
    kappa1 = float(density(np.array([cut]))[0] * cut)
    bks = [c - _logk_unit(j) for j in range(1, k + 1)] + [c]
    return PositiveTypeSpec(A=0.0, B=beta * ladder, a=0.0,
                            measure_density=density, support_cut=cut,
                            tail_kappa1=kappa1,
                            breakpoints=tuple(b for b in bks if b > 0),
                            label=f"jump rep of exp({beta:g}s*log_{k+1}(s+{c:g}))")


def positive_type_degenerate(tau: float) -> PositiveTypeSpec:
    """Zero measure, gamma(s) = e^{tau s}: a pure scale atom."""
    return PositiveTypeSpec(A=0.0, B=tau, a=0.0,
                            measure_density=lambda u: np.zeros_like(u),
                            support_cut=1.0, label=f"degenerate exp({tau:g}s)")


_POSITIVE_PRESETS = {
    "factorial": lambda p: positive_type_factorial(_param(p, "cut", 400, int)),
    "iterated_log_jump": lambda p: positive_type_iterated_log(
        _param(p, "beta", 1.0, float), _param(p, "k", 1, int),
        _param(p, "c", 10.0, float), _param(p, "cut", 1e5, float)),
    "degenerate": lambda p: positive_type_degenerate(_param(p, "tau", 0.0, float)),
}


# ---------------------------------------------------------------------------
# FunctionSpec: serializable description of a weight
# ---------------------------------------------------------------------------

def _number(conv, raw, what):
    """conv(raw), or SpecError naming what unless that is a finite number;
    int takes a string or an integral number, and truncates nothing."""
    try:
        x = conv(raw)
        if math.isfinite(x) and (conv is not int or isinstance(raw, str)
                                 or x == raw):
            return x
    except (TypeError, ValueError, OverflowError):
        pass
    kind = "an integer" if conv is int else "a finite number"
    raise SpecError(f"{what} must be {kind}, got {raw!r}")


def _param(p: dict, key: str, default, conv):
    """Parameter key through conv; default None makes it required."""
    return _number(conv, p[key] if default is None else p.get(key, default),
                   f"parameter {key!r}")


def _preset(presets: dict, name, what: str):
    if name not in presets:
        raise SpecError(f"unknown {what} preset {name!r}; "
                        f"expected one of {sorted(presets)}")
    return presets[name]


# kind -> (number of children, builder(params, built children))
_KINDS = {
    "gamma_shift": (0, lambda p, k: gamma_shift(_param(p, "c", 0.0, float))),
    "exp_tau_scale": (1, lambda p, k: exp_scale(k[0], _param(p, "tau", None, float))),
    "shift_normalize": (1, lambda p, k: shift_normalize(
        k[0], _param(p, "c", None, float))),
    "iterated_log": (0, lambda p, k: iterated_log(
        _param(p, "a", 1.0, float), _param(p, "b", 1.0, float),
        _param(p, "k", 1, int), _param(p, "c", math.e, float))),
    "power": (1, lambda p, k: power(k[0], _param(p, "a", None, float))),
    "product": (2, lambda p, k: product(*k)),
    "quotient": (2, lambda p, k: quotient(*k)),
    "log_of_L": (1, lambda p, k: log_of_scale(k[0])),
    "theorem3": (0, lambda p, k: build_theorem3(
        _preset(_ELL_PRESETS, p.get("ell", "power"), "ell")(p))),
    "positive_type": (0, lambda p, k: build_positive_type(
        _preset(_POSITIVE_PRESETS, p.get("preset", "factorial"), "positive-type")(p))),
}


@dataclass
class FunctionSpec:
    kind: str
    params: dict = field(default_factory=dict)
    children: list = field(default_factory=list)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise SpecError(f"unknown spec kind {self.kind!r}; "
                            f"expected one of {sorted(_KINDS)}")
        want = _KINDS[self.kind][0]
        if len(self.children) != want:
            raise SpecError(f"kind {self.kind!r} takes {want} children, "
                            f"got {len(self.children)}")

    @classmethod
    def from_dict(cls, d: dict) -> "FunctionSpec":
        if not isinstance(d, dict) or "kind" not in d:
            raise SpecError(f"spec must be an object with a 'kind' field, got {d!r}")
        kids = [cls.from_dict(k) for k in d.get("children", [])]
        return cls(kind=d["kind"], params=dict(d.get("params", {})), children=kids)

    @classmethod
    def from_json(cls, text: str) -> "FunctionSpec":
        try:
            return cls.from_dict(json.loads(text))
        except json.JSONDecodeError as e:
            raise SpecError(f"spec is not valid JSON: {e}") from e

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": dict(self.params),
                "children": [c.to_dict() for c in self.children]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def build(spec: FunctionSpec) -> AdmissibleFunction:
    """Construct the weight described by a FunctionSpec tree."""
    kids = [build(c) for c in spec.children]
    try:
        return _KINDS[spec.kind][1](spec.params, kids)
    except KeyError as e:
        raise SpecError(f"kind {spec.kind!r} is missing parameter {e}") from e


# ---------------------------------------------------------------------------
# Admissibility audit
# ---------------------------------------------------------------------------

@dataclass
class AuditCondition:
    name: str
    metric: float
    threshold: float
    passed: bool
    detail: str = ""


@dataclass
class AuditReport:
    label: str
    conditions: list
    epsilon_min: float
    epsilon_sup: float
    grid_max: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "passed": self.passed,
            "epsilon_min": self.epsilon_min,
            "epsilon_sup": self.epsilon_sup,
            "grid_max": self.grid_max,
            "conditions": [vars(c) for c in self.conditions],
        }


def audit_admissibility(f: AdmissibleFunction) -> AuditReport:
    """Numerical audit of the three defining conditions of the class on
    61 log-spaced radii in [1, 1e7]:

    (A) the cumulative integral of eps(rho)/rho keeps growing (no plateau):
        it gains at least 0.01 over the last decade,
    (B) rho |eps'(rho)| / eps(rho) stays below 0.2 on the tail of the grid,
    (C) eps(rho e^{i theta}) stays within 0.2 of eps(rho) across a fan of
        9 angles.

    The grid reaches 1e7: for weights whose eps decays like an iterated
    log, the angular spread (C) only settles below 0.2 around that radius.
    """
    growth_floor, slow_variation_max, angular_spread_max = 0.01, 0.2, 0.2
    grid = np.geomspace(1.0, 1e7, 61)

    eps, epsp = np.real(f._epsilons(grid + 0j))
    eps_min = float(np.min(eps))
    eps_sup = float(np.max(eps))

    # (A): trapezoid of eps dlog(rho); increment over the last decade
    logg = np.log(grid)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (eps[1:] + eps[:-1]) * np.diff(logg))])
    last_decade = logg >= logg[-1] - math.log(10.0)
    idx0 = int(np.argmax(last_decade))
    growth = float(cum[-1] - cum[idx0])
    increasing = bool(np.all(np.diff(cum) > -1e-14))
    cond_a = AuditCondition(
        "A: divergent integral of eps/rho", growth, growth_floor,
        increasing and growth >= growth_floor,
        f"last-decade increment of cumulative integral (increasing={increasing})")

    # (B): slow variation on the tail (last quarter of the grid)
    tail = slice(3 * grid.size // 4, None)
    ratio_b = np.abs(grid[tail] * epsp[tail]) / np.maximum(np.abs(eps[tail]), 1e-300)
    cond_b = AuditCondition(
        "B: rho|eps'|/eps small on tail", float(np.max(ratio_b)),
        slow_variation_max, float(np.max(ratio_b)) < slow_variation_max,
        f"max over rho >= {grid[tail][0]:.3g}")

    # (C): angular stability of eps at the far end of the grid
    rho_max = grid[-1]
    thetas = np.linspace(-(f.alpha0 - _K_DELTA), f.alpha0 - _K_DELTA, 9)
    # a one-point eps(rho_max): the array jet may differ in the last bit
    spread = float(_angular_spread(f, rho_max, complex(f.epsilon(rho_max + 0j)),
                                   thetas))
    cond_c = AuditCondition(
        "C: eps stable across the angle fan", spread,
        angular_spread_max, spread < angular_spread_max,
        f"|theta| <= alpha0 - {_K_DELTA:g} at rho = {rho_max:.3g}")

    pos = AuditCondition("eps positive and bounded on the ray", eps_min, 0.0,
                         eps_min > 0.0 and math.isfinite(eps_sup),
                         f"min eps on grid (sup = {eps_sup:.4g})")

    return AuditReport(f.label, [cond_a, cond_b, cond_c, pos],
                       eps_min, eps_sup, float(rho_max))
