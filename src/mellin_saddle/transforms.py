"""Numerical evaluation of the transform pair K and E and the moment map.

K(z) is the contour integral (2 pi i)^{-1} int z^{-s} gamma(s) ds taken
either over a V of rays re^{+-i alpha} (angle contour) or over a vertical
line Re s = c; by analyticity the two agree wherever both converge.  The
V's vertex (and the vertical's abscissa) default to the saddle radius of
the integrand, which keeps the quadrature free of catastrophic
cancellation; correctness never depends on that choice.

Both K routes and the Abel-Plana integrals share one truncation rule: a
finite end is where the path ends, and an infinite end is cut once the
integrand has fallen truncation_drop below its running peak, or the path
is refused as non-decaying.

E(z) is the entire series sum z^n / gamma(n+1), summed in log space over
one window of indices around the peak term; sum z^n / gamma(n) =
z E(z) + 1/gamma(0) is the quantity the growth asymptotics speak about.
The series shares the truncation rule: n = 0 (or 1) is a finite end, and
the window grows until each open edge term has fallen truncation_drop
below the window's peak, or is refused once it would pass max_nodes.
The window is summed exactly rounded (math.fsum).

All results carry value * exp(log_scale) so magnitudes far outside the
double range stay exact on the log scale.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .catalog import AdmissibleFunction
from .errors import NoSaddleError, QuadratureError, SpecError
from .quadrature import adaptive_integrate, scan_drop
from .saddle import solve_real
from .surface import LogSurfacePoint, QuadratureResult, Tolerances

_FOLD_LIMIT = 300.0   # keep log_scale = 0 while |log magnitude| stays below
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class ContourSpec:
    """Integration route for K: kind 'l_alpha' (V of rays, opening angle
    alpha, vertex on the positive ray) or 'vertical' (line Re s = c).

    alpha must lie in (pi/2, alpha0); vertex/c use the saddle radius when
    left as None, and must be finite and positive when given: a vertex at
    or left of 0 puts the V across the poles of gamma."""

    kind: str
    alpha: Optional[float] = None
    vertex: Optional[float] = None
    c: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("l_alpha", "vertical"):
            raise SpecError(f"unknown contour kind {self.kind!r}")
        for name in ("vertex", "c"):
            x = getattr(self, name)
            if x is not None and not 0 < x < math.inf:
                raise SpecError(f"contour needs a finite {name} > 0, got {x}")


def default_alpha(f: AdmissibleFunction) -> float:
    """Ray angle with solid Gaussian decay at the vertex: stay in
    (pi/2, alpha0) while keeping cos(2*alpha) < 0."""
    return min(2.0 * math.pi / 3.0, 0.5 * (math.pi / 2.0 + f.alpha0))


def _saddle_radius_or(f: AdmissibleFunction, log_r: float, fallback: float) -> float:
    try:
        rho = solve_real(f, log_r)
        return min(max(rho, 1e-3), 1e12)
    except NoSaddleError:
        return fallback


def _folded(value: complex, log_scale: float, abs_error: float = 0.0):
    """The one scaled-number rule: e^log_scale goes into value and abs_error
    where |value| e^log_scale is within e^+-_FOLD_LIMIT and |log_scale| < 600."""
    mag = abs(value)
    total_log = (math.log(mag) if mag > 0 else -math.inf) + log_scale
    if 0 < abs(log_scale) < 600.0 and -_FOLD_LIMIT < total_log < _FOLD_LIMIT:
        fct = math.exp(log_scale)
        return value * fct, abs_error * fct, 0.0
    return value, abs_error, log_scale


def _fold(value: complex, abs_error: float, nodes: int, tols: Tolerances,
          log_scale: float) -> QuadratureResult:
    """The one maker of evaluator results: folds log_scale into the value
    by _folded, and sets converged by tols.met_by."""
    try:
        mag = abs(value)
    except OverflowError:
        mag = math.inf
    if not math.isfinite(mag):
        raise QuadratureError(f"|value| of {value!r} at log scale "
                              f"{log_scale:.6g} is not a finite double")
    value, abs_error, log_scale = _folded(value, log_scale, abs_error)
    converged = tols.met_by(value, abs_error, log_scale)
    return QuadratureResult(value, abs_error, nodes, converged, log_scale)


def _geometric_seeds(width: float, upper: float):
    """Panel seed edges 0 < width/4 < width/2 < ... < upper."""
    seeds = []
    w = max(width, 1e-12) * 0.25
    while w < upper:
        seeds.append(w)
        w *= 2.0
    return seeds


def _path_integral(g, tols: Tolerances, lo: float, t0: float, hi: float,
                   width: float, what: str) -> QuadratureResult:
    """int_lo^hi sum_j exp(g(t)[:, j]) dt under the module's truncation rule.

    g maps an ndarray of path parameters to one column of complex log
    integrand terms per summand; the scans of infinite ends start at t0.
    The scale is the largest log magnitude seen, and the panels are seeded
    at 0, at each side's peak and at geometric steps of width from each
    peak.  what names the path when it is refused."""
    drop_log = -math.log(tols.truncation_drop)
    seen = {}

    def logmag(t):
        if t not in seen:
            terms = g(np.array([t]))[0]
            m = float(np.max(terms.real))
            a = abs(complex(np.sum(np.exp(terms - m)))) \
                if math.isfinite(m) else 1.0
            seen[t] = math.log(a) + m if a > 0 else -math.inf
        return seen[t]

    # past a path's reach its exponents overflow; a value spoiled by that
    # is refused by _fold, so numpy need not warn on the way
    with np.errstate(over="ignore", invalid="ignore"):
        logmag(t0)
        ends, seeds = [], [0.0]
        for end in (lo, hi):
            peak_t = t0
            if math.isinf(end):
                # iterated_log's saddles sit near 1e13, so the reach scales
                bound = t0 + math.copysign(1e12 * max(1.0, abs(t0)), end)
                end, peak_t, peak = scan_drop(logmag, t0, bound,
                                              drop_log=drop_log)
                if logmag(end) > peak - drop_log:
                    raise QuadratureError(f"{what} does not decay")
            ends.append(end)
            side = math.copysign(1.0, end - peak_t)
            seeds += [peak_t] + [peak_t + side * w for w in
                                 _geometric_seeds(width, abs(end - peak_t))]
        scale = max(seen.values())

        def integrand(t):
            e = g(t)
            x = np.exp(e - scale)
            # each term carries ~eps * (4 + |g|) relative rounding, as in
            # the series; a non-finite term is either a zero at a pole of
            # gamma (g = -inf) or spoils the value, which the engine stops on
            noise = np.abs(x) * (4.0 + np.abs(e))
            noise = np.where(np.isfinite(noise), noise, 0.0).sum(axis=1)
            return x.sum(axis=1), _EPS * noise

        res = adaptive_integrate(integrand, *ends, rel_tol=tols.rel_tol,
                                 max_nodes=tols.max_nodes, breakpoints=seeds)
    return _fold(complex(res.value), res.abs_error, res.nodes, tols, scale)


def eval_K(f: AdmissibleFunction, z: LogSurfacePoint,
           contour: Optional[ContourSpec] = None,
           tol: Optional[Tolerances] = None) -> QuadratureResult:
    """K(z) = (2 pi i)^{-1} int z^{-s} gamma(s) ds over the chosen contour."""
    if contour is None:
        contour = ContourSpec("l_alpha")
    tols = tol or Tolerances()
    if contour.kind == "l_alpha":
        alpha = contour.alpha if contour.alpha is not None else default_alpha(f)
        if not (math.pi / 2 < alpha < f.alpha0 + 1e-12):
            raise SpecError(f"l_alpha contour needs pi/2 < alpha < alpha0 = "
                            f"{f.alpha0:.6g}, got {alpha:.6g}")
        v = contour.vertex if contour.vertex is not None else \
            _saddle_radius_or(f, z.log_r, max(1.0, 2.0 * f.c_gamma + 1.0))
        # the V folded onto u >= 0: out along the upper ray, minus the
        # lower ray; ds and the sign enter as i*alpha and i*(pi - alpha)
        lo, what = 0.0, f"K ray contour for z = {z} (alpha = {alpha:.4g})"
        dirs = np.exp(1j * np.array([alpha, -alpha]))
        consts = 1j * np.array([alpha, math.pi - alpha]) - cmath.log(2j * math.pi)
    else:
        v = contour.c if contour.c is not None else \
            max(_saddle_radius_or(f, z.log_r, 1.0), 0.05)
        lo, what = -math.inf, f"vertical K contour for z = {z} (c = {v:.4g})"
        dirs = np.array([1j])
        consts = np.array([-math.log(2.0 * math.pi)])
    logz = z.log_z

    def g(u):
        s = v + np.multiply.outer(u, dirs)
        return f.log_gamma(s.ravel()).reshape(s.shape) - s * logz + consts

    # characteristic width of the saddle bump at the vertex or abscissa
    d2 = abs(complex(f.d2log_gamma(np.complex128(v))))
    width = 1.0 / math.sqrt(d2) if d2 > 0 else 1.0
    return _path_integral(g, tols, lo, 0.0, math.inf, width, what)


# ---------------------------------------------------------------------------
# Series summation
# ---------------------------------------------------------------------------

def _series_sum(f: AdmissibleFunction, z: LogSurfacePoint, offset: int,
                n_start: int, tols: Tolerances, extra_term: float = 0.0):
    """sum_{n >= n_start} z^n / gamma(n + offset) (+ extra_term) over one
    window of indices under the module's truncation rule.  Its half-width
    starts at the curvature guess for the peak and doubles; the terms are
    log-concave, so every term past an edge is smaller still."""
    logz = z.log_z
    drop_log = -math.log(tols.truncation_drop)
    try:
        n_peak = solve_real(f, z.log_r)
    except NoSaddleError:
        n_peak = 0.0
    centre = max(n_start, int(n_peak))
    curv = abs(complex(f.d2log_gamma(np.complex128(max(n_peak, 1.0)))))
    half = int(math.sqrt(2.0 * (drop_log + 10.0) / max(curv, 1e-300))) + 16
    while True:
        lo, hi = max(n_start, centre - half), centre + half
        if hi - lo + 1 > tols.max_nodes:
            raise QuadratureError(
                f"series window needs {hi - lo + 1:,} terms around "
                f"n = {n_peak:.3g}, beyond the {tols.max_nodes:,}-node budget")
        ns = np.arange(lo, hi + 1, dtype=float)
        e = ns * logz - f.log_gamma(ns.astype(complex) + offset)
        m = float(np.max(e.real))
        if e.real[-1] <= m - drop_log and \
                (lo == n_start or e.real[0] <= m - drop_log):
            break
        half *= 2

    if extra_term != 0.0:
        # the n = 0 limit term may dominate everything at small radii;
        # fold it into the scale before exponentiating
        m = max(m, math.log(abs(extra_term)))
    x = np.exp(e - m)
    total = complex(math.fsum(x.real), math.fsum(x.imag))
    # each term's exponent carries ~eps * (|n log z| + |log gamma|)
    # absolute rounding, which dominates the summation error itself
    err_sum = float(np.sum(np.abs(x) * (4.0 + ns * abs(logz) + np.abs(e))))
    if extra_term != 0.0:
        total += extra_term * math.exp(-m)
        err_sum += 4.0 * abs(extra_term) * math.exp(-m)
    err = _EPS * err_sum + 31.0 * tols.truncation_drop
    return _fold(total, err, ns.size, tols, m)


def eval_E_series(f: AdmissibleFunction, z, *,
                  tol: Optional[Tolerances] = None) -> QuadratureResult:
    """E(z) = sum_{n>=0} z^n / gamma(n+1); z may be a LogSurfacePoint or 0."""
    tols = tol or Tolerances()
    if not isinstance(z, LogSurfacePoint):
        if complex(z) == 0:
            v = complex(np.exp(-f.log_gamma(np.complex128(1.0))))
            return _fold(v, abs(v) * 1e-15, 1, tols, 0.0)
        z = LogSurfacePoint.from_complex(complex(z))
    return _series_sum(f, z, offset=1, n_start=0, tols=tols)


def eval_growth_sum(f: AdmissibleFunction, z: LogSurfacePoint, *,
                    tol: Optional[Tolerances] = None) -> QuadratureResult:
    """z E(z) + 1/gamma(0) = sum_{n>=0} z^n / gamma(n), the quantity the
    growth asymptotics describe; the n = 0 term is the 1/gamma(0) limit."""
    tols = tol or Tolerances()
    return _series_sum(f, z, offset=0, n_start=1, tols=tols,
                       extra_term=f.one_over_gamma0)


# ---------------------------------------------------------------------------
# Abel-Plana right-hand side
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AbelPlanaParts:
    main: QuadratureResult
    upper: QuadratureResult
    lower: QuadratureResult
    total: QuadratureResult    # the three summed on the largest log scale
    main_angle: float          # the main ray's phi; 0.0 on the real axis


# the main ray's candidate |phi|, smallest first, each below pi/2 < alpha0,
# and the coarse tau grid on which each candidate's mass is weighed
_MAIN_ANGLES = (0.0, 0.5, 1.0, 1.4, 1.5)
_MAIN_TAUS = np.geomspace(1e-3, 1e15, 200)
_MAIN_LOG_DTAU = np.log(np.diff(_MAIN_TAUS, prepend=0.0))


def _main_ray(f: AdmissibleFunction, logz: complex, s0: float, sign: float):
    """(phi, tau0, width) of the main integral's ray s = -s0 + tau e^{i phi}
    by eval_abel_plana_parts' angle rule, phi = 0 on the real axis.  tau0
    is the peak of Re g, g = s log z - log gamma(s): Newton on
    Re g' = Re[e^{i phi} (log z - Phi(s))], bracketed by the grid samples
    around the largest; width = 1/sqrt|Re g''| there."""
    best = (math.inf, 0.0, None)
    for a in _MAIN_ANGLES:
        s = -s0 + _MAIN_TAUS * cmath.exp(1j * sign * a)
        re = (s * logz - f.log_gamma(s)).real
        re = np.where(np.isnan(re), -np.inf, re)
        mass = float(np.logaddexp.reduce(re + _MAIN_LOG_DTAU))
        if mass < best[0] - 1.0:
            best = (mass, sign * a, re)
    _, phi, re = best
    e = cmath.exp(1j * phi)
    k = int(np.argmax(re))
    lo = float(_MAIN_TAUS[k - 1]) if k else 0.0
    hi = float(_MAIN_TAUS[min(k + 1, _MAIN_TAUS.size - 1)])
    t = float(_MAIN_TAUS[k]) if k else 0.0
    for _ in range(100):
        j = f.jet(-s0 + t * e, 2)
        d1, d2 = (e * (logz - j.d1)).real, -(e * e * j.d2).real
        if t == 0.0 and d1 <= 0.0:
            break               # the ray falls from its start
        lo, hi = (t, hi) if d1 > 0.0 else (lo, t)
        nxt = t - d1 / d2 if d2 < 0.0 else math.nan
        if not lo <= nxt <= hi:
            nxt = 0.5 * (lo + hi)
        t, step = nxt, abs(nxt - t)
        if step <= 1e-12 * t or hi - lo <= 1e-15 * hi:
            break
    return phi, t, 1.0 / math.sqrt(abs(d2)) if d2 else 1.0


def default_sigma0(f: AdmissibleFunction) -> float:
    if f.c_gamma > 0:
        return min(0.5, 0.5 * min(f.c_gamma, 1.0))
    return 0.5   # reciprocal extends across the origin for factorial weights


def eval_abel_plana_parts(f: AdmissibleFunction, z: LogSurfacePoint,
                          sigma0: Optional[float] = None, *,
                          tol: Optional[Tolerances] = None) -> AbelPlanaParts:
    """The three terms converting sum z^n/gamma(n) into integrals: the
    main integral of z^sigma/gamma(sigma) over sigma >= -sigma0 plus two
    vertical correction integrals with exponentially small kernels.

    The main integral runs on the ray sigma = -sigma0 + tau e^{i phi},
    tau >= 0, sign phi = sign psi: off psi = 0, z^sigma turns psi*sigma
    radians, and a ray off the real axis turns that phase into decay.
    The angle rule: for each |phi| in {0, 0.5, 1.0, 1.4, 1.5}, weigh the
    ray's coarse mass log sum |integrand| dtau over 200 geometric tau in
    [1e-3, 1e15], and keep the least, a larger angle replacing a smaller
    one only when it cuts the mass by more than a factor e; phi = 0 is
    the real axis, where gamma's poles are zeros of the integrand.  Every
    candidate stays below pi/2 < alpha0 and in Re s >= -sigma0, where
    1/gamma is analytic (default_sigma0 imposes that, and a caller's
    sigma0 is checked against it), so by Cauchy's theorem the ray gives
    the real-axis integral: Gil, Segura and Temme, Numerical Methods for
    Special Functions (2007), ch. 5.  The ray's integration starts from
    the true peak of its integrand, which sets the path's scale.
    main_angle reports phi."""
    tols = tol or Tolerances()
    if abs(z.psi) > math.pi + 1e-12:
        raise SpecError(f"Abel-Plana route needs |psi| <= pi, got {z.psi:.6g}")
    s0 = sigma0 if sigma0 is not None else default_sigma0(f)
    if not (0.0 < s0 < 1.0) or (f.c_gamma > 0 and s0 >= min(f.c_gamma, 1.0)):
        raise SpecError(f"sigma0 = {s0:.6g} outside (0, min(c_gamma, 1))")
    logz = z.log_z
    phi, t0, width = _main_ray(f, logz, s0, math.copysign(1.0, z.psi))
    e = cmath.exp(1j * phi)

    def g_main(tau):
        s = -s0 + tau * e
        g = s * logz - f.log_gamma(s) + 1j * phi
        # gamma's poles on the real axis (Gamma(0)) are zeros of the integrand
        return np.where(np.isfinite(g), g, -np.inf)[:, None]

    main = _path_integral(g_main, tols, 0.0, t0, math.inf, width,
                          f"Abel-Plana main integral for z = {z} "
                          f"(phi = {phi:.4g})")

    # the verticals end where the kernel beats z^s/gamma(s) by truncation_drop
    eps_bar = max(f.epsilon_sup(), 0.0)
    a_rate = min(0.5 * math.pi * eps_bar + 0.1, math.pi - 0.05)
    decay = 2.0 * math.pi - a_rate - abs(z.psi)
    t_max = -math.log(tols.truncation_drop) / max(decay, 0.05) + 5.0

    def vertical(sign):
        def g(t):
            s = -s0 + 1j * sign * t
            lq = 2j * math.pi * sign * s       # log q, |q| = e^{-2 pi t}
            # -kernel/2, with kernel = cot(pi s) + i sign = 2i sign q/(q-1)
            return (lq - np.log(np.exp(lq) - 1.0) - 0.5j * math.pi * sign
                    + s * logz - f.log_gamma(s))[:, None]

        return _path_integral(g, tols, 0.0, 0.0, t_max, 2.0,
                              f"Abel-Plana vertical for z = {z}")

    parts = (main, vertical(+1), vertical(-1))
    ls = max(p.log_scale for p in parts)
    m, u, l = (p.rescaled(ls) for p in parts)
    total = _fold(m.value + u.value + l.value,
                  m.abs_error + u.abs_error + l.abs_error,
                  m.nodes + u.nodes + l.nodes, tols, ls)
    return AbelPlanaParts(*parts, total, phi)


def eval_abel_plana_rhs(f: AdmissibleFunction, z: LogSurfacePoint,
                        sigma0: Optional[float] = None, *,
                        tol: Optional[Tolerances] = None) -> QuadratureResult:
    return eval_abel_plana_parts(f, z, sigma0, tol=tol).total


# ---------------------------------------------------------------------------
# Moments
# ---------------------------------------------------------------------------

def _k_vertical_batch(f: AdmissibleFunction, logts: np.ndarray, c: float,
                      tols: Tolerances, rel_tol: float):
    """K at a batch of positive reals t = exp(logts), all from one vertical
    line Re s = c, to rel_tol; returns (values, log_scales, err, nodes)."""
    logts = np.asarray(logts, dtype=float)
    drop_log = -math.log(tols.truncation_drop)
    lw = logts.min()   # slowest-decaying column sets the truncation

    def g_re_ref(t):
        s = complex(c, t)
        return float((complex(f.log_gamma(np.complex128(s))) - s * lw).real)

    up_cut, _, _ = scan_drop(g_re_ref, 0.0, 1e12, drop_log=drop_log + 5)
    tgrid = np.linspace(0.0, up_cut, 160)
    lg = f.log_gamma(c + 1j * tgrid)
    scales = np.max(lg.real[:, None] - c * logts[None, :], axis=0)

    def integrand(t):
        t = np.asarray(t, dtype=float)
        s = c + 1j * t
        lgs = f.log_gamma(s)
        g = lgs[:, None] - s[:, None] * logts[None, :] - scales[None, :]
        return np.exp(g) / (2.0 * math.pi)

    seeds = sorted({*np.linspace(0, up_cut, 9)[1:-1],
                    *_geometric_seeds(max(up_cut * 1e-3, 1e-6), up_cut)})
    res = adaptive_integrate(integrand, -up_cut, up_cut, rel_tol=rel_tol,
                             max_nodes=min(tols.max_nodes, 60_000),
                             breakpoints=sorted({*seeds, *(-np.array(seeds))}))
    vals = np.asarray(res.value)
    return vals, scales, res.abs_error, res.nodes


def moment(f: AdmissibleFunction, n: int, *,
           tol: Optional[Tolerances] = None) -> QuadratureResult:
    """int_0^inf t^n K(t) dt, with K from the vertical route; the moment
    identity makes this gamma(n+1)."""
    if n < 0 or int(n) != n:
        raise SpecError(f"moment order must be a nonnegative integer, got {n}")
    n = int(n)
    tols = tol or Tolerances()
    rel_floor = max(tols.rel_tol / 30.0, 1e-13)    # tightest inner K tolerance
    drop_log = -math.log(tols.truncation_drop)

    # outer exponent model: eta(w) = (n+1) w + log K(e^w), peaked at
    # w* = Phi(n+1) where it equals log gamma(n+1)
    w_star = float(complex(f.dlog_gamma(np.complex128(n + 1.0))).real)
    eta_star = float(complex(f.log_gamma(np.complex128(n + 1.0))).real)

    no_saddle_below = [-math.inf]

    def eta(w):
        if w <= no_saddle_below[0]:
            rho = 1e-3
        else:
            try:
                rho = solve_real(f, w)
            except NoSaddleError:
                no_saddle_below[0] = max(no_saddle_below[0], w)
                rho = 1e-3
        g = float(complex(f.log_gamma(np.complex128(rho))).real)
        return (n + 1.0) * w + g - rho * w

    hi_cut, _, _ = scan_drop(eta, w_star, 1e9, drop_log=drop_log + 3)
    lo_cut, _, _ = scan_drop(eta, w_star, -(drop_log + 3) / (n + 1.0) + w_star - 20.0,
                             drop_log=drop_log + 3)

    # coarse importance profile; panels far below the peak contribute
    # e^{eta - eta*} and get a proportionally relaxed inner tolerance
    w_prof = np.linspace(lo_cut, hi_cut, 33)
    eta_prof = np.array([eta(float(wj)) for wj in w_prof])

    nodes_total = 0
    err_extra = 0.0

    def outer_row(w):
        nonlocal nodes_total, err_extra
        # below Phi's range on the ray the peak sits next to the origin, so
        # a line hugging it keeps |t^{-s}| = O(1) and kills cancellation
        c_line = max(_saddle_radius_or(f, float(np.median(w)), 0.05), 0.05)
        imp_log = float(np.max(np.interp(w, w_prof, eta_prof))) - eta_star + 1.0
        rel_here = min(0.03, max(rel_floor,
                                 tols.rel_tol * 0.03 * math.exp(-imp_log)))
        vals, scales, err, nds = _k_vertical_batch(f, w, c_line, tols,
                                                   rel_here)
        nodes_total += nds
        # int t^n K dt = int e^{(n+1)w} K(e^w) dw; the dt jacobian is in (n+1)w
        expo = (n + 1.0) * w + scales - eta_star
        err_extra = max(err_extra, float(np.max(np.exp(expo)) * err))
        return vals * np.exp(expo)

    # one K line per panel: a line shared by siblings loses up to 6 digits
    def outer_integrand(w):
        return np.concatenate([outer_row(row) for row in
                               np.asarray(w, dtype=float).reshape(-1, 15)])

    # far rows overflow exp; _fold refuses what that spoils, so numpy need
    # not warn on the way
    with np.errstate(over="ignore", invalid="ignore"):
        res = adaptive_integrate(outer_integrand, lo_cut, hi_cut,
                                 rel_tol=tols.rel_tol, max_nodes=tols.max_nodes,
                                 breakpoints=sorted({w_star,
                                                     *np.linspace(lo_cut, hi_cut, 7)[1:-1]}))
    err = res.abs_error + err_extra * (hi_cut - lo_cut)
    return _fold(complex(res.value), err, res.nodes + nodes_total, tols,
                 eta_star)
