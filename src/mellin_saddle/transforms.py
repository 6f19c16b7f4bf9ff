"""Numerical evaluation of the transform pair K and E and the moment map.

K(z) is the contour integral (2 pi i)^{-1} int z^{-s} gamma(s) ds taken
either over a V of rays re^{+-i alpha} (angle contour) or over a vertical
line Re s = c; by analyticity the two agree wherever both converge.  The
V's vertex (and the vertical's abscissa) default to the saddle radius of
the integrand, which keeps the quadrature free of catastrophic
cancellation; correctness never depends on that choice.

E(z) is the entire series sum z^n / gamma(n+1), summed in log space with
compensated accumulation; sum z^n / gamma(n) = z E(z) + 1/gamma(0) is the
quantity the growth asymptotics speak about and has its own summer.

All results carry value * exp(log_scale) so magnitudes far outside the
double range stay exact on the log scale.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .catalog import AdmissibleFunction
from .errors import NoSaddleError, QuadratureError, SpecError
from .quadrature import adaptive_integrate, scan_drop
from .saddle import solve_real
from .surface import LogSurfacePoint, QuadratureResult, Tolerances

_FOLD_LIMIT = 300.0   # keep log_scale = 0 while |log magnitude| stays below


@dataclass(frozen=True)
class ContourSpec:
    """Integration route for K: kind 'l_alpha' (V of rays, opening angle
    alpha, vertex on the positive ray) or 'vertical' (line Re s = c).

    alpha must lie in (pi/2, alpha0); vertex/c use the saddle radius when
    left as None."""

    kind: str
    alpha: Optional[float] = None
    vertex: Optional[float] = None
    c: Optional[float] = None
    tolerances: Tolerances = field(default_factory=Tolerances.for_quadrature)

    def __post_init__(self):
        if self.kind not in ("l_alpha", "vertical"):
            raise SpecError(f"unknown contour kind {self.kind!r}")
        if self.kind == "vertical" and self.c is not None and self.c <= 0:
            raise SpecError(f"vertical contour needs c > 0, got {self.c}")


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


def _fold(value: complex, abs_error: float, nodes: int, tols: Tolerances,
          log_scale: float) -> QuadratureResult:
    """The one maker of evaluator results: folds log_scale into the value
    when the magnitude allows, and sets converged by tols.met_by."""
    try:
        mag = abs(value)
    except OverflowError:
        mag = math.inf
    if not math.isfinite(mag):
        raise QuadratureError(f"|value| of {value!r} at log scale "
                              f"{log_scale:.6g} is not a finite double")
    total_log = (math.log(mag) if mag > 0 else -math.inf) + log_scale
    if abs(log_scale) > 0 and -_FOLD_LIMIT < total_log < _FOLD_LIMIT \
            and abs(log_scale) < 600.0:
        fct = math.exp(log_scale)
        value, abs_error, log_scale = value * fct, abs_error * fct, 0.0
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


def eval_K(f: AdmissibleFunction, z: LogSurfacePoint,
           contour: Optional[ContourSpec] = None,
           tol: Optional[Tolerances] = None) -> QuadratureResult:
    """K(z) = (2 pi i)^{-1} int z^{-s} gamma(s) ds over the chosen contour."""
    if contour is None:
        contour = ContourSpec("l_alpha")
    if tol is not None:
        contour = replace(contour, tolerances=tol)
    if contour.kind == "l_alpha":
        return _eval_K_rays(f, z, contour)
    return _eval_K_vertical(f, z, contour)


# past the contour's reach the ray exponents overflow; a value spoiled by
# that is refused by _fold, so numpy need not warn on the way
@np.errstate(over="ignore", invalid="ignore")
def _eval_K_rays(f: AdmissibleFunction, z: LogSurfacePoint,
                 contour: ContourSpec) -> QuadratureResult:
    tols = contour.tolerances
    alpha = contour.alpha if contour.alpha is not None else default_alpha(f)
    if not (math.pi / 2 < alpha < f.alpha0 + 1e-12):
        raise SpecError(f"l_alpha contour needs pi/2 < alpha < alpha0 = "
                        f"{f.alpha0:.6g}, got {alpha:.6g}")
    vertex = contour.vertex
    if vertex is None:
        vertex = _saddle_radius_or(f, z.log_r, max(1.0, 2.0 * f.c_gamma + 1.0))
    logz = z.log_z
    e_up = cmath.exp(1j * alpha)
    e_dn = e_up.conjugate()

    def pair_raw(u):
        u = np.asarray(u, dtype=float)
        s_up = vertex + u * e_up
        s_dn = vertex + u * e_dn
        g_up = f.log_gamma(s_up) - s_up * logz
        g_dn = f.log_gamma(s_dn) - s_dn * logz
        return g_up, g_dn

    def logmag(u):
        # log of the paired-ray integrand magnitude, stable at any scale
        g_up, g_dn = pair_raw(np.array([u]))
        m = float(max(g_up.real[0], g_dn.real[0]))
        h = np.exp(g_up - m) * e_up - np.exp(g_dn - m) * e_dn
        a = abs(complex(h[0]))
        return (math.log(a) if a > 0 else -1e30) + m

    # characteristic width of the saddle bump at the vertex
    d2 = complex(f.d2log_gamma(np.complex128(vertex)))
    width = 1.0 / math.sqrt(abs(d2)) if abs(d2) > 0 else 1.0
    drop_log = -math.log(tols.truncation_drop)

    cut, _, peak = scan_drop(logmag, width * 0.25, 0.0,
                             width * 1e9, drop_log=drop_log)
    if logmag(cut) > peak - 0.8 * drop_log:
        raise QuadratureError(
            f"K ray contour does not decay for z = {z} (alpha = {alpha:.4g})")
    m_scale = max(peak, logmag(1e-9 * max(width, 1.0)))

    def integrand(u):
        g_up, g_dn = pair_raw(u)
        return (np.exp(g_up - m_scale) * e_up
                - np.exp(g_dn - m_scale) * e_dn) / (2j * math.pi)

    seeds = _geometric_seeds(width, cut)
    res = adaptive_integrate(integrand, 0.0, cut, rel_tol=tols.rel_tol,
                             abs_tol=tols.abs_tol, max_nodes=tols.max_nodes,
                             breakpoints=seeds)
    return _fold(complex(res.value), res.abs_error, res.nodes, tols, m_scale)


def _eval_K_vertical(f: AdmissibleFunction, z: LogSurfacePoint,
                     contour: ContourSpec) -> QuadratureResult:
    tols = contour.tolerances
    c = contour.c
    if c is None:
        c = _saddle_radius_or(f, z.log_r, 1.0)
        c = max(c, 0.05)
    logz = z.log_z

    def g_re(t):
        s = complex(c, t)
        return float((complex(f.log_gamma(np.complex128(s))) - s * logz).real)

    drop_log = -math.log(tols.truncation_drop)
    up_cut, pk_t_up, peak_up = scan_drop(g_re, 0.0, 0.0, 1e12, drop_log=drop_log)
    dn_cut, pk_t_dn, peak_dn = scan_drop(g_re, 0.0, -1e12, 0.0, drop_log=drop_log)
    peak = max(peak_up, peak_dn)
    if g_re(up_cut) > peak - 0.8 * drop_log or g_re(dn_cut) > peak - 0.8 * drop_log:
        raise QuadratureError(
            f"vertical K contour does not decay for z = {z} (c = {c:.4g}); "
            "the sheet argument is too large for this route")

    def integrand(t):
        s = c + 1j * np.asarray(t, dtype=float)
        g = f.log_gamma(s) - s * logz
        return np.exp(g - peak) / (2.0 * math.pi)

    width = abs(up_cut - dn_cut)
    seeds = sorted({pk_t_up, pk_t_dn, 0.0,
                    *(pk_t_up + s for s in _geometric_seeds(width * 1e-3, up_cut - pk_t_up)),
                    *(pk_t_dn - s for s in _geometric_seeds(width * 1e-3, pk_t_dn - dn_cut))})
    seeds = [t for t in seeds if dn_cut < t < up_cut]
    res = adaptive_integrate(integrand, dn_cut, up_cut, rel_tol=tols.rel_tol,
                             abs_tol=tols.abs_tol, max_nodes=tols.max_nodes,
                             breakpoints=seeds)
    return _fold(complex(res.value), res.abs_error, res.nodes, tols, peak)


# ---------------------------------------------------------------------------
# Series summation
# ---------------------------------------------------------------------------

_DIRECT_LIMIT = 200_000
_CHUNK = 65_536


def _series_sum(f: AdmissibleFunction, z: LogSurfacePoint, offset: int,
                n_start: int, tols: Tolerances, extra_term: float = 0.0):
    """sum_{n >= n_start} z^n / gamma(n + offset) (+ extra_term), in log
    space around the peak index, compensated accumulation."""
    logz = z.log_z
    drop_log = -math.log(tols.truncation_drop)

    def exponents(ns):
        return ns * logz - f.log_gamma(ns.astype(complex) + offset)

    try:
        n_peak = solve_real(f, z.log_r)
    except NoSaddleError:
        n_peak = 0.0

    if n_peak + 10 <= _DIRECT_LIMIT:
        lo = n_start
        hi_guess = int(n_peak) + 64
        m_running = -math.inf
        blocks = []
        n0 = lo
        consec = 0
        while True:
            ns = np.arange(n0, n0 + 4096, dtype=float)
            e = exponents(ns)
            blocks.append((ns, e))
            m_running = max(m_running, float(np.max(e.real)))
            below = e.real < m_running - drop_log
            # count trailing run of below-drop terms
            run = 0
            for b in below[::-1]:
                if b:
                    run += 1
                else:
                    break
            consec = consec + run if run == below.size else run
            n0 += 4096
            if consec >= 30 and n0 > hi_guess:
                break
            if n0 > _DIRECT_LIMIT + 8192:
                # peak close to the direct limit with a wide shoulder
                if float(blocks[-1][1].real[-1]) > m_running - 0.8 * drop_log:
                    raise QuadratureError(
                        "series tail still significant at the direct limit; "
                        "raise max_nodes to force the windowed path")
                break
        m = m_running
    else:
        # windowed summation around the huge peak
        curv = abs(complex(f.d2log_gamma(np.complex128(n_peak))))
        half = int(math.sqrt(2.0 * (drop_log + 10.0) / max(curv, 1e-300))) + 16
        lo = max(n_start, int(n_peak) - half)
        hi = int(n_peak) + half
        if hi - lo > max(tols.max_nodes, _DIRECT_LIMIT):
            raise QuadratureError(
                f"series window needs {hi - lo:,} terms around n = {n_peak:.3g}, "
                f"beyond the {tols.max_nodes:,}-node budget; raise max_nodes "
                "to force the computation")
        blocks = []
        m = -math.inf
        for n0 in range(lo, hi + 1, _CHUNK):
            ns = np.arange(n0, min(n0 + _CHUNK, hi + 1), dtype=float)
            e = exponents(ns)
            m = max(m, float(np.max(e.real)))
            blocks.append((ns, e))
        # edge sanity: window must reach the drop threshold
        e_lo = blocks[0][1].real[0]
        e_hi = blocks[-1][1].real[-1]
        if lo > n_start and e_lo > m - 0.8 * drop_log:
            raise QuadratureError("series window edge still significant (low side)")
        if e_hi > m - 0.8 * drop_log:
            raise QuadratureError("series window edge still significant (high side)")

    if extra_term != 0.0:
        # the n = 0 limit term may dominate everything at small radii;
        # fold it into the scale before exponentiating
        m = max(m, math.log(abs(extra_term)))

    total = 0.0 + 0.0j
    comp = 0.0 + 0.0j
    err_sum = 0.0
    n_terms = 0
    for ns, e in blocks:
        t = np.abs(np.exp(e - m))
        # each term's exponent carries ~eps * (|n log z| + |log gamma|)
        # absolute rounding, which dominates the summation error itself
        coef = 4.0 + np.abs(ns) * abs(logz) + np.abs(e)
        err_sum += float(np.sum(t * coef))
        n_terms += t.size
        x = complex(np.sum(np.exp(e - m)))
        # Neumaier step across blocks
        new = total + x
        if abs(total) >= abs(x):
            comp += (total - new) + x
        else:
            comp += (x - new) + total
        total = new
    total += comp
    if extra_term != 0.0:
        total += extra_term * math.exp(-m)
        err_sum += 4.0 * abs(extra_term) * math.exp(-m)

    err = np.finfo(float).eps * err_sum + 31.0 * tols.truncation_drop
    return _fold(total, err, max(n_terms, 1), tols, m)


def eval_E_series(f: AdmissibleFunction, z, *,
                  tol: Optional[Tolerances] = None) -> QuadratureResult:
    """E(z) = sum_{n>=0} z^n / gamma(n+1); z may be a LogSurfacePoint or 0."""
    tols = tol or Tolerances.for_quadrature()
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
    tols = tol or Tolerances.for_quadrature()
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


def default_sigma0(f: AdmissibleFunction) -> float:
    if f.c_gamma > 0:
        return min(0.5, 0.5 * min(f.c_gamma, 1.0))
    return 0.5   # reciprocal extends across the origin for factorial weights


def eval_abel_plana_parts(f: AdmissibleFunction, z: LogSurfacePoint,
                          sigma0: Optional[float] = None, *,
                          tol: Optional[Tolerances] = None) -> AbelPlanaParts:
    """The three terms converting sum z^n/gamma(n) into integrals: the real
    half-line integral of z^sigma/gamma(sigma) plus two vertical
    correction integrals with exponentially small kernels."""
    tols = tol or Tolerances.for_quadrature()
    if abs(z.psi) > math.pi + 1e-12:
        raise SpecError(f"Abel-Plana route needs |psi| <= pi, got {z.psi:.6g}")
    s0 = sigma0 if sigma0 is not None else default_sigma0(f)
    if not (0.0 < s0 < 1.0) or (f.c_gamma > 0 and s0 >= min(f.c_gamma, 1.0)):
        raise SpecError(f"sigma0 = {s0:.6g} outside (0, min(c_gamma, 1))")
    logz = z.log_z
    drop_log = -math.log(tols.truncation_drop)

    # ---- main integral over [-sigma0, inf) --------------------------------
    def h_re(sig):
        s = complex(sig)
        return float((s * logz - complex(f.log_gamma(np.complex128(s)))).real)

    try:
        sig_peak = solve_real(f, z.log_r)
    except NoSaddleError:
        sig_peak = max(0.5, -s0 + 0.25)
    hi_cut, pk, peak = scan_drop(h_re, sig_peak, -s0, 1e14, drop_log=drop_log)
    lo_cut, _, peak2 = scan_drop(h_re, sig_peak, -s0, sig_peak, drop_log=drop_log)
    peak = max(peak, peak2, h_re(-s0 + 1e-9), h_re(min(sig_peak, -s0 + 1.0)))

    def main_integrand(sig):
        s = sig.astype(complex)
        g = s * logz - f.log_gamma(s)
        out = np.exp(g - peak)
        return np.where(np.isfinite(out), out, 0.0)

    width = max(1.0, math.sqrt(1.0 / max(
        abs(complex(f.d2log_gamma(np.complex128(max(sig_peak, 1e-3))))), 1e-300)))
    seeds = sorted({sig_peak, sig_peak - width, sig_peak + width, 0.0,
                    *(sig_peak + s for s in _geometric_seeds(width, hi_cut - sig_peak)),
                    *(sig_peak - s for s in _geometric_seeds(width, sig_peak - lo_cut))})
    seeds = [x for x in seeds if lo_cut < x < hi_cut]
    res = adaptive_integrate(main_integrand, lo_cut, hi_cut,
                             rel_tol=tols.rel_tol, abs_tol=tols.abs_tol,
                             max_nodes=tols.max_nodes, breakpoints=seeds)
    main = _fold(complex(res.value), res.abs_error, res.nodes, tols, peak)

    # ---- vertical corrections ---------------------------------------------
    eps_bar = max(f.epsilon_sup(), 0.0)
    a_rate = min(0.5 * math.pi * eps_bar + 0.1, math.pi - 0.05)
    decay = 2.0 * math.pi - a_rate - abs(z.psi)
    t_max = drop_log / max(decay, 0.05) + 5.0

    def vertical(sign):
        def integrand(t):
            t = np.asarray(t, dtype=float)
            s = -s0 + 1j * sign * t
            q = np.exp(2j * math.pi * sign * s)        # |q| = e^{-2 pi t}
            kernel = 2j * sign * q / (q - 1.0)         # cot(pi s) + i sign
            fs = np.exp(s * logz - f.log_gamma(s))
            return -0.5 * fs * kernel

        r = adaptive_integrate(integrand, 0.0, t_max, rel_tol=tols.rel_tol,
                               abs_tol=tols.abs_tol, max_nodes=tols.max_nodes,
                               breakpoints=[0.5, 1.0, 2.0, 4.0, 8.0])
        return _fold(complex(r.value), r.abs_error, r.nodes, tols, 0.0)

    upper, lower = vertical(+1), vertical(-1)
    ls = max(main.log_scale, upper.log_scale, lower.log_scale)
    fm, fu, fl = (math.exp(p.log_scale - ls) for p in (main, upper, lower))
    total = _fold(main.value * fm + upper.value * fu + lower.value * fl,
                  main.abs_error * fm + upper.abs_error * fu
                  + lower.abs_error * fl,
                  main.nodes + upper.nodes + lower.nodes, tols, ls)
    return AbelPlanaParts(main, upper, lower, total)


def eval_abel_plana_rhs(f: AdmissibleFunction, z: LogSurfacePoint,
                        sigma0: Optional[float] = None, *,
                        tol: Optional[Tolerances] = None) -> QuadratureResult:
    return eval_abel_plana_parts(f, z, sigma0, tol=tol).total


# ---------------------------------------------------------------------------
# Moments
# ---------------------------------------------------------------------------

def _k_vertical_batch(f: AdmissibleFunction, logts: np.ndarray, c: float,
                      tols: Tolerances, rel_tol: Optional[float] = None):
    """K at a batch of positive reals t = exp(logts), all from one vertical
    line Re s = c; returns (values, log_scales, err, nodes)."""
    logts = np.asarray(logts, dtype=float)
    rel_tol = rel_tol if rel_tol is not None else tols.rel_tol
    drop_log = -math.log(tols.truncation_drop)
    lw = logts.min()   # slowest-decaying column sets the truncation

    def g_re_ref(t):
        s = complex(c, t)
        return float((complex(f.log_gamma(np.complex128(s))) - s * lw).real)

    up_cut, _, _ = scan_drop(g_re_ref, 0.0, 0.0, 1e12, drop_log=drop_log + 5)
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
                             abs_tol=tols.abs_tol,
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
    tols = tol or Tolerances.for_quadrature()
    inner = Tolerances(rel_tol=max(tols.rel_tol / 30.0, 1e-13),
                       abs_tol=tols.abs_tol, max_nodes=tols.max_nodes,
                       truncation_drop=tols.truncation_drop)
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

    hi_cut, _, _ = scan_drop(eta, w_star, -1e9, 1e9, drop_log=drop_log + 3)
    lo_cut, _, _ = scan_drop(eta, w_star, -(drop_log + 3) / (n + 1.0) + w_star - 20.0,
                             w_star, drop_log=drop_log + 3)

    # coarse importance profile; panels far below the peak contribute
    # e^{eta - eta*} and get a proportionally relaxed inner tolerance
    w_prof = np.linspace(lo_cut, hi_cut, 33)
    eta_prof = np.array([eta(float(wj)) for wj in w_prof])

    nodes_total = 0
    err_extra = 0.0

    def outer_integrand(w):
        nonlocal nodes_total, err_extra
        w = np.asarray(w, dtype=float)
        # below Phi's range on the ray the peak sits next to the origin, so
        # a line hugging it keeps |t^{-s}| = O(1) and kills cancellation
        c_line = max(_saddle_radius_or(f, float(np.median(w)), 0.05), 0.05)
        imp_log = float(np.max(np.interp(w, w_prof, eta_prof))) - eta_star + 1.0
        rel_here = min(0.03, max(inner.rel_tol,
                                 tols.rel_tol * 0.03 * math.exp(-imp_log)))
        vals, scales, err, nds = _k_vertical_batch(f, w, c_line, inner,
                                                   rel_tol=rel_here)
        nodes_total += nds
        # int t^n K dt = int e^{(n+1)w} K(e^w) dw; the dt jacobian is in (n+1)w
        expo = (n + 1.0) * w + scales - eta_star
        err_extra = max(err_extra, float(np.max(np.exp(expo)) * err))
        return vals * np.exp(expo)

    res = adaptive_integrate(outer_integrand, lo_cut, hi_cut,
                             rel_tol=tols.rel_tol, abs_tol=tols.abs_tol,
                             max_nodes=tols.max_nodes,
                             breakpoints=sorted({w_star,
                                                 *np.linspace(lo_cut, hi_cut, 7)[1:-1]}))
    err = res.abs_error + err_extra * (hi_cut - lo_cut)
    return _fold(complex(res.value), err, res.nodes + nodes_total, tols,
                 eta_star)
