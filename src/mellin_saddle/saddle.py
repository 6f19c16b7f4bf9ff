"""Solving the saddle equation Phi(s) = log z and classifying regions.

One solver, in w = log s, on (Phi(e^w), dPhi/dw) from
AdmissibleFunction.phi_log: the weight's jet while Re w < 300, its
family's asymptotic form past that.  Phi is strictly increasing on the
positive ray and univalent in the sector S(alpha, rho0) for rho0 large
enough, so a saddle is found in two stages:

* the ray root x = log rho of Phi(e^x) = log r, by a doubling bracket in
  x and _line_root, the one real root finder (Newton on a line in w);
* _walk, the one continuation in psi from x toward log z = log r + i psi,
  with theta_z = Im w: tangent predictor and Newton in w, in steps that
  follow |dPhi/dw| at the current point (its docstring states the rule).
  No Newton iterate may leave the sector |Im w| < alpha0, past which a
  weight's jet need not continue Phi.  If theta_z reaches the sector edge
  before psi is reached, the point has no saddle there and is tagged
  accordingly.

Both stages are memoized per weight: solve, classify and the asymptotics
at one point share one ray root and one continuation, and a repeat
returns the stored result without evaluating Phi.

Roots are taken to a residual of _ROOT_TOL = 1e-10 relative to
1 + |log z| (solve_real_log: 1e-12); a continuation's Newton also needs
its last step in w below _STEP_TOL = 1e-8.  Phi is evaluated one point
at a time, as a Python complex.  solve_real and solve refuse saddle
radii past 1e290; solve_real_log and solve_log_domain reach them
(log_rho_z holds the radius, rho_z is inf).
boundary_psi walks the same continuation until theta_z = alpha, and
point_with_saddle_radius (Im Phi = psi at |s| = rho*) uses _line_root.
Every region tag, here and in asymptotics, is made by RegionTag.of.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Optional, Tuple

from .catalog import _JET_LOG_RADIUS, AdmissibleFunction
from .errors import NoSaddleError, SpecError
from .surface import LogSurfacePoint

_ROOT_TOL = 1e-10           # relative residual of every root but solve_real_log's
_STEP_TOL = 1e-8            # the last Newton step of a saddle, in w = log s
_EDGE_DELTA = 0.02          # sector-edge margin alpha0 - delta for continuation
_LOG_RHO_MAX = math.log(1e290)    # solve_real and solve stay in double range
_LOG_RHO_MIN = math.log(1e-280)   # e^w below this is not evaluated
_JET_CAP = math.nextafter(_JET_LOG_RADIUS, 0.0)  # last x a jet-only Phi reaches
_MEMO_SIZE = 1024           # per-weight memo entries; the memo clears when full
_MISSING = object()


@dataclass(frozen=True)
class SaddleSolution:
    s_z: complex
    rho_z: float
    theta_z: float
    residual: float
    iterations: int
    log_rho_z: float


@dataclass(frozen=True)
class RegionTag:
    kind: str                  # 'inside' | 'outside' | 'no_saddle'
    alpha: Optional[float]     # the saddle's |theta_z|, None without one
    rho0_used: float           # the radius tested

    @classmethod
    def of(cls, sol: Optional[SaddleSolution], alpha: float, rho0: float):
        """The one region rule: inside Omega(alpha, rho0), the image under Phi
        of |theta| < alpha, |s| > rho0, iff |theta_z| < alpha, rho_z > rho0."""
        if sol is None:
            return cls("no_saddle", None, rho0)
        theta = abs(sol.theta_z)
        return cls("inside" if theta < alpha and sol.rho_z > rho0 else
                   "outside", theta, rho0)

    @property
    def inside(self) -> bool:
        return self.kind == "inside"

    def __str__(self):
        a = f"{self.alpha:.6g}" if self.alpha is not None else "-"
        return f"{self.kind}(alpha={a}, rho0={self.rho0_used:.6g})"


def _phi_w(f: AdmissibleFunction, w: complex,
           order: int = 2) -> Tuple[complex, Optional[complex]]:
    """(Phi(e^w), dPhi/dw), with None for dPhi/dw at order 1;
    NoSaddleError where Phi cannot be evaluated."""
    if not w.real >= _LOG_RHO_MIN:
        raise NoSaddleError(f"{f.label}: |s| = e^{w.real:.6g} is below the "
                            "range of Phi")
    phi, dphi = f.phi_log(w, order)
    return complex(phi), complex(dphi) if order >= 2 else None


def _memoized(fn):
    """fn(f, *args), stored in the weight's memo under (name, *args).

    fn must be a pure function of its arguments.  A repeat returns the
    stored result (None included) without evaluating Phi; an exception is
    not stored.  The memo is read with get and written after computing,
    so a concurrent clear cannot make a lookup raise.
    """
    @functools.wraps(fn)
    def memo_fn(f: AdmissibleFunction, *args):
        key = (fn.__name__,) + args
        memo = f._saddle_memo
        out = memo.get(key, _MISSING)
        if out is _MISSING:
            out = fn(f, *args)
            if len(memo) >= _MEMO_SIZE:
                memo.clear()
            memo[key] = out
        return out
    return memo_fn


def _line_root(f: AdmissibleFunction, w0: complex, along: complex,
               target: float, t: float, lo: float, hi: float,
               tol_resid: float, evals: int):
    """Newton in t for Re Phi(e^w) = target (along = 1) or Im Phi(e^w) =
    target (along = 1j) at w = w0 + along t, both of slope Re dPhi/dw.
    Each residual's sign shrinks the finite bracket (lo, hi), and a step
    leaving it bisects.  (t, Phi, dPhi/dw) once |resid| <= tol_resid; None
    after evals evaluations, once the bracket has collapsed, or where Phi
    cannot be evaluated."""
    for _ in range(evals):
        try:
            phi, dphi = _phi_w(f, w0 + along * t)
        except NoSaddleError:
            return None
        resid = (phi.real if along == 1 else phi.imag) - target
        if abs(resid) <= tol_resid:
            return t, phi, dphi
        lo, hi = (lo, t) if resid > 0 else (t, hi)
        t_new = t - resid / dphi.real if dphi.real > 0 else math.nan
        if not lo < t_new < hi:
            if not hi - lo > 1e-14 * (abs(lo) + abs(hi)):   # collapsed
                return None
            t_new = 0.5 * (lo + hi)
        t = t_new
    return None


@_memoized
def _ray_root(f: AdmissibleFunction, target: float, rel_tol: float) -> float:
    """x = log rho with Phi(e^x) = target on the positive ray.

    The bracket steps x from its start by log 3 upward or log 1/4
    downward and doubles the step at every evaluation; for a weight
    without a log-domain Phi an upward step stops just below the jet's
    cut, so a root short of it is not skipped.  _line_root follows from
    the bracket's middle.  Memoized per weight.
    """
    x0 = x = math.log(max(1.0, 1.5 * f.c_gamma + 0.5))
    g_prev = _phi_w(f, x0, 1)[0].real
    up = g_prev < target
    step = math.log(3.0 if up else 0.25)
    cap = math.inf if f.has_log_domain else _JET_CAP
    stalls = 0
    for _ in range(400):
        x = min(x + step, cap) if x < cap else x + step
        step *= 2.0
        g = _phi_w(f, x, 1)[0].real
        if (g >= target) if up else (g <= target):
            break
        if not up:
            # Phi bounded below on the ray (weights regular at the origin):
            # give up early instead of walking to the underflow floor
            stalls = stalls + 1 if g_prev - g < 1e-3 * (1.0 + abs(g)) else 0
            g_prev = g
            if stalls >= 3:
                raise NoSaddleError(
                    f"{f.label}: Phi on the ray is bounded below by about "
                    f"{g:.6g} > log_r = {target:.6g} (no saddle)")
    else:
        raise NoSaddleError(f"{f.label}: no bracket for log_r = {target:.6g}")

    lo, hi = (x0, x) if up else (x, x0)
    root = _line_root(f, 0j, 1, target, 0.5 * (lo + hi), lo, hi,
                      rel_tol * (1.0 + abs(target)), 200)
    if root is None:
        raise NoSaddleError(f"{f.label}: ray solve stalled, log rho bracket "
                            f"[{lo:.6g}, {hi:.6g}]")
    return root[0]


def _exp_w(w: complex) -> Tuple[complex, float]:
    """(s, |s|) = (e^w, e^Re w), inf where they leave the double range."""
    if w.real < 700:
        return cmath.exp(w), math.exp(w.real)
    return complex(math.inf, math.inf), math.inf


def _newton_w(f: AdmissibleFunction, w: complex, target: complex,
              tol_resid: float):
    """Newton for Phi(e^w) = target from w: (w, |resid|, evaluations,
    dPhi/dw at w), or None when it does not converge in 12 evaluations, an
    iterate leaves the sector |Im w| < f.alpha0 (past it the jet need not
    continue Phi: theorem3's kernel changes side at theta = +-pi), or a
    step leaves the range of Phi (e^w underflows, dPhi/dw is 0 or not
    finite).  Converged means |resid| <= tol_resid and a Newton step of
    at most _STEP_TOL: where |dPhi/dw| << 1 a small residual alone does
    not pin theta_z."""
    for it in range(1, 13):
        if not abs(w.imag) < f.alpha0:
            return None
        try:
            phi, dphi = _phi_w(f, w)
        except NoSaddleError:
            return None
        if dphi == 0 or not cmath.isfinite(dphi):
            return None
        resid = phi - target
        step = resid / dphi
        if abs(resid) <= tol_resid and abs(step) <= _STEP_TOL:
            return w, abs(resid), it, dphi
        w = w - step
    return None


def _walk(f: AdmissibleFunction, x: float, log_r: float,
          psi_end: Optional[float], alpha: Optional[float]):
    """The one continuation in psi of the saddle of log r + i psi, from the
    ray root x: (psi, w, |resid|, Newton evaluations) at its end.

    A step of psi starts from the tangent predictor w + i dpsi / Phi'(w)
    (dw/dpsi = i / Phi') and is solved by _newton_w, inside the sector.
    |dpsi| is at most 0.25 |dPhi/dw| at the current point, so theta_z
    moves about 0.25 rad; the factor halves for good after a Newton that
    took more than 5 evaluations or failed.  For solve (alpha None) the
    walk ends on psi_end, which its last step lands on exactly, and
    returns None once |theta_z| reaches the sector edge alpha0 - 0.02.
    For boundary_psi (alpha > 0) a step that would carry theta_z past
    alpha is Newton in psi on theta_z = alpha instead (dtheta_z/dpsi =
    Re 1/Phi'), clipped to the plain step, and the walk ends within 1e-10
    of alpha.  NoSaddleError after 64 Newton solves.
    """
    w = complex(x)
    phi, dphi = _phi_w(f, w)
    if dphi == 0 or not cmath.isfinite(dphi):
        raise NoSaddleError(f"{f.label}: dPhi/dw = {dphi} at the ray root")
    psi, resid, evals, scale = 0.0, abs(phi - log_r), 1, 0.25
    for solves in range(65):        # the last pass only checks the 64th
        if psi == psi_end if alpha is None else abs(w.imag - alpha) <= 1e-10:
            return psi, w, resid, evals
        if solves == 64:
            break
        h = scale * abs(dphi)
        if alpha is None:
            psi_next = (psi_end if abs(psi_end - psi) <= h
                        else psi + math.copysign(h, psi_end - psi))
            dpsi = psi_next - psi
        else:
            slope = (1.0 / dphi).real
            newton = (alpha - w.imag) / slope if slope else h
            dpsi = max(-h, min(newton, h)) if newton > 0 or w.imag > alpha else h
            psi_next = psi + dpsi
        log_z = complex(log_r, psi_next)
        step = _newton_w(f, w + 1j * dpsi / dphi, log_z,
                         _ROOT_TOL * (1.0 + abs(log_z)))
        if step is not None:
            w, resid, iters, dphi = step
            psi, evals = psi_next, evals + iters
            if alpha is None and abs(w.imag) >= f.alpha0 - _EDGE_DELTA:
                return None
        if step is None or iters > 5:
            scale *= 0.5
    raise NoSaddleError(f"{f.label}: the walk in psi at log_r = {log_r:.6g} "
                        f"stopped at psi = {psi:.6g} after 64 Newton solves")


@_memoized
def _continue(f: AdmissibleFunction, x: float,
              log_z: complex) -> Optional[SaddleSolution]:
    """The saddle of log_z = log r + i psi, by _walk from the ray root x to
    psi; None where theta_z reaches the sector edge first.  Memoized per
    weight."""
    end = _walk(f, x, log_z.real, log_z.imag, None)
    if end is None:
        return None
    _, w, resid, iterations = end
    s_z, rho = _exp_w(w)
    return SaddleSolution(s_z, rho, w.imag, resid, iterations, w.real)


def _ray_in_range(f: AdmissibleFunction, log_r: float) -> float:
    """_ray_root, refusing radii past the double range (rho would be inf)."""
    x = _ray_root(f, float(log_r), _ROOT_TOL)
    if x > _LOG_RHO_MAX:
        raise NoSaddleError(
            f"{f.label}: saddle radius e^{x:.6g} for log_r={log_r:.6g} exceeds "
            "the double range; use the log-domain entry points")
    return x


def solve_real(f: AdmissibleFunction, log_r: float) -> float:
    """Root of Phi(rho) = log_r on the positive ray.

    Raises NoSaddleError when log_r is below Phi's range on the ray, or
    when the root lies beyond the double range (solve_real_log gives its
    log for weights with an asymptotic form there).
    """
    return math.exp(_ray_in_range(f, log_r))


def solve_real_log(f: AdmissibleFunction, log_r: float) -> float:
    """log rho of the ray solution, also for radii past the double range."""
    return _ray_root(f, float(log_r), 1e-12)


def solve(f: AdmissibleFunction, z: LogSurfacePoint
          ) -> Tuple[Optional[SaddleSolution], RegionTag]:
    """Saddle for a surface point: ray solution, then continuation in psi.

    Returns (solution, tag), tagged against Omega(alpha0 - 0.02, rho0 =
    f.default_rho0()).  When the continuation path hits that sector edge
    before reaching psi, the solution is None and the tag reads no_saddle
    (the point lies outside every Omega(alpha) with alpha below the edge).
    Raises NoSaddleError where solve_real does, and where the walk in psi
    gives up (_walk).
    """
    rho0 = f.default_rho0()
    sol = _continue(f, _ray_in_range(f, z.log_r), z.log_z)
    return sol, RegionTag.of(sol, f.alpha0 - _EDGE_DELTA, rho0)


def solve_log_domain(f: AdmissibleFunction, z: LogSurfacePoint
                     ) -> Tuple[Optional[SaddleSolution], RegionTag]:
    """Like solve(), also for saddle radii past the double range, where
    rho_z is inf and log_rho_z carries the radius; tagged against rho0 = 1."""
    sol = _continue(f, _ray_root(f, z.log_r, _ROOT_TOL), z.log_z)
    return sol, RegionTag.of(sol, f.alpha0 - _EDGE_DELTA, 1.0)


def classify(f: AdmissibleFunction, z: LogSurfacePoint, alpha: float) -> RegionTag:
    """solve's saddle tagged against Omega(alpha, f.default_rho0()); where
    solve raises NoSaddleError the tag reads no_saddle."""
    if not alpha < f.alpha0:
        raise SpecError(f"alpha must be below alpha0 = {f.alpha0:.6g}")
    try:
        sol = solve(f, z)[0]
    except NoSaddleError:
        sol = None
    return RegionTag.of(sol, alpha, f.default_rho0())


def boundary_psi(f: AdmissibleFunction, log_r: float, alpha: float) -> float:
    """The positive sheet argument psi at which the saddle of r e^{i psi}
    sits at angle alpha (the boundary curve of Omega(alpha) at radius r):
    _walk from the ray root until theta_z = alpha, so solve at log_r + i psi
    continues to this saddle.
    """
    if alpha == 0.0:
        return 0.0
    if alpha < 0.0:
        return -boundary_psi(f, log_r, -alpha)
    if not alpha < f.alpha0 - _EDGE_DELTA:
        raise SpecError(f"alpha too close to the sector edge {f.alpha0:.6g}")
    return _walk(f, _ray_root(f, log_r, _ROOT_TOL), log_r, None, alpha)[0]


def point_with_saddle_radius(f: AdmissibleFunction, rho_star: float,
                             psi_sign_ray: float = 0.0
                             ) -> Tuple[LogSurfacePoint, complex]:
    """Surface point whose saddle has |s_z| = rho_star, on the ray where
    the point's argument equals psi_sign_ray.

    For psi = 0 this is just z = exp(Phi(rho_star)); otherwise _line_root
    solves Im Phi(rho* e^{i theta}) = psi for theta between 0 and the
    sector edge, from the middle of that range.  NoSaddleError when no
    theta there reaches psi; SpecError unless rho_star > 0.
    """
    if not rho_star > 0.0:
        raise SpecError(f"rho* must be positive, got {rho_star:.6g}")
    x = math.log(rho_star)
    if psi_sign_ray == 0.0:
        return LogSurfacePoint(_phi_w(f, complex(x), 1)[0].real, 0.0), \
            complex(rho_star)
    edge = math.copysign(f.alpha0 - _EDGE_DELTA, psi_sign_ray)
    root = _line_root(f, complex(x), 1j, psi_sign_ray, 0.5 * edge,
                      min(0.0, edge), max(0.0, edge),
                      1e-12 * (1.0 + abs(psi_sign_ray)), 60)
    if root is None:
        raise NoSaddleError(
            f"rho* = {rho_star:.6g}: no saddle angle in the sector reaches "
            f"psi = {psi_sign_ray:.6g}")
    theta, phi, _ = root
    return LogSurfacePoint(phi.real, phi.imag), rho_star * cmath.exp(1j * theta)
