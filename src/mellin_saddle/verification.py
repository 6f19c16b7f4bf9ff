"""Batch verification suites tying the numerics to the asymptotic claims.

Limit statements are tested as ladder trends: deviations must shrink
along a geometric ladder and end under a per-suite threshold.  A report
lists every case with measured/expected values; suites never raise on a
failing case, the report carries the verdict.  Reports serialize
deterministically (sorted keys, fixed float repr), so identical inputs
give byte-identical output.
"""
from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from .asymptotics import E_asymptotic, K_asymptotic
from .catalog import AdmissibleFunction, SlowlyVaryingEll, build_theorem3
from .errors import MellinSaddleError, SpecError
from .saddle import point_with_saddle_radius
from .surface import LogSurfacePoint, Tolerances
from .transforms import ContourSpec, eval_growth_sum, eval_K, moment


@dataclass
class CaseResult:
    descriptor: str
    measured: float
    expected: float
    rel_error: float
    passed: bool
    note: str = ""


@dataclass
class VerificationReport:
    suite: str
    tolerance: float
    cases: List[CaseResult] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add(self, descriptor, measured, expected, note=""):
        denom = max(abs(expected), 1e-300)
        rel = abs(measured - expected) / denom
        self.cases.append(CaseResult(descriptor, float(measured),
                                     float(expected), float(rel),
                                     bool(rel <= self.tolerance), note))
        return self.cases[-1]

    def add_flag(self, descriptor, passed, measured=math.nan,
                 expected=math.nan, note=""):
        self.cases.append(CaseResult(descriptor, float(measured),
                                     float(expected), math.nan,
                                     bool(passed), note))
        return self.cases[-1]

    @property
    def n_pass(self) -> int:
        return sum(1 for c in self.cases if c.passed)

    @property
    def n_fail(self) -> int:
        return len(self.cases) - self.n_pass

    @property
    def passed(self) -> bool:
        return self.n_fail == 0

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "summary": {"pass": self.n_pass, "fail": self.n_fail},
            "notes": list(self.notes),
            "cases": [vars(c) for c in self.cases],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def verify_moments(f: AdmissibleFunction, n_max: int = 10, *,
                   tol: Optional[Tolerances] = None) -> VerificationReport:
    """moment(f, n) against gamma(n+1) for n = 0..n_max, to 1e-6."""
    if n_max < 0:
        raise SpecError(f"n_max must be >= 0, got {n_max}")
    if n_max > 15:
        raise SpecError("moment orders above 15 exceed quadrature conditioning")
    rep = VerificationReport(f"moments[{f.label}]", 1e-6)
    for n in range(n_max + 1):
        lg = float(np.real(f.log_gamma(np.complex128(n + 1.0))))
        try:
            m = moment(f, n, tol=tol)
            # past exp's range (709.78) both sides go on gamma(n+1)'s scale
            shift = lg if max(lg, m.log_scale) > 709.0 else 0.0
            notes = [f"both sides times e^-{lg:.17g}"] if shift else []
            rep.add(f"n={n}", float((m.value * math.exp(m.log_scale - shift)).real),
                    float(np.exp(lg - shift)), note="; ".join(
                        notes + ([] if m.converged else ["quadrature unconverged"])))
        except MellinSaddleError as e:
            rep.add_flag(f"n={n}", False, note=f"error: {e}",
                         expected=float(np.exp(lg)) if lg <= 709.0 else math.inf)
    return rep


def verify_positivity(f: AdmissibleFunction, t_grid: Sequence[float], *,
                      tol: Optional[Tolerances] = None) -> VerificationReport:
    """K(t) >= -band * max|K| (and |Im K| below the same band), band =
    1e-9, on a nonempty grid of finite t > 0; meaningful for weights built
    from a positive integral representation."""
    t_grid = [float(t) for t in t_grid]
    if not t_grid or not all(0.0 < t < math.inf for t in t_grid):
        raise SpecError(f"positivity needs finite t > 0 on its grid, got {t_grid}")
    band = 1e-9
    rep = VerificationReport(f"positivity[{f.label}]", band)
    if not f.positive_type:
        rep.notes.append("weight not tagged positive-type; bound is not implied")
    if f.degenerate:
        rep.notes.append("degenerate (zero-measure) weight: the density is a "
                         "point mass, grid values read ~0 and carry no sign "
                         "information")
        rep.add_flag("degenerate", True, note="suite skipped K evaluation")
        return rep
    vals = []
    for t in t_grid:
        z = LogSurfacePoint(math.log(t), 0.0)
        k = eval_K(f, z, ContourSpec("vertical"), tol=tol)
        vals.append((t, k))
    mag_max = max(v.magnitude_log for _, v in vals)
    for t, k in vals:
        scale = math.exp(k.log_scale - mag_max)
        re = k.value.real * scale          # relative to max |K| on the grid
        im = abs(k.value.imag) * scale
        rep.add_flag(f"t={t:g} re", re >= -band, measured=re, expected=0.0,
                     note=f"Re K / max|K| (log_scale {k.log_scale:.3g})")
        rep.add_flag(f"t={t:g} im", im <= band, measured=im, expected=0.0)
    return rep


def verify_carleman(f: AdmissibleFunction,
                    n_terms: int = 100_000) -> VerificationReport:
    """Divergence evidence for sum gamma(n+1)^{-1/(2n)}.

    Partial sums on a dyadic ladder must still grow by > 1% per doubling
    at the top; the minorant sum 1/sqrt(L(n)) is reported alongside.
    This is evidence, not proof: divergence of a series is not finitely
    decidable.
    """
    if n_terms < 1000:
        raise SpecError("need at least 1e3 terms for the ladder")
    growth_min = 1.01
    rep = VerificationReport(f"carleman[{f.label}]", growth_min)
    rep.notes.append("divergence evidence, not proof")
    marks = [n_terms // 8, n_terms // 4, n_terms // 2, n_terms]

    s_partial = 0.0
    m_partial = 0.0
    s_at = {}
    m_at = {}
    lo = 1
    for mark in marks:
        ns = np.arange(lo, mark + 1, dtype=float)
        lg = np.real(f.log_gamma(ns + 1.0 + 0j))
        terms = np.exp(-lg / (2.0 * ns))
        s_partial += float(np.sum(terms))
        logL = np.real(f.log_gamma(ns + 0j)) / ns
        m_partial += float(np.sum(np.exp(-0.5 * logL)))
        s_at[mark] = s_partial
        m_at[mark] = m_partial
        lo = mark + 1

    for a, b in zip(marks[:-1], marks[1:]):
        ratio = s_at[b] / s_at[a] if s_at[a] > 0 else math.inf
        rep.add_flag(f"S_{b}/S_{a}", ratio > growth_min, measured=ratio,
                     expected=growth_min,
                     note=f"S_{b}={s_at[b]:.6g}, minorant={m_at[b]:.6g}")
    # fitted growth exponent over the top octave
    expo = math.log(s_at[marks[-1]] / s_at[marks[-2]]) / math.log(2.0) \
        if s_at[marks[-2]] > 0 else math.inf
    rep.notes.append(f"fitted growth exponent over last doubling: {expo:.4g}")
    return rep


def verify_theorem3_limits(ell: SlowlyVaryingEll) -> VerificationReport:
    """Limits of the slowly-varying construction along the radius ladder
    1e2, 1e3, .., 1e6.

    (i)  log gamma(rho) / (rho (log ell(rho) - log ell(c))) -> 1
    (ii) ell(rho) / gamma(rho)^{1/rho} -> ell(c)   (when rho ell'/ell has
         a limit)

    The construction integrates from c, so the reference constant is the
    scale frozen at the lower limit, ell(c); as c -> 0 both statements
    turn into the plain normalized ones with ell(0).  Deviations must
    shrink along the ladder and end below the tolerance 0.02.
    """
    f = build_theorem3(ell)
    rep = VerificationReport(f"theorem3-limits[{ell.label}, c={ell.c:g}]", 0.02)
    log_ell_c = float(ell.log_ell(np.array([ell.c]))[0])

    devs_i, devs_ii = [], []
    for rho in np.geomspace(1e2, 1e6, 5):
        lg = float(np.real(f.log_gamma(np.complex128(rho))))
        le = float(ell.log_ell(np.array([rho]))[0])
        ratio_i = lg / (rho * (le - log_ell_c))
        devs_i.append(abs(ratio_i - 1.0))
        rep.add_flag(f"(i) rho={rho:.3g}", True, measured=ratio_i, expected=1.0,
                     note=f"rung recorded; raw (uncorrected for ell(c)): "
                          f"{lg / (rho * le):.6g}")
        # ell(rho) / gamma(rho)^{1/rho} vs ell(c), compared in logs
        ratio_ii = math.exp(le - lg / rho - log_ell_c)
        devs_ii.append(abs(ratio_ii - 1.0))
        rep.add_flag(f"(ii) rho={rho:.3g}", True, measured=ratio_ii, expected=1.0,
                     note="rung recorded")

    # the verdict is the trend: shrinking deviations ending under tolerance
    for name, devs in (("i", devs_i), ("ii", devs_ii)):
        shrinking = all(b <= a * 1.2 + 1e-12 for a, b in zip(devs[:-1], devs[1:]))
        rep.add_flag(f"({name}) final deviation", devs[-1] < rep.tolerance,
                     measured=devs[-1], expected=rep.tolerance)
        rep.add_flag(f"({name}) ladder shrinks", shrinking,
                     note=f"deviations {['%.3g' % d for d in devs]}")
    return rep


def deviation(num, asym) -> float:
    """|num / asym - 1| for two values carried as value * e^log_scale; inf
    only where the ratio leaves the double range."""
    d = num.log_scale - asym.log_scale
    if not d > 700.0:
        return abs(num.value * math.exp(d) / asym.value - 1.0)
    if num.value == 0:
        return 1.0
    try:        # scales more than e^700 apart: divide in logs
        return abs(cmath.exp(cmath.log(num.value) - cmath.log(asym.value) + d)
                   - 1.0)
    except OverflowError:
        return math.inf


def scan_ratio(f: AdmissibleFunction, which: str, ray_psi: float,
               rho_targets: Sequence[float], *,
               final_max: float = 0.05,
               expected_deviation: Optional[Callable[[float], float]] = None,
               require_monotone_tail: bool = True,
               tol: Optional[Tolerances] = None) -> VerificationReport:
    """|numeric/asymptotic - 1| along a ladder of saddle radii on one ray.

    which = 'K' compares the decay side, 'E' the growth side (through
    z E + 1/gamma(0)).  Passes when the final rung is below final_max and
    the last rungs keep shrinking; with an expected_deviation oracle the
    final rung and the decay rate must also stay within a factor 3 of it.
    The monotone-tail requirement can be waived for ladders whose signed
    deviation crosses zero (the factorial prototype does, near rho* = 40).
    """
    if which not in ("K", "E"):
        raise SpecError("which must be 'K' or 'E'")
    deviation_factor = 3.0
    rep = VerificationReport(f"scan-{which}[{f.label}, psi={ray_psi:g}]",
                             final_max)
    devs = []
    for rho_star in rho_targets:
        try:
            z, _ = point_with_saddle_radius(f, float(rho_star), ray_psi)
            if which == "K":
                num = eval_K(f, z, tol=tol)
                asym = K_asymptotic(f, z)
            else:
                num = eval_growth_sum(f, z, tol=tol)
                asym = E_asymptotic(f, z)
                if asym.region.kind != "inside":
                    rep.add_flag(f"rho*={rho_star:g}", False,
                                 note=f"region {asym.region.kind}, growth form "
                                      "not applicable on this ray")
                    continue
            dev = deviation(num, asym)
            devs.append((float(rho_star), dev))
            note = "" if num.converged else "numeric unconverged; "
            if expected_deviation is not None:
                note += f"oracle {expected_deviation(float(rho_star)):.3g}"
            rep.add_flag(f"rho*={rho_star:g}", True, measured=dev,
                         note=note + " (rung recorded)")
        except MellinSaddleError as e:
            rep.add_flag(f"rho*={rho_star:g}", False, note=f"error: {e}")
    if devs:
        final = devs[-1][1]
        tail = [d for _, d in devs[-3:]]
        monotone = all(b <= a * 1.05 + 1e-12 for a, b in zip(tail[:-1], tail[1:]))
        rep.add_flag("final rung", final < final_max, measured=final,
                     expected=final_max)
        rep.add_flag("tail shrinking", monotone or not require_monotone_tail,
                     note=f"last rungs {['%.3g' % d for d in tail]}"
                          + ("" if require_monotone_tail else " (waived)"))
        if expected_deviation is not None and len(devs) >= 2:
            # the oracle pins the final magnitude and the decay rate; the
            # pointwise band can be crossed where the signed error flips
            want_final = expected_deviation(devs[-1][0])
            rep.add_flag("final rung within oracle band",
                         final <= deviation_factor * want_final,
                         measured=final, expected=want_final,
                         note=f"factor {deviation_factor}")
            span = math.log(devs[-1][0] / devs[0][0])
            rate = -math.log(max(final, 1e-300) / max(devs[0][1], 1e-300)) / span
            rate_oracle = -math.log(want_final
                                    / expected_deviation(devs[0][0])) / span
            ok_rate = rate_oracle / deviation_factor <= rate \
                <= rate_oracle * deviation_factor
            rep.add_flag("decay rate matches oracle", ok_rate, measured=rate,
                         expected=rate_oracle, note=f"factor {deviation_factor}")
    else:
        rep.add_flag("final rung", False, note="no rung evaluated")
    return rep
