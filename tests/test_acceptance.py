"""Acceptance gate: one test per criterion, stated tolerances, one
printed PASS/FAIL line each.

Criterion 3's identity tolerance (1e-8 relative to z E + 1/gamma(0)) is
not reachable in double precision at grid points where the series and
the real-line integral lose more than ~8 digits to cancellation (the
peak term exceeds the sum by e^{rho_z eps} and every evaluator honestly
flags it).  The feasible sub-grid is asserted green in
test_criterion3_feasible_grid, the honest flagging of the remaining
points in test_criterion3_infeasible_points_flagged, and
test_criterion3_full_grid_as_stated runs the criterion literally - it is
expected to stay red in double precision; see notes/decisions.md in the
repository history for the floor analysis.
"""
import math
import time

import numpy as np
import pytest

from mellin_saddle import (ContourSpec, E_asymptotic, K_asymptotic,
                           LogSurfacePoint, MellinSaddleError, QuadratureError,
                           Tolerances, boundary_psi, build_positive_type,
                           build_theorem3, ell_exp_sqrt_log, ell_power,
                           eval_abel_plana_rhs, eval_E_series, eval_growth_sum,
                           eval_K, gamma_shift, iterated_log,
                           local_gaussian_reference, local_gaussian_saddle,
                           log_surface_pow, moment, monomial_exponent,
                           point_with_saddle_radius, positive_type_factorial,
                           positive_type_iterated_log, scan_ratio, solve,
                           verify_carleman, verify_moments, verify_positivity,
                           verify_theorem3_limits)
from mellin_saddle.asymptotics import duality_product


def _val(res):
    return res.value * math.exp(res.log_scale)


def _report(n, ok, detail=""):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} {detail}", flush=True)


# ---------------------------------------------------------------------------
# 1. prototype closure
# ---------------------------------------------------------------------------

def test_criterion1_prototype_closure(gamma0):
    t0 = time.time()
    worst_k = 0.0
    for t in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
        z = LogSurfacePoint(math.log(t), 0.0)
        want = math.exp(-t)
        for contour in (ContourSpec("l_alpha"), ContourSpec("vertical")):
            got = _val(eval_K(gamma0, z, contour)).real
            worst_k = max(worst_k, abs(got / want - 1.0))
    worst_e = 0.0
    for x in (1.0, 5.0, 10.0, 20.0):
        got = _val(eval_E_series(gamma0, LogSurfacePoint(math.log(x), 0.0))).real
        worst_e = max(worst_e, abs(got / math.exp(x) - 1.0))
    elapsed = time.time() - t0
    ok = worst_k <= 1e-6 and worst_e <= 1e-10 and elapsed < 10.0
    _report(1, ok, f"(K worst rel {worst_k:.2e} <= 1e-6, E worst rel "
                   f"{worst_e:.2e} <= 1e-10, {elapsed:.1f}s < 10s)")
    assert worst_k <= 1e-6
    assert worst_e <= 1e-10
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 2. moment identity
# ---------------------------------------------------------------------------

def test_criterion2_moment_identity(gamma0, gamma1, theorem3_power):
    t0 = time.time()
    reports = [verify_moments(f, 10)
               for f in (gamma0, gamma1, theorem3_power)]
    elapsed = time.time() - t0
    ok = all(r.passed for r in reports) and elapsed < 60.0
    worst = max(c.rel_error for r in reports for c in r.cases)
    _report(2, ok, f"(3 weights x n<=10, worst rel {worst:.2e} <= 1e-6, "
                   f"{elapsed:.1f}s < 60s)")
    for r in reports:
        assert r.passed, r.to_json()
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 3. Abel-Plana identity
# ---------------------------------------------------------------------------

_AP_RADII = (2.0, 10.0, 30.0)
_AP_PSIS = (0.0, math.pi / 3, 2 * math.pi / 3, math.pi)

# grid points within the double-precision condition budget (the other
# points lose > 8 digits to cancellation; see the module docstring)
_AP_FEASIBLE = {
    "factorial": {(2.0, 0), (2.0, 1), (2.0, 2), (2.0, 3),
                  (10.0, 0), (10.0, 1), (10.0, 2),
                  (30.0, 0), (30.0, 1)},
    "iterlog": {(2.0, 0), (2.0, 1), (2.0, 2), (2.0, 3), (10.0, 0)},
}


def _ap_point(f, r, psi):
    tol = Tolerances(rel_tol=1e-10)
    z = LogSurfacePoint(math.log(r), psi)
    ap = eval_abel_plana_rhs(f, z, tol=tol)
    gs = eval_growth_sum(f, z, tol=tol)
    rel = abs(ap.value * math.exp(ap.log_scale - gs.log_scale) - gs.value) \
        / abs(gs.value)
    return rel, ap, gs


def _weights():
    return [("factorial", gamma_shift(0.0)),
            ("iterlog", iterated_log(1.0, 1.0, 1, math.e))]


def test_criterion3_feasible_grid():
    worst = 0.0
    for name, f in _weights():
        for r in _AP_RADII:
            for j, psi in enumerate(_AP_PSIS):
                if (r, j) not in _AP_FEASIBLE[name]:
                    continue
                rel, _, _ = _ap_point(f, r, psi)
                worst = max(worst, rel)
                assert rel <= 1e-8, (name, r, psi, rel)
    _report(3, True, f"(feasible 14-point sub-grid, worst rel {worst:.2e} "
                     "<= 1e-8; remaining points exceed the double-precision "
                     "cancellation floor and are flagged, see companion tests)")


def test_criterion3_infeasible_points_flagged():
    # every point beyond the precision floor is flagged by the library:
    # unconverged result on at least one side, or an explicit refusal
    for name, f in _weights():
        for r in _AP_RADII:
            for j, psi in enumerate(_AP_PSIS):
                if (r, j) in _AP_FEASIBLE[name]:
                    continue
                try:
                    rel, ap, gs = _ap_point(f, r, psi)
                except QuadratureError:
                    continue                       # honest refusal
                assert (not ap.converged) or (not gs.converged), \
                    (name, r, psi, rel)


def test_criterion3_full_grid_as_stated():
    """The criterion verbatim: every grid point at 1e-8.  Expected red in
    double precision; kept unmarked so the gap stays visible."""
    failures = []
    for name, f in _weights():
        for r in _AP_RADII:
            for psi in _AP_PSIS:
                try:
                    rel, _, _ = _ap_point(f, r, psi)
                except MellinSaddleError as e:
                    failures.append((name, r, round(psi, 3),
                                     f"refused: {str(e)[:60]}"))
                    continue
                if rel > 1e-8:
                    failures.append((name, r, round(psi, 3), f"rel {rel:.2e}"))
    _report(3, not failures,
            f"(full 24-point grid as stated: {24 - len(failures)}/24 within "
            f"1e-8; failing points sit below the double-precision floor: "
            f"{failures})")
    assert not failures, failures


# ---------------------------------------------------------------------------
# 4. decay-side ratio ladder
# ---------------------------------------------------------------------------

def test_criterion4_decay_ladders(gamma0, iterlog):
    rep_g = scan_ratio(gamma0, "K", 0.0, [10.0, 20.0, 40.0, 80.0],
                       final_max=0.02,
                       expected_deviation=lambda rho: 1.0 / (12.0 * rho),
                       require_monotone_tail=False)
    rep_il = scan_ratio(iterlog, "K", 0.0,
                        [3750.0, 7500.0, 15000.0, 30000.0, 60000.0],
                        final_max=0.05)
    by = {c.descriptor: c for c in rep_g.cases}
    _report(4, rep_g.passed and rep_il.passed,
            f"(factorial final {by['final rung'].measured:.2e} < 2% within "
            f"3x Stirling; iterated-log final "
            f"{ {c.descriptor: c.measured for c in rep_il.cases}['final rung']:.3f}"
            " < 5% with shrinking tail)")
    assert rep_g.passed, rep_g.to_json()
    assert rep_il.passed, rep_il.to_json()


# ---------------------------------------------------------------------------
# 5. growth-side region split
# ---------------------------------------------------------------------------

def test_criterion5_growth_region_split(gamma0, iterlog):
    rep = scan_ratio(gamma0, "E", 0.0, [10.0, 20.0, 40.0, 80.0],
                     final_max=0.02)
    assert rep.passed, rep.to_json()

    # outside probe: asymptotics must classify it outside, and the true
    # magnitude of z E + 1/gamma(0) (= z e^z for the prototype) sits far
    # below 1e-3; the series evaluator's honest error bar must agree
    z = LogSurfacePoint(math.log(40.0), 3.0 * math.pi / 4)
    a = E_asymptotic(gamma0, z)
    assert a.region.kind == "outside" and a.value == 0.0
    true_mag = 40.0 * math.exp(40.0 * math.cos(3.0 * math.pi / 4))
    assert true_mag <= 1e-3
    gs = eval_growth_sum(gamma0, z)
    err_abs = gs.abs_error * math.exp(gs.log_scale)
    assert not gs.converged
    assert abs(_val(gs)) <= err_abs, "series value inconsistent with its bar"
    assert true_mag <= err_abs

    # boundary curve against the two-term expansion of the strip half-width
    worst_b = 0.0
    for log_r in (5.0, 8.0):
        r = math.exp(log_r)
        psi = boundary_psi(iterlog, log_r, math.pi / 2.0)
        two_term = (math.pi / 2.0) * (1.0 / r + (math.pi**2 / 8 - 0.5) / r**3)
        worst_b = max(worst_b, abs(psi / two_term - 1.0))
    final = {c.descriptor: c.measured for c in rep.cases}["final rung"]
    _report(5, worst_b <= 0.01,
            f"(inside ladder final {final:.2e} < 2%; outside probe magnitude "
            f"{true_mag:.1e} <= 1e-3 with region=outside; boundary psi vs "
            f"two-term expansion worst rel {worst_b:.2e} <= 1%)")
    assert worst_b <= 0.01


# ---------------------------------------------------------------------------
# 6. local saddle model
# ---------------------------------------------------------------------------

def test_criterion6_local_gaussian(gamma0, theorem3_power):
    devs = []
    # prototype at the stated edge of the regime; the slowly-varying
    # construction needs rho ~ 100 before its scale variation 1/(1+rho)
    # fits inside the band (still rho_z >= 30)
    for f, rho in ((gamma0, 30.0), (gamma0, 60.0),
                   (theorem3_power, 100.0), (theorem3_power, 150.0)):
        z, _ = point_with_saddle_radius(f, rho, 0.0)
        got = local_gaussian_saddle(f, z)
        sol, _ = solve(f, z)
        ref = _val(local_gaussian_reference(f, sol))
        devs.append(abs(got / ref - 1.0))
    _report(6, max(devs) <= 0.02,
            f"(ratio deviations {['%.4f' % d for d in devs]} all <= 2%)")
    assert max(devs) <= 0.02


# ---------------------------------------------------------------------------
# 7. slowly-varying construction limits
# ---------------------------------------------------------------------------

def test_criterion7_scale_construction_limits():
    reports = [verify_theorem3_limits(ell)
               for ell in (ell_power(1.0, 1e-6), ell_power(2.0, 1e-6),
                           ell_exp_sqrt_log(1e-6))]
    ok = all(r.passed for r in reports)
    finals = [next(c.measured for c in r.cases
                   if c.descriptor == "(i) final deviation") for r in reports]
    _report(7, ok, f"(three scales, final (i) deviations "
                   f"{['%.3g' % v for v in finals]} < 2%, ladders shrink)")
    for r in reports:
        assert r.passed, r.to_json()


# ---------------------------------------------------------------------------
# 8. positivity and determinacy
# ---------------------------------------------------------------------------

def test_criterion8_positivity_and_determinacy(gamma0, iterlog,
                                               factorial_measure):
    jump = build_positive_type(positive_type_iterated_log(1.0, 1, 10.0))
    rep1 = verify_positivity(factorial_measure, np.geomspace(0.2, 12.0, 9))
    rep2 = verify_positivity(jump, np.geomspace(2.8, 8.0, 7))
    assert rep1.passed, rep1.to_json()
    assert rep2.passed, rep2.to_json()

    car_g = verify_carleman(gamma0, 50_000)
    car_il = verify_carleman(iterlog, 50_000)
    car_controll = verify_carleman(monomial_exponent(3.0), 50_000)
    _report(8, car_g.passed and car_il.passed and not car_controll.passed,
            "(two positive measures bounded below by -1e-9*max; divergence "
            "evidence for factorial and iterated-log weights, convergence "
            "evidence for the cubic-exponent control)")
    assert car_g.passed and car_il.passed
    assert not car_controll.passed


# ---------------------------------------------------------------------------
# 9. property suites
# ---------------------------------------------------------------------------

def test_criterion9_property_suites(gamma0, gamma1, iterlog):
    t0 = time.time()
    # surface power laws
    rng = np.random.default_rng(2)
    for _ in range(20):
        z = LogSurfacePoint(rng.uniform(-1, 2), rng.uniform(-6, 6))
        s1 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        s2 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        lhs = log_surface_pow(z, s1 + s2)
        rhs = log_surface_pow(z, s1) * log_surface_pow(z, s2)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    # Schwarz symmetry and solver residual/uniqueness are covered in depth
    # by the module suites; re-assert the core contracts here
    s = 5.0 + 2.0j
    for f in (gamma0, gamma1, iterlog):
        assert complex(f.log_gamma(np.conj(s))) == pytest.approx(
            np.conj(complex(f.log_gamma(s))), rel=1e-12)
    z = LogSurfacePoint(math.log(20.0), 0.5)
    sol, _ = solve(gamma0, z)
    assert sol.residual < 1e-10 * (1 + abs(z.log_z))

    # quadrature route equivalence and c-independence
    zt = LogSurfacePoint(math.log(7.0), 0.0)
    k_ray = _val(eval_K(gamma0, zt))
    k_v1 = _val(eval_K(gamma0, zt, ContourSpec("vertical", c=0.5)))
    k_v2 = _val(eval_K(gamma0, zt, ContourSpec("vertical", c=2.0)))
    assert k_v1 == pytest.approx(k_v2, rel=1e-8)
    assert k_ray == pytest.approx(k_v1, rel=1e-7)

    # formula-level duality: K_asym * E_asym = s_z / eps(s_z)
    zd = LogSurfacePoint(math.log(30.0), 0.2)
    sol, _ = solve(gamma0, zd)
    q = sol.s_z / complex(gamma0.epsilon(np.complex128(sol.s_z)))
    assert duality_product(gamma0, zd) == pytest.approx(q, rel=1e-12)

    # deterministic byte-identical reports
    assert verify_moments(gamma0, 2).to_json() == \
        verify_moments(gamma0, 2).to_json()

    _report(9, True, f"(power laws, symmetry, residuals, route equivalence, "
                     f"duality, determinism re-checked in {time.time()-t0:.1f}s)")
