import cmath
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.special as sp

from mellin_saddle import (E_asymptotic, K_asymptotic, LogSurfacePoint,
                           NoSaddleError, RegionError, SpecError, boundary_psi,
                           build_positive_type, build_theorem3, classify,
                           ell_power, exp_scale, gamma_shift, iterated_log,
                           local_gaussian_saddle, point_with_saddle_radius,
                           positive_type_factorial, power, product,
                           QuadratureError, quotient, solve, solve_real)
from mellin_saddle import saddle
from mellin_saddle.saddle import solve_log_domain, solve_real_log


def _bisect_digamma(target, lo=1e-6, hi=1e8):
    """Independent ray oracle: plain bisection on digamma, no Newton."""
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if sp.digamma(mid) < target:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def _newton_2d(f, z, s0, iters=80):
    """Independent cold-start solver: real 2x2 Newton on (Re, Im)."""
    x = np.array([s0.real, s0.imag])
    target = np.array([z.log_z.real, z.log_z.imag])
    for _ in range(iters):
        s = complex(x[0], x[1])
        phi = complex(f.dlog_gamma(np.complex128(s)))
        r = np.array([phi.real, phi.imag]) - target
        dp = complex(f.d2log_gamma(np.complex128(s)))
        jac = np.array([[dp.real, -dp.imag], [dp.imag, dp.real]])
        try:
            step = np.linalg.solve(jac, r)
        except np.linalg.LinAlgError:
            return None
        x = x - step
        if not np.all(np.isfinite(x)) or abs(complex(*x)) > 1e12 or x[0] < -0.5:
            return None
        if np.linalg.norm(step) < 1e-12 * (1 + np.linalg.norm(x)):
            return complex(x[0], x[1])
    return None


def test_solve_real_digamma_oracle(gamma0):
    for target in [math.log(10.0), 1.0, 4.5]:
        rho = solve_real(gamma0, target)
        assert rho == pytest.approx(_bisect_digamma(target), rel=1e-9)
    rho10 = solve_real(gamma0, math.log(10.0))
    assert 10.0 < rho10 < 11.0


def test_solve_real_monotone(gamma0, iterlog):
    for f in (gamma0, iterlog):
        targets = np.linspace(1.0, 4.0, 9)
        roots = [solve_real(f, t) for t in targets]
        assert all(a < b for a, b in zip(roots, roots[1:]))


def test_solve_real_shift_identity(gamma0):
    # gamma(s) e^{tau s}: Phi shifts by tau, roots line up exactly
    tau = 0.9
    f = exp_scale(gamma0, tau)
    for log_r in [2.0, 3.5]:
        assert solve_real(f, log_r) == pytest.approx(
            solve_real(gamma0, log_r - tau), rel=1e-10)


def test_solve_real_below_range(gamma1):
    # Phi = psi(1+rho) is bounded below by psi(1)
    with pytest.raises(NoSaddleError):
        solve_real(gamma1, -2.0)


def test_iterated_log_saddle_growth_trend(iterlog):
    # rho_z against the simplified closed form (1 - 1/(2 z)) e^{z - 1}
    devs = []
    for zv in [20.0, 40.0, 80.0, 160.0]:
        rho = solve_real(iterlog, math.log(zv))
        model = (1.0 - 0.5 / zv) * math.exp(zv - 1.0)
        devs.append(abs(rho / model - 1.0))
    assert all(b < a for a, b in zip(devs, devs[1:]))
    assert devs[-1] < 0.01


def test_solve_psi_zero_reduces_to_ray(gamma0):
    z = LogSurfacePoint(math.log(15.0), 0.0)
    sol, tag = solve(gamma0, z)
    assert sol.theta_z == 0.0
    assert sol.s_z.imag == 0.0
    assert sol.rho_z == pytest.approx(solve_real(gamma0, z.log_r), rel=1e-12)


def test_solve_conjugate_symmetry(gamma0, iterlog):
    for f, psi in [(gamma0, 0.9), (iterlog, 0.04)]:
        z = LogSurfacePoint(math.log(18.0), psi)
        up, _ = solve(f, z)
        dn, _ = solve(f, z.conj())
        assert dn.s_z == pytest.approx(np.conj(up.s_z), rel=1e-10)
        assert dn.theta_z == pytest.approx(-up.theta_z, rel=1e-10)


def test_solve_residual_invariant(gamma0, gamma1, iterlog):
    rng = np.random.default_rng(5)
    for f in (gamma0, gamma1, iterlog):
        for _ in range(12):
            log_r = rng.uniform(2.0, 4.0)
            # target saddle angles up to ~1.2 rad: psi scales with eps at
            # the ray saddle (theta_z responds like psi/eps)
            rho_ray = solve_real(f, log_r)
            eps_scale = float(np.real(f.epsilon(np.complex128(rho_ray))))
            psi = rng.uniform(-1.2, 1.2) * eps_scale
            sol, _ = solve(f, LogSurfacePoint(log_r, psi))
            assert sol is not None
            assert sol.residual < 1e-10 * (1.0 + abs(complex(log_r, psi)))
            assert sol.theta_z * psi >= 0.0          # sign structure


def test_solve_agrees_with_cold_2d_newton(gamma0):
    z = LogSurfacePoint(math.log(20.0), math.pi / 4)
    sol, _ = solve(gamma0, z)
    cold = _newton_2d(gamma0, z, 20.0 * cmath.exp(1j * math.pi / 8))
    assert cold is not None
    assert sol.s_z == pytest.approx(cold, rel=1e-8)
    assert sol.residual < 1e-10
    assert 0.0 < sol.theta_z < math.pi / 4


def test_uniqueness_probe_cold_starts(gamma0, iterlog):
    # random cold starts either converge to the same root or diverge;
    # never to a second root inside the sector
    rng = np.random.default_rng(42)
    for f, z in [(gamma0, LogSurfacePoint(math.log(25.0), 0.7)),
                 (iterlog, LogSurfacePoint(2.4, 0.05))]:
        ref, _ = solve(f, z)
        roots = []
        for _ in range(50):
            rho0 = math.exp(rng.uniform(0.0, math.log(1e5)))
            th0 = rng.uniform(-f.alpha0 + 0.4, f.alpha0 - 0.4)
            got = _newton_2d(f, z, rho0 * cmath.exp(1j * th0))
            if got is None or abs(got) < 1e-8:
                continue
            phi = complex(f.dlog_gamma(np.complex128(got)))
            if abs(phi - z.log_z) > 1e-8 * (1 + abs(z.log_z)):
                continue
            if abs(cmath.phase(got)) < f.alpha0 - 0.05:
                roots.append(got)
        assert roots, "no cold start converged at all"
        assert all(abs(r - ref.s_z) < 1e-8 * abs(ref.s_z) for r in roots)


def test_classify_regions(gamma0):
    big = LogSurfacePoint(math.log(40.0), 0.0)
    assert classify(gamma0, big, math.pi / 2 - 0.05).kind == "inside"
    off = LogSurfacePoint(math.log(40.0), 3 * math.pi / 4)
    assert classify(gamma0, off, math.pi / 2 + 0.05).kind == "outside"
    tiny = LogSurfacePoint(math.log(1.2), 0.0)
    assert classify(gamma0, tiny, math.pi / 2).kind == "outside"  # rho_z < rho0


def test_classify_iterlog_escapes_sector(iterlog):
    # fixed psi != 0 with eps -> 0: theta_z ~ psi/eps grows past the sector
    z = LogSurfacePoint(6.0, 1.5)
    tag = classify(iterlog, z, math.pi / 2 + 0.05)
    assert tag.kind == "no_saddle"


def test_classify_without_a_ray_root(iterlog):
    # log r = -0.5 lies below Phi on the whole ray: the ray solve raises
    z = LogSurfacePoint(-0.5, 0.0)
    with pytest.raises(NoSaddleError):
        solve(iterlog, z)
    assert classify(iterlog, z, 1.0).kind == "no_saddle"


def _refused(fn, f, z):
    """True when fn(f, z) raises RegionError; a value, or the chord's
    QuadratureError past the double range, is not a refusal."""
    try:
        fn(f, z)
    except RegionError:
        return True
    except QuadratureError:
        pass
    return False


@pytest.mark.parametrize("r", [2.0, 5.0, 10.0])
@pytest.mark.parametrize("psi", [0.0, 1.0, 2.5])
@pytest.mark.parametrize("weight", ["gamma0", "gamma1", "iterlog",
                                    "theorem3_power"])
def test_one_region_rule(request, weight, r, psi):
    # solve, classify, the K form and the chord all tag by RegionTag.of:
    # solve at alpha0 - 0.02, the K form and the chord at alpha0 - 0.1,
    # every one of them against the same rho0.  iterlog at r = 5, psi = 0
    # (rho_z = 48.17 < rho0 = 1995.26) is where the chord, testing only
    # the angle, returned a value 5.3% off its reference, unflagged
    f = request.getfixturevalue(weight)
    z = LogSurfacePoint(math.log(r), psi)
    assert solve(f, z)[1].kind == classify(f, z, f.alpha0 - 0.02).kind
    decay = classify(f, z, f.alpha0 - 0.1)
    for fn in (K_asymptotic, local_gaussian_saddle):
        assert _refused(fn, f, z) == (not decay.inside), fn.__name__


def test_boundary_psi_trivialities(gamma0):
    assert boundary_psi(gamma0, math.log(25.0), 0.0) == 0.0
    up = boundary_psi(gamma0, math.log(25.0), 0.8)
    dn = boundary_psi(gamma0, math.log(25.0), -0.8)
    assert dn == pytest.approx(-up, rel=1e-9)
    sol, _ = solve(gamma0, LogSurfacePoint(math.log(25.0), up))
    assert sol.theta_z == pytest.approx(0.8, abs=1e-8)


def test_boundary_psi_two_term_expansion(iterlog):
    # psi with theta_z = pi/2 against (pi/2)(r^{-1} + (pi^2/8 - 1/2) r^{-3})
    for log_r in [5.0, 8.0]:
        r = math.exp(log_r)
        psi = boundary_psi(iterlog, log_r, math.pi / 2)
        two_term = (math.pi / 2) * (1.0 / r + (math.pi**2 / 8 - 0.5) / r**3)
        assert abs(psi / two_term - 1.0) < 0.01


def test_solve_real_past_e300(iterlog):
    # root near e^402: beyond the jet's range, inside the double range
    rho = solve_real(iterlog, 6.0)
    assert math.log(rho) > 300.0
    assert complex(iterlog.dlog_gamma(complex(rho))).real == pytest.approx(6.0, abs=1e-9)


def test_boundary_psi_far_factorial(gamma0):
    # Phi(e^w) = w at log r = 3000, so theta_z = psi along the whole path
    assert boundary_psi(gamma0, 3000.0, 1.0) == pytest.approx(1.0, abs=1e-8)


def test_phi_log_continuous_at_jet_cut(gamma0, iterlog):
    # the jet below Re w = 300 and the family's form past it meet there
    for f in (gamma0, iterlog):
        p, dp = f.phi_log(np.array([300.0 - 1e-9, 300.0], dtype=complex))
        assert p[1] == pytest.approx(p[0], rel=1e-10)
        assert dp[1] == pytest.approx(dp[0], rel=1e-9)


def test_jet_only_weight_refuses_past_e300(gamma0):
    f = exp_scale(gamma0, 0.9)         # no asymptotic form for Phi
    assert math.log(solve_real(f, 250.0)) == pytest.approx(249.1, rel=1e-9)
    with pytest.raises(NoSaddleError):
        solve_real(f, 310.0)


def test_log_domain_ray_solver(iterlog):
    lam = solve_real_log(iterlog, 8.0)
    # the double-range solver cannot reach this radius
    assert lam > 700.0
    p, _ = iterlog.phi_log(np.array([complex(lam)]))
    assert complex(p[0]).real == pytest.approx(8.0, abs=1e-10)


def test_log_domain_solve_matches_normal(iterlog):
    z = LogSurfacePoint(2.6, 0.01)
    a, _ = solve(iterlog, z)
    b, _ = solve_log_domain(iterlog, z)
    assert b.log_rho_z == pytest.approx(math.log(a.rho_z), rel=1e-9)
    assert b.theta_z == pytest.approx(a.theta_z, rel=1e-6, abs=1e-12)


def test_point_with_saddle_radius_round_trip(gamma0, theorem3_power):
    # theorem3's Phi is unreliable near the sector edge, so its points are
    # reached only by a solve that stays inside the sector
    cases = [(gamma0, 35.0, 0.0), (gamma0, 35.0, 0.9),
             (theorem3_power, 10.0, 0.9), (theorem3_power, 160.0, -0.9),
             (theorem3_power, 640.0, 2.5)]
    for f, rho, psi in cases:
        z, s_exp = point_with_saddle_radius(f, rho, psi)
        assert z.psi == pytest.approx(psi, abs=1e-12 * (1.0 + abs(psi)))
        sol, _ = solve(f, z)
        assert abs(sol.s_z) == pytest.approx(rho, rel=1e-9)
        assert sol.s_z == pytest.approx(s_exp, rel=1e-9)
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(SpecError):
            point_with_saddle_radius(gamma0, bad, 0.5)


def test_point_with_saddle_radius_cost(monkeypatch):
    f = gamma_shift(0.0)
    calls = []
    jet = f.jet

    def counted(s, order=2):
        calls.append(order)
        return jet(s, order)

    monkeypatch.setattr(f, "jet", counted)
    point_with_saddle_radius(f, 35.0, 0.9)
    assert len(calls) <= 8


def test_scan_K_reaches_theorem3_at_small_radius(capsys):
    from mellin_saddle.cli import main
    spec = '{"kind":"theorem3","params":{"ell":"power","a":1.0,"c":1.0}}'
    code = main(["verify", "scan-K", "--spec", spec, "--psi", "0.9",
                 "--rho-targets", "10"])
    out = capsys.readouterr().out
    # rho* = 10 lies below rho0, so the honest answer is a region error
    assert code == 1
    assert "no saddle angle" not in out
    assert "outside Omega" in out


def test_classify_splits_at_boundary_curve(iterlog):
    # points placed just inside/outside the traced boundary angle land on
    # the matching side of the region split
    log_r = 5.0
    psi_star = boundary_psi(iterlog, log_r, math.pi / 2)
    inside = LogSurfacePoint(log_r, 0.98 * psi_star)
    outside = LogSurfacePoint(log_r, 1.02 * psi_star)
    assert classify(iterlog, inside, math.pi / 2).kind == "inside"
    assert classify(iterlog, outside, math.pi / 2).kind == "outside"


# three radii per weight inside the benchmark's boundary ranges, plus
# log r = 3000 on the factorial weights (saddle radius past 1e290)
_BOUNDARY_LOG_R = {"gamma0": (1.0, 30.0, 700.0, 3000.0),
                   "gamma1": (1.0, 30.0, 700.0, 3000.0),
                   "iterlog": (0.5, 2.0, 8.0),
                   "theorem3_power": (1.0, 5.0, 18.7)}
# (log r, alpha) past a fold of theta_z(psi): theta_z rises, dips while
# Re dPhi/dw < 0 (at the first, from 2.37952 at psi ~ 0.725 to 2.3774),
# then rises through alpha (at psi ~ 1.3078 and 1.1888)
_BOUNDARY_FOLDS = {"iterlog": ((1.3776657597691564, 2.463799677850693),
                               (1.386788134307975, 2.4414453619435657))}


@pytest.mark.parametrize("weight", sorted(_BOUNDARY_LOG_R))
def test_boundary_psi_lands_on_alpha(request, weight):
    f = request.getfixturevalue(weight)
    cases = [(log_r, alpha) for log_r in _BOUNDARY_LOG_R[weight]
             for alpha in (0.3, 1.0, math.pi / 2, 2.5)]
    for log_r, alpha in cases + list(_BOUNDARY_FOLDS.get(weight, ())):
        far = solve_real_log(f, log_r) > math.log(1e290)
        z = LogSurfacePoint(log_r, boundary_psi(f, log_r, alpha))
        sol, _ = solve_log_domain(f, z) if far else solve(f, z)
        assert abs(sol.theta_z - alpha) <= 1e-8, (log_r, alpha)


def test_boundary_psi_cost(gamma0, factorial_measure, monkeypatch):
    # one ray solve and one walk in psi, whose steps follow |dPhi/dw| at
    # each point: at the positive-type point psi = 24.1 is large against
    # |dPhi/dw| at the ray root
    calls = []
    phi_w = saddle._phi_w

    def counted(*args, **kw):
        calls.append(args)
        return phi_w(*args, **kw)

    monkeypatch.setattr(saddle, "_phi_w", counted)
    boundary_psi(gamma0, math.log(25.0), 0.8)
    assert len(calls) <= 50
    calls.clear()
    boundary_psi(factorial_measure, -0.5, 3.1)
    assert len(calls) <= 300
    # solve walks the same way to that saddle, on a fresh weight
    f = build_positive_type(positive_type_factorial())
    calls.clear()
    sol, _ = solve(f, LogSurfacePoint(-0.5, 24.119675937116757))
    assert abs(sol.theta_z - 3.1) <= 1e-8
    assert len(calls) <= 300


def test_boundary_psi_exact_where_phi_is(gamma0):
    # Phi(e^w) = w to the last bit at log r = 3000, so psi = alpha
    assert abs(boundary_psi(gamma0, 3000.0, 1.0) - 1.0) <= 1e-12


def test_boundary_psi_refusals(gamma0, iterlog):
    # at log r = 0, theta_z(psi) peaks near 1.81, short of 2, and falls
    # toward pi/2: the walk stops after its 64 Newton solves
    with pytest.raises(NoSaddleError):
        boundary_psi(gamma0, 0.0, 2.0)
    # at log r = 50, psi on the curve is about 1e-22 and |dPhi/dw| about
    # 2e-22; the walk resolves it, since its steps scale with |dPhi/dw| and
    # a Newton step in w must be small as well as the residual
    psi = boundary_psi(iterlog, 50.0, 0.5)
    assert 0.0 < psi < 1e-21
    sol, _ = solve_log_domain(iterlog, LogSurfacePoint(50.0, psi))
    assert abs(sol.theta_z - 0.5) <= 1e-8


def test_newton_stops_on_its_step(iterlog):
    # |resid| = psi is below the residual tolerance at theta = 0 already;
    # the step psi / |dPhi/dw| ~ 0.5 is not, so the ray root is no saddle
    sol, tag = solve_log_domain(iterlog, LogSurfacePoint(50.0, 9.64375e-23))
    assert sol is not None and tag.inside
    assert abs(sol.theta_z - 0.5) <= 1e-6


def _count_phi(monkeypatch):
    """Record every Phi evaluation of the saddle layer."""
    calls = []
    phi_w = saddle._phi_w

    def counted(*args, **kw):
        calls.append(args)
        return phi_w(*args, **kw)

    monkeypatch.setattr(saddle, "_phi_w", counted)
    return calls


# saddle_sweep points without a saddle on theorem3: solve took 786 to 1,040
# Phi evaluations there on a kernel that was wrong near the sector edge
@pytest.mark.parametrize("log_r, psi", [(12.0185, 7.4805), (5.2123, 8.8768),
                                        (14.2873, -7.1803)])
def test_no_saddle_point_costs_few_phi(monkeypatch, log_r, psi):
    f = build_theorem3(ell_power(1.0, 1.0))       # fresh weight, empty memo
    calls = _count_phi(monkeypatch)
    sol, tag = solve(f, LogSurfacePoint(log_r, psi))
    assert sol is None and tag.kind == "no_saddle"
    assert len(calls) <= 150


def test_newton_stays_in_the_sector(monkeypatch, ell_power_exact):
    # theorem3's jet changes side at theta = +-pi, so the root at theta =
    # 3.3 of its closed form continued across the negative axis (where
    # log((s+1)/2) gains 2 pi i) is no root of the jet.  Newton from theta
    # = 3.0 steps toward it and stops as its iterate leaves |Im w| < alpha0
    f = build_theorem3(ell_power(1.0, 1.0))
    s = 10.0 * cmath.exp(3.3j)
    target = (ell_power_exact(1.0, 1.0, s)[1]
              + 2j * math.pi * (1.0 - (s - 1.0) ** -2))
    calls = _count_phi(monkeypatch)
    w0 = complex(math.log(10.0), 3.0)
    assert saddle._newton_w(f, w0, target, 1e-10) is None
    assert len(calls) == 1


def test_one_saddle_solve_per_point(monkeypatch):
    # solve, classify and both asymptotics share one ray root and one
    # continuation: only the first call evaluates Phi
    f = gamma_shift(0.0)               # fresh weight, empty memo
    z = LogSurfacePoint(math.log(40.0), 1.0)
    calls = _count_phi(monkeypatch)
    sol, tag = solve(f, z)
    assert tag.kind == "inside" and len(calls) > 0
    first = len(calls)
    assert classify(f, z, math.pi / 2).kind == "inside"
    E_asymptotic(f, z)
    K_asymptotic(f, z)
    assert solve(f, z) == (sol, tag)
    assert len(calls) == first


def test_solve_independent_of_history():
    # a weight that served every evaluator call of the fingerprint solves
    # exactly like a freshly built one
    path = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"
    spec = importlib.util.spec_from_file_location("fingerprint", path)
    fp = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fp)

    def solves(calls):
        return [(label, thunk()) for label, thunk in calls
                if label.startswith("solve ")]

    fresh = solves(fp.calls())
    served = fp.calls()
    for label, thunk in served:
        if not label.startswith(("solve ", "boundary_psi ")):
            try:
                thunk()
            except Exception:       # the raising lines are part of the history
                pass
    assert solves(served) == fresh


def test_memo_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(saddle, "_MEMO_SIZE", 8)
    f = gamma_shift(0.0)
    for k in range(20):
        solve(f, LogSurfacePoint(2.0 + 0.1 * k, 0.5))
        assert 0 < len(f._saddle_memo) <= 8


def test_ray_bracket_doubles_its_step(monkeypatch):
    # iterated_log's root at log r = 10 is rho = e^22025: the doubling
    # bracket reaches it in a few steps, where x3 steps in rho took 293
    f = iterated_log(1.0, 1.0, 1, math.e)
    calls = _count_phi(monkeypatch)
    assert solve_real_log(f, 10.0) == pytest.approx(22025.4657721, rel=1e-9)
    assert len(calls) <= 30


def test_ray_root_far_past_the_jet():
    f = iterated_log(1.0, 1.0, 1, math.e)
    lam = solve_real_log(f, 100.0)
    assert lam == pytest.approx(2.688117e43, rel=1e-6)
    p, _ = f.phi_log(np.array([complex(lam)]))
    assert complex(p[0]).real == pytest.approx(100.0, abs=1e-8)


def test_composites_far_past_the_jet():
    # the power, product and quotient weights' own far forms of Phi:
    # il^2 and il*il have Phi = 2 Phi_il, and gamma(s+1) il / il has Phi =
    # w past the jet
    il = iterated_log()
    x = solve_real_log(il, 20.0)
    assert x > 300.0
    assert solve_real_log(power(il, 2.0), 40.0) == x
    assert solve_real_log(product(il, il), 40.0) == x
    f = quotient(product(gamma_shift(1.0), il), il)
    assert solve_real_log(f, 400.0) == 400.0


def test_ray_bracket_stops_at_the_jet_cut():
    # Phi = digamma + 1/2 is known only from the jet: the root near
    # x = 290 lies past the bracket's x = 280 and short of its next step
    f = exp_scale(gamma_shift(0.0), 0.5)
    assert solve_real_log(f, 290.5) == pytest.approx(290.0, abs=1e-9)


def _exact_theta(phi_w, log_r, psi, steps):
    """theta_z of log r + i psi on phi_w(w) = (Phi(e^w), dPhi/dw), without
    the saddle layer: bisection on the ray, then `steps` equal steps of
    psi, each solved by Newton in w from the last root; None once |theta|
    reaches the sector edge pi - 0.02."""
    lo, hi = 0.0, 50.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if phi_w(complex(mid))[0].real < log_r else (lo, mid)
    w = complex(lo)
    for k in range(1, steps + 1):
        target = complex(log_r, psi * k / steps)
        for _ in range(20):
            phi, dphi = phi_w(w)
            step = (phi - target) / dphi
            w -= step
            if abs(step) < 1e-14 * (1.0 + abs(w)):
                break
        else:
            raise AssertionError(f"Newton stalled at step {k}")
        if abs(w.imag) >= math.pi - 0.02:
            return None
    return w.imag


def _closed_form_phi(jet):
    """phi_w of build_theorem3(ell_power(1, 1)) from its closed form."""
    def phi_w(w):
        s = cmath.exp(w)
        _, phi, d2 = jet(1.0, 1.0, s)
        return phi, s * d2                        # dPhi/dw = s Phi'(s)
    return phi_w


# The first three once expected theta_z = 3.10196, -3.09467 and 3.10044:
# those came from a continuation on the real-axis Cauchy grid, whose Phi
# is wrong near the sector edge.  On the exact Phi the path reaches the
# edge first.  The last two are Phi(10 e^{i theta}) at theta = 3.1 and
# -3.11, saddles just inside the edge.
_NEARBY_ROOTS = [(15.42, 6.78), (7.48, -5.09), (6.91, 6.08),
                 (2.5037846963483643, 3.069776572754552),
                 (2.50328185994114, -3.0807877590451884)]


@pytest.mark.parametrize("log_r, psi", _NEARBY_ROOTS)
def test_continue_keeps_the_nearby_root(ell_power_exact, log_r, psi):
    want = _exact_theta(_closed_form_phi(ell_power_exact), log_r, psi, 5000)
    sol, tag = solve(build_theorem3(ell_power(1.0, 1.0)),
                     LogSurfacePoint(log_r, psi))
    if want is None:
        assert sol is None and tag.kind == "no_saddle"
    else:
        assert sol.theta_z == pytest.approx(want, abs=1e-9)


# saddle_sweep points where a continuation whose psi-step stayed set by
# |dPhi/dw| at the ray root met the sector edge: the saddle exists
_WALKED_ROOTS = [("iterlog", 1.4357196727634158, -3.0378341598780016),
                 ("iterlog", 1.435084907138416, 1.722677067372377),
                 ("gamma0", 1.8044873001772448, 8.239122839430141)]


@pytest.mark.parametrize("weight, log_r, psi", _WALKED_ROOTS)
def test_solve_follows_the_continuation(request, weight, log_r, psi):
    f = request.getfixturevalue(weight)
    want = _exact_theta(f.phi_log, log_r, psi, math.ceil(abs(psi) / 2e-4))
    sol, tag = solve(f, LogSurfacePoint(log_r, psi))
    if want is None:
        assert sol is None and tag.kind == "no_saddle"
    else:
        assert sol.theta_z == pytest.approx(want, abs=1e-9)
