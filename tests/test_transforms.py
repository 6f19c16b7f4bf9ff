import cmath
import contextlib
import math
import warnings

import numpy as np
import pytest

from mellin_saddle import (ContourSpec, LogSurfacePoint, QuadratureError,
                           SpecError, Tolerances, eval_abel_plana_parts,
                           eval_abel_plana_rhs, eval_E_series, eval_growth_sum,
                           eval_K, exp_scale, gamma_shift, iterated_log,
                           moment, product)


def _val(res):
    return res.value * math.exp(res.log_scale)


# ---------------------------------------------------------------------------
# K: both contour routes and the factorial prototype
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 5.0, 10.0, 20.0])
def test_K_prototype_both_routes(gamma0, t):
    z = LogSurfacePoint(math.log(t), 0.0)
    want = math.exp(-t)
    ray = eval_K(gamma0, z)
    vert = eval_K(gamma0, z, ContourSpec("vertical"))
    assert _val(ray).real == pytest.approx(want, rel=1e-8)
    assert _val(vert).real == pytest.approx(want, rel=1e-8)
    assert ray.converged and vert.converged


def test_K_vertical_c_independence(gamma0):
    # the vertical integral does not depend on the abscissa
    for t in [2.0, 5.0, 10.0]:
        z = LogSurfacePoint(math.log(t), 0.0)
        vals = [_val(eval_K(gamma0, z, ContourSpec("vertical", c=c)))
                for c in (0.5, 1.0, 2.0)]
        for v in vals[1:]:
            assert v == pytest.approx(vals[0], rel=1e-8)


def test_K_route_equivalence_random(gamma0, gamma1, iterlog, theorem3_power):
    rng = np.random.default_rng(17)
    pool = [gamma0, gamma1, iterlog, theorem3_power,
            exp_scale(gamma0, 0.5), product(gamma1, gamma1)]
    for _ in range(20):
        f = pool[int(rng.integers(0, len(pool)))]
        t = float(rng.uniform(1.0, 20.0))
        z = LogSurfacePoint(math.log(t), 0.0)
        a = eval_K(f, z)
        b = eval_K(f, z, ContourSpec("vertical"))
        va, vb = _val(a), _val(b)
        assert abs(va - vb) <= max(3 * (a.abs_error + b.abs_error)
                                   * math.exp(max(a.log_scale, b.log_scale)),
                                   1e-7 * abs(va))


_ROUTES = {"rays": None, "vertical": ContourSpec("vertical")}


@pytest.mark.parametrize("route", list(_ROUTES))
def test_K_complex_continuation(gamma0, route):
    # K continues e^{-z} off the ray
    for r, psi in [(5.0, math.pi / 4), (3.0, -math.pi / 3), (8.0, 1.0)]:
        z = LogSurfacePoint(math.log(r), psi)
        want = cmath.exp(-r * cmath.exp(1j * psi))
        assert _val(eval_K(gamma0, z, _ROUTES[route])) == pytest.approx(
            want, rel=1e-8)


# iterlog is left off the vertical route: e^{psi t} beats its
# sub-exponential decay along the line, so the route refuses every psi != 0
@pytest.mark.parametrize("route,weight", [
    ("rays", "gamma1"), ("rays", "iterlog"), ("rays", "theorem3_power"),
    ("vertical", "gamma1"), ("vertical", "theorem3_power")])
def test_K_conjugate_symmetry(request, route, weight):
    # K(conj z) = conj K(z), within the two bars on a common log scale
    f = request.getfixturevalue(weight)
    for r, psi in [(2.0, 0.4), (4.0, 0.9), (6.0, 0.2)]:
        z = LogSurfacePoint(math.log(r), psi)
        a = eval_K(f, z, _ROUTES[route])
        b = eval_K(f, z.conj(), _ROUTES[route])
        fb = math.exp(b.log_scale - a.log_scale)
        assert abs(b.value * fb - a.value.conjugate()) \
            <= a.abs_error + b.abs_error * fb


def test_K_vertical_rejects_wide_sheet(gamma0):
    # |psi| too large: integrand stops decaying on the line, route refuses
    z = LogSurfacePoint(math.log(5.0), 3.0)
    with pytest.raises(QuadratureError):
        eval_K(gamma0, z, ContourSpec("vertical", c=2.0))


def test_K_bad_contour_params(gamma0):
    z = LogSurfacePoint(0.0, 0.0)
    with pytest.raises(SpecError):
        eval_K(gamma0, z, ContourSpec("l_alpha", alpha=0.3))
    with pytest.raises(SpecError):
        ContourSpec("vertical", c=-1.0)
    with pytest.raises(SpecError):
        ContourSpec("spiral")
    # a vertex at or left of 0 puts the V across the pole at s = 0, and
    # the integral would be off by its residue
    for kw in ({"vertex": -0.5}, {"vertex": 0.0}, {"vertex": math.nan},
               {"vertex": math.inf}):
        with pytest.raises(SpecError):
            ContourSpec("l_alpha", alpha=2.0, **kw)
    for c in (0.0, math.nan, math.inf):
        with pytest.raises(SpecError):
            ContourSpec("vertical", c=c)


def test_K_error_estimates_honest(gamma0):
    # measured deviation within 3x of the reported estimate, >= 95% of cases
    ts = np.linspace(0.5, 20.0, 20)
    good = 0
    for t in ts:
        z = LogSurfacePoint(math.log(float(t)), 0.0)
        res = eval_K(gamma0, z)
        dev = abs(_val(res).real - math.exp(-t))
        if dev <= 3.0 * res.abs_error * math.exp(res.log_scale):
            good += 1
    assert good >= 19


def test_K_log_scale_far_regime(iterlog):
    # K at a point whose value underflows double: carried on the log scale
    z = LogSurfacePoint(2.4891, 0.0)        # saddle radius ~ 6e4
    res = eval_K(iterlog, z)
    assert res.log_scale < -4000.0
    assert 0.0 < abs(res.value) < 1e6


# ---------------------------------------------------------------------------
# E series
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("x", [1.0, 5.0, 10.0, 20.0])
def test_E_prototype(gamma0, x):
    res = eval_E_series(gamma0, LogSurfacePoint(math.log(x), 0.0))
    assert _val(res).real == pytest.approx(math.exp(x), rel=1e-10)


def test_E_at_zero(gamma0, gamma1):
    assert _val(eval_E_series(gamma0, 0)).real == pytest.approx(1.0)
    assert _val(eval_E_series(gamma1, 0)).real == pytest.approx(1.0)


def test_E_at_a_plane_number(gamma0):
    # z given as a complex number, not a LogSurfacePoint: E(z) = e^z
    res = eval_E_series(gamma0, 2 + 1j)
    assert res.converged
    assert abs(_val(res) / cmath.exp(2 + 1j) - 1.0) < 1e-14


def test_E_alternating_cancellation(gamma0):
    # e^{-10} out of terms as large as e^{10}: exactly rounded summation keeps
    # ~8 digits and the error estimate owns the cancellation honestly
    res = eval_E_series(gamma0, LogSurfacePoint(math.log(10.0), math.pi))
    want = math.exp(-10.0)
    assert _val(res).real == pytest.approx(want, rel=1e-6)
    assert not res.converged           # estimate exceeds the usual target
    assert abs(_val(res).real - want) <= 3 * res.abs_error


def test_growth_sum_matches_z_E_plus_limit(gamma0, gamma1):
    z = LogSurfacePoint(math.log(7.0), 0.4)
    zc = z.to_cartesian()
    for f in (gamma0, gamma1):
        lhs = _val(eval_growth_sum(f, z))
        rhs = zc * _val(eval_E_series(f, z)) + f.one_over_gamma0
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_growth_sum_huge_peak_window(iterlog):
    # peak index ~ 8e3 on this sheet; all-positive terms, log-scale result
    res = eval_growth_sum(iterlog, LogSurfacePoint(math.log(10.0), 0.0))
    assert res.converged
    assert res.log_scale > 500.0


def test_series_refuses_beyond_budget(iterlog):
    with pytest.raises(QuadratureError, match="window"):
        eval_growth_sum(iterlog, LogSurfacePoint(math.log(30.0), 0.0))


@pytest.mark.parametrize("weight", ["gamma0", "theorem3_power"])
def test_series_window_fits_the_peak(request, weight):
    # a peak near n = 5 needs a few dozen terms, not a fixed first block
    f = request.getfixturevalue(weight)
    res = eval_E_series(f, LogSurfacePoint(math.log(5.0), 0.0))
    assert res.converged
    assert res.nodes <= 64


def test_series_window_obeys_max_nodes(gamma0):
    # max_nodes caps series terms as it caps quadrature nodes
    with pytest.raises(QuadratureError, match="window"):
        eval_growth_sum(gamma0, LogSurfacePoint(math.log(100.0), 0.0),
                        tol=Tolerances.for_quadrature(max_nodes=100))


# ---------------------------------------------------------------------------
# Abel-Plana
# ---------------------------------------------------------------------------

def test_abel_plana_prototype_real(gamma0):
    # sum 3^n/Gamma(n) = 3 e^3, with the main integral on the real axis
    parts = eval_abel_plana_parts(gamma0, LogSurfacePoint(math.log(3.0), 0.0))
    assert parts.main_angle == 0.0
    assert _val(parts.total).real == pytest.approx(3.0 * math.exp(3.0),
                                                   rel=1e-10)


def test_abel_plana_matches_series(gamma0, iterlog):
    # points chosen inside the double-precision condition budget: the
    # series side loses ~e^{rho_z eps} digits to cancellation off the ray
    cases = [(gamma0, 5.0, math.pi / 2), (gamma0, 2.0, math.pi),
             (gamma0, 10.0, math.pi / 3),
             (iterlog, 2.0, math.pi / 2), (iterlog, 2.0, math.pi),
             (iterlog, 3.0, math.pi / 3),
             # eps ~ 2: the verticals run to t ~ 197, past t ~ 119
             # where q = e^{-2 pi t} underflows
             (product(gamma0, gamma0), 3.0, 3.0)]
    for f, r, psi in cases:
        z = LogSurfacePoint(math.log(r), psi)
        ap = eval_abel_plana_rhs(f, z)
        gs = eval_growth_sum(f, z)
        lhs = ap.value * math.exp(ap.log_scale - gs.log_scale)
        assert abs(lhs - gs.value) <= 1e-8 * abs(gs.value)


def test_abel_plana_without_a_ray_root(iterlog):
    # log r = -0.5 lies below Phi on the whole ray, so the main integral is
    # seeded at its fallback peak; it still agrees with the series
    z = LogSurfacePoint(-0.5, 0.3)
    ap, gs = eval_abel_plana_rhs(iterlog, z), eval_growth_sum(iterlog, z)
    assert ap.converged and gs.converged
    bars = ap.abs_error * math.exp(ap.log_scale) \
        + gs.abs_error * math.exp(gs.log_scale)
    assert abs(_val(ap) - _val(gs)) <= bars


def test_abel_plana_parts_structure(gamma0):
    z = LogSurfacePoint(math.log(4.0), 0.5)
    parts = eval_abel_plana_parts(gamma0, z)
    total = parts.total
    s = (_val(parts.main) + _val(parts.upper) + _val(parts.lower))
    assert _val(total) == pytest.approx(s, rel=1e-12)
    # verticals are small corrections here
    assert abs(_val(parts.upper)) < abs(_val(parts.main))


def test_abel_plana_small_radius_bounded_verticals(gamma0):
    # r = 1: correction integrals stay finite and the identity holds
    z = LogSurfacePoint(0.0, math.pi)
    ap = eval_abel_plana_rhs(gamma0, z)
    gs = eval_growth_sum(gamma0, z)
    assert _val(ap) == pytest.approx(_val(gs), rel=1e-8)


def test_abel_plana_rejects_bad_inputs(gamma0):
    with pytest.raises(SpecError):
        eval_abel_plana_rhs(gamma0, LogSurfacePoint(1.0, 3.5))
    with pytest.raises(SpecError):
        eval_abel_plana_rhs(gamma0, LogSurfacePoint(1.0, 0.0), sigma0=1.5)


@pytest.mark.parametrize("c", [0.0, 1.0])
def test_abel_plana_closed_forms_on_the_rotated_ray(c):
    # sum z^n/Gamma(n) = z e^z and sum z^n/Gamma(n+1) = e^z, each within
    # its bar, with the main integral off the real axis where it oscillates;
    # psi < 0 turns the ray the other way
    f = gamma_shift(c)
    for r in (2.0, 10.0, 30.0):
        for psi in (0.5, 1.5, 2.5, math.pi, -2.5):
            z = LogSurfacePoint(math.log(r), psi)
            parts = eval_abel_plana_parts(f, z)
            zc = cmath.exp(z.log_z)
            want = zc * cmath.exp(zc) if c == 0.0 else cmath.exp(zc)
            res = parts.total
            assert abs(_val(res) - want) <= res.abs_error * math.exp(
                res.log_scale), (c, r, psi)
            assert parts.main_angle * psi > 0.0 or psi == 0.5, (c, r, psi)


def test_abel_plana_independent_of_sigma0(iterlog):
    # sigma0 = 0.25 and 0.5 split the same sum into different integrals
    for psi in (math.pi / 3, 2 * math.pi / 3, math.pi):
        z = LogSurfacePoint(math.log(10.0), psi)
        a, b = (eval_abel_plana_rhs(iterlog, z, s0) for s0 in (0.25, 0.5))
        bars = a.abs_error * math.exp(a.log_scale) \
            + b.abs_error * math.exp(b.log_scale)
        assert abs(_val(a) - _val(b)) <= bars, psi


def test_abel_plana_oscillating_main_integral_is_cheap(iterlog):
    # on the real axis the main integral turns 1e7 times here and spends
    # the 200k-node budget; the rotated ray decays instead
    for psi in (0.8, 1.6, 2.5):
        parts = eval_abel_plana_parts(iterlog,
                                      LogSurfacePoint(math.log(20.0), psi))
        assert parts.main_angle > 0.0
        assert parts.total.nodes <= 20_000, psi


@pytest.mark.parametrize("r, psi", [(22.603760093590832, 0.06881273327438353),
                                    (16.02773778087893, 0.021408728899228995),
                                    (20.22751682994401, 0.034337093728816215)])
def test_abel_plana_small_psi_stays_finite(iterlog, r, psi):
    # nearly on the axis the ray's peak is tall and narrow; the path's
    # scale must come from the true peak, or the integrand overflows
    res = eval_abel_plana_rhs(iterlog, LogSurfacePoint(math.log(r), psi))
    assert all(map(math.isfinite, (res.value.real, res.value.imag,
                                   res.abs_error, res.log_scale)))


def _count_engine_nodes(monkeypatch):
    from mellin_saddle import transforms
    nodes = [0]
    engine = transforms.adaptive_integrate

    def counted(*args, **kw):
        res = engine(*args, **kw)
        nodes[0] += res.nodes
        return res

    monkeypatch.setattr(transforms, "adaptive_integrate", counted)
    return nodes


def test_abel_plana_stops_at_rounding_floor(gamma0, monkeypatch):
    # z e^z sits about 150 times below the three parts here, which cancel:
    # each part meets rel_tol 1e-8 on the rotated main ray, but their sum
    # misses it, so the call stays cheap and flagged
    nodes = _count_engine_nodes(monkeypatch)
    z = LogSurfacePoint(math.log(10.0), 2.5)
    res = eval_abel_plana_rhs(gamma0, z)
    assert not res.converged
    assert res.nodes == nodes[0] <= 10_000
    zc = cmath.exp(z.log_z)
    assert abs(_val(res) - zc * cmath.exp(zc)) <= res.abs_error * math.exp(res.log_scale)


def test_K_refuses_nan_integrand_early(iterlog, monkeypatch):
    # the ray integrand turns NaN here; the engine stops at once and
    # _fold refuses the non-finite value
    nodes = _count_engine_nodes(monkeypatch)
    z = LogSurfacePoint(math.log(14.590084314818244), 0.3152716825365438)
    with pytest.raises(QuadratureError):
        eval_K(iterlog, z)
    assert 0 < nodes[0] <= 2_000


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_moment_prototype(gamma0):
    assert _val(moment(gamma0, 0)).real == pytest.approx(1.0, rel=1e-6)
    assert _val(moment(gamma0, 3)).real == pytest.approx(6.0, rel=1e-6)


def test_moment_shifted(gamma1):
    for n in (0, 2, 5):
        assert _val(moment(gamma1, n)).real == pytest.approx(
            math.factorial(n + 1), rel=1e-6)


def test_moment_theorem3_vs_direct_weight(theorem3_power):
    # the full transform pipeline against the weight's own quadrature
    for n in (0, 2):
        want = math.exp(float(np.real(theorem3_power.log_gamma(n + 1.0 + 0j))))
        assert _val(moment(theorem3_power, n)).real == pytest.approx(want, rel=1e-5)


def test_moment_rejects_bad_order(gamma0):
    with pytest.raises(SpecError):
        moment(gamma0, -1)


def test_moment_runs_one_inner_line_per_panel(gamma0):
    # each 15-node row of the outer integrand gets its own inner K line;
    # a line shared by sibling panels would halve these counts
    assert [moment(gamma0, n).nodes for n in (1, 2, 3)] == [8_400, 9_300, 8_730]


def test_moment_leaks_no_runtime_warning(iterlog):
    # far rows overflow exp on the way to the bare OverflowError, which is
    # an open defect of its own (ROADMAP item 4); only it is suppressed here
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.suppress(OverflowError):
            moment(iterlog, 6)
    assert [str(w.message) for w in caught] == []


def test_growth_sum_extreme_small_radius(gamma1):
    # the n = 0 limit term 1/gamma(0) dominates at tiny radii and must not
    # overflow the internal rescale; its value carries the sigma = 1e-6
    # probe convention (~1e-6 relative)
    res = eval_growth_sum(gamma1, LogSurfacePoint(-650.0, 0.0))
    v = (res.value * math.exp(res.log_scale)).real
    assert v == pytest.approx(1.0, rel=1e-5)


# ---------------------------------------------------------------------------
# the convergence rule on every public evaluator
# ---------------------------------------------------------------------------

def _z(r, psi):
    return LogSurfacePoint(math.log(r), psi)


_Q10 = Tolerances.for_quadrature(rel_tol=1e-10)

_RULE_CASES = {
    "K-rays": ("gamma0", lambda f, t: eval_K(f, _z(5.0, 0.0), tol=t), None),
    "K-rays-log-scale": ("iterlog", lambda f, t: eval_K(
        f, _z(10.0, 0.0), tol=t), None),
    "K-vertical": ("gamma0", lambda f, t: eval_K(
        f, _z(5.0, 0.5), ContourSpec("vertical"), tol=t), None),
    "E": ("gamma0", lambda f, t: eval_E_series(f, _z(3.0, 0.5), tol=t), None),
    "E-cancelling": ("gamma0", lambda f, t: eval_E_series(
        f, _z(10.0, math.pi), tol=t), None),
    "E-at-zero": ("gamma1", lambda f, t: eval_E_series(f, 0, tol=t), None),
    "growth-sum": ("gamma0", lambda f, t: eval_growth_sum(
        f, _z(7.0, 0.4), tol=t), _Q10),
    "growth-sum-log-scale": ("iterlog", lambda f, t: eval_growth_sum(
        f, _z(10.0, 0.0), tol=t), None),
    "moment": ("gamma0", lambda f, t: moment(f, 2, tol=t), None),
    "abel-plana-rhs": ("gamma0", lambda f, t: eval_abel_plana_rhs(
        f, _z(5.0, 2.5), tol=t), None),
    "abel-plana-parts-total": ("gamma0", lambda f, t: eval_abel_plana_parts(
        f, _z(4.0, 0.5), tol=t).total, _Q10),
}


@pytest.mark.parametrize("case", list(_RULE_CASES))
def test_converged_is_the_rule(request, case):
    # converged == abs_error <= max(abs_tol, rel_tol*|value|) on the
    # result's own log scale, whatever the route or the engine's stop
    weight, evaluate, tols = _RULE_CASES[case]
    res = evaluate(request.getfixturevalue(weight), tols)
    tols = tols or Tolerances.for_quadrature()
    meets = (res.abs_error <= tols.rel_tol * abs(res.value)
             or math.log(res.abs_error) + res.log_scale
             <= math.log(tols.abs_tol))
    assert res.converged == meets
