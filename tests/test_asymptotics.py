import cmath
import math

import numpy as np
import pytest

from mellin_saddle import (E_asymptotic, K_asymptotic, LogSurfacePoint,
                           RegionError, duality_product, eval_growth_sum,
                           eval_K, local_gaussian_reference,
                           local_gaussian_saddle, monomial_exponent,
                           point_with_saddle_radius, solve)


def _val(a):
    return a.value * math.exp(a.log_scale)


def test_K_asymptotic_prototype_at_50(gamma0):
    z = LogSurfacePoint(math.log(50.0), 0.0)
    got = _val(K_asymptotic(gamma0, z))
    assert abs(got / math.exp(-50.0) - 1.0) < 0.01


def test_K_asymptotic_real_positive_on_ray(gamma0, iterlog):
    for f in (gamma0, iterlog):
        z = LogSurfacePoint(3.0 if f is not iterlog else 2.3, 0.0)
        a = K_asymptotic(f, z)
        assert abs(a.value.imag) < 1e-12 * abs(a.value)
        assert a.value.real > 0


def test_K_asymptotic_iterlog_formula_reduction(iterlog):
    # for L = log(s+e) the form reduces to sqrt(s log s/(2 pi)) e^{-s/log s};
    # compare log magnitudes (values underflow), allowing the reduction's
    # own 1+o(1) with o(1) ~ e/log s from dropping the shift by e
    z = LogSurfacePoint(2.3, 0.0)
    sol, _ = solve(iterlog, z)
    s = sol.rho_z
    a = K_asymptotic(iterlog, z)
    model_log = 0.5 * math.log(s * math.log(s) / (2 * math.pi)) \
        - s / math.log(s)
    got_log = a.log_scale + math.log(abs(a.value))
    assert abs(got_log - model_log) < 2.0 * math.e / math.log(s) + 0.05


def test_K_asymptotic_outside_raises(gamma0):
    z = LogSurfacePoint(math.log(1.5), 0.0)     # rho_z below rho0
    with pytest.raises(RegionError):
        K_asymptotic(gamma0, z)


def test_E_asymptotic_prototype_at_50(gamma0):
    z = LogSurfacePoint(math.log(50.0), 0.0)
    a = E_asymptotic(gamma0, z)
    assert a.region.kind == "inside"
    assert abs(_val(a).real / (50.0 * math.exp(50.0)) - 1.0) < 0.01


def test_E_asymptotic_outside_is_zero(gamma0):
    z = LogSurfacePoint(math.log(40.0), 3 * math.pi / 4)
    a = E_asymptotic(gamma0, z)
    assert a.region.kind == "outside"
    assert a.value == 0.0
    # true magnitude there: |z e^z| = 40 e^{-40/sqrt(2)}, far below the band
    assert 40.0 * math.exp(-40.0 / math.sqrt(2.0)) < 1e-3


def test_E_asymptotic_annulus_warns(gamma0):
    # place the saddle angle inside the pi/2 transition band
    from mellin_saddle.saddle import point_with_saddle_radius
    z, _ = point_with_saddle_radius(gamma0, 60.0, 0.0)
    eps = 1.0
    z_band = LogSurfacePoint(z.log_r, math.pi / 2 * eps)
    a = E_asymptotic(gamma0, z_band)
    assert any("transition annulus" in w for w in a.warnings)


def test_E_asymptotic_warns_on_large_eps():
    f = monomial_exponent(1.3, 2.5)    # eps(rho) = 2.5 * 0.3 * rho^{0.3}...
    z = LogSurfacePoint(10.0, 0.0)
    a = E_asymptotic(f, z)
    assert any(">= 2" in w for w in a.warnings)


def test_duality_identity(gamma0, gamma1, iterlog):
    for f, log_r, psi in [(gamma0, math.log(30.0), 0.3),
                          (gamma1, math.log(25.0), 0.0),
                          (iterlog, 2.35, 0.01)]:
        z = LogSurfacePoint(log_r, psi)
        sol, _ = solve(f, z)
        q = sol.s_z / complex(f.epsilon(np.complex128(sol.s_z)))
        assert duality_product(f, z) == pytest.approx(q, rel=1e-12)


def test_branch_continuity_along_homotopy(gamma0):
    # the square root's argument (theta_z - arg eps)/2 moves slowly along
    # the continuation path; no principal-branch snapping
    prev = None
    for psi in np.linspace(0.0, 2.0, 21):
        sol, _ = solve(gamma0, LogSurfacePoint(math.log(30.0), float(psi)))
        eps = complex(gamma0.epsilon(np.complex128(sol.s_z)))
        sqrt_arg = 0.5 * (sol.theta_z - cmath.phase(eps))
        if prev is not None:
            assert abs(sqrt_arg - prev) < math.pi / 2
        prev = sqrt_arg
    # the path ended far from the ray yet the argument stayed continuous
    assert prev == pytest.approx(0.5 * sol.theta_z, abs=0.2)


def test_local_gaussian_prototype(gamma0):
    z = LogSurfacePoint(math.log(30.0), 0.0)
    got = local_gaussian_saddle(gamma0, z)
    sol, _ = solve(gamma0, z)
    ref = _val(local_gaussian_reference(gamma0, sol))
    assert abs(got / ref - 1.0) < 0.02


def test_local_gaussian_theorem3(theorem3_power):
    # for ell = 1+rho the model's 1+o(1) is dominated by the scale
    # variation rho ell'/ell - 1 = -1/(1+rho): the 2% band needs rho ~ 100
    z, _ = point_with_saddle_radius(theorem3_power, 100.0, 0.0)
    got = local_gaussian_saddle(theorem3_power, z)
    sol, _ = solve(theorem3_power, z)
    ref = _val(local_gaussian_reference(theorem3_power, sol))
    assert abs(got / ref - 1.0) < 0.02


def test_local_gaussian_conjugate_symmetry(gamma0):
    # chord and model both carry a factor i, so conjugating z flips the
    # sign as well: I(conj z) = -conj(I(z)); the ratio to the model is
    # conjugation-symmetric
    z = LogSurfacePoint(math.log(30.0), 0.5)
    up = local_gaussian_saddle(gamma0, z)
    dn = local_gaussian_saddle(gamma0, z.conj())
    assert dn == pytest.approx(-np.conj(up), rel=1e-9)
    sol_u, _ = solve(gamma0, z)
    sol_d, _ = solve(gamma0, z.conj())
    r_up = up / _val(local_gaussian_reference(gamma0, sol_u))
    r_dn = dn / _val(local_gaussian_reference(gamma0, sol_d))
    assert r_dn == pytest.approx(np.conj(r_up), rel=1e-9)


def test_ratio_ladder_eventually_decreasing(gamma0):
    # numeric/asymptotic on the ray at saddle radii 10 * 2^k
    devs = []
    for k in range(7):
        z, _ = point_with_saddle_radius(gamma0, 10.0 * 2**k, 0.0)
        num = eval_K(gamma0, z)
        asym = K_asymptotic(gamma0, z)
        ratio = num.value * math.exp(num.log_scale - asym.log_scale) / asym.value
        devs.append(abs(ratio - 1.0))
    assert devs[-1] < 0.05
    assert devs[-1] < devs[-2] < devs[-3]


def test_ratio_ladder_growth_side(gamma0):
    # the signed deviation crosses zero near rho* ~ 60; after that the
    # ladder decreases again ("eventually decreasing")
    devs = []
    for k in range(7):
        z, _ = point_with_saddle_radius(gamma0, 10.0 * 2**k, 0.0)
        num = eval_growth_sum(gamma0, z)
        asym = E_asymptotic(gamma0, z)
        ratio = num.value * math.exp(num.log_scale - asym.log_scale) / asym.value
        devs.append(abs(ratio - 1.0))
    assert devs[-1] < 0.05
    assert devs[-1] < devs[-2] < devs[-3]


def test_E_asymptotic_iterlog_formula_reduction(iterlog):
    # growth form reduces to sqrt(2 pi s log s) e^{s/log s} for the log
    # scale; compare log magnitudes, same o(1) allowance as the decay side
    z = LogSurfacePoint(2.3, 0.0)
    sol, _ = solve(iterlog, z)
    s = sol.rho_z
    a = E_asymptotic(iterlog, z)
    model_log = 0.5 * math.log(2 * math.pi * s * math.log(s)) + s / math.log(s)
    got_log = a.log_scale + math.log(abs(a.value))
    assert abs(got_log - model_log) < 2.0 * math.e / math.log(s) + 0.05
