import math

import numpy as np
import pytest

from mellin_saddle import (LogSurfacePoint, PowerOverflowError, QuadratureResult,
                           Tolerances, log_surface_pow)


def test_pow_identity_point():
    z = LogSurfacePoint(0.0, 0.0)
    for s in [1.0, -2.5, 3 + 4j, 0.0]:
        assert log_surface_pow(z, s) == 1.0


def test_pow_two_cubed():
    z = LogSurfacePoint(math.log(2.0), 0.0)
    assert log_surface_pow(z, 3) == pytest.approx(8.0, rel=1e-14)


def test_pow_sheet_semantics():
    # psi = 2*pi is a different sheet: sqrt picks up the sign
    base = LogSurfacePoint(0.0, 0.0)
    lifted = LogSurfacePoint(0.0, 2.0 * math.pi)
    assert log_surface_pow(base, 0.5) == pytest.approx(1.0)
    assert log_surface_pow(lifted, 0.5) == pytest.approx(-1.0, rel=1e-12)


def test_pow_additivity_and_sheets():
    rng = np.random.default_rng(7)
    for _ in range(50):
        z = LogSurfacePoint(rng.uniform(-2, 3), rng.uniform(-7, 7))
        s1 = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        s2 = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        lhs = log_surface_pow(z, s1 + s2)
        rhs = log_surface_pow(z, s1) * log_surface_pow(z, s2)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    for _ in range(25):
        z = LogSurfacePoint(rng.uniform(-1, 1), rng.uniform(-3, 3))
        z_up = LogSurfacePoint(z.log_r, z.psi + 2.0 * math.pi)
        n = int(rng.integers(-4, 5))
        assert log_surface_pow(z, n) == pytest.approx(
            log_surface_pow(z_up, n), rel=1e-12)
        s = rng.uniform(0.1, 0.9)
        a, b = log_surface_pow(z, s), log_surface_pow(z_up, s)
        assert abs(a - b) > 1e-6 * abs(a)


def test_pow_overflow_signal():
    z = LogSurfacePoint(500.0, 0.0)
    with pytest.raises(PowerOverflowError) as exc:
        log_surface_pow(z, 2.0)
    assert exc.value.re_exponent == pytest.approx(1000.0)


def test_cartesian_and_conj():
    z = LogSurfacePoint(math.log(2.0), math.pi / 3)
    assert z.conj().psi == -z.psi
    assert LogSurfacePoint.from_complex(-1.0 + 0j).psi == pytest.approx(math.pi)


def test_surface_point_requires_finite():
    with pytest.raises(ValueError):
        LogSurfacePoint(math.inf, 0.0)


def test_tolerances_validation():
    with pytest.raises(ValueError):
        Tolerances(rel_tol=2.0)
    with pytest.raises(ValueError):
        Tolerances(max_nodes=0)
    assert Tolerances.for_quadrature().rel_tol == 1e-8


def test_quadrature_result_scaling():
    q = QuadratureResult(2.0 + 0j, 1e-10, 15, True, log_scale=5.0)
    assert q.magnitude_log == pytest.approx(math.log(2.0) + 5.0)
    r = q.rescaled(4.0)
    assert r.value * math.exp(r.log_scale) == pytest.approx(
        q.value * math.exp(q.log_scale))


def test_tolerances_met_by_far_log_scales():
    tols = Tolerances(rel_tol=1e-8)
    assert tols.met_by(1.0, 1e-9)
    assert not tols.met_by(1.0, 1e-7)
    # the absolute half holds on the represented scale, without overflow
    assert tols.met_by(1.0, 1.0, log_scale=-9e6)
    assert not tols.met_by(1.0, 1.0, log_scale=9e6)
    assert tols.met_by(1.0, 1e-9, log_scale=9e6)
    assert tols.met_by(0.0, 0.0)
    assert not tols.met_by(0.0, math.nan)
