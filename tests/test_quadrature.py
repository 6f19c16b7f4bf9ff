import math

import numpy as np
import pytest

from mellin_saddle.quadrature import adaptive_integrate, scan_drop


def test_polynomial_exact():
    res = adaptive_integrate(lambda x: x**3 - 2 * x + 1, 0.0, 2.0)
    assert res.value == pytest.approx(2.0, abs=1e-13)
    assert res.converged and res.stop == "tolerance"


def test_oscillatory_complex():
    res = adaptive_integrate(lambda x: np.exp(10j * x), 0.0, 2 * math.pi,
                             rel_tol=1e-12)
    assert abs(res.value) < 1e-12
    res2 = adaptive_integrate(lambda x: np.exp(1j * x), 0.0, math.pi / 2)
    assert complex(res2.value) == pytest.approx(1 + 1j, rel=1e-12)


def test_gaussian_with_seeds():
    res = adaptive_integrate(lambda x: np.exp(-x * x), -20.0, 20.0,
                             breakpoints=[-1.0, 0.0, 1.0], rel_tol=1e-12)
    assert complex(res.value).real == pytest.approx(math.sqrt(math.pi), rel=1e-12)


def test_vector_integrand():
    ks = np.array([1.0, 2.0, 3.0])

    def f(x):
        return np.exp(-np.outer(x, ks))

    res = adaptive_integrate(f, 0.0, 30.0, rel_tol=1e-10,
                             breakpoints=[1.0, 5.0, 10.0])
    assert np.allclose(np.asarray(res.value).real, 1.0 / ks, rtol=1e-9)


def test_kink_resolved_by_breakpoint():
    f = lambda x: np.abs(x - 0.3)
    exact = 0.5 * (0.3**2 + 0.7**2)
    res = adaptive_integrate(f, 0.0, 1.0, breakpoints=[0.3], rel_tol=1e-13)
    assert complex(res.value).real == pytest.approx(exact, abs=1e-14)


def test_budget_exhaustion_flagged():
    # genuinely nasty integrand, tiny budget
    f = lambda x: np.sin(1.0 / (x + 1e-6)) / (x + 1e-6)
    res = adaptive_integrate(f, 0.0, 1.0, rel_tol=1e-14, max_nodes=600)
    assert not res.converged
    assert res.stop == "budget"


def test_floor_stop_on_declared_noise():
    # a ripple of relative size 1e-9, declared as noise, keeps the
    # Kronrod-Gauss differences above rel_tol 1e-13 at any resolution;
    # undeclared, the same integrand runs the whole budget
    def f(x):
        base = np.exp(-x * x)
        return base * (1.0 + 1e-9 * np.sin(1e6 * x)), 1e-9 * base

    res = adaptive_integrate(f, -20.0, 20.0, rel_tol=1e-13,
                             breakpoints=[-1.0, 0.0, 1.0])
    assert res.stop == "floor" and not res.converged
    assert res.nodes <= 5_000
    assert abs(complex(res.value) - math.sqrt(math.pi)) <= res.abs_error


def test_non_finite_stop_after_seed_panels():
    def f(x):
        y = np.where(x > 0.5, np.nan, np.exp(x))
        return y, 1e-16 * np.abs(y)

    res = adaptive_integrate(f, 0.0, 1.0, breakpoints=[0.25, 0.75])
    assert res.stop == "non_finite" and not res.converged
    assert res.nodes == 3 * 15
    # without declared noise the engine refines on, as it always did
    plain = adaptive_integrate(lambda x: f(x)[0], 0.0, 1.0, max_nodes=600,
                               breakpoints=[0.25, 0.75])
    assert plain.stop == "budget"


def test_error_estimate_honest_on_smooth():
    res = adaptive_integrate(lambda x: np.exp(-x) * np.cos(3 * x), 0.0, 10.0)
    exact = (1.0 - math.exp(-10) * (math.cos(30) - 3 * math.sin(30))) / 10.0
    assert abs(complex(res.value).real - exact) <= 3 * res.abs_error


def test_deterministic_bytes():
    f = lambda x: np.exp(-x * x) * np.cos(x)
    a = adaptive_integrate(f, -5.0, 5.0)
    b = adaptive_integrate(f, -5.0, 5.0)
    assert repr(complex(a.value)) == repr(complex(b.value))
    assert a.nodes == b.nodes


def test_scan_drop_finds_cut():
    logmag = lambda t: -0.5 * (t - 3.0) ** 2
    cut, peak_t, peak = scan_drop(logmag, 1.0, 1e9, drop_log=20.0)
    assert peak == pytest.approx(0.0, abs=0.3)
    assert logmag(cut) < peak - 19.0

