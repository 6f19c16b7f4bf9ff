import warnings

import numpy as np
import pytest
import scipy.special as sp

from mellin_saddle.special import digamma, loggamma, trigamma


def test_trigamma_real_vs_scipy():
    x = np.array([0.3, 1.0, 2.5, 7.0, 40.0, 123.4])
    got = trigamma(x)
    want = sp.polygamma(1, x)
    assert np.allclose(got.real, want, rtol=1e-13)
    assert np.max(np.abs(got.imag)) < 1e-15


@pytest.mark.parametrize("z", [
    1.5 + 2.3j, -3.7 + 0.2j, 0.05 + 5j, 30 - 11j, -40 + 3j, -200 + 0.5j,
    1e5 + 1e5j, -1e6 + 1e5j,
])
def test_trigamma_complex_vs_digamma_difference(z):
    # small step: near the left-plane poles the difference quotient is the
    # accuracy-limiting side
    h = 1e-7 * max(abs(z), 1.0)
    fd = (sp.digamma(z + h) - sp.digamma(z - h)) / (2 * h)
    assert trigamma(z) == pytest.approx(fd, rel=2e-7)


def test_trigamma_recurrence():
    rng = np.random.default_rng(3)
    z = rng.uniform(0.5, 5, 20) + 1j * rng.uniform(-5, 5, 20)
    assert np.allclose(trigamma(z), trigamma(z + 1) + 1.0 / z**2, rtol=1e-12)


def test_trigamma_schwarz():
    z = 2.3 + 4.1j
    assert trigamma(np.conj(z)) == pytest.approx(np.conj(trigamma(z)), rel=1e-13)


def test_reexports_complex_capable():
    assert digamma(1.0 + 1.0j) == pytest.approx(sp.digamma(1.0 + 1.0j))
    assert loggamma(0.5 + 0j).imag == pytest.approx(0.0)


def test_trigamma_vs_mpmath():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(7)
    z = np.concatenate([
        # the recurrence strip, each point shifted by its own step count
        rng.uniform(-10, 10, 200) + 1j * rng.uniform(-20, 20, 200),
        rng.uniform(-9.9, 0, 40) + 1j * rng.uniform(-0.5, 0.5, 40),
        [-9.5 + 0.1j, -5.3 + 2j, 0.3 + 0j, 9.99 + 0j],
        # reflection branch: Re z < -10, |Im z| < 50
        rng.uniform(-300, -10.01, 60) + 1j * rng.uniform(-49, 49, 60),
        # |Im z| >= 50: the series directly, left half-plane included
        rng.uniform(-100, 100, 60) + 1j * rng.choice([-1, 1], 60) * rng.uniform(50, 200, 60),
    ])
    with mpmath.workdps(30):
        want = np.array([complex(mpmath.psi(1, mpmath.mpc(x.real, x.imag))) for x in z])
    assert np.max(np.abs(trigamma(z) - want) / np.abs(want)) <= 1e-14
    for x, w in zip(z[::20], want[::20]):
        got = trigamma(x)
        assert np.ndim(got) == 0
        assert abs(got - w) <= 1e-14 * abs(w)


def test_trigamma_at_poles(gamma0):
    # inf without a warning (the suite raises RuntimeWarning), both in the
    # recurrence (Re z >= -10) and in the reflection branch
    for z in (0.0, -3.0, -12.0, -230.0):
        d2 = complex(gamma0.d2log_gamma(complex(z)))
        assert d2.real == np.inf
    regular = np.array([0.5, 2.0 + 1.0j, -15.5 + 0.1j, 7.3 - 2.0j, -4.5])
    mixed = np.insert(regular, [0, 2, 4], [0.0, -12.0, -230.0])
    got = trigamma(mixed)
    assert np.isinf(got.real).sum() == 3
    assert got[np.isfinite(got)].tobytes() == trigamma(regular).tobytes()


def test_trigamma_scalar_and_array_agree():
    # an array is taken point by point through the one-number rules (pole,
    # reflection, shift and series); each rule is visited
    z = np.array([
        0.0, -3.0, -12.0, -230.0,                       # poles: inf
        -15.5 + 0.1j, -300.2 - 49.0j, -10.5 + 3.0j,     # reflection
        0.3 + 0j, -9.7 + 1.0j, 2.0 - 30.0j, 9.99 + 49.9j,   # the shift
        -80.0 + 50.0j, 3.0 - 120.0j,                    # |Im z| >= 50
        10.0 + 0j, 1e5 + 3.0j, 1e12 - 1e11j,            # Re z >= 10
    ], dtype=complex)
    arr = trigamma(z)
    for x, want in zip(z, arr):
        got = trigamma(complex(x))
        assert type(got) is complex
        assert got == want


def test_trigamma_off_the_finite_plane():
    # the limits toward infinity: 0, inf down the negative axis, where the
    # poles are, and NaN where there is none; without a warning, alone or
    # in an array
    z = [complex(np.inf, 0.0), complex(-np.inf, 0.0), complex(np.nan, 0.0),
         complex(-np.inf, 1.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        one = [trigamma(x) for x in z]
        arr = trigamma(np.array(z))
    for got in (one, arr):
        assert got[0] == 0.0 and got[1] == complex(np.inf, 0.0)
        assert all(np.isnan(x.real) and np.isnan(x.imag) for x in got[2:])
