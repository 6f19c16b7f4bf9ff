import numpy as np
import pytest

from mellin_saddle.jet import Jet2


def _exp(j):
    """exp of a jet by the chain rule, up to the jet's order."""
    e = np.exp(j.val)
    return Jet2(e, e * j.d1 if j.order >= 1 else None,
                e * (j.d2 + j.d1 * j.d1) if j.order >= 2 else None)


def _fd_check(fn, jet_of, s0, rel=1e-6):
    """Compare jet derivatives of fn against central differences."""
    h = 1e-5 * max(abs(s0), 1.0)
    j = jet_of(np.complex128(s0))
    d1 = (fn(s0 + h) - fn(s0 - h)) / (2 * h)
    d2 = (fn(s0 + h) - 2 * fn(s0) + fn(s0 - h)) / h**2
    assert complex(j.val) == pytest.approx(fn(s0), rel=1e-12)
    assert complex(j.d1) == pytest.approx(d1, rel=rel)
    assert complex(j.d2) == pytest.approx(d2, rel=100 * rel)


@pytest.mark.parametrize("s0", [2.0 + 0j, 0.7 + 1.9j, -0.4 + 3j])
def test_jet_composition(s0):
    def fn(s):
        return np.exp((s * s + 1) / (s + 5)) * np.log(s + 5)

    def jet_of(s):
        v = Jet2.variable(s)
        return _exp((v * v + 1) / (v + 5)) * (v + 5).log()

    _fd_check(fn, jet_of, s0)


def test_jet_vectorized():
    s = np.array([1.0 + 1j, 2.0, 3.0 - 0.5j])
    j = (Jet2.variable(s) * 2 + 1).log()
    assert j.val.shape == (3,)
    assert np.allclose(j.d1, 2.0 / (2 * s + 1))


def test_jet_reciprocal_identity():
    s = np.complex128(1.7 + 0.3j)
    v = Jet2.variable(s) + 2
    one = v * v.reciprocal()
    assert complex(one.val) == pytest.approx(1.0)
    assert abs(complex(one.d1)) < 1e-14
    assert abs(complex(one.d2)) < 1e-14


@pytest.mark.parametrize("s", [np.complex128(0.7 + 1.9j), np.array([2.0 + 0j, -0.4 + 3j])])
def test_jet_order_truncates_bit_identically(s):
    def jet_of(order):
        v = Jet2.variable(s, order)
        return (_exp((v * v + 1) / (v + 5)) * (v + 5).log()
                - _exp((v + 4).log() * 1.7) * 2)

    full, j0, j1 = jet_of(2), jet_of(0), jet_of(1)
    assert (j0.order, j1.order, full.order) == (0, 1, 2)
    assert (j0.d1, j0.d2, j1.d2) == (None, None, None)
    for got, want in [(j0.val, full.val), (j1.val, full.val), (j1.d1, full.d1)]:
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    # arithmetic between jets keeps the lower order
    assert (Jet2.variable(s, 1) * Jet2.variable(s)).order == 1
