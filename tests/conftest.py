import cmath
import math

import pytest

from mellin_saddle import (build_positive_type, build_theorem3, ell_power,
                           gamma_shift, iterated_log, positive_type_factorial)


@pytest.fixture(scope="session")
def gamma0():
    """The factorial prototype gamma(s) = Gamma(s): K = e^{-t}, E = e^z."""
    return gamma_shift(0.0)


@pytest.fixture(scope="session")
def gamma1():
    """Gamma(s+1): moments (n+1)!, admissible on the whole ray."""
    return gamma_shift(1.0)


@pytest.fixture(scope="session")
def iterlog():
    """Scale L = log(s+e): gamma = exp(s loglog(s+e)), eps ~ 1/log rho."""
    return iterated_log(1.0, 1.0, 1, math.e)


@pytest.fixture(scope="session")
def theorem3_power():
    """Slowly-varying construction with ell = 1+rho from c = 1."""
    return build_theorem3(ell_power(1.0, 1.0))


@pytest.fixture(scope="session")
def factorial_measure():
    """Gamma(s+1) through its positive integral representation."""
    return build_positive_type(positive_type_factorial())


@pytest.fixture(scope="session")
def ell_power_exact():
    """The closed form of build_theorem3(ell_power(a, c)): (a, c, s) ->
    (log gamma, (log gamma)', (log gamma)'') at one complex s, from
    log gamma(s) = a s^2 log((s+c)/(1+c)) / (s-1)."""
    def jet(a, c, s):
        # s^2/(s-1) = s + 1 + 1/(s-1), times L = log((s+c)/(1+c))
        h0, h1, h2 = s + 1.0 + 1.0 / (s - 1.0), 1.0 - (s - 1.0) ** -2, \
            2.0 * (s - 1.0) ** -3
        l0, l1, l2 = cmath.log((s + c) / (1.0 + c)), 1.0 / (s + c), -(s + c) ** -2
        return (a * h0 * l0, a * (h1 * l0 + h0 * l1),
                a * (h2 * l0 + 2.0 * h1 * l1 + h0 * l2))
    return jet
