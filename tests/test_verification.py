import json
import math

import numpy as np
import pytest

from mellin_saddle import (build_positive_type, ell_exp_sqrt_log, ell_power,
                           gamma_shift, monomial_exponent, power,
                           positive_type_degenerate,
                           positive_type_iterated_log, scan_ratio,
                           verify_carleman, verify_moments, verify_positivity,
                           verify_theorem3_limits)
from mellin_saddle.errors import SpecError


def test_moments_gate_prototype(gamma0):
    # the sanity gate: factorial moments must pass before anything else
    rep = verify_moments(gamma0, 6)
    assert rep.passed, rep.to_json()
    assert rep.n_pass == 7
    byd = {c.descriptor: c for c in rep.cases}
    assert byd["n=3"].expected == pytest.approx(6.0)


def test_moments_shifted(gamma1):
    rep = verify_moments(gamma1, 4)
    assert rep.passed
    assert {c.descriptor: c.expected for c in rep.cases}["n=2"] == \
        pytest.approx(6.0)


def test_moments_past_exps_range():
    # gamma(n+1) = (n!)^30 passes e^709 at n = 14: both sides go on its
    # log scale, with no warning and no OverflowError; the cases within
    # exp's range keep measured = value e^log_scale, expected = e^lg
    import warnings

    f = power(gamma_shift(0.0), 30.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = verify_moments(f, 15)
        cubic = verify_moments(monomial_exponent(3.0), 15)
    assert [c.descriptor for c in rep.cases] == [f"n={n}" for n in range(16)]
    for c in rep.cases[14:]:
        assert c.expected == 1.0 and c.passed and "times e^-" in c.note
    lg = 30.0 * math.lgamma(13.0 + 1.0)
    assert rep.cases[13].expected == pytest.approx(math.exp(lg), rel=1e-12)
    assert "times" not in rep.cases[13].note
    assert all(math.isfinite(c.measured) for c in cubic.cases)
    assert "times e^-4096" in cubic.cases[15].note


def test_moments_rejects_large_order(gamma0):
    # n_max = -1 would pass with no case at all
    for n_max in (16, -1):
        with pytest.raises(SpecError):
            verify_moments(gamma0, n_max)


@pytest.mark.parametrize("grid", [[], [0.0, 1.0]])
def test_positivity_rejects_bad_grid(factorial_measure, grid):
    with pytest.raises(SpecError):
        verify_positivity(factorial_measure, grid)


def test_positivity_factorial_measure(factorial_measure):
    rep = verify_positivity(factorial_measure, np.geomspace(0.2, 12.0, 9))
    assert rep.passed, rep.to_json()


def test_positivity_degenerate_flagged():
    f = build_positive_type(positive_type_degenerate(0.5))
    rep = verify_positivity(f, [1.0, 2.0])
    assert rep.passed
    assert any("degenerate" in n for n in rep.notes)


def test_carleman_three_regimes(gamma0, iterlog):
    rep = verify_carleman(gamma0, 20_000)
    assert rep.passed
    assert "evidence, not proof" in rep.notes[0]
    expo = float(rep.notes[-1].split(":")[-1])
    assert expo == pytest.approx(0.5, abs=0.05)       # S_N ~ sqrt(N)

    rep = verify_carleman(iterlog, 20_000)
    assert rep.passed                                  # S_N ~ N/sqrt(log N)

    rep = verify_carleman(monomial_exponent(3.0), 20_000)
    assert not rep.passed                              # converging control


def test_carleman_requires_terms(gamma0):
    with pytest.raises(ValueError):
        verify_carleman(gamma0, 100)


def test_theorem3_limits_all_scales():
    for ell in [ell_power(1.0, 1e-6), ell_power(2.0, 1e-6),
                ell_exp_sqrt_log(1e-6)]:
        rep = verify_theorem3_limits(ell)
        assert rep.passed, rep.to_json()


def test_theorem3_limits_finite_c_reference():
    # with c = 1 the reference constant is ell(1), not ell(0); the suite
    # normalizes accordingly and still passes
    rep = verify_theorem3_limits(ell_power(1.0, 1.0))
    assert rep.passed, rep.to_json()


def test_scan_ratio_validates_input(gamma0):
    with pytest.raises(ValueError):
        scan_ratio(gamma0, "Q", 0.0, [10.0])


def test_scan_ratio_off_ray(gamma0):
    rep = scan_ratio(gamma0, "K", 0.7, [20.0, 40.0, 80.0], final_max=0.05,
                     require_monotone_tail=False)
    assert rep.passed, rep.to_json()


def test_scan_ratio_growth_on_diagonal_ray(gamma0):
    # growth-side scan on the psi = pi/4 ray: the saddle angle stays near
    # pi/4, well inside the strip, and the rungs keep passing
    rep = scan_ratio(gamma0, "E", math.pi / 4, [10.0, 20.0, 40.0, 80.0],
                     final_max=0.05, require_monotone_tail=False)
    assert rep.passed, rep.to_json()
    final = {c.descriptor: c.measured for c in rep.cases}["final rung"]
    assert final < 0.01


def test_scan_ratio_outside_region_recorded(gamma0):
    # growth scan on a ray that leaves the growth region: rungs recorded
    # as failures, not exceptions
    rep = scan_ratio(gamma0, "E", 2.8, [30.0], final_max=0.05)
    assert not rep.passed
    assert any("region" in c.note or "error" in c.note for c in rep.cases)


def test_reports_deterministic(gamma0):
    a = verify_moments(gamma0, 3).to_json()
    b = verify_moments(gamma0, 3).to_json()
    assert a == b
    parsed = json.loads(a)
    assert parsed["suite"].startswith("moments")
    assert parsed["summary"]["fail"] == 0
