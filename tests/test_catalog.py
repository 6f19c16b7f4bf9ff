import cmath
import json
import math
import warnings
from collections import Counter

import numpy as np
import pytest
import scipy.special as sp

from mellin_saddle import (BuildError, FunctionSpec, LogSurfacePoint,
                           NoSaddleError, SpecError, audit_admissibility,
                           build, build_positive_type, build_theorem3,
                           ell_exp_sqrt_log, ell_power, exp_scale, gamma_shift,
                           iterated_log, log_of_scale, monomial_exponent,
                           positive_type_degenerate, positive_type_factorial,
                           positive_type_iterated_log, power, product,
                           quotient, shift_normalize, solve)
from mellin_saddle.catalog import SlowlyVaryingEll
from mellin_saddle.jet import Jet2


def _random_sector_points(f, n=100, rho_hi=100.0, seed=11):
    rng = np.random.default_rng(seed)
    rho = np.exp(rng.uniform(0.0, math.log(rho_hi), n))
    theta = rng.uniform(-(f.alpha0 - 0.3), f.alpha0 - 0.3, n)
    return rho * np.exp(1j * theta)


def all_catalog_weights():
    g = gamma_shift(0.0)
    return [
        gamma_shift(0.0),
        gamma_shift(1.0),
        iterated_log(1.0, 1.0, 1, math.e),
        iterated_log(0.5, 0.7, 2, 20.0),
        exp_scale(gamma_shift(1.0), 0.8),
        shift_normalize(gamma_shift(0.0), 2.0),
        power(gamma_shift(1.0), 1.5),
        product(gamma_shift(1.0), iterated_log(1.0, 1.0, 1, math.e)),
        build_theorem3(ell_power(1.0, 1.0)),
        build_positive_type(positive_type_factorial()),
    ]


# ---------------------------------------------------------------------------
# factorial shifts
# ---------------------------------------------------------------------------

def test_gamma_shift_factorials(gamma1):
    for n in range(6):
        got = math.exp(float(np.real(gamma1.log_gamma(n + 1.0 + 0j))))
        assert got == pytest.approx(math.factorial(n + 1), rel=1e-12)


def test_plain_gamma_prototype(gamma0):
    for n in range(1, 7):
        got = math.exp(float(np.real(gamma0.log_gamma(n + 1.0 + 0j))))
        assert got == pytest.approx(math.factorial(n), rel=1e-12)
    assert gamma0.one_over_gamma0 == 0.0


def test_one_over_gamma0_conventions(gamma1, iterlog):
    assert gamma1.one_over_gamma0 == pytest.approx(1.0, rel=1e-5)
    assert iterlog.one_over_gamma0 == pytest.approx(1.0, rel=1e-5)
    g3 = gamma_shift(3.0)
    assert g3.one_over_gamma0 == pytest.approx(1.0 / math.gamma(3.0), rel=1e-5)


# ---------------------------------------------------------------------------
# iterated-log weights
# ---------------------------------------------------------------------------

def test_iterated_log_closed_form(iterlog):
    s = 3.0 + 0j
    want = 3.0 * math.log(math.log(3.0 + math.e))
    assert complex(iterlog.log_gamma(s)) == pytest.approx(want, rel=1e-13)
    assert iterlog.c_gamma == pytest.approx(math.e - 1.0)


def test_iterated_log_epsilon_decay(iterlog):
    # eps ~ 1/log rho for the log scale
    for rho in [1e3, 1e5]:
        eps = complex(iterlog.epsilon(np.complex128(rho))).real
        assert eps == pytest.approx(1.0 / math.log(rho), rel=0.05)


def test_iterated_log_rejects_small_c():
    with pytest.raises(BuildError):
        iterated_log(1.0, 1.0, 1, 2.0)      # log(2) < 1
    with pytest.raises(BuildError):
        iterated_log(1.0, 1.0, 2, 5.0)      # loglog(5) < 1
    with pytest.raises(BuildError):
        iterated_log(-1.0, 1.0, 1, math.e)
    # the boundary case log_1(e) = 1 is the standard example and must build
    iterated_log(1.0, 1.0, 1, math.e)


# ---------------------------------------------------------------------------
# closure rules
# ---------------------------------------------------------------------------

def test_exp_scale_shifts_phi(gamma1):
    f = exp_scale(gamma1, 0.7)
    s = 4.0 + 1.0j
    assert complex(f.dlog_gamma(s)) == pytest.approx(
        complex(gamma1.dlog_gamma(s)) + 0.7, rel=1e-13)


def test_shift_normalize_value(gamma0):
    f = shift_normalize(gamma0, 2.0)
    # gamma(s+2)/gamma(2): at s = 3 this is Gamma(5)/Gamma(2) = 24
    got = math.exp(float(np.real(f.log_gamma(3.0 + 0j))))
    assert got == pytest.approx(24.0, rel=1e-12)
    assert f.c_gamma == pytest.approx(gamma0.c_gamma + 2.0)


def test_product_is_sum_of_log_gammas(gamma1, iterlog):
    f = product(gamma1, iterlog)
    s = _random_sector_points(f, 10)
    lhs = f.log_gamma(s)
    rhs = gamma1.log_gamma(s) + iterlog.log_gamma(s)
    assert np.allclose(lhs, rhs, rtol=0, atol=0)   # composition-level identity


def test_power_scales_log_gamma(gamma1):
    f = power(gamma1, 2.5)
    s = 3.3 + 0.4j
    assert complex(f.log_gamma(s)) == pytest.approx(
        2.5 * complex(gamma1.log_gamma(s)), rel=1e-14)


def test_quotient_accepts_valid_pair(gamma1):
    sq = product(gamma1, gamma1)
    f = quotient(sq, gamma1)
    s = 5.0 + 0j
    assert complex(f.log_gamma(s)) == pytest.approx(
        complex(gamma1.log_gamma(s)), rel=1e-13)


def test_quotient_rejects_decreasing_ratio(gamma1):
    small = exp_scale(gamma1, -5.0)   # gamma1 * e^{-5s} < gamma1
    with pytest.raises(BuildError, match="rho"):
        quotient(small, gamma1)


def test_log_of_scale_matches_deeper_log(iterlog):
    # from L = log(s+e): (log L(s+1))^s = exp(s log_3(s+1+e))
    f = log_of_scale(iterlog)
    s = np.array([2.0 + 0j, 10.0 + 3j])
    w = s + 1.0 + math.e
    want = s * np.log(np.log(np.log(w)))
    assert np.allclose(f.log_gamma(s), want, rtol=1e-12)


def test_log_of_scale_rejects_small_scale(gamma0):
    # the factorial prototype has L near 1, log L(s+1) dips negative
    with pytest.raises(BuildError, match="log L"):
        log_of_scale(gamma0)


# ---------------------------------------------------------------------------
# slowly-varying constructor
# ---------------------------------------------------------------------------

def test_theorem3_closed_form(theorem3_power):
    # ell = 1+rho, c = 1: int_1^inf du/((1+u)(s+u)) = log((s+1)/2)/(s-1)
    for s in [3.0 + 0j, 7.5 + 2.5j, 0.5 + 0j, 12.0 - 4.0j]:
        want = s * s * np.log((s + 1.0) / 2.0) / (s - 1.0)
        assert complex(theorem3_power.log_gamma(s)) == pytest.approx(
            complex(want), rel=1e-12)


@pytest.mark.parametrize("a, c", [(1.0, 1.0), (0.5, 3.0)])
def test_theorem3_jet_exact_to_the_sector_edge(ell_power_exact, a, c):
    # the rotated Cauchy contour keeps every order at full precision up to
    # the edge alpha0 - 0.02, where a real-axis grid was off by up to 17
    # in Phi; one point (a Python complex) and an array take the same sums
    f = build_theorem3(ell_power(a, c))
    thetas = (0.0, 1.0, 2.0, 2.84, 3.0, 3.08, f.alpha0 - 0.02)
    pts = [r * cmath.exp(1j * sign * th) for r in (2.0, 10.0, 1e3, 1e6)
           for th in thetas for sign in (1, -1)]

    def top(j):             # the highest-order field a jet carries
        return (j.val, j.d1, j.d2)[j.order]

    batch = [top(f.jet(np.array(pts), n)) for n in (0, 1, 2)]
    for k, s in enumerate(pts):
        want = ell_power_exact(a, c, s)
        for n in (0, 1, 2):
            for got in (top(f.jet(s, n)), batch[n][k]):
                assert abs(got - want[n]) <= 1e-13 * abs(want[n]), (s, n)


def test_ell_must_be_finite_on_the_rotated_rays():
    # build_theorem3 integrates along c + t e^{+-i pi/4}: a (log ell)' that
    # is fine on the real axis but NaN off it is refused; the presets pass
    ell_power(2.0, 0.5), ell_exp_sqrt_log(0.3)
    with pytest.raises(BuildError, match="rays"):
        SlowlyVaryingEll(log_ell=np.log1p, c=1.0, dlog_ell=lambda u: np.where(
            np.imag(u) == 0.0, 1.0 / (1.0 + u), np.nan))


def test_ell_must_be_analytic_between_the_rays():
    # 1/(1 + |u|) is finite on both rays and equals ell_power(1, 1)'s
    # (log ell)' on the real axis, but the two rays' sums disagree
    ell = SlowlyVaryingEll(log_ell=lambda u: np.log1p(np.abs(u)),
                           dlog_ell=lambda u: 1.0 / (1.0 + np.abs(u)), c=1.0)
    with pytest.raises(BuildError, match="not analytic"):
        build_theorem3(ell)


def test_theorem3_derivatives_consistent(theorem3_power):
    s0 = 4.0 + 1.5j
    h = 1e-5
    fd = (theorem3_power.log_gamma(s0 + h) - theorem3_power.log_gamma(s0 - h)) / (2 * h)
    assert complex(theorem3_power.dlog_gamma(s0)) == pytest.approx(fd, rel=1e-8)
    fd2 = (theorem3_power.dlog_gamma(s0 + h) - theorem3_power.dlog_gamma(s0 - h)) / (2 * h)
    assert complex(theorem3_power.d2log_gamma(s0)) == pytest.approx(fd2, rel=1e-7)


def test_theorem3_epsilon_matches_scale_oracle(theorem3_power):
    # if rho ell'/ell has a limit, eps inherits it: here rho/(1+rho) -> 1
    for rho in [1e4, 1e5, 1e6]:
        eps = complex(theorem3_power.epsilon(np.complex128(rho))).real
        oracle = rho / (1.0 + rho)
        assert abs(eps / oracle - 1.0) < 0.02


def test_theorem3_rejects_constant_scale():
    with pytest.raises(BuildError, match="constant or decreasing"):
        SlowlyVaryingEll(log_ell=lambda u: np.ones_like(u),
                         dlog_ell=lambda u: np.zeros_like(u), c=1.0)


def test_exp_sqrt_log_scale_builds():
    f = build_theorem3(ell_exp_sqrt_log(1.0))
    eps = complex(f.epsilon(np.complex128(1e6))).real
    # rho ell'/ell = rho/(2 sqrt(log(1+rho)) (1+rho)) -> 0
    assert 0 < eps < 0.2


# ---------------------------------------------------------------------------
# positive-type representations
# ---------------------------------------------------------------------------

def test_factorial_measure_matches_loggamma(factorial_measure):
    sig = np.array([1.0, 2.0, 5.0, 11.0, 17.0, 29.0, 50.0])
    got = factorial_measure.log_gamma(sig + 0j)
    want = sp.loggamma(sig + 1.0)
    err = np.abs(got - want) / np.maximum(np.abs(want), 1.0)
    assert float(np.max(err)) < 1e-8
    assert factorial_measure.positive_type


def test_jump_measure_matches_iterated_log():
    pt = build_positive_type(positive_type_iterated_log(beta=1.0, k=1, c=10.0))
    direct = iterated_log(1.0, 1.0, 1, 10.0)
    sig = np.array([1.0, 4.0, 9.0, 25.0, 50.0])
    got = pt.log_gamma(sig + 0j)
    want = direct.log_gamma(sig + 0j)
    assert np.max(np.abs(got - want) / np.abs(want)) < 2e-4
    assert pt.positive_type and not pt.degenerate


def test_factorial_measure_tails_quiet_at_large_radius(factorial_measure):
    # the tail completions once formed s**3 and s**4, which overflow at
    # the saddle of log r = 240 (|s| ~ 1e104)
    from mellin_saddle import MellinSaddleError
    from mellin_saddle.saddle import boundary_psi, solve_real
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: solve_real(factorial_measure, 240.0),
                     lambda: boundary_psi(factorial_measure, 400.0, 1.0)):
            try:
                call()
            except MellinSaddleError:
                pass


def test_degenerate_measure_flagged():
    f = build_positive_type(positive_type_degenerate(0.7))
    assert f.degenerate
    assert complex(f.log_gamma(3.0 + 0j)) == pytest.approx(2.1, rel=1e-12)


def test_degenerate_weight_solves_and_audits_without_warnings():
    # eps is identically 0, so the (B) ratio and the (C) spread are 0/0:
    # they read "not slow-varying" and leak no RuntimeWarning (an error
    # under this suite's warning filter)
    f = build_positive_type(positive_type_degenerate(0.5))
    assert f.default_rho0() == 1e6
    with pytest.raises(NoSaddleError):
        solve(f, LogSurfacePoint(1.0, 0.0))
    rep = audit_admissibility(f)
    assert not rep.passed and math.isnan(rep.conditions[2].metric)


def test_negative_density_rejected():
    from mellin_saddle import PositiveTypeSpec
    spec = PositiveTypeSpec(A=0.0, B=0.0, a=0.0,
                            measure_density=lambda u: np.sin(u),
                            support_cut=10.0, label="bad")
    with pytest.raises(BuildError, match="negative"):
        build_positive_type(spec)


# ---------------------------------------------------------------------------
# shared invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("f", all_catalog_weights(),
                         ids=lambda f: f.label)
def test_real_positive_on_ray(f):
    sigma = np.geomspace(max(0.02, -(-f.c_gamma) + 0.01) if f.c_gamma == 0
                         else 0.05, 1e3, 40)
    lg = f.log_gamma(sigma + 0j)
    assert float(np.max(np.abs(np.imag(lg)))) < 1e-10
    # and the imaginary part stays identically zero along the ray: its
    # sigma-derivative (the imag part of Phi) vanishes too
    assert float(np.max(np.abs(np.imag(f.dlog_gamma(sigma + 0j))))) < 1e-10


@pytest.mark.parametrize("f", all_catalog_weights(),
                         ids=lambda f: f.label)
def test_schwarz_symmetry(f):
    s = _random_sector_points(f, 25)
    a = f.log_gamma(np.conj(s))
    b = np.conj(f.log_gamma(s))
    assert np.allclose(a, b, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("f", all_catalog_weights(),
                         ids=lambda f: f.label)
def test_derivative_vs_central_difference(f):
    s = _random_sector_points(f, 100)
    h = 1e-5 * np.abs(s)
    fd = (f.log_gamma(s + h) - f.log_gamma(s - h)) / (2 * h)
    d = f.dlog_gamma(s)
    assert float(np.max(np.abs(d - fd) / np.abs(d))) < 1e-6


@pytest.mark.parametrize("f", all_catalog_weights(),
                         ids=lambda f: f.label)
def test_epsilon_positive_bounded_on_probe(f):
    rho = np.geomspace(1.0, 1e6, 30)
    eps = np.real(f.epsilon(rho + 0j))
    if f.label == "gamma(s)":
        rho = rho[rho > 2.0]
        eps = np.real(f.epsilon(rho + 0j))
    assert np.all(eps > 0)
    assert np.max(eps) < 10.0


# ---------------------------------------------------------------------------
# admissibility audit
# ---------------------------------------------------------------------------

def test_audit_passes_shifted_factorial(gamma1):
    rep = audit_admissibility(gamma1)
    assert rep.passed, rep.to_dict()
    assert rep.epsilon_sup == pytest.approx(1.0, abs=0.05)


def test_audit_passes_iterated_log(iterlog):
    rep = audit_admissibility(iterlog)
    assert rep.passed, rep.to_dict()


def test_audit_fails_square_exponent():
    rep = audit_admissibility(monomial_exponent(2.0))
    by_name = {c.name: c for c in rep.conditions}
    assert not by_name["B: rho|eps'|/eps small on tail"].passed
    assert not rep.passed


def test_audit_flags_plain_gamma_near_origin(gamma0):
    # eps(rho) < 0 on (0, ~1.46): the unshifted prototype fails the
    # ray-positivity condition even though it is fine asymptotically
    rep = audit_admissibility(gamma0)
    assert rep.epsilon_min < 0


# ---------------------------------------------------------------------------
# serializable specs
# ---------------------------------------------------------------------------

def test_spec_round_trip():
    spec = FunctionSpec("product", children=[
        FunctionSpec("gamma_shift", {"c": 1.0}),
        FunctionSpec("iterated_log", {"a": 1.0, "b": 1.0, "k": 1, "c": math.e}),
    ])
    text = spec.to_json()
    back = FunctionSpec.from_json(text)
    assert back.to_dict() == spec.to_dict()
    f = build(back)
    s = 4.0 + 0.5j
    want = complex(gamma_shift(1.0).log_gamma(s)) + \
        complex(iterated_log(1, 1, 1, math.e).log_gamma(s))
    assert complex(f.log_gamma(s)) == pytest.approx(want, rel=1e-13)


def test_spec_validation_errors():
    with pytest.raises(SpecError):
        FunctionSpec("unknown_kind")
    with pytest.raises(SpecError):
        FunctionSpec("product", children=[FunctionSpec("gamma_shift")])
    with pytest.raises(SpecError):
        FunctionSpec.from_json("{not json")
    with pytest.raises(SpecError):
        build(FunctionSpec("exp_tau_scale",
                           children=[FunctionSpec("gamma_shift")]))


def test_spec_presets_build():
    for text in [
        '{"kind": "theorem3", "params": {"ell": "power", "a": 1.0, "c": 1.0}}',
        '{"kind": "theorem3", "params": {"ell": "exp_sqrt_log", "c": 1.0}}',
        '{"kind": "positive_type", "params": {"preset": "factorial"}}',
        '{"kind": "positive_type", "params": {"preset": "iterated_log_jump", '
        '"beta": 1.0, "k": 1, "c": 10.0}}',
        '{"kind": "positive_type", "params": {"preset": "degenerate", "tau": 1.0}}',
    ]:
        f = build(FunctionSpec.from_json(text))
        assert np.isfinite(complex(f.log_gamma(2.0 + 0j)).real)


def test_theorem3_jet_independent_of_earlier_calls():
    # the kernel grid is chosen from each call's own points: a far call
    # in between leaves the value at s = 10 bit-identical
    f = build_theorem3(ell_power(1.0, 1.0))
    before = f.jet(np.complex128(10.0))
    f.jet(np.complex128(1e17))
    after = f.jet(np.complex128(10.0))
    for a, b in [(before.val, after.val), (before.d1, after.d1),
                 (before.d2, after.d2)]:
        assert repr(complex(a)) == repr(complex(b))


# ---------------------------------------------------------------------------
# the jet's order contract
# ---------------------------------------------------------------------------

_ORDER_KINDS = ("gamma_shift", "iterated_log", "exp_scale", "shift_normalize",
                "power", "product", "quotient", "log_of_L", "theorem3",
                "positive_type_factorial", "positive_type_iterated_log_jump",
                "positive_type_degenerate", "monomial_exponent")


@pytest.fixture(scope="module")
def order_weights():
    """One weight per builder kind, the three positive-type presets apart."""
    g1 = gamma_shift(1.0)
    il = iterated_log(1.0, 1.0, 1, math.e)
    return {
        "gamma_shift": g1,
        "iterated_log": il,
        "exp_scale": exp_scale(g1, 0.8),
        "shift_normalize": shift_normalize(gamma_shift(0.0), 2.0),
        "power": power(g1, 1.5),
        "product": product(g1, il),
        "quotient": quotient(product(g1, g1), g1),
        "log_of_L": log_of_scale(il),
        "theorem3": build_theorem3(ell_power(1.0, 1.0)),
        "positive_type_factorial": build_positive_type(positive_type_factorial()),
        "positive_type_iterated_log_jump":
            build_positive_type(positive_type_iterated_log()),
        "positive_type_degenerate": build_positive_type(positive_type_degenerate(0.5)),
        "monomial_exponent": monomial_exponent(1.5),
    }


@pytest.mark.parametrize("s", [np.complex128(3.0 + 0.7j),
                               np.array([0.6 + 0j, 4.0 - 2.0j, 25.0 + 9.0j])],
                         ids=["scalar", "array"])
@pytest.mark.parametrize("kind", _ORDER_KINDS)
def test_jet_order_fields_bit_identical(order_weights, kind, s):
    # a lower order leaves the fields it skips unset and the fields it
    # computes bit-identical to the full jet's
    f = order_weights[kind]
    full, j0, j1 = f.jet(s), f.jet(s, 0), f.jet(s, 1)
    (phi1, dphi1), (phi2, _) = f.phi_log(np.log(s), 1), f.phi_log(np.log(s))
    assert (j0.d1, j0.d2, j1.d2, dphi1) == (None, None, None, None)
    for got, want in [(j0.val, full.val), (j1.val, full.val), (j1.d1, full.d1),
                      (f.log_gamma(s), full.val), (f.dlog_gamma(s), full.d1),
                      (phi1, phi2)]:
        assert np.asarray(got, dtype=complex).tobytes() == \
            np.asarray(want, dtype=complex).tobytes()


def test_value_only_log_gamma_skips_polygamma(monkeypatch):
    import mellin_saddle.catalog as catalog

    calls = Counter()
    for name in ("loggamma", "digamma", "trigamma"):
        def spy(w, fn=getattr(catalog, name), name=name):
            calls[name] += 1
            return fn(w)
        monkeypatch.setattr(catalog, name, spy)
    f = gamma_shift(0.0)
    f.log_gamma(2.5 + 0j)
    f.log_gamma(np.array([1.5 + 0j, 3.0 + 2j]))
    assert calls == {"loggamma": 2}
    f.dlog_gamma(2.5 + 0j)
    assert calls == {"loggamma": 3, "digamma": 1}
    f.d2log_gamma(2.5 + 0j)
    assert calls == {"loggamma": 4, "digamma": 2, "trigamma": 1}


def test_kernel_jet_takes_one_cauchy_sum_per_order(monkeypatch, theorem3_power):
    import mellin_saddle.cauchy as cauchy

    counts = []

    def spy(s, a, grid, count, fn=cauchy._cauchy_sums):
        counts.append(count)
        return fn(s, a, grid, count)

    monkeypatch.setattr(cauchy, "_cauchy_sums", spy)
    theorem3_power.log_gamma(np.array([2.0 + 0j, 5.0 + 1j]))
    theorem3_power.epsilon(7.0 + 0j)
    theorem3_power.d2log_gamma(7.0 + 0j)
    assert counts == [1, 2, 3]


def _rho0_per_radius(f):
    """default_rho0 written as a loop over the 31 radii: eps and eps' from
    one jet each, and at each radius a fan of 5 angles (theta = 0 included)
    against that radius's own one-point eps(rho)."""
    rho = np.geomspace(1.0, 1e6, 31)
    epsp = np.real(f.epsilon_prime(rho + 0j))
    eps = np.real(f.epsilon(rho + 0j))
    fan = min(0.5 * math.pi, f.alpha0 - 0.1)
    thetas = np.linspace(-fan, fan, 5)
    with np.errstate(divide="ignore", invalid="ignore"):
        b = np.abs(rho * epsp / eps)
        c = np.array([np.max(np.abs(f.epsilon(r * np.exp(1j * thetas))
                                    / complex(f.epsilon(r + 0j)) - 1.0))
                      for r in rho])
    bad = np.nonzero(~((b < 0.2) & (c < 0.2)))[0]
    idx = bad[-1] + 1 if bad.size else 0
    if idx >= rho.size:
        return float(rho[-1])
    if idx == 0:
        return float(rho[0])
    return float(math.sqrt(rho[idx - 1] * rho[idx]))


def _fingerprint_weights():
    from importlib.util import module_from_spec, spec_from_file_location
    from pathlib import Path

    import mellin_saddle
    path = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"
    spec = spec_from_file_location("fingerprint", path)
    fp = module_from_spec(spec)
    spec.loader.exec_module(fp)
    return {name: make(mellin_saddle) for name, make in fp.WEIGHT_LAYER.items()}


def test_default_rho0_matches_the_per_radius_probe():
    # the probe's two array calls (one order-2 jet on the radii, one eps
    # call on the fan's off-axis points) give the per-radius loop's radius
    weights = _benchmark_and_fingerprint_weights()
    assert len(weights) == 16
    for name, f in weights.items():
        assert f.default_rho0() == _rho0_per_radius(f), name
    f = build_positive_type(positive_type_degenerate(0.5))
    assert f.default_rho0() == _rho0_per_radius(f) == 1e6


def _benchmark_and_fingerprint_weights():
    return {
        "gamma_shift(0)": gamma_shift(0.0),
        "gamma_shift(1)": gamma_shift(1.0),
        "iterated_log": iterated_log(1.0, 1.0, 1, math.e),
        "theorem3": build_theorem3(ell_power(1.0, 1.0)),
        **_fingerprint_weights(),
    }


def test_eps_probe_is_epsilon_on_its_61_radii():
    # the even radii come from default_rho0's order-2 jet, the odd ones
    # from an order-1 jet: together, byte for byte, one epsilon call
    weights = _benchmark_and_fingerprint_weights()
    assert len(weights) == 16
    rho = np.geomspace(1.0, 1e6, 61)
    assert np.array_equal(rho[::2], np.geomspace(1.0, 1e6, 31))
    for name, f in weights.items():
        with np.errstate(divide="ignore", invalid="ignore"):  # eps = 0
            want = np.real(f.epsilon(rho + 0j))
            got = f._eps_probe
        assert got.tobytes() == want.tobytes(), name


def test_a_point_does_not_depend_on_its_batch():
    # each point's fields, bit for bit, whether it comes alone, with the
    # others, or beside a far point that needs a wider kernel grid
    pts = np.array([10.0 + 1.0j, 3.0 - 2.0j, 0.5 + 0.5j, 150.0 + 0.1j,
                    40.0 - 25.0j])
    for name, f in _benchmark_and_fingerprint_weights().items():
        for order in (0, 1, 2):
            fields = ("val", "d1", "d2")[:order + 1]
            whole = f.jet(pts, order)
            for k, x in enumerate(pts):
                for batch in ([x], [x, 1e9], [x, 1e12 - 3.0j]):
                    j = f.jet(np.array(batch, dtype=complex), order)
                    for field in fields:
                        got = getattr(j, field)[0]
                        want = getattr(whole, field)[k]
                        assert got.tobytes() == want.tobytes(), \
                            (name, order, field, batch)


@pytest.mark.parametrize("kind", ["theorem3", "positive_factorial"])
def test_cauchy_blocks_do_not_change_a_field(monkeypatch, theorem3_power,
                                             factorial_measure, kind):
    # one batch over several blocks of the Cauchy sums gives, bit for bit,
    # the fields of the same points passed a few at a time
    import mellin_saddle.cauchy as cauchy

    f = theorem3_power if kind == "theorem3" else factorial_measure
    blocks = []

    def spy(s, a, grid, count, fn=cauchy._cauchy_sums):
        blocks.append(max(1, cauchy._CAUCHY_BLOCK // (count * grid.width)))
        return fn(s, a, grid, count)

    monkeypatch.setattr(cauchy, "_cauchy_sums", spy)
    rng = np.random.default_rng(5)
    pts = np.exp(rng.uniform(-1.0, 9.0, 400) + 1j * rng.uniform(-3.0, 3.0, 400))
    for order in (0, 1, 2):
        blocks.clear()
        whole = f.jet(pts, order)
        assert pts.size >= 3 * blocks[0] + 1
        parts = [f.jet(pts[k:k + 2], order) for k in range(0, pts.size, 2)]
        for field in ("val", "d1", "d2")[:order + 1]:
            got = np.concatenate([getattr(p, field) for p in parts])
            assert np.array_equal(getattr(whole, field), got), (order, field)


def test_a_large_kernel_batch_stays_small_in_memory(theorem3_power):
    # the Cauchy sums' temporaries are one block, not the whole batch: in
    # blocks of 4e6 terms, 2,000 points over 1,905 nodes peaked at 122 MB
    import tracemalloc

    pts = np.geomspace(1.0, 1e7, 2000) * np.exp(0.3j)
    theorem3_power.jet(pts[:1], 2)      # the node grid, built once
    tracemalloc.start()
    try:
        theorem3_power.jet(pts, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


@pytest.mark.parametrize("s", [3.0 + 0.7j, 0.6 + 0j, 25.0 - 9.0j, 400.0 + 1e3j])
@pytest.mark.parametrize("kind", _ORDER_KINDS)
def test_jet_scalar_and_array_agree(order_weights, kind, s):
    # one number travels as a Python complex, with the same jet_fn as an
    # array: the fields agree to rounding, and none is a 0-d array
    f = order_weights[kind]
    for order in (0, 1, 2):
        one, arr = f.jet(s, order), f.jet(np.array([s]), order)
        for got, want in [(one.val, arr.val), (one.d1, arr.d1), (one.d2, arr.d2)]:
            if want is None:
                assert got is None
                continue
            assert not isinstance(got, np.ndarray)
            assert abs(got - want[0]) <= 1e-14 * abs(want[0])


@pytest.mark.parametrize("kind", _ORDER_KINDS)
def test_phi_log_of_one_point_is_a_scalar(order_weights, kind):
    f = order_weights[kind]
    ws = [math.log(30.0) + 0.4j, np.complex128(2.0 - 1.0j)]
    if f.has_log_domain:
        ws.append(310.0 + 0.5j)     # the family's far form
    for w in ws:
        phi1, dphi1 = f.phi_log(w, 1)
        phi, dphi = f.phi_log(w)
        assert dphi1 is None or w.real >= 300.0
        for x in (phi1, phi, dphi):
            assert isinstance(x, complex) and not isinstance(x, np.ndarray)
        phi_arr, dphi_arr = f.phi_log(np.array([w]))
        assert abs(phi - phi_arr[0]) <= 1e-14 * abs(phi_arr[0])
        assert abs(dphi - dphi_arr[0]) <= 1e-14 * abs(dphi_arr[0])


def _theorem3_power_closed_form(s, a, c):
    # ell = (1+u)^a from c: log gamma(s) = a s^2 log((s+c)/(1+c)) / (s-1)
    v = Jet2.variable(s)
    return ((v + c) * (1.0 / (1.0 + c))).log() * v * v * a / (v - 1.0)


@pytest.mark.parametrize("radius", [2.0, 10.0, 1e3, 1e6])
def test_theorem3_kernel_matches_closed_form(theorem3_power, radius):
    # the Cauchy-kernel sum against the closed form of its ell_power(1, 1)
    # weight, up to |theta| = 2.7, on one point and on an array
    thetas = np.linspace(-2.7, 2.7, 19)
    pts = radius * np.exp(1j * thetas)
    want = _theorem3_power_closed_form(pts, 1.0, 1.0)
    arr = theorem3_power.jet(pts)
    for k, s in enumerate(pts):
        one = theorem3_power.jet(complex(s))
        for field in ("val", "d1", "d2"):
            w = getattr(want, field)[k]
            assert abs(getattr(one, field) - w) <= 1e-13 * abs(w)
            assert abs(getattr(arr, field)[k] - w) <= 1e-13 * abs(w)


# ---------------------------------------------------------------------------
# the split Cauchy sums against the all-nodes sum
# ---------------------------------------------------------------------------

def _direct_cauchy_sums(s, u, w, count):
    """The all-nodes sum the split replaced: [sum_j w_j (s + u_j)^{-m}],
    m = 1..count, one reciprocal of s + u per point and a product per
    power, with sum_j |w_j| |s + u_j|^{-m} beside it."""
    d = np.reciprocal(s[:, None] + u)
    r, size = w * d, np.abs(w * d)
    sums, sizes = [r.sum(axis=1)], [size.sum(axis=1)]
    for _ in range(1, count):
        r, size = r * d, size * np.abs(d)
        sums.append(r.sum(axis=1))
        sizes.append(size.sum(axis=1))
    return np.stack(sums, -1), np.stack(sizes, -1)


def _split_test_points(limits, alpha0):
    # 2,000 seeded points, |s| in [1e-3, 1e12] and |theta| <= alpha0 - 0.02
    # on both sides, then s = 0, 1e-38, |s| = 4 R_b and one ulp either side
    # at a few panels b, and the first cover's edge 1e8 (1 +- 2^-52)
    rng = np.random.default_rng(26)
    radius = np.exp(rng.uniform(math.log(1e-3), math.log(1e12), 2000))
    theta = rng.uniform(-(alpha0 - 0.02), alpha0 - 0.02, 2000)
    limits = limits[limits > 0]
    seams = limits[np.unique(np.minimum([0, 1, 4, 9, -1], limits.size - 1))]
    seams = np.concatenate([seams, np.nextafter(seams, 0.0),
                            np.nextafter(seams, math.inf), [0.0, 1e-38],
                            1e8 * (1.0 + np.array([-2.0, 2.0]) ** -52)])
    return np.concatenate([radius * np.exp(1j * theta),
                           seams * np.exp(0.7j), seams * np.exp(-2.1j)])


def _assert_split_matches_direct(s, u, w, radii):
    from mellin_saddle.cauchy import _cauchy_sums, _split_grid

    got = _cauchy_sums(s, abs(s), _split_grid(u, w, radii), 3)
    want, size = _direct_cauchy_sums(s, u, w, 3)
    # 4 eps at m = 1, 2 (3.6 the most seen) and 6 eps at m = 3 (5.0):
    # there the leading near term tau^3 carries three times tau's
    # rounding, and the all-nodes sum's d^3 three times that of d
    bound = np.array([4.0, 4.0, 6.0]) * np.finfo(float).eps * size
    assert np.all(np.abs(got - want) <= bound), \
        np.max(np.abs(got - want) / size, axis=0) / np.finfo(float).eps


@pytest.mark.parametrize("ell", [ell_power(1.0, 1.0), ell_exp_sqrt_log(1.0)],
                         ids=["power", "exp_sqrt_log"])
def test_split_cauchy_sums_match_the_direct_sum_on_theorem3(ell):
    # every power m = 1..3 within a few eps of sum |w| |s + u|^-m of the
    # all-nodes sum, on each point's own kernel grid: the ray above the
    # real axis, which the points below it reach through conj(s)
    from mellin_saddle.catalog import _COVERS, _theorem3_ray

    u0, w0, radii0 = _theorem3_ray(ell, 0)
    s = _split_test_points(4.0 * radii0, math.pi)
    s = np.where(np.signbit(s.imag), s.conjugate(), s)
    cover = _COVERS.searchsorted(abs(s))
    for c in np.unique(cover):
        _assert_split_matches_direct(s[cover == c], *_theorem3_ray(ell, c))


@pytest.mark.parametrize("spec", [positive_type_factorial(),
                                  positive_type_iterated_log(),
                                  positive_type_degenerate(0.5)],
                         ids=["factorial", "iterated_log_jump", "degenerate"])
def test_split_cauchy_sums_match_the_direct_sum_on_positive_type(spec):
    from mellin_saddle.catalog import _gauss_panels, _positive_type_edges

    edges = _positive_type_edges(spec)
    u, w = _gauss_panels(edges)
    w = w * np.maximum(spec.measure_density(u), 0.0)
    s = _split_test_points(4.0 * edges, math.pi)
    _assert_split_matches_direct(s, u + 0j, w + 0j, edges)


def test_theorem3_jet_refuses_past_its_last_cover():
    # |s| = inf or past 1e154, where s^2 overflows, raises SpecError naming
    # |s| and the bound; a NaN point keeps NaN fields beside a finite one,
    # which keeps its own bits; no call warns
    from mellin_saddle import SpecError

    f = build_theorem3(ell_power(1.0, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in (1e300 + 0j, complex(math.inf, 0.0), 1e200 - 3j,
                  np.array([2.0 + 0j, 1e155j])):
            with pytest.raises(SpecError, match=r"\|s\| <= 1e\+154, got \|s\|"):
                f.jet(s)
        edge = f.jet(1e154 + 0j)
        assert all(np.isfinite(x) for x in (edge.val, edge.d1, edge.d2))
        alone = f.jet(np.array([3.0 + 1.0j]))
        both = f.jet(np.array([complex(math.nan, 0.0), 3.0 + 1.0j]))
        one = f.jet(complex(math.nan, math.nan))
        for field in ("val", "d1", "d2"):
            assert np.isnan(getattr(both, field)[0])
            assert np.isnan(getattr(one, field))
            assert getattr(both, field)[1:].tobytes() == \
                getattr(alone, field).tobytes()


@pytest.mark.parametrize("ell", [ell_power(1.0, 1.0), ell_exp_sqrt_log(1.0)],
                         ids=["power", "exp_sqrt_log"])
def test_theorem3_jet_below_the_axis_is_the_conjugate(ell):
    # Schwarz reflection: (log ell)' is real on the axis, so the jet at
    # conj(s) is the exact conjugate of the jet at s, at every order, for
    # one point and for arrays, x - 0j beside x + 0j included
    f = build_theorem3(ell)
    rng = np.random.default_rng(28)
    pts = np.exp(rng.uniform(-3.0, 20.0, 60) + 1j * rng.uniform(0.0, 3.1, 60))
    pts = np.concatenate([pts, [3.0 + 0j, 5.0 + 0j, 1e9 + 0j, 0.4 + 1e-12j]])
    mirror = pts.conjugate()
    assert np.all(np.signbit(mirror.imag))
    for order in (0, 1, 2):
        fields = ("val", "d1", "d2")[:order + 1]
        up, down = f.jet(pts, order), f.jet(mirror, order)
        both = f.jet(np.concatenate([pts, mirror]), order)
        for field in fields:
            want = getattr(up, field).conjugate()
            assert np.array_equal(getattr(down, field), want), (order, field)
            assert np.array_equal(getattr(both, field)[pts.size:], want)
        for s in pts[::5]:
            one_up, one_down = f.jet(complex(s), order), f.jet(complex(s).conjugate(), order)
            for field in fields:
                assert getattr(one_down, field) == getattr(one_up, field).conjugate()


def test_theorem3_refuses_an_ell_not_real_on_the_axis():
    # i (log ell)' of ell_power(1, 1) is analytic, but imaginary on the
    # axis: the ray's sum at s = c is not real, and the mirror ray's
    # conjugate would not give the lower half-plane
    ell = SlowlyVaryingEll(log_ell=np.log1p, c=1.0,
                           dlog_ell=lambda u: 1.0 / (1.0 + u))
    rotated = SlowlyVaryingEll(log_ell=np.log1p, c=1.0,
                               dlog_ell=lambda u: np.exp(0.5j) / (1.0 + u)
                               if np.iscomplexobj(u) else 1.0 / (1.0 + u))
    build_theorem3(ell)
    with pytest.raises(BuildError, match="not real on the axis"):
        build_theorem3(rotated)


@pytest.mark.parametrize("s", [0.0, 1e-300, 1e-12, 1e-8])
def test_positive_type_factorial_at_small_s(factorial_measure, s):
    # the tails' series in s/cut: log Gamma(1 + s), psi(1 + s) and
    # psi'(1 + s) down to s = 0, with no warning, for one point and arrays
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        one = factorial_measure.jet(complex(s))
        arr = factorial_measure.jet(np.array([s, 2.0], dtype=complex))
    for j in (one, Jet2(arr.val[0], arr.d1[0], arr.d2[0])):
        assert abs(j.val - sp.loggamma(1.0 + s)) <= 1e-13
        assert abs(j.d1 - sp.digamma(1.0 + s)) <= 1e-13
        assert abs(j.d2 - sp.polygamma(1, 1.0 + s)) <= 1e-13


@pytest.mark.parametrize("spec", [positive_type_factorial(),
                                  positive_type_iterated_log(),
                                  positive_type_degenerate(0.5)],
                         ids=["factorial", "iterated_log_jump", "degenerate"])
def test_positive_type_jet_refuses_past_1e154(spec):
    # the kernel weights' one bound: SpecError past |s| = 1e154 and at
    # inf, finite fields at 1e154, NaN fields at a NaN point; no warning
    f = build_positive_type(spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in (1e200 + 0j, 1e300 + 0j, complex(math.inf, 0.0),
                  np.array([2.0 + 0j, 1e155j])):
            with pytest.raises(SpecError, match=r"\|s\| <= 1e\+154, got \|s\|"):
                f.jet(s)
        edge = f.jet(1e154 + 0j)
        assert all(np.isfinite(x) for x in (edge.val, edge.d1, edge.d2))
        both = f.jet(np.array([complex(math.nan, 0.0), 3.0 + 1.0j]))
        alone = f.jet(np.array([3.0 + 1.0j]))
        for field in ("val", "d1", "d2"):
            assert np.isnan(getattr(both, field)[0])
            assert getattr(both, field)[1:].tobytes() == \
                getattr(alone, field).tobytes()


def test_kernel_jets_take_an_empty_batch(theorem3_power, factorial_measure):
    # no point, no row of terms: every field comes back with shape (0,)
    for f in (theorem3_power, factorial_measure):
        j = f.jet(np.array([], dtype=complex), 2)
        assert all(getattr(j, k).shape == (0,) for k in ("val", "d1", "d2"))
