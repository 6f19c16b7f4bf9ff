import heapq
import math

import numpy as np
import pytest

from mellin_saddle import quadrature as q
from mellin_saddle.quadrature import adaptive_integrate, scan_drop
from mellin_saddle.surface import Tolerances


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



# ---------------------------------------------------------------------------
# the batched engine against the per-panel loop it replaced
# ---------------------------------------------------------------------------

def _reference_integrate(f, a, b, *, rel_tol=1e-8, max_nodes=200_000,
                         breakpoints=()):
    """The per-panel engine: one integrand call for each 15-node panel,
    bisecting the same batch of panels in each pass as the engine."""
    def panel(lo, hi):
        half = 0.5 * (hi - lo)
        y = f(0.5 * (lo + hi) + half * q._XK)
        floor = None
        if isinstance(y, tuple):
            y, noise = y
            floor = half * float(np.max(q._WK @ noise))
        y = np.asarray(y)
        ik = half * (q._WK @ y)
        ig = half * (q._WG @ y[q._GAUSS_IDX])
        absint = half * float(np.max(q._WK @ np.abs(y)))
        return ik, float(np.max(np.abs(ik - ig))), absint, floor

    edges = sorted({float(a), float(b), *(float(t) for t in breakpoints
                                          if a < t < b)})
    heap, done = [], []
    state = {"counter": 0, "nodes": 0, "err": 0.0, "floor": 0.0,
             "declared": False, "value": None}

    def add(lo, hi):
        ik, err, absint, floor = panel(lo, hi)
        state["nodes"] += 15
        state["err"] += err
        state["declared"] = floor is not None
        floor = floor or 0.0
        state["floor"] += floor
        state["value"] = ik if state["value"] is None else state["value"] + ik
        entry = (lo, hi, ik, err, absint, floor)
        if (hi - lo) > 1e-14 * (abs(lo) + abs(hi) + 1.0):
            heapq.heappush(heap, (-err, state["counter"], entry))
        else:
            done.append(entry)
        state["counter"] += 1

    for lo, hi in zip(edges[:-1], edges[1:]):
        add(lo, hi)

    def finish(stop):
        entries = sorted(done + [e for _, _, e in heap], key=lambda e: e[0])
        total = entries[0][2]
        for e in entries[1:]:
            total = total + e[2]
        err = sum(e[3] for e in entries) \
            + 10.0 * q._EPS * sum(e[4] for e in entries)
        if stop == "floor":
            err += sum(e[5] for e in entries)
        return q.PanelResult(total, err, state["nodes"], stop)

    while True:
        scale = float(np.max(np.abs(state["value"])))
        declared = state["declared"]
        if state["err"] <= max(Tolerances.abs_tol, rel_tol * scale):
            return finish("tolerance")
        if declared and not (math.isfinite(scale)
                             and math.isfinite(state["err"])):
            return finish("non_finite")
        if declared and state["err"] <= state["floor"]:
            return finish("floor")
        if state["nodes"] + 30 > max_nodes or not heap:
            return finish("budget")
        # the pass's batch: the worst panels until their errors pass the
        # gap to the target, at least one, at most the cap and the budget
        gap = state["err"] - max(Tolerances.abs_tol, rel_tol * scale,
                                 state["floor"])
        room = min(q._MAX_BISECTIONS, (max_nodes - state["nodes"]) // 30)
        popped, halves = 0.0, []
        while heap and len(halves) < 2 * room and (not halves
                                                   or popped <= gap):
            _, _, (lo, hi, ik, err, absint, floor) = heapq.heappop(heap)
            popped += err
            state["err"] -= err
            state["floor"] -= floor
            state["value"] = state["value"] - ik
            mid = 0.5 * (lo + hi)
            halves += [(lo, mid), (mid, hi)]
        for lo, hi in halves:
            add(lo, hi)


def _ripple(x):
    base = np.exp(-x * x)
    return base * (1.0 + 1e-9 * np.sin(1e6 * x)), 1e-9 * base


def _nan_past_half(x):
    y = np.where(x > 0.5, np.nan, np.exp(x))
    return y, 1e-16 * np.abs(y)


_KS = np.array([1.0, 2.0, 3.0])

# (integrand, a, b, keyword arguments, the stop it reaches)
_ENGINE_CASES = {
    "scalar": (lambda x: np.exp((0.3j - 0.2) * x) * np.cos(x), 0.0, 40.0,
               {"rel_tol": 1e-12}, "tolerance"),
    "vector": (lambda x: np.exp(-np.outer(x, _KS + 1j)), 0.0, 30.0,
               {"rel_tol": 1e-10, "breakpoints": [1.0, 5.0, 10.0]},
               "tolerance"),
    "noise-breakpoints": (_ripple, -20.0, 20.0,
                          {"rel_tol": 1e-13, "breakpoints": [-1.0, 0.0, 1.0]},
                          "floor"),
    "budget": (lambda x: np.sin(1.0 / (x + 1e-6)) / (x + 1e-6), 0.0, 1.0,
               {"rel_tol": 1e-14, "max_nodes": 600}, "budget"),
    "width-floor": (lambda x: 1.0 / np.abs(x - 1.0 / 3.0), 0.0, 1.0,
                    {"max_nodes": 6_000}, "budget"),
    "non-finite": (_nan_past_half, 0.0, 1.0,
                   {"breakpoints": [0.25, 0.75]}, "non_finite"),
}


def _counted_integrate(f, a, b, kwargs):
    """adaptive_integrate's result and the node count of each call of f."""
    sizes = []

    def counted(x):
        sizes.append(x.size)
        return f(x)

    return adaptive_integrate(counted, a, b, **kwargs), sizes


@pytest.mark.parametrize("case", list(_ENGINE_CASES))
def test_batched_engine_matches_per_panel_loop(case):
    f, a, b, kwargs, stop = _ENGINE_CASES[case]
    got, sizes = _counted_integrate(f, a, b, kwargs)
    want = _reference_integrate(f, a, b, **kwargs)
    assert got.stop == want.stop == stop
    for g, w in ((got.value, want.value), (got.abs_error, want.abs_error)):
        assert type(g) is type(w)
        assert np.asarray(g).shape == np.asarray(w).shape
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()
    assert got.nodes == want.nodes == sum(sizes)
    # every seed panel in the first call, then both halves of each of the
    # 1 to _MAX_BISECTIONS panels that a pass bisects
    seeds = len({a, b, *(t for t in kwargs.get("breakpoints", ())
                         if a < t < b)}) - 1
    assert sizes[0] == 15 * seeds
    assert all(n % 30 == 0 and 1 <= n // 30 <= q._MAX_BISECTIONS
               for n in sizes[1:])


# (nodes, integrand calls) of the one-panel-per-pass engine on each case
_PER_PANEL_COSTS = {"scalar": (585, 20), "vector": (180, 5),
                    "noise-breakpoints": (240, 7), "budget": (585, 20),
                    "width-floor": (5_985, 200), "non-finite": (45, 1)}


@pytest.mark.parametrize("case", list(_ENGINE_CASES))
def test_batched_bisection_cost(case):
    # a deterministic cost guard: the same stop on the same number of
    # nodes as one bisection per pass, in at most half its integrand calls,
    # rounded up, wherever that engine made more than 4
    f, a, b, kwargs, stop = _ENGINE_CASES[case]
    nodes, calls = _PER_PANEL_COSTS[case]
    res, sizes = _counted_integrate(f, a, b, kwargs)
    assert res.stop == stop
    assert res.nodes == nodes
    assert len(sizes) <= ((calls + 1) // 2 if calls > 4 else calls)
