"""Adaptive Gauss-Kronrod panels for complex (optionally vector) integrands.

The engine is deliberately small: (G7, K15) pairs, bisection of the worst
panel by error estimate, a node budget, and a deterministic final
summation (panels sorted by left endpoint, so a fixed panel set always
reduces in the same order).  Integrands receive the 15 panel nodes as one
ndarray call and may return shape (15,) or (15, k) for batched values.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

_EPS = np.finfo(float).eps

# Gauss-Kronrod (7, 15) nodes and weights on [-1, 1].
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_GAUSS_IDX = np.array([1, 3, 5, 7, 9, 11, 13])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
])


@dataclass
class PanelResult:
    value: object          # complex or (k,) ndarray
    abs_error: float
    nodes: int
    converged: bool        # the stop rule was met within the budget


def _panel(f, a, b):
    half = 0.5 * (b - a)
    x = 0.5 * (a + b) + half * _XK
    y = np.asarray(f(x))
    ik = half * np.tensordot(_WK, y, axes=(0, 0))
    ig = half * np.tensordot(_WG, y[_GAUSS_IDX], axes=(0, 0))
    absint = half * float(np.tensordot(_WK, np.abs(y), axes=(0, 0)).max()) \
        if y.ndim > 1 else half * float(np.dot(_WK, np.abs(y)))
    err = float(np.max(np.abs(ik - ig)))
    return ik, err, absint


def adaptive_integrate(f, a, b, *, rel_tol=1e-8, abs_tol=1e-300,
                       max_nodes=200_000, breakpoints=()) -> PanelResult:
    """Integrate f over [a, b] with adaptive (G7, K15) bisection.

    breakpoints seeds extra panel edges (kinks, known peaks).  Refinement
    stops once the summed Kronrod-Gauss differences fall within
    max(abs_tol, rel_tol * |value|).  converged is True when that stop
    rule was met, and False when the node budget ran out (or no panel
    could be split further) first.  The returned abs_error adds the
    roundoff floor 10*eps*int|f| to those differences, so it may exceed
    the stop rule's target even when converged is True: whether a result
    meets the caller's tolerance is decided from abs_error, not from
    this flag.  The final value is re-summed in left-to-right panel
    order, so a fixed panel set reduces deterministically.
    """
    edges = sorted({float(a), float(b), *(float(t) for t in breakpoints
                                          if a < t < b)})
    heap = []          # refinable panels, worst error first
    done = []          # panels at the width floor, no further splitting
    counter = 0
    nodes = 0
    err_total = 0.0
    value_total = None

    def add_panel(lo, hi, refinable=True):
        nonlocal counter, nodes, err_total, value_total
        ik, err, absint = _panel(f, lo, hi)
        nodes += 15
        err_total += err
        value_total = ik if value_total is None else value_total + ik
        entry = (lo, hi, ik, err, absint)
        if refinable and (hi - lo) > 1e-14 * (abs(lo) + abs(hi) + 1.0):
            heapq.heappush(heap, (-err, counter, entry))
        else:
            done.append(entry)
        counter += 1

    for lo, hi in zip(edges[:-1], edges[1:]):
        add_panel(lo, hi)

    def finish(converged):
        entries = sorted(done + [e for _, _, e in heap], key=lambda e: e[0])
        total = entries[0][2]
        for e in entries[1:]:
            total = total + e[2]
        err = sum(e[3] for e in entries)
        absint = sum(e[4] for e in entries)
        return PanelResult(total, err + 10.0 * _EPS * absint, nodes, converged)

    while True:
        scale = float(np.max(np.abs(value_total)))
        if err_total <= max(abs_tol, rel_tol * scale):
            return finish(True)
        if nodes + 30 > max_nodes or not heap:
            return finish(False)
        _, _, (lo, hi, ik, err, absint) = heapq.heappop(heap)
        err_total -= err
        value_total = value_total - ik
        mid = 0.5 * (lo + hi)
        add_panel(lo, mid)
        add_panel(mid, hi)


def scan_drop(logmag, t0, t_lo, t_hi, *, drop_log, factor=1.6,
              max_steps=600):
    """Walk outward from t0 on a geometric-ish grid until logmag falls
    drop_log below the running peak; returns (cut, peak_t, peak_val).

    Direction is set by whether t_hi > t0 (walk up) or t_lo < t0 (walk
    down); the walk is capped at the given bound.
    """
    up = t_hi > t0
    bound = t_hi if up else t_lo
    t = t0
    step = max(abs(t0), 1.0) * 0.25
    peak_t, peak = t0, logmag(t0)
    for _ in range(max_steps):
        t = t + step if up else t - step
        if (up and t >= bound) or (not up and t <= bound):
            return bound, peak_t, peak
        v = logmag(t)
        if v > peak:
            peak, peak_t = v, t
        elif v < peak - drop_log:
            return t, peak_t, peak
        step *= factor
    return t, peak_t, peak

