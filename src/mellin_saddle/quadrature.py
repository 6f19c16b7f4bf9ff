"""Adaptive Gauss-Kronrod panels for complex (optionally vector) integrands.

The engine is deliberately small: (G7, K15) pairs, bisection of the worst
panel by error estimate, a node budget, and a deterministic final
summation (panels sorted by left endpoint, so a fixed panel set always
reduces in the same order).  An integrand receives the nodes of one or
more panels in one ndarray call, 15 per panel, panel-major: every seed
panel in the first call, then both halves of each bisected panel.  For m
nodes it returns shape (m,) or (m, k) for batched values, or a pair
(values, noise) whose noise[i] bounds the absolute rounding error of
values[i].  An integrand that is not elementwise must treat each row of
x.reshape(-1, 15) on its own.

Each pass checks four stop reasons, in this order:

- "tolerance": the summed Kronrod-Gauss differences fall within
  max(Tolerances.abs_tol, rel_tol * |value|);
- "non_finite": the running value or that sum is not finite;
- "floor": that sum falls to the declared rounding floor, the
  Kronrod-weighted noise summed over the panels, where more nodes
  cannot help (QUADPACK's roundoff stop, ier = 2);
- "budget": the node budget or the supply of splittable panels runs out.

"non_finite" and "floor" apply only to an integrand that declares its
noise.  One that returns plain values has a floor of 0 and refines past
a non-finite value until "budget", as the engine always did for it.
The returned bar is the summed differences plus 10*eps*int|f|, plus the
floor on a "floor" stop.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .surface import Tolerances

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
    stop: str              # "tolerance", "non_finite", "floor" or "budget"

    @property
    def converged(self) -> bool:
        """The tolerance was met within the budget."""
        return self.stop == "tolerance"


def _panels(f, los, his):
    """(ik, err, absint, floor) lists over the panels [los[i], his[i]] from
    one call of f on their nodes, 15 per panel, panel-major; floor is None
    when f declares no noise.  The Gauss nodes are gathered C-contiguous,
    so each panel's sums round as they would for that panel alone."""
    p = len(los)
    lo, hi = np.array(los), np.array(his)
    half = 0.5 * (hi - lo)
    h = half[:, None]
    y = f((0.5 * (lo + hi)[:, None] + h * _XK).ravel())
    floor = [None] * p     # no noise declared
    if isinstance(y, tuple):
        y, noise = y
        floor = (half * (_WK @ noise.reshape(p, 15, -1)).max(axis=1)).tolist()
    y = np.asarray(y)
    y3 = y.reshape(p, 15, -1)
    ik = h * (_WK @ y3)
    err = np.abs(ik - h * (_WG @ np.take(y3, _GAUSS_IDX, axis=1))).max(axis=1)
    absint = half * (_WK @ np.abs(y3)).max(axis=1)
    return (list(ik.reshape((p,) + y.shape[1:])), err.tolist(),
            absint.tolist(), floor)


def adaptive_integrate(f, a, b, *, rel_tol=1e-8, max_nodes=200_000,
                       breakpoints=()) -> PanelResult:
    """Integrate f over [a, b] with adaptive (G7, K15) bisection.

    breakpoints seeds extra panel edges (kinks, known peaks).  stop names
    the first of the module's four stop reasons that held; converged is
    stop == "tolerance".  The returned abs_error adds 10*eps*int|f| (and
    on a "floor" stop the declared floor) to the summed differences, so
    it may exceed the tolerance even when converged is True: whether a
    result meets the caller's tolerance is decided from abs_error, not
    from this flag.  The final value is re-summed in left-to-right panel
    order, so a fixed panel set reduces deterministically.
    """
    edges = sorted({float(a), float(b), *(float(t) for t in breakpoints
                                          if a < t < b)})
    heap = []          # refinable panels, worst error first
    done = []          # panels at the width floor, no further splitting
    counter = 0
    nodes = 0
    err_total = 0.0
    floor_total = 0.0
    declared = False   # the integrand returns (values, noise)
    value_total = None

    def add_panels(los, his):
        nonlocal counter, nodes, err_total, floor_total, declared, value_total
        for lo, hi, ik, err, absint, floor in zip(los, his,
                                                  *_panels(f, los, his)):
            nodes += 15
            err_total += err
            declared = floor is not None
            floor = floor or 0.0
            floor_total += floor
            value_total = ik if value_total is None else value_total + ik
            entry = (lo, hi, ik, err, absint, floor)
            if (hi - lo) > 1e-14 * (abs(lo) + abs(hi) + 1.0):
                heapq.heappush(heap, (-err, counter, entry))
            else:
                done.append(entry)
            counter += 1

    add_panels(edges[:-1], edges[1:])

    def finish(stop):
        entries = sorted(done + [e for _, _, e in heap], key=lambda e: e[0])
        total = entries[0][2]
        for e in entries[1:]:
            total = total + e[2]
        err = sum(e[3] for e in entries) + 10.0 * _EPS * sum(e[4] for e in entries)
        if stop == "floor":
            err += sum(e[5] for e in entries)
        return PanelResult(total, err, nodes, stop)

    while True:
        scale = float(np.abs(value_total).max())
        if err_total <= max(Tolerances.abs_tol, rel_tol * scale):
            return finish("tolerance")
        if declared and not (math.isfinite(scale) and math.isfinite(err_total)):
            return finish("non_finite")
        if declared and err_total <= floor_total:
            return finish("floor")
        if nodes + 30 > max_nodes or not heap:
            return finish("budget")
        _, _, (lo, hi, ik, err, absint, floor) = heapq.heappop(heap)
        err_total -= err
        floor_total -= floor
        value_total = value_total - ik
        mid = 0.5 * (lo + hi)
        add_panels([lo, mid], [mid, hi])


def scan_drop(logmag, t0, bound, *, drop_log):
    """Walk from t0 towards bound, in at most 600 steps from max(|t0|, 1)/4
    up by 1.6 each, until logmag falls drop_log below the running peak;
    returns (cut, peak_t, peak_val).

    The walk goes up when bound > t0 and down otherwise, and returns
    bound as the cut if it gets there first.
    """
    up = bound > t0
    t = t0
    step = max(abs(t0), 1.0) * 0.25
    peak_t, peak = t0, logmag(t0)
    for _ in range(600):
        t = t + step if up else t - step
        if (up and t >= bound) or (not up and t <= bound):
            return bound, peak_t, peak
        v = logmag(t)
        if v > peak:
            peak, peak_t = v, t
        elif v < peak - drop_log:
            return t, peak_t, peak
        step *= 1.6
    return t, peak_t, peak
