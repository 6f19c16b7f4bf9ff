"""Fingerprint the evaluators, the saddle layer and the weight layer, and
compare two fingerprints.

A refactor should keep the numbers.  `dump` prints one line per call,
`<label>\t<payload>`, with payload `ExceptionClass: message` when the call
raises.  The evaluator lines are eval_K on both routes, eval_E_series,
eval_growth_sum and eval_abel_plana_rhs on the four benchmark weights at r
in {2, 5, 10} and psi in {0, 1, 2.5}; eval_E_series at 0 for each weight;
and moment for n = 1..3 on each of the four weights: 196 lines, with
payload repr((value, abs_error, nodes, log_scale, converged)).  Six more
eval_abel_plana_rhs lines on iterated_log sit off that grid: r = 20 at
psi in {0.8, 1.6, 2.5}, where the main integral's real axis turns 1e7
times and more, and three small-psi points of abel_plana_grid, where the
peak of a ray nearly on the axis is tall and narrow.  The saddle
lines come next.  At the same 36 (weight, r, psi) points: solve, with
payload repr((s_z, theta_z, iterations)), or repr of the region tag when
there is no solution; classify at alpha = pi/2, with payload
repr((kind, rho0_used)); K_asymptotic, with payload
repr((value, log_scale, region kind)); and local_gaussian_saddle, with
payload repr(value).  Twelve asymptotics lines take K_asymptotic and
E_asymptotic together, payload repr of both triples, on the four weights
at (r, psi) in {(400, 0), (1e3, 0.5), (1e4, -1)}, where the log
magnitude passes 300: the form folds its scale into the value on one
side of that limit and carries it as log_scale on the other.  Three more solve lines sit where the continuation's
step matters, from the benchmark's saddle stream: iterated_log at (log r,
psi) = (1.4357196727634158, -3.0378341598780016), and gamma_shift0 at
(1.8044873001772448, 8.239122839430141) and (1.9779492142397448,
-8.257470683123667), by a pole of digamma near the sector edge.  Then
boundary_psi on the four weights at r in {2, 5, 10} and alpha in {0.5,
pi/2, 2.5}, and on iterated_log at two (log r, alpha) past a fold of
theta_z(psi), (1.3776657597691564, 2.463799677850693) and
(1.386788134307975, 2.4414453619435657), from the benchmark's boundary
stream, with payload repr(psi); and
point_with_saddle_radius on the four weights at rho* in {10, 35, 100} and
psi in {0, 0.9, -1.5}, with payload repr((log_r, psi, s)).  The weight
kind has one line for each of 12 weights of the weight layer (powers, a
product and a quotient of gamma_shift and iterated_log, shift_normalize,
exp_scale, log_of_scale,
theorem3 with exp_sqrt_log, the three positive-type presets and
monomial_exponent), with payload repr of: the jets of orders 0-2 at a
fixed 2x2 complex array, phi_log at three points either side of the jet
cut (None without a log domain), default_rho0(), epsilon_sup(),
epsilon_limsup_estimate(), one_over_gamma0 and the audit's to_dict().
The jet kind has 9 lines on the theorem3 weight near its sector edge,
where its Cauchy kernel is hardest to sum: the jets of orders 0-2 at
the one point s = |s| e^{i theta} (a Python complex), |s| in {2, 10,
1e3} and theta in {3.0, 3.08, 3.12}, with payload repr of their fields;
and 5 lines of an order-2 jet on an array, where a point must not depend
on the others: theorem3 at [10+1j, 1e9], whose points fall on different
kernel grids; gamma_shift0 at [-80+50j, 3-120j, 1e5+3j, -9.7+1j],
whose trigamma takes its series at the first three and its shift at the
last; theorem3 at the seams of its split Cauchy sums, [0, 1e-30, 4 R_1,
4 R_5 e^i, 4 R_40 e^{-2.5i}, 1e8, 1e8 (1 + 2^-52)] with R_b its first
grid's panel radii, where a point's band of panels starts or its kernel
grid changes; the positive-type factorial preset at [0.3+0.1j,
17+4j, 390-20j], whose unit panels it sums nearly all directly; and
theorem3 at the reflection seam, [3+2j, 3-2j, 5+0j, 5-0j, 1e9-1j],
where a point whose Im s has its sign bit set takes the conjugate of
the sums at conj(s).
Last come 11 command-line runs of mellin_saddle.cli.main on the same
weights (eval-K, eval-E, table K and E, saddle, asym-K, boundary, audit,
verify carleman, theorem3-limits and scan-K), with payload repr((exit
code, first 16 hex digits of the sha256 of stdout)): 472 lines in all.

`compare` reads two dumps and reports, line by line, a change between
raising and returning and a change of exception class; on the evaluator
lines also a flipped converged flag and a value that moved outside the
sum of both error bars.  Then, per evaluator, the node sums and the counts
of changed and byte-identical lines, and the largest change of a value
relative to its two bars; per saddle kind and for the weight and jet
kinds, which carry no bar, the counts and the largest relative move of a
number, which is not a finding; for the command-line runs, a changed exit
code is a finding and a changed digest is counted.

    PYTHONPATH=src python tools/fingerprint.py dump > after.txt
    PYTHONPATH=<other checkout>/src python tools/fingerprint.py dump > before.txt
    python tools/fingerprint.py compare before.txt after.txt

The package is imported from PYTHONPATH, so one copy of this script
fingerprints any checkout.
"""
from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import json
import math
import re
import sys
from collections import defaultdict

import numpy as np

WEIGHTS = {
    "gamma_shift0": {"kind": "gamma_shift", "params": {"c": 0.0}},
    "gamma_shift1": {"kind": "gamma_shift", "params": {"c": 1.0}},
    "iterated_log": {"kind": "iterated_log",
                     "params": {"a": 1.0, "b": 1.0, "k": 1, "c": math.e}},
    "theorem3": {"kind": "theorem3",
                 "params": {"ell": "power", "a": 1.0, "c": 1.0}},
}
RADII = (2.0, 5.0, 10.0)
PSIS = (0.0, 1.0, 2.5)
AP_POINTS = ((20.0, 0.8), (20.0, 1.6), (20.0, 2.5),   # iterated_log (r, psi)
             (22.603760093590832, 0.06881273327438353),
             (16.02773778087893, 0.021408728899228995),
             (20.22751682994401, 0.034337093728816215))
MOMENT_WEIGHTS = tuple(WEIGHTS)
MOMENT_ORDERS = (1, 2, 3)
ALPHAS = (0.5, 0.5 * math.pi, 2.5)
BOUNDARY_FOLDS = ((1.3776657597691564, 2.463799677850693),  # iterated_log
                  (1.386788134307975, 2.4414453619435657))  # (log r, alpha)
WALK_POINTS = (("iterated_log", 1.4357196727634158, -3.0378341598780016),
               ("gamma_shift0", 1.8044873001772448, 8.239122839430141),
               ("gamma_shift0", 1.9779492142397448, -8.257470683123667))
FAR_POINTS = ((400.0, 0.0), (1e3, 0.5), (1e4, -1.0))   # asymptotics (r, psi)
RHO_STARS = (10.0, 35.0, 100.0)
RAY_PSIS = (0.0, 0.9, -1.5)
UNBARRED = ("solve", "classify", "K_asymptotic", "local_gaussian_saddle",
            "asymptotics", "boundary_psi", "point_with_saddle_radius", "weight",
            "jet")  # no bar
NO_BAR = UNBARRED + ("cli",)
# weight-layer lines: name -> the weight, built from the package
WEIGHT_LAYER = {
    "power_iterated_log": lambda ms: ms.power(ms.iterated_log(), 2.5),
    "power_gamma_shift": lambda ms: ms.power(ms.gamma_shift(1.0), 2.0),
    "product": lambda ms: ms.product(ms.gamma_shift(0.0), ms.iterated_log()),
    "quotient": lambda ms: ms.quotient(ms.gamma_shift(2.0), ms.iterated_log()),
    "shift_normalize": lambda ms: ms.shift_normalize(ms.iterated_log(), 1.5),
    "exp_scale": lambda ms: ms.exp_scale(ms.gamma_shift(0.0), 0.5),
    "log_of_scale": lambda ms: ms.log_of_scale(ms.iterated_log()),
    "theorem3_exp_sqrt_log": lambda ms: ms.build_theorem3(ms.ell_exp_sqrt_log()),
    "positive_factorial": lambda ms: ms.build_positive_type(
        ms.positive_type_factorial()),
    "positive_iterated_log_jump": lambda ms: ms.build_positive_type(
        ms.positive_type_iterated_log()),
    "positive_degenerate": lambda ms: ms.build_positive_type(
        ms.positive_type_degenerate(0.5)),
    "monomial_exponent": lambda ms: ms.monomial_exponent(1.5),
}
EDGE_RADII = (2.0, 10.0, 1e3)       # the jet lines: theorem3 near its edge
EDGE_THETAS = (3.0, 3.08, 3.12)
JET_ARRAYS = (("theorem3", (10.0 + 1.0j, 1e9 + 0j)),   # order-2 jets on arrays
              ("gamma_shift0", (-80.0 + 50.0j, 3.0 - 120.0j, 1e5 + 3.0j,
                                -9.7 + 1.0j)),
              # the seams of theorem3's split sums: s = 0, 4 R_b of its first
              # kernel grid for b = 1, 5, 40, and the first cover's edge
              ("theorem3", (0j, 1e-30, 6.112910104896629,
                            47.49076781565864 * cmath.exp(1j),
                            1892778926.5582435 * cmath.exp(-2.5j), 1e8,
                            1e8 * (1 + 2 ** -52))),
              ("positive_factorial", (0.3 + 0.1j, 17.0 + 4.0j, 390.0 - 20.0j)),
              # the reflection seam: the sign bit of Im s, -0.0 included
              ("theorem3", (3.0 + 2.0j, 3.0 - 2.0j, 5.0 + 0j, complex(5.0, -0.0),
                            1e9 - 1.0j)))
JET_POINTS = np.array([[0.5 + 0.5j, 3.0 - 2.0j], [20.0 + 7.0j, 150.0 + 0.1j]])
PHI_LOG_POINTS = np.array([299.0 + 0.3j, 300.0, 400.0 + 1.0j])
# (weight or None, argv after the verb's --spec) per command-line run
CLI_RUNS = (
    ("gamma_shift0", ("eval-K", "--grid", "r=2..10,n=3,psi=0..2.5:3")),
    ("iterated_log", ("eval-E", "--grid", "r=2..10,n=3,psi=1")),
    ("gamma_shift1", ("table", "--which", "K", "--grid", "r=20..40,n=3,psi=0.5")),
    ("theorem3", ("table", "--which", "E", "--grid", "r=5..10,n=2,psi=0")),
    ("iterated_log", ("saddle", "--grid", "r=2..10,n=3,psi=0..2.5:3")),
    ("theorem3", ("asym-K", "--grid", "r=5..50,n=3,psi=0.5")),
    ("gamma_shift0", ("boundary", "--grid", "r=2..10,n=3",
                      "--alpha", "1.5707963267948966")),
    ("iterated_log", ("audit",)),
    ("gamma_shift1", ("verify", "carleman", "--n-terms", "20000")),
    (None, ("verify", "theorem3-limits")),
    ("gamma_shift0", ("verify", "scan-K", "--psi", "0.7",
                      "--rho-targets", "20", "40", "80")),
)


def _evaluated(res):
    return repr((res.value, res.abs_error, res.nodes, res.log_scale,
                 res.converged))


def _solved(sol_tag):
    sol, tag = sol_tag
    return repr(str(tag)) if sol is None else \
        repr((sol.s_z, sol.theta_z, sol.iterations))


def _classified(tag):
    return repr((tag.kind, tag.rho0_used))


def _asymptotic(a):
    return a.value, a.log_scale, a.region.kind


def _placed(z_s):
    z, s = z_s
    return repr((z.log_r, z.psi, s))


def _weighed(f):
    """Jets of orders 0-2 at JET_POINTS, Phi at PHI_LOG_POINTS (None without
    a log domain), the derived constants and the audit, as plain numbers."""
    from mellin_saddle import audit_admissibility

    jets = []
    for order in (0, 1, 2):
        j = f.jet(JET_POINTS, order)
        jets.append([x.tolist() for x in (j.val, j.d1, j.d2)[:order + 1]])
    phi = ([x.tolist() for x in f.phi_log(PHI_LOG_POINTS)]
           if f.has_log_domain else None)
    return repr((jets, phi, f.default_rho0(), f.epsilon_sup(),
                 f.epsilon_limsup_estimate(), f.one_over_gamma0,
                 audit_admissibility(f).to_dict()))


def _jets_at(f, s):
    """The fields of f's jets of orders 0-2 at the one point s."""
    jets = [f.jet(s, order) for order in (0, 1, 2)]
    return repr([[complex(x) for x in (j.val, j.d1, j.d2)[:j.order + 1]]
                 for j in jets])


def _array_jet(f, s):
    """The fields of f's order-2 jet at the array s."""
    j = f.jet(s, 2)
    return repr([x.tolist() for x in (j.val, j.d1, j.d2)])


def _cli_run(argv):
    from mellin_saddle.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return repr((code, hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]))


def calls():
    """(label, thunk giving the payload) for every fingerprinted call, in
    a fixed order."""
    import mellin_saddle as ms

    weights = {name: ms.build(ms.FunctionSpec.from_dict(spec))
               for name, spec in WEIGHTS.items()}
    vertical = ms.ContourSpec("vertical")
    evaluators = {
        "K-rays": lambda f, z: ms.eval_K(f, z),
        "K-vertical": lambda f, z: ms.eval_K(f, z, vertical),
        "E": ms.eval_E_series,
        "growth-sum": ms.eval_growth_sum,
        "abel-plana": ms.eval_abel_plana_rhs,
    }
    out = []
    for name, f in weights.items():
        for r in RADII:
            for psi in PSIS:
                z = ms.LogSurfacePoint(math.log(r), psi)
                for ev, fn in evaluators.items():
                    out.append((f"{ev} {name} r={r:g} psi={psi:g}",
                                lambda fn=fn, f=f, z=z: _evaluated(fn(f, z))))
        out.append((f"E-at-0 {name}",
                    lambda f=f: _evaluated(ms.eval_E_series(f, 0))))
    for r, psi in AP_POINTS:
        z = ms.LogSurfacePoint(math.log(r), psi)
        out.append((f"abel-plana iterated_log r={r:g} psi={psi:g}",
                    lambda z=z: _evaluated(ms.eval_abel_plana_rhs(
                        weights["iterated_log"], z))))
    for name in MOMENT_WEIGHTS:
        for n in MOMENT_ORDERS:
            out.append((f"moment {name} n={n}", lambda f=weights[name], n=n:
                        _evaluated(ms.moment(f, n))))
    at_saddle_points = {
        "solve": lambda f, z: _solved(ms.solve(f, z)),
        "classify": lambda f, z: _classified(ms.classify(f, z, 0.5 * math.pi)),
        "K_asymptotic": lambda f, z: repr(_asymptotic(ms.K_asymptotic(f, z))),
        "local_gaussian_saddle": lambda f, z: repr(ms.local_gaussian_saddle(f, z)),
    }
    for kind, fn in at_saddle_points.items():
        for name, f in weights.items():
            for r in RADII:
                for psi in PSIS:
                    z = ms.LogSurfacePoint(math.log(r), psi)
                    out.append((f"{kind} {name} r={r:g} psi={psi:g}",
                                lambda fn=fn, f=f, z=z: fn(f, z)))
    for name, f in weights.items():
        for r, psi in FAR_POINTS:
            out.append((f"asymptotics {name} r={r:g} psi={psi:g}",
                        lambda f=f, z=ms.LogSurfacePoint(math.log(r), psi):
                        repr((_asymptotic(ms.K_asymptotic(f, z)),
                              _asymptotic(ms.E_asymptotic(f, z))))))
    for name, log_r, psi in WALK_POINTS:
        out.append((f"solve {name} log_r={log_r!r} psi={psi!r}",
                    lambda f=weights[name], z=ms.LogSurfacePoint(log_r, psi):
                    _solved(ms.solve(f, z))))
    for name, f in weights.items():
        for r in RADII:
            for alpha in ALPHAS:
                out.append((f"boundary_psi {name} r={r:g} alpha={alpha:g}",
                            lambda f=f, r=r, alpha=alpha:
                            repr(ms.boundary_psi(f, math.log(r), alpha))))
    for log_r, alpha in BOUNDARY_FOLDS:
        out.append((f"boundary_psi iterated_log log_r={log_r!r} "
                    f"alpha={alpha!r}", lambda log_r=log_r, alpha=alpha:
                    repr(ms.boundary_psi(weights["iterated_log"], log_r,
                                         alpha))))
    for name, f in weights.items():
        for rho in RHO_STARS:
            for psi in RAY_PSIS:
                out.append((f"point_with_saddle_radius {name} rho*={rho:g} "
                            f"psi={psi:g}", lambda f=f, rho=rho, psi=psi:
                            _placed(ms.point_with_saddle_radius(f, rho, psi))))
    for name, make in WEIGHT_LAYER.items():
        out.append((f"weight {name}", lambda make=make: _weighed(make(ms))))
    for r in EDGE_RADII:
        for theta in EDGE_THETAS:
            out.append((f"jet theorem3 |s|={r:g} theta={theta:g}",
                        lambda s=r * cmath.exp(1j * theta):
                        _jets_at(weights["theorem3"], s)))
    for name, s in JET_ARRAYS:
        make = (lambda f=weights[name]: f) if name in weights else \
            (lambda make=WEIGHT_LAYER[name]: make(ms))
        out.append((f"jet {name} array={list(s)}",
                    lambda make=make, s=np.array(s): _array_jet(make(), s)))
    for name, argv in CLI_RUNS:
        spec = () if name is None else ("--spec", json.dumps(WEIGHTS[name]))
        out.append((f"cli {name or '-'} {' '.join(argv)}",
                    lambda argv=argv + spec: _cli_run(argv)))
    return out


def dump(stream=sys.stdout):
    for label, thunk in calls():
        try:
            payload = thunk()
        except Exception as exc:      # every outcome is part of the print
            payload = f"{type(exc).__name__}: {exc}"
        print(f"{label}\t{payload}", file=stream, flush=True)


# results may hold numpy scalars, whose repr names np
_NAMES = {"np": np, "inf": math.inf, "nan": math.nan,
          "infj": complex(0.0, math.inf), "nanj": complex(0.0, math.nan),
          "__builtins__": {}}


_RAISED = re.compile(r"[A-Za-z_]\w*: ")


def _parse(path):
    """label -> (payload text, parsed result or None if it raised)."""
    lines = {}
    with open(path) as fh:
        for line in fh:
            label, text = line.rstrip("\n").split("\t", 1)
            lines[label] = (text, None if _RAISED.match(text)
                            else eval(text, dict(_NAMES)))   # our own repr
    return lines


def _shift(a, b):
    """|change of value| / (sum of both bars), on the larger log scale."""
    (va, ea, _, la, _), (vb, eb, _, lb, _) = a, b
    ls = max(la, lb)
    fa, fb = math.exp(la - ls), math.exp(lb - ls)
    change, bars = abs(va * fa - vb * fb), ea * fa + eb * fb
    return 0.0 if change == 0 else change / bars if bars > 0 else math.inf


def _leaves(x):
    """The numbers, strings and Nones of a parsed payload, depth first."""
    if isinstance(x, dict):
        x = list(x.items())
    if isinstance(x, (list, tuple)):
        for y in x:
            yield from _leaves(y)
    else:
        yield x


def _move(a, b):
    """Largest relative change of a number between two results that carry
    no bar (counts and flags aside, NaN equal to NaN); inf when their
    shapes or texts differ, as between a solution and a region tag."""
    a, b = list(_leaves(a)), list(_leaves(b))
    if len(a) != len(b):
        return math.inf
    worst = 0.0
    for x, y in zip(a, b):
        if x == y or isinstance(x, int) or (x != x and y != y):
            continue
        if not all(isinstance(v, (float, complex)) for v in (x, y)):
            return math.inf
        move = abs(x - y) / max(abs(x), abs(y))
        worst = max(worst, move if move == move else math.inf)
    return worst


def compare(path_a, path_b, stream=sys.stdout):
    """Report how dump B differs from dump A; returns the number of
    findings (raise/return changes, exception class changes, flag flips,
    values outside both bars, changed exit codes, and labels present on
    one side only)."""
    a, b = _parse(path_a), _parse(path_b)
    findings = 0
    for label in sorted(set(a) ^ set(b)):
        print(f"only in {'A' if label in a else 'B'}: {label}", file=stream)
        findings += 1
    nodes = defaultdict(lambda: [0, 0])
    changed = defaultdict(int)
    same = defaultdict(int)
    moves = defaultdict(float)
    raised, worst = 0, 0.0
    for label in [k for k in a if k in b]:
        ev = label.split(" ", 1)[0]
        (ta, ra), (tb, rb) = a[label], b[label]
        if ev not in NO_BAR:
            nodes[ev][0] += ra[2] if ra else 0
            nodes[ev][1] += rb[2] if rb else 0
        raised += ra is None and rb is None
        if ta == tb:
            same[ev] += 1
            continue
        changed[ev] += 1
        if (ra is None) != (rb is None):
            print(f"raise/return: {label}: {ta} -> {tb}", file=stream)
            findings += 1
        elif ra is None:
            if ta.split(":", 1)[0] != tb.split(":", 1)[0]:
                print(f"exception class: {label}: {ta} -> {tb}", file=stream)
                findings += 1
        elif ev == "cli":
            if ra[0] != rb[0]:
                print(f"exit code: {label}: {ra[0]} -> {rb[0]}", file=stream)
                findings += 1
        elif ev in UNBARRED:
            moves[ev] = max(moves[ev], _move(ra, rb))
        else:
            if ra[4] != rb[4]:
                print(f"flag flip: {label}: {ra[4]} -> {rb[4]}", file=stream)
                findings += 1
            shift = _shift(ra, rb)
            worst = max(worst, shift)
            if shift > 1.0:
                print(f"outside both bars: {label}: {ta} -> {tb}",
                      file=stream)
                findings += 1
    kinds = sorted(set(changed) | set(same))
    print(f"{'evaluator':<12}{'nodes A':>12}{'nodes B':>12}"
          f"{'changed':>9}{'same':>6}", file=stream)
    for ev in [k for k in kinds if k not in NO_BAR]:
        print(f"{ev:<12}{nodes[ev][0]:>12,}{nodes[ev][1]:>12,}"
              f"{changed[ev]:>9}{same[ev]:>6}", file=stream)
    print(f"largest change / sum of both bars: {worst:.3g}", file=stream)
    print(f"{'saddle, weight, cli':<26}{'changed':>9}{'same':>6}"
          "  largest relative move", file=stream)
    for ev in [k for k in kinds if k in NO_BAR]:
        move = "-" if ev == "cli" else f"{moves[ev]:.3g}"
        print(f"{ev:<26}{changed[ev]:>9}{same[ev]:>6}  {move}", file=stream)
    print(f"lines raising on both sides: {raised}; findings: {findings}",
          file=stream)
    return findings


def main(argv):
    if len(argv) == 1 and argv[0] == "dump":
        dump()
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        return 1 if compare(argv[1], argv[2]) else 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
