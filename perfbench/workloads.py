"""The four benchmark workloads: their inputs, the calls they make into
mellin_saddle, the oracle that judges each result, and the program's
known defects.

Every workload is a closed loop of rounds.  A round is a list of tasks; a
task makes one or more timed calls (the operations) and is then checked.
Inputs come from the seed only, and no (weight, input) pair repeats within
a run.  Points follow a fixed Halton sequence per stream, which covers the
domain evenly from its first points on, and the seed shuffles the calls
within each round.  So the share of cheap, budget-bound and failing
points, which a run of a few hundred calls could not otherwise pin down,
is the same for every seed.  The seed does not move the points: at any
distance, a point on the edge of a failing region flips with it.
"""
from __future__ import annotations

import cmath
import contextlib
import csv
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator, List

EPS = 2.220446049250313e-16
REL_TOL = 1e-8          # Tolerances.for_quadrature() default, also the CLI's
ABS_TOL = 1e-300        # Tolerances default
AP_REL_TOL = 1e-10      # abel_plana_grid runs both routes at this tolerance
REF_SLACK = 1e-12       # rounding of a reference computed from log_gamma
SADDLE_RESID = 1e-9     # 10x the solver's own residual tolerance
THETA_TOL = 1e-6        # boundary_psi stops at |theta - alpha| <= 1e-8

SPECS = {
    "gamma_shift0": {"kind": "gamma_shift", "params": {"c": 0.0}},
    "gamma_shift1": {"kind": "gamma_shift", "params": {"c": 1.0}},
    "iterated_log": {"kind": "iterated_log",
                     "params": {"a": 1.0, "b": 1.0, "k": 1, "c": math.e}},
    "theorem3": {"kind": "theorem3",
                 "params": {"ell": "power", "a": 1.0, "c": 1.0}},
}

FAILURE_KINDS = ("raised", "crash", "wrong_value", "flag_contract")


def kind_of(tag: str) -> str:
    """A check names a failure by a tag, '<kind>' or '<kind>/<detail>'."""
    return tag.split("/", 1)[0]


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def _radical_inverse(i: int, base: int) -> float:
    inv, scale = 0.0, 1.0 / base
    while i:
        i, digit = divmod(i, base)
        inv += digit * scale
        scale /= base
    return inv


class Halton:
    """Points of the Halton sequence (bases 2, 3) in [0, 1)^2, offset by a
    fixed shift per stream."""

    def __init__(self, stream: str):
        fixed = random.Random(stream)
        self.shift = [fixed.random(), fixed.random()]
        self.i = 0

    def __next__(self):
        self.i += 1
        return [(_radical_inverse(self.i, b) + s) % 1.0
                for b, s in zip((2, 3), self.shift)]


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _uniform(u: float, lo: float, hi: float) -> float:
    return lo + u * (hi - lo)


# ---------------------------------------------------------------------------
# Tasks and checks
# ---------------------------------------------------------------------------

@dataclass
class Context:
    """The package as currently imported plus the benchmark's own weights."""

    ms: object                 # the mellin_saddle package
    cli: object                # mellin_saddle.cli
    weights: dict              # name -> AdmissibleFunction, for the oracles


@dataclass
class Task:
    key: str                                   # unique input descriptor
    calls: List[tuple]                         # (operation label, fn(ctx))
    check: Callable                            # (ctx, outcomes) -> reasons


def _error_kind(ctx: Context, exc: BaseException) -> str:
    kind = "raised" if isinstance(exc, ctx.ms.MellinSaddleError) else "crash"
    return f"{kind}/{type(exc).__name__}"


def _misses(value: complex, log_scale: float, bar: float, log_ref: complex,
            slack: float) -> bool:
    """True when value*e^log_scale lies farther from e^log_ref than the bar
    (bar*e^log_scale) plus slack*|e^log_ref|."""
    if not (cmath.isfinite(value) and math.isfinite(bar)):
        return True
    rel = log_ref - log_scale
    if rel.real > 700.0:
        return True
    ref = cmath.exp(rel)
    return abs(value - ref) > bar + slack * abs(ref)


def _breaks_flag(res, rel_tol: float) -> bool:
    """converged=True although abs_error > max(abs_tol, rel_tol*|value|)."""
    if not res.converged or res.abs_error <= rel_tol * abs(res.value):
        return False
    return math.log(res.abs_error) + res.log_scale > math.log(ABS_TOL)


# ---------------------------------------------------------------------------
# cli_rows: single-row in-process cli.main calls
# ---------------------------------------------------------------------------

CLI_WEIGHTS = ("gamma_shift0", "iterated_log", "theorem3")
CLI_VERBS = (("eval-K",), ("eval-E",), ("table", "--which", "K"),
             ("table", "--which", "E"))


def _run_cli(ctx: Context, argv: list):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ctx.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _gamma_log_reference(verb: tuple, z: complex) -> complex:
    """log of the gamma_shift(0) closed form: K = e^-z, E = e^z, and the
    growth sum z e^z that `table --which E` prints."""
    if verb[0] == "eval-K" or verb[-1] == "K":
        return -z
    if verb[0] == "eval-E":
        return z
    return cmath.log(z) + z


def _table_row_reason(ctx, verb, r, psi, value, log_scale, log_ref, slack):
    """Judge a gamma_shift(0) `table` row that misses the CLI tolerance.
    The row prints neither the bar nor the converged flag of the evaluator
    behind it, so both are taken from that evaluator, called again here
    at the CLI's tolerance: within an unconverged result's bar, the row
    only hides that result's flag."""
    f = ctx.weights["gamma_shift0"]
    z = ctx.ms.LogSurfacePoint(math.log(r), psi)
    evaluate = ctx.ms.eval_K if verb[-1] == "K" else ctx.ms.eval_growth_sum
    res = evaluate(f, z, tol=ctx.ms.Tolerances(rel_tol=REL_TOL))
    same = (res.log_scale == log_scale
            and abs(res.value - value) <= 4.0 * EPS * abs(value))
    if not same or _misses(value, log_scale, res.abs_error, log_ref, slack):
        return "wrong_value"
    return "flag_contract" if res.converged else "flag_contract/unflagged"


def _check_cli(verb, weight, r, psi):
    def check(ctx, outcomes):
        (res, exc), = outcomes
        if exc is not None:
            return [_error_kind(ctx, exc)]
        code, out, _ = res
        if code != 0:
            return [f"raised/exit {code}"]
        rows = list(csv.DictReader(io.StringIO(out)))
        if len(rows) != 1:
            return ["wrong_value"]
        row = rows[0]
        table = verb[0] == "table"
        prefix = "numeric_" if table else "value_"
        value = complex(float(row[prefix + "re"]), float(row[prefix + "im"]))
        log_scale = float(row["numeric_log_scale" if table else "log_scale"])
        if not (cmath.isfinite(value) and math.isfinite(log_scale)):
            return ["wrong_value"]
        if weight != "gamma_shift0":
            return [None]
        # table rows carry no error bar: they promise the CLI tolerance
        bar = REL_TOL * abs(value) if table else float(row["abs_error"])
        log_ref = _gamma_log_reference(verb, cmath.rect(r, psi))
        slack = 8.0 * EPS * (1.0 + r)
        if not _misses(value, log_scale, bar, log_ref, slack):
            return [None]
        if not table:
            return ["wrong_value"]
        return [_table_row_reason(ctx, verb, r, psi, value, log_scale,
                                  log_ref, slack)]
    return check


def _cli_task(verb: tuple, weight: str, r: float, psi: float) -> Task:
    argv = [verb[0], "--spec", json.dumps(SPECS[weight], sort_keys=True),
            "--at", f"r={r!r},psi={psi!r}", *verb[1:]]
    label = f"{' '.join(verb)}:{weight}"
    return Task(f"{label} r={r!r} psi={psi!r}",
                [(label, lambda ctx: _run_cli(ctx, argv))],
                _check_cli(verb, weight, r, psi))


# iterated_log: NumericalError (exit 3) where a ray contour or a series
# window fails, and bare OverflowErrors; gamma_shift(0): `table` rows that
# print an unconverged K or growth sum (the latter where its series
# cancels) as if it met the tolerance
CLI_KNOWN = frozenset(
    [(f"{' '.join(verb)}:iterated_log", "raised/exit 3") for verb in CLI_VERBS]
    + [("eval-K:iterated_log", "crash/OverflowError"),
       ("table --which K:iterated_log", "crash/OverflowError"),
       ("table --which E:iterated_log", "crash/OverflowError"),
       ("table --which K:gamma_shift0", "flag_contract/unflagged"),
       ("table --which E:gamma_shift0", "flag_contract/unflagged")])


def cli_rounds(seed: int) -> Iterator[list]:
    rng = random.Random(f"cli_rows:{seed}")
    streams = [(verb, w, Halton(f"{verb}:{w}")) for verb in CLI_VERBS
               for w in CLI_WEIGHTS]
    while True:
        tasks = []
        for verb, w, pts in streams:
            u, v = next(pts)
            tasks.append(_cli_task(verb, w, _log_uniform(u, 1.5, 100.0),
                                   _uniform(v, -2.0, 2.0)))
        rng.shuffle(tasks)
        yield tasks


# ---------------------------------------------------------------------------
# moment_identity: moment(f, n) against gamma(n+1)
# ---------------------------------------------------------------------------

MOMENT_WEIGHTS = ("gamma_shift0", "gamma_shift1", "iterated_log", "theorem3")


def _moment_task(weight: str, n: int) -> Task:
    def call(ctx):
        return ctx.ms.moment(ctx.weights[weight], n)

    def check(ctx, outcomes):
        (res, exc), = outcomes
        if exc is not None:
            return [_error_kind(ctx, exc)]
        f = ctx.weights[weight]
        log_ref = complex(f.log_gamma(complex(n + 1.0))).real
        if _misses(res.value, res.log_scale, res.abs_error, log_ref, REF_SLACK):
            return ["wrong_value"]
        if not _breaks_flag(res, REL_TOL):
            return [None]
        # a bar too loose for the flag, on a value that meets the tolerance
        # anyway, is the known defect; a value that does not is not
        if _misses(res.value, res.log_scale, REL_TOL * abs(res.value),
                   log_ref, REF_SLACK):
            return ["flag_contract"]
        return ["flag_contract/loose_bar"]

    return Task(f"moment {weight} n={n}", [(f"moment:{weight}", call)], check)


# iterated_log overflows at n = 0 and n >= 4; every weight returns accurate
# moments with bars too loose for converged=True
MOMENT_KNOWN = frozenset(
    [("moment:iterated_log", "crash/OverflowError")]
    + [(f"moment:{w}", "flag_contract/loose_bar") for w in MOMENT_WEIGHTS])


# n = 0 goes last: its four calls cost as much as the other forty, and a
# slow host cannot finish them within a run (see Workload.measured_rounds)
MOMENT_ORDERS = (*range(1, 11), 0)


def moment_rounds(seed: int, orders=MOMENT_ORDERS) -> Iterator[list]:
    """One round per order n, the same orders in the same order for every
    seed; the seed only shuffles the weights within a round.  The input
    set is the 44 pairs (weight, n <= 10), so a run ends when they are
    used up."""
    rng = random.Random(f"moment_identity:{seed}")
    for n in orders:
        weights = list(MOMENT_WEIGHTS)
        rng.shuffle(weights)
        yield [_moment_task(w, n) for w in weights]


# ---------------------------------------------------------------------------
# abel_plana_grid: the summation identity, both sides at rel_tol 1e-10
# ---------------------------------------------------------------------------

AP_WEIGHTS = ("gamma_shift0", "iterated_log")


def _ap_task(weight: str, r: float, psi: float) -> Task:
    log_r = math.log(r)

    def args(ctx):
        return (ctx.weights[weight], ctx.ms.LogSurfacePoint(log_r, psi))

    def tol(ctx):
        return ctx.ms.Tolerances.for_quadrature(rel_tol=AP_REL_TOL)

    def rhs(ctx):
        return ctx.ms.eval_abel_plana_rhs(*args(ctx), tol=tol(ctx))

    def growth(ctx):
        return ctx.ms.eval_growth_sum(*args(ctx), tol=tol(ctx))

    def check(ctx, outcomes):
        reasons = [(_error_kind(ctx, exc) if exc is not None else None)
                   for _, exc in outcomes]
        log_z = complex(log_r, psi)
        for i, (res, exc) in enumerate(outcomes):
            if exc is not None:
                continue
            # gamma_shift(0): the growth sum is z e^z
            if weight == "gamma_shift0" and _misses(
                    res.value, res.log_scale, res.abs_error,
                    log_z + cmath.exp(log_z),
                    8.0 * EPS * (1.0 + r)):
                reasons[i] = "wrong_value"
            elif _breaks_flag(res, AP_REL_TOL):
                reasons[i] = "flag_contract"
        (a, a_exc), (g, g_exc) = outcomes
        if a_exc is None and g_exc is None and reasons[0] != "wrong_value":
            ls = max(a.log_scale, g.log_scale)
            fa, fg = math.exp(a.log_scale - ls), math.exp(g.log_scale - ls)
            gap = abs(a.value * fa - g.value * fg)
            if not gap <= a.abs_error * fa + g.abs_error * fg \
                    + REF_SLACK * abs(g.value * fg):
                reasons[0] = "wrong_value"
        return reasons

    key = f"{weight} r={r!r} psi={psi!r}"
    return Task(key, [(f"abel_plana_rhs:{weight}", rhs),
                      (f"growth_sum:{weight}", growth)], check)


# infeasible points: the rhs says converged on a bar above 1e-10 (a value
# within its bar all the same), and the iterated_log growth sum refuses a
# series window beyond the node budget
AP_KNOWN = frozenset([("abel_plana_rhs:gamma_shift0", "flag_contract"),
                      ("abel_plana_rhs:iterated_log", "flag_contract"),
                      ("growth_sum:iterated_log", "raised/QuadratureError")])


def abel_plana_rounds(seed: int) -> Iterator[list]:
    rng = random.Random(f"abel_plana_grid:{seed}")
    streams = [(w, Halton(f"abel_plana:{w}")) for w in AP_WEIGHTS]
    while True:
        tasks = []
        for w, pts in streams:
            u, v = next(pts)
            tasks.append(_ap_task(w, _log_uniform(u, 2.0, 30.0),
                                  _uniform(v, 0.0, math.pi)))
        rng.shuffle(tasks)
        yield tasks


# ---------------------------------------------------------------------------
# saddle_sweep: solve / classify / asymptotics, and boundary curves
# ---------------------------------------------------------------------------

# log r ranges inside Phi's range on the positive ray (Phi(0.5)..Phi(1e8))
SADDLE_LOG_R = {"gamma_shift0": (-1.9, 18.4), "gamma_shift1": (-0.3, 18.4),
                "iterated_log": (0.3, 2.9), "theorem3": (0.55, 18.7)}
# boundary_psi radii: up to log r ~ 3000 on the log-domain path where a
# weight has one.  theorem3 has none and stays on the ray, inside its
# saddle-point range: a saddle radius near e^600 makes its kernel grid grow
# tenfold for every later call of the run.
BOUNDARY_LOG_R = {"gamma_shift0": (1.0, 3000.0), "gamma_shift1": (1.0, 3000.0),
                  "iterated_log": (0.5, 8.0), "theorem3": (1.0, 18.7)}
CLASSIFY_ALPHA = 0.5 * math.pi


def _saddle_task(weight: str, log_r: float, psi: float) -> Task:
    def call(ctx):
        f, z = ctx.weights[weight], ctx.ms.LogSurfacePoint(log_r, psi)
        sol, tag = ctx.ms.solve(f, z)
        cls = ctx.ms.classify(f, z, CLASSIFY_ALPHA)
        e_asym = ctx.ms.E_asymptotic(f, z)
        k_asym = ctx.ms.K_asymptotic(f, z) if tag.inside else None
        return sol, tag, cls, e_asym, k_asym

    def check(ctx, outcomes):
        (res, exc), = outcomes
        if exc is not None:
            return [_error_kind(ctx, exc)]
        sol, tag, cls, _, _ = res
        f = ctx.weights[weight]
        log_z = complex(log_r, psi)
        if sol is None:
            expect = "no_saddle"
        else:
            resid = abs(complex(f.dlog_gamma(complex(sol.s_z))) - log_z)
            if not resid <= SADDLE_RESID * (1.0 + abs(log_z)):
                return ["wrong_value"]
            inside = (abs(sol.theta_z) < CLASSIFY_ALPHA
                      and sol.rho_z > tag.rho0_used)
            expect = "inside" if inside else "outside"
        # two answers of the package for one point that contradict each
        # other; no reference says which of them is right
        return [None if cls.kind == expect else "wrong_value/classify_disagrees"]

    return Task(f"saddle {weight} log_r={log_r!r} psi={psi!r}",
                [(f"saddle_point:{weight}", call)], check)


def _boundary_task(weight: str, log_r: float, alpha: float) -> Task:
    def call(ctx):
        return ctx.ms.boundary_psi(ctx.weights[weight], log_r, alpha)

    def check(ctx, outcomes):
        (psi_b, exc), = outcomes
        if exc is not None:
            return [_error_kind(ctx, exc)]
        if not (math.isfinite(psi_b) and psi_b > 0.0):
            return ["wrong_value"]
        f, z = ctx.weights[weight], ctx.ms.LogSurfacePoint(log_r, psi_b)
        try:
            sol, _ = ctx.ms.solve(f, z)
        except ctx.ms.NoSaddleError:
            if not f.has_log_domain:
                return ["wrong_value"]
            sol, _ = ctx.ms.saddle.solve_log_domain(f, z)
        if sol is None or not abs(sol.theta_z - alpha) <= THETA_TOL:
            return ["wrong_value"]
        return [None]

    return Task(f"boundary {weight} log_r={log_r!r} alpha={alpha!r}",
                [(f"boundary_psi:{weight}", call)], check)


# E_asymptotic refuses points whose saddle lies past the decay sector;
# solve depends on what earlier calls left behind, so at a point where it
# first finds no saddle, the solve inside classify right after may find
# one (seen on theorem3; the solver is shared by every weight)
SADDLE_KNOWN = frozenset(
    [(f"saddle_point:{w}", "raised/RegionError") for w in MOMENT_WEIGHTS]
    + [(f"saddle_point:{w}", "wrong_value/classify_disagrees")
       for w in MOMENT_WEIGHTS])


def saddle_rounds(seed: int) -> Iterator[list]:
    rng = random.Random(f"saddle_sweep:{seed}")
    points = [(w, Halton(f"saddle:{w}")) for w in MOMENT_WEIGHTS]
    curves = [(w, Halton(f"boundary:{w}")) for w in MOMENT_WEIGHTS]
    while True:
        tasks = []
        for w, pts in points:
            u, v = next(pts)
            tasks.append(_saddle_task(w, _uniform(u, *SADDLE_LOG_R[w]),
                                      _uniform(v, -3.0 * math.pi, 3.0 * math.pi)))
        for w, pts in curves:
            u, v = next(pts)
            tasks.append(_boundary_task(w, _log_uniform(u, *BOUNDARY_LOG_R[w]),
                                        _uniform(v, 0.3, 2.5)))
        rng.shuffle(tasks)
        yield tasks


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    weights: tuple                       # built by the benchmark for oracles
    rounds: Callable[[int], Iterator[list]]
    trace_rounds: Callable[[int], list]  # the fixed prefix the trace runs
    window: int                          # calls per latency_tail_ms window
    known: frozenset                     # known defects: (label, failure tag)
    measured_rounds: int                 # leading rounds the figures use


def _prefix(rounds, n):
    def take(seed):
        it = rounds(seed)
        return [next(it) for _ in range(n)]
    return take


WORKLOADS = {w.name: w for w in (
    Workload("cli_rows", CLI_WEIGHTS, cli_rounds, _prefix(cli_rounds, 5), 144,
             CLI_KNOWN, 12),
    Workload("moment_identity", MOMENT_WEIGHTS, moment_rounds,
             lambda seed: list(moment_rounds(seed, range(1, 6))), 40,
             MOMENT_KNOWN, 10),
    Workload("abel_plana_grid", AP_WEIGHTS, abel_plana_rounds,
             _prefix(abel_plana_rounds, 8), 48, AP_KNOWN, 24),
    Workload("saddle_sweep", MOMENT_WEIGHTS, saddle_rounds,
             _prefix(saddle_rounds, 12), 64, SADDLE_KNOWN, 24),
)}


def describe(outcome) -> str:
    """Deterministic text of one call's outcome, for the output digests."""
    res, exc = outcome
    if exc is not None:
        return f"{type(exc).__name__}: {exc}"
    return repr(res)
