"""Command-line front end.

Verbs: eval-K, eval-E, asym-K, asym-E, saddle, abel-plana, moment,
boundary, verify, audit, table.  Weights come from --spec (a JSON file
path or inline JSON); evaluation points from --grid r=A..B,n=N,psi=P
(log-spaced in r, psi may be a sweep A..B:M) or --at r=R,psi=P.  Output
is CSV or JSON rows with a fixed column order:

    log_r, psi, value_re, value_im, log_scale, abs_error, region,
    rho_z, theta_z

Exit codes: 0 success, 1 failed report (verify or audit), 2 spec/usage
error, 3 numerical failure.
MELLIN_MAX_NODES overrides the node budget, which caps quadrature nodes
and series terms alike.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from typing import List, Optional

import numpy as np

from .asymptotics import E_asymptotic, K_asymptotic
from .catalog import (AdmissibleFunction, FunctionSpec, build,
                      audit_admissibility, _ELL_PRESETS, _number, _preset)
from .errors import NumericalError, RegionError, SpecError
from .saddle import NoSaddleError, boundary_psi, solve
from .surface import LogSurfacePoint, Tolerances
from .transforms import (ContourSpec, eval_abel_plana_rhs, eval_E_series,
                         eval_growth_sum, eval_K, moment)
from . import verification

COLUMNS = ["log_r", "psi", "value_re", "value_im", "log_scale", "abs_error",
           "region", "rho_z", "theta_z"]
TABLE_COLUMNS = ["log_r", "psi", "numeric_re", "numeric_im", "numeric_log_scale",
                 "asym_re", "asym_im", "asym_log_scale", "ratio_abs_dev",
                 "region"]


def _load_spec(text: str) -> FunctionSpec:
    candidate = text.strip()
    if not candidate.startswith("{") and os.path.exists(candidate):
        with open(candidate, "r", encoding="utf-8") as fh:
            candidate = fh.read()
    return FunctionSpec.from_json(candidate)


def _parse_kv(text: str, keys) -> dict:
    """The key=value pairs of text; a key outside keys is a spec error."""
    out = {}
    for part in text.split(","):
        if not part:
            continue
        if "=" not in part:
            raise SpecError(f"expected key=value in {text!r}, got {part!r}")
        k, v = (x.strip() for x in part.split("=", 1))
        if k not in keys:
            raise SpecError(f"unknown key {k!r} in {text!r}; use {'/'.join(keys)}")
        out[k] = v
    return out


def _parse_range(v: str):
    """A..B[:N] as (A, B, N or None), a single value V as (V, V, 1)."""
    lo, rest = v.split("..", 1) if ".." in v else (v, f"{v}:1")
    hi, colon, n = rest.partition(":")
    return (_number(float, lo, "range start"), _number(float, hi, "range end"),
            _number(int, n, "range count") if colon else None)


def parse_grid(text: str) -> List[LogSurfacePoint]:
    kv = _parse_kv(text, ("r", "n", "psi"))
    if "r" not in kv:
        raise SpecError(f"grid needs r=A..B, got {text!r}")
    r_lo, r_hi, n_inline = _parse_range(kv["r"])
    n = _number(int, kv.get("n", n_inline or 1), "grid n")
    if n < 1 or r_lo <= 0:
        raise SpecError(f"grid needs n >= 1 and r_min > 0, got {text!r}")
    rs = np.geomspace(r_lo, r_hi, n) if n > 1 else np.array([r_lo])
    psis = [0.0]
    if "psi" in kv:
        p_lo, p_hi, m = _parse_range(kv["psi"])
        psis = np.linspace(p_lo, p_hi, m) if m and m > 1 else [p_lo]
    return [LogSurfacePoint(math.log(r), float(p)) for p in psis for r in rs]


def parse_at(text: str) -> LogSurfacePoint:
    kv = _parse_kv(text, ("r", "psi"))
    if "r" not in kv:
        raise SpecError(f"--at needs r=R[,psi=P], got {text!r}")
    r = _number(float, kv["r"], "--at r")
    if r <= 0:
        raise SpecError(f"--at needs r > 0, got {r}")
    return LogSurfacePoint(math.log(r), _number(float, kv.get("psi", 0.0), "--at psi"))


def parse_contour(text: Optional[str]) -> Optional[ContourSpec]:
    if text is None:
        return None
    kind, _, rest = text.partition(":")
    if kind == "lalpha":
        alpha_txt, _, extra = rest.partition(",")
        if not alpha_txt:
            raise SpecError("lalpha contour needs lalpha:ALPHA[,vertex=V]")
        kv = _parse_kv(extra, ("vertex",))
        vertex = _number(float, kv["vertex"], "vertex") if "vertex" in kv else None
        return ContourSpec("l_alpha", alpha=_number(float, alpha_txt, "alpha"),
                           vertex=vertex)
    if kind == "vertical":
        if not rest:
            raise SpecError("vertical contour needs vertical:C")
        return ContourSpec("vertical", c=_number(float, rest, "c"))
    raise SpecError(f"unknown contour {text!r}; use lalpha:A[,vertex=V] or "
                    "vertical:C")


def _tolerances(args) -> Tolerances:
    max_nodes = _number(int, os.environ.get("MELLIN_MAX_NODES", 200_000),
                        "MELLIN_MAX_NODES")
    rel = 1e-8 if args.tol is None else args.tol
    return Tolerances(rel_tol=rel, max_nodes=max_nodes)


def _saddle_fields(f: AdmissibleFunction, z: LogSurfacePoint):
    try:
        sol, tag = solve(f, z)
    except NumericalError:
        return "no_saddle", math.nan, math.nan
    if sol is None:
        return tag.kind, math.nan, math.nan
    return tag.kind, sol.rho_z, sol.theta_z


def _row(z, value, log_scale, abs_error, region, rho_z, theta_z):
    return {
        "log_r": z.log_r, "psi": z.psi,
        "value_re": value.real, "value_im": value.imag,
        "log_scale": log_scale, "abs_error": abs_error,
        "region": region, "rho_z": rho_z, "theta_z": theta_z,
    }


def _emit(rows, columns, args) -> None:
    if args.format == "json":
        text = json.dumps(rows, sort_keys=True, indent=2) + "\n"
    else:
        buf = io.StringIO()
        w = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
        w.writeheader()
        for r in rows:
            w.writerow({k: (f"{v:.17g}" if isinstance(v, float) else v)
                        for k, v in r.items()})
        text = buf.getvalue()
    _write(text, args.out)


def _write(text: str, out: Optional[str]) -> None:
    """Write text to the --out path, or to stdout when none is given."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _points(args) -> List[LogSurfacePoint]:
    if args.at:
        return [parse_at(args.at)]
    if args.grid:
        return parse_grid(args.grid)
    raise SpecError("need --grid or --at")


def _run_eval(args) -> int:
    which = args.verb
    f = build(_load_spec(args.spec))
    tols = None if which in ("asym-K", "asym-E") else _tolerances(args)
    contour = parse_contour(getattr(args, "contour", None))
    rows = []
    for z in _points(args):
        region, rho_z, theta_z = _saddle_fields(f, z)
        if which in ("eval-K", "eval-E", "abel-plana"):
            res = eval_K(f, z, contour, tol=tols) if which == "eval-K" else \
                eval_E_series(f, z, tol=tols) if which == "eval-E" else \
                eval_abel_plana_rhs(f, z, args.sigma0, tol=tols)
            rows.append(_row(z, res.value, res.log_scale, res.abs_error,
                             region, rho_z, theta_z))
        elif which == "asym-K":
            try:
                a = K_asymptotic(f, z)
                rows.append(_row(z, a.value, a.log_scale, 0.0,
                                 a.region.kind, rho_z, theta_z))
            except RegionError:     # no saddle, or one outside K's region
                rows.append(_row(z, complex(math.nan, math.nan), math.nan,
                                 math.nan, region if region == "no_saddle"
                                 else "outside", rho_z, theta_z))
        elif which == "asym-E":
            a = E_asymptotic(f, z)
            rows.append(_row(z, a.value, a.log_scale, 0.0,
                             a.region.kind, rho_z, theta_z))
    _emit(rows, COLUMNS, args)
    return 0


def _run_saddle(args) -> int:
    f = build(_load_spec(args.spec))
    out = []
    for z in _points(args):
        row = {"log_r": z.log_r, "psi": z.psi}
        try:
            sol, tag = solve(f, z)
        except NoSaddleError as e:
            out.append(dict(row, region="no_saddle", error=str(e)))
            continue
        if sol is not None:
            row.update(s_re=sol.s_z.real, s_im=sol.s_z.imag, rho_z=sol.rho_z,
                       theta_z=sol.theta_z, residual=sol.residual,
                       iterations=sol.iterations)
        out.append(dict(row, region=tag.kind))
    _write(json.dumps(out if len(out) > 1 else out[0], sort_keys=True, indent=2)
           + "\n", args.out)
    return 0


def _run_moment(args) -> int:
    f = build(_load_spec(args.spec))
    tols = _tolerances(args)
    rows = []
    for n in args.n:
        res = moment(f, n, tol=tols)
        rows.append({"n": n, "value_re": res.value.real,
                     "value_im": res.value.imag, "log_scale": res.log_scale,
                     "abs_error": res.abs_error, "converged": res.converged})
    _emit(rows, ["n", "value_re", "value_im", "log_scale", "abs_error",
                 "converged"], args)
    return 0


def _run_boundary(args) -> int:
    f = build(_load_spec(args.spec))
    rows = []
    for z in _points(args):
        psi = boundary_psi(f, z.log_r, args.alpha)
        rows.append({"log_r": z.log_r, "alpha": args.alpha, "psi_boundary": psi})
    _emit(rows, ["log_r", "alpha", "psi_boundary"], args)
    return 0


def _run_table(args) -> int:
    f = build(_load_spec(args.spec))
    tols = _tolerances(args)
    rows = []
    for z in _points(args):
        region, rho_z, theta_z = _saddle_fields(f, z)
        if args.which == "K":
            num = eval_K(f, z, tol=tols)
            try:
                asym = K_asymptotic(f, z)
            except RegionError:
                asym = None
        else:
            num = eval_growth_sum(f, z, tol=tols)
            asym = E_asymptotic(f, z)     # 0 outside its region: no ratio
        row = {"log_r": z.log_r, "psi": z.psi,
               "numeric_re": num.value.real, "numeric_im": num.value.imag,
               "numeric_log_scale": num.log_scale,
               "asym_re": math.nan, "asym_im": math.nan,
               "asym_log_scale": math.nan, "ratio_abs_dev": math.nan,
               "region": region}
        if asym is not None and abs(asym.value) > 0:
            row.update(asym_re=asym.value.real, asym_im=asym.value.imag,
                       asym_log_scale=asym.log_scale,
                       ratio_abs_dev=verification.deviation(num, asym))
        rows.append(row)
    _emit(rows, TABLE_COLUMNS, args)
    return 0


def _run_verify(args) -> int:
    suite = args.suite
    if suite != "theorem3-limits" and not args.spec:
        raise SpecError(f"verify {suite} needs --spec")
    tols = _tolerances(args)
    f = None if suite == "theorem3-limits" else build(_load_spec(args.spec))
    if suite == "moments":
        rep = verification.verify_moments(f, args.n_max, tol=tols)
    elif suite == "positivity":
        if not (0 < args.t_min < math.inf and 0 < args.t_max < math.inf
                and args.t_points >= 1):
            raise SpecError("positivity needs finite --t-min, --t-max > 0 "
                            "and --t-points >= 1")
        grid = np.geomspace(args.t_min, args.t_max, args.t_points)
        rep = verification.verify_positivity(f, grid, tol=tols)
    elif suite == "carleman":
        rep = verification.verify_carleman(f, args.n_terms)
    elif suite == "theorem3-limits":
        ell = _preset(_ELL_PRESETS, args.ell, "ell")({"a": args.ell_a,
                                                      "c": args.ell_c})
        rep = verification.verify_theorem3_limits(ell)
    else:  # scan-K or scan-E
        rep = verification.scan_ratio(
            f, suite[-1], args.psi, args.rho_targets,
            final_max=args.final_max,
            require_monotone_tail=not args.waive_monotone_tail, tol=tols)
    _write(rep.to_json() + "\n", args.out)
    return 0 if rep.passed else 1


def _run_audit(args) -> int:
    f = build(_load_spec(args.spec))
    rep = audit_admissibility(f)
    _write(json.dumps(rep.to_dict(), sort_keys=True, indent=2) + "\n", args.out)
    return 0 if rep.passed else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parse_args leaves it as it
    was, so every call of main reads the same parser."""
    p = argparse.ArgumentParser(prog="mellin-saddle",
                                description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="verb", required=True)

    def common(sp, run, grid=True, tol=True, fmt=True):
        sp.set_defaults(run=run)
        sp.add_argument("--spec", "-s", required=True,
                        help="weight spec: JSON file path or inline JSON")
        if grid:
            where = sp.add_mutually_exclusive_group()
            where.add_argument("--grid", help="r=A..B,n=N[,psi=P|psi=A..B:M]")
            where.add_argument("--at", help="r=R[,psi=P]")
        if tol:
            sp.add_argument("--tol", type=float, help="relative tolerance")
        sp.add_argument("--out", help="output path (default stdout)")
        if fmt:
            sp.add_argument("--format", choices=("csv", "json"), default="csv")

    sp = sub.add_parser("eval-K")
    common(sp, _run_eval)
    sp.add_argument("--contour", help="lalpha:ALPHA[,vertex=V] or vertical:C")
    common(sub.add_parser("eval-E"), _run_eval)
    for verb in ("asym-K", "asym-E"):
        common(sub.add_parser(verb), _run_eval, tol=False)
    sp = sub.add_parser("abel-plana")
    common(sp, _run_eval)
    sp.add_argument("--sigma0", type=float, default=None)

    common(sub.add_parser("saddle"), _run_saddle, tol=False, fmt=False)

    sp = sub.add_parser("moment")
    common(sp, _run_moment, grid=False)
    sp.add_argument("--n", type=int, nargs="+", required=True)

    sp = sub.add_parser("boundary")
    common(sp, _run_boundary, tol=False)
    sp.add_argument("--alpha", type=float, required=True)

    sp = sub.add_parser("table")
    common(sp, _run_table)
    sp.add_argument("--which", choices=("K", "E"), required=True)

    sp = sub.add_parser("verify")
    sp.set_defaults(run=_run_verify)
    sp.add_argument("suite", choices=("moments", "positivity", "carleman",
                                      "theorem3-limits", "scan-K", "scan-E"))
    sp.add_argument("--spec", "-s", help="weight spec (JSON path or inline)")
    sp.add_argument("--tol", type=float)
    sp.add_argument("--out")
    sp.add_argument("--n-max", type=int, default=10)
    sp.add_argument("--n-terms", type=int, default=100_000)
    sp.add_argument("--t-min", type=float, default=0.5)
    sp.add_argument("--t-max", type=float, default=20.0)
    sp.add_argument("--t-points", type=int, default=15)
    sp.add_argument("--ell", default="power")
    sp.add_argument("--ell-a", type=float, default=1.0)
    sp.add_argument("--ell-c", type=float, default=1e-6)
    sp.add_argument("--psi", type=float, default=0.0)
    sp.add_argument("--rho-targets", type=float, nargs="+",
                    default=[10.0, 20.0, 40.0, 80.0])
    sp.add_argument("--final-max", type=float, default=0.05)
    sp.add_argument("--waive-monotone-tail", action="store_true",
                    help="accept ladders whose signed deviation crosses zero")

    sp = sub.add_parser("audit")
    sp.set_defaults(run=_run_audit)
    sp.add_argument("--spec", "-s", required=True)
    sp.add_argument("--out")
    return p


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.run(args)
    except SpecError as e:
        print(f"spec error: {e} (input: {' '.join(argv or sys.argv[1:])})",
              file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical failure: {e} (input: {' '.join(argv or sys.argv[1:])})",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
