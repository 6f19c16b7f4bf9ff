import csv
import io
import json
import math
import os

import numpy as np
import pytest

from mellin_saddle.cli import main, parse_at, parse_contour, parse_grid
from mellin_saddle.errors import SpecError

GAMMA = '{"kind":"gamma_shift","params":{"c":0}}'
GAMMA1 = '{"kind":"gamma_shift","params":{"c":1.0}}'
ITERLOG = '{"kind":"iterated_log","params":{}}'


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_grid_log_spaced():
    pts = parse_grid("r=1..10,n=10,psi=0")
    assert len(pts) == 10
    assert pts[0].log_r == pytest.approx(0.0)
    assert pts[-1].log_r == pytest.approx(math.log(10.0))
    # log-spaced: equal steps in log r
    steps = np.diff([p.log_r for p in pts])
    assert np.allclose(steps, steps[0])


def test_parse_grid_psi_sweep():
    pts = parse_grid("r=2..2,n=1,psi=0..3.0:4")
    assert len(pts) == 4
    assert [p.psi for p in pts] == pytest.approx([0.0, 1.0, 2.0, 3.0])


def test_parse_grid_errors():
    with pytest.raises(SpecError):
        parse_grid("n=10")
    with pytest.raises(SpecError):
        parse_grid("r=0..10,n=5")


def test_range_count_below_1_is_a_spec_error():
    for text in ("r=1..10:0", "r=1..10:-2", "r=1..10,psi=0..1:0",
                 "r=1..10,psi=0..1:-3", "r=1..10:3,psi=0..1:0"):
        with pytest.raises(SpecError, match="range count"):
            parse_grid(text)
    assert len(parse_grid("r=1..10:1,psi=0..1:1")) == 1


def test_parse_at_and_contour():
    z = parse_at("r=10,psi=0.5")
    assert z.log_r == pytest.approx(math.log(10.0))
    assert z.psi == 0.5
    c = parse_contour("lalpha:2.0,vertex=3.5")
    assert c.kind == "l_alpha" and c.alpha == 2.0 and c.vertex == 3.5
    v = parse_contour("vertical:1.5")
    assert v.kind == "vertical" and v.c == 1.5
    with pytest.raises(SpecError):
        parse_contour("spiral:1")


def test_eval_K_csv_grid(capsys):
    code, out, err = run_cli(capsys, "eval-K", "--spec", GAMMA,
                             "--grid", "r=1..10,n=10,psi=0")
    assert code == 0
    # fixed, documented column order
    assert out.splitlines()[0] == ("log_r,psi,value_re,value_im,log_scale,"
                                   "abs_error,region,rho_z,theta_z")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 10
    for row in rows:
        r = math.exp(float(row["log_r"]))
        got = float(row["value_re"]) * math.exp(float(row["log_scale"]))
        assert got == pytest.approx(math.exp(-r), rel=1e-7)


def test_saddle_json(capsys):
    code, out, err = run_cli(capsys, "saddle", "--spec", GAMMA,
                             "--at", "r=10,psi=0")
    assert code == 0
    doc = json.loads(out)
    assert doc["residual"] < 1e-10
    assert 10.0 < doc["rho_z"] < 11.0
    assert doc["region"] == "inside"


def test_saddle_without_a_ray_root(capsys):
    # r = 0.5 lies below Phi on iterated_log's whole ray
    code, out, err = run_cli(capsys, "saddle", "--spec", ITERLOG,
                             "--at", "r=0.5")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["region"] == "no_saddle" and doc["error"]


def test_verify_moments_exit_zero(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "verify", "moments", "--spec", GAMMA,
                             "--n-max", "3", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["passed"] is True
    assert doc["summary"]["fail"] == 0


def test_verify_moments_past_exps_range(capsys):
    # gamma(n+1) = (n!)^30 overflows a double at n = 14: the report
    # compares on its log scale, and the CLI exits with a report
    spec = ('{"kind":"power","params":{"a":30},'
            '"children":[{"kind":"gamma_shift"}]}')
    code, out, err = run_cli(capsys, "verify", "moments", "--spec", spec,
                             "--n-max", "15")
    assert code in (0, 1), err
    assert len(json.loads(out)["cases"]) == 16


def test_verify_positivity_verb(capsys):
    code, out, err = run_cli(
        capsys, "verify", "positivity", "--spec",
        '{"kind":"positive_type","params":{"preset":"factorial"}}',
        "--t-points", "3")
    assert code == 0, err
    assert json.loads(out)["passed"] is True


def test_verify_needs_a_spec(capsys):
    code, out, err = run_cli(capsys, "verify", "moments")
    assert code == 2
    assert "the following arguments are required: --spec" in err


@pytest.mark.parametrize("spec, key", [
    ('{"kind":"gamma_shift","params":{"cc":3}}', "'cc'"),
    ('{"kind":"theorem3","params":{"ell":"exp_sqrt_log","a":2}}', "'a'"),
    ('{"kind":"positive_type","params":{"preset":"factorial","tau":1}}',
     "'tau'"),
    ('{"kind":"power","params":{"a":2,"b":5},'
     '"children":[{"kind":"gamma_shift"}]}', "'b'"),
    ('{"kind":"gamma_shift","param":{"c":3}}', "'param'"),
    # a spec's own shape: a string kind, object params, list children
    ('{"kind":["gamma_shift"]}', "string 'kind'"),
    ('{"kind":"gamma_shift","params":null}', "object 'params'"),
    ('{"kind":"product","children":5}', "list 'children'"),
    # a required parameter left out is named too
    ('{"kind":"power","children":[{"kind":"gamma_shift"}]}', "missing "
     "parameter 'a'"),
])
def test_spec_key_not_taken_exit_2(capsys, spec, key):
    code, out, err = run_cli(capsys, "eval-K", "--spec", spec, "--at", "r=2")
    assert code == 2 and out == ""
    assert "spec error:" in err and key in err, err


def test_theorem3_limits_binds_its_ell(capsys):
    # --ell-a goes to the preset only when given: exp_sqrt_log takes no a
    code, out, err = run_cli(capsys, "verify", "theorem3-limits", "--ell",
                             "exp_sqrt_log", "--ell-a", "5")
    assert code == 2 and "spec error:" in err and "'a'" in err, err


def test_spec_error_exit_2(capsys):
    for spec, word in [('{"kind":"nope"}', "nope"),
                       ('{"kind":"gamma_shift","params":{"c":"x"}}', "'c'"),
                       ('{"kind":"gamma_shift","params":{"c":NaN}}', "'c'"),
                       ('{"kind":"iterated_log","params":{"k":1.5}}', "'k'"),
                       ('{"kind":"positive_type","params":{"cut":400.7}}',
                        "'cut'")]:
        code, out, err = run_cli(capsys, "eval-K", "--spec", spec, "--at", "r=1")
        assert code == 2
        assert "spec error" in err and word in err


@pytest.mark.parametrize("argv", [
    ("boundary", "--at", "r=10", "--alpha", "3.2"),
    ("eval-K", "--at", "r=10", "--tol", "2"),
    ("verify", "moments", "--n-max", "20"),
    ("verify", "carleman", "--n-terms", "10"),
    ("eval-K", "--at", "r=inf"),
    ("eval-K", "--at", "r=abc"),
    ("eval-K", "--grid", "r=1..x,n=3"),
    ("eval-K", "--grid", "r=1..3,n=1.5"),
    ("eval-K", "--at", "r=2", "--contour", "lalpha:abc"),
    ("eval-K", "--at", "r=2,psi=0.3", "--contour", "lalpha:2,vertex=-0.5"),
    ("eval-K", "--at", "r=2", "--contour", "lalpha:2,vertex=nan"),
    ("eval-K", "--at", "r=2", "--contour", "vertical:nan"),
    ("eval-K", "--at", "r=2", "--tol", "0"),
    ("verify", "moments", "--n-max", "-1"),
    ("verify", "positivity", "--t-points", "0"),
    ("verify", "positivity", "--t-min", "0"),
    ("verify", "positivity", "--t-max", "inf"),
    # range counts below 1
    ("eval-K", "--grid", "r=1..10:0"),
    ("eval-K", "--grid", "r=1..10,n=3,psi=0..1:0"),
    ("eval-K", "--grid", "r=1..10,n=3,psi=0..1:-3"),
    # a range with two ends and no count
    ("eval-K", "--grid", "r=1..10"),
    ("eval-K", "--grid", "r=1..10,n=3,psi=0..1"),
    # key=value keys the parser does not read
    ("eval-K", "--at", "r=2,pssi=1"),
    ("eval-K", "--grid", "r=1..10,N=5"),
    ("eval-K", "--at", "r=2", "--contour", "lalpha:2,vertx=3"),
])
def test_bad_argument_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--spec", GAMMA)
    assert code == 2
    assert "spec error:" in err


@pytest.mark.parametrize("argv", [
    # flags a verb does not read, and --at with --grid
    ("saddle", "--at", "r=2", "--format", "csv", "--tol", "1e-3"),
    ("boundary", "--at", "r=10", "--alpha", "1.5", "--tol", "0.5"),
    ("asym-K", "--at", "r=10", "--tol", "7"),
    ("eval-K", "--at", "r=2", "--grid", "r=1..3,n=3"),
    # a verify suite takes only the flags it reads
    ("verify", "carleman", "--tol", "1e-3"),
    ("verify", "theorem3-limits"),          # with the --spec below
    ("verify", "moments", "--psi", "0.5"),
    ("verify", "positivity", "--n-max", "3"),
    ("verify", "scan-K", "--t-min", "0.5"),
])
def test_argparse_refusal_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--spec", GAMMA)
    assert code == 2
    assert "error:" in err and out == ""


def test_numerical_error_exit_3(capsys):
    # vertical route on a sheet where it cannot decay
    code, out, err = run_cli(capsys, "eval-K", "--spec", GAMMA,
                             "--at", "r=5,psi=3.0", "--contour", "vertical:2.0")
    assert code == 3
    assert "numerical failure" in err


def test_eval_K_overflow_exit_3(capsys):
    # iterated_log at r=33: the ray contour's value leaves the double range;
    # that is a numerical failure, not a traceback
    code, out, err = run_cli(capsys, "eval-K", "--spec",
                             '{"kind":"iterated_log","params":{}}',
                             "--at", "r=33,psi=0")
    assert code == 3
    assert "numerical failure" in err and out == ""


def test_json_format_round_trip(capsys):
    code, out, err = run_cli(capsys, "eval-E", "--spec", GAMMA,
                             "--at", "r=1,psi=0", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["value_re"] == pytest.approx(math.e, rel=1e-10)


def test_byte_identical_runs(capsys):
    args = ("eval-K", "--spec", GAMMA, "--grid", "r=1..5,n=5,psi=0")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_spec_from_file(capsys, tmp_path):
    p = tmp_path / "w.json"
    p.write_text(GAMMA1)
    code, out, err = run_cli(capsys, "eval-E", "--spec", str(p),
                             "--at", "r=1,psi=0", "--format", "json")
    assert code == 0
    # E(1) for Gamma(s+1): sum 1/(n+1)! = e - 1
    assert json.loads(out)[0]["value_re"] == pytest.approx(math.e - 1.0,
                                                           rel=1e-10)


def test_boundary_verb(capsys):
    code, out, err = run_cli(capsys, "boundary", "--spec",
                             '{"kind":"iterated_log","params":{"a":1,"b":1,"k":1,"c":2.718281828459045}}',
                             "--at", "r=148.4131591,psi=0", "--alpha", "1.5707963267948966")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    psi = float(rows[0]["psi_boundary"])
    assert psi == pytest.approx(0.0105839, rel=1e-3)


def test_table_verb(capsys):
    code, out, err = run_cli(capsys, "table", "--spec", GAMMA, "--which", "K",
                             "--grid", "r=20..40,n=3,psi=0")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 3
    for row in rows:
        assert float(row["ratio_abs_dev"]) < 0.01


@pytest.mark.parametrize("spec,which,at,dev", [
    # numeric and asymptotic scales e^932 apart: the ratio leaves the
    # double range
    ('{"kind":"iterated_log","params":{}}', "E",
     "r=11.805271574845259,psi=0.05962656511194986", math.inf),
    # outside K's region, and outside E's growth region: no asymptotic form
    (GAMMA, "K", "r=3,psi=2.9", math.nan),
    (GAMMA, "E", "r=30,psi=2.5", math.nan),
])
def test_table_rows_without_a_finite_ratio(capsys, spec, which, at, dev):
    code, out, err = run_cli(capsys, "table", "--spec", spec, "--which", which,
                             "--at", at)
    assert code == 0, err
    row = next(csv.DictReader(io.StringIO(out)))
    got = float(row["ratio_abs_dev"])
    if math.isnan(dev):
        assert math.isnan(got) and math.isnan(float(row["asym_re"]))
    else:
        assert got == dev and math.isfinite(float(row["asym_re"]))


def test_moment_verb(capsys):
    code, out, err = run_cli(capsys, "moment", "--spec", GAMMA, "--n", "1", "2",
                             "3")
    assert code == 0, err
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["n"] for r in rows] == ["1", "2", "3"]
    for r, want in zip(rows, (1.0, 2.0, 6.0)):
        got = float(r["value_re"]) * math.exp(float(r["log_scale"]))
        assert got == pytest.approx(want, rel=1e-10)


def test_asym_verbs(capsys):
    code, out, err = run_cli(capsys, "asym-K", "--spec", GAMMA,
                             "--at", "r=50,psi=0", "--format", "json")
    assert code == 0
    row = json.loads(out)[0]
    got = row["value_re"] * math.exp(row["log_scale"])
    assert got == pytest.approx(math.exp(-50.0), rel=0.01)

    code, out, err = run_cli(capsys, "asym-E", "--spec", GAMMA,
                             "--at", "r=40,psi=2.35619449", "--format", "json")
    assert code == 0
    row = json.loads(out)[0]
    assert row["region"] == "outside"
    assert row["value_re"] == 0.0


def test_asym_K_region_names_a_missing_saddle(capsys):
    # iterated_log at r = 5, psi = 1 has no saddle: asym-K says so as
    # asym-E does; a saddle below rho0 stays outside K's region
    regions = []
    for verb, spec, at in (("asym-K", ITERLOG, "r=5,psi=1"),
                           ("asym-E", ITERLOG, "r=5,psi=1"),
                           ("asym-K", GAMMA, "r=2,psi=0")):
        code, out, err = run_cli(capsys, verb, "--spec", spec, "--at", at,
                                 "--format", "json")
        assert code == 0, err
        regions.append(json.loads(out)[0]["region"])
    assert regions == ["no_saddle", "no_saddle", "outside"]


def test_audit_verb(capsys):
    code, out, err = run_cli(capsys, "audit", "--spec", GAMMA1)
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True


def test_max_nodes_env(capsys, monkeypatch):
    monkeypatch.setenv("MELLIN_MAX_NODES", "3000")
    code, out, err = run_cli(capsys, "eval-K", "--spec", GAMMA,
                             "--at", "r=5,psi=0", "--format", "json")
    assert code == 0   # still converges well within 3000 nodes
    for bad in ("abc", "0"):
        monkeypatch.setenv("MELLIN_MAX_NODES", bad)
        code, out, err = run_cli(capsys, "eval-K", "--spec", GAMMA,
                                 "--at", "r=5,psi=0")
        assert code == 2 and "spec error" in err, err
    monkeypatch.delenv("MELLIN_MAX_NODES")


def test_parser_built_once_keeps_calls_apart(capsys):
    # one parser serves every call of a process: a refused flag leaves
    # nothing behind for the calls after it
    from mellin_saddle.cli import build_parser

    calls = [("eval-K", "--at", "r=2", "--bogus", "1"),
             ("eval-K", "--at", "r=2,psi=0.5"),
             ("saddle", "--at", "r=5,psi=0.3")]
    shared = [run_cli(capsys, *argv, "--spec", GAMMA) for argv in calls]
    assert build_parser() is build_parser()
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv, "--spec", GAMMA))
    assert [c[0] for c in shared] == [2, 0, 0]
    assert shared == fresh
