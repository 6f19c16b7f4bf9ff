"""tools/fingerprint.py: compare, run as a script on hand-written dumps, and
the labels of the calls that dump makes."""
import importlib.util
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"

BASE = [
    "E gamma_shift0 r=2 psi=0\t((7.38905609893065+0j), 1e-12, 43, 0.0, True)",
    "K-rays iterated_log r=10 psi=1\tQuadratureError: K ray contour does not decay",
]


def _compare(tmp_path, lines_b, lines_a=BASE):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("\n".join(lines_a) + "\n")
    b.write_text("\n".join(lines_b) + "\n")
    return subprocess.run([sys.executable, str(TOOL), "compare", str(a), str(b)],
                          capture_output=True, text=True, timeout=60)


def test_identical_dumps_pass(tmp_path):
    out = _compare(tmp_path, BASE)
    assert out.returncode == 0, out.stdout + out.stderr
    assert "findings: 0" in out.stdout


def test_move_inside_both_bars_passes(tmp_path):
    moved = BASE[0].replace("7.38905609893065", "7.38905609893165")
    out = _compare(tmp_path, [moved, BASE[1]])
    assert out.returncode == 0, out.stdout + out.stderr


@pytest.mark.parametrize("line_b, finding", [
    (BASE[0].replace("True)", "False)"), "flag flip"),
    (BASE[0].replace("7.38905609893065", "7.38905609903065"),
     "outside both bars"),
    (BASE[1].split("\t")[0] + "\t((1e-3+0j), 1e-12, 90, 0.0, True)",
     "raise/return"),
])
def test_each_finding_fails(tmp_path, line_b, finding):
    label = line_b.split("\t")[0]
    lines_b = [line_b if ln.startswith(label + "\t") else ln for ln in BASE]
    out = _compare(tmp_path, lines_b)
    assert out.returncode == 1, out.stdout + out.stderr
    assert finding in out.stdout


SADDLE = [
    "solve gamma_shift0 r=2 psi=1\t((1.5687684666265083+1.7003051756329843j), "
    "0.8256131621002049, 17)",
    "solve iterated_log r=5 psi=1\t'no_saddle(alpha=-, rho0=1995.26)'",
    "boundary_psi gamma_shift0 r=5 alpha=0.5\t0.5465228487487633",
    "weight product\t([[[(1.5+0.5j), (2-1j)]], [[(1.5+0.5j), (2-1j)], "
    "[(0.5+0j), (nan+0j)]]], None, 1995.26, 1.25, 0.5, 0.0, "
    "{'label': '(gamma(s))*(gamma(s))', 'passed': False, "
    "'conditions': [{'name': 'A', 'metric': 2.5, 'passed': True}]})",
]


def test_saddle_lines_move_and_raise(tmp_path):
    # the saddle lines carry no bar: a move is reported, not a finding
    moved = SADDLE[:2] + [SADDLE[2].replace("0.5465228487487633",
                                            "0.5465228587487633"),
                          SADDLE[3].replace("'metric': 2.5,",
                                            "'metric': 2.5000025,")]
    out = _compare(tmp_path, moved, SADDLE)
    assert out.returncode == 0, out.stdout + out.stderr
    assert "boundary_psi" in out.stdout and "1.83e-08" in out.stdout
    # nested payloads: the move is found inside the dict, NaN equals NaN
    assert re.search(r"^weight\s+1\s+0\s+1e-06$", out.stdout, re.M), out.stdout
    raised = [SADDLE[0].split("\t")[0] + "\tNoSaddleError: no bracket"] \
        + SADDLE[1:]
    out = _compare(tmp_path, raised, SADDLE)
    assert out.returncode == 1, out.stdout + out.stderr
    assert "raise/return: solve gamma_shift0" in out.stdout


CLI = [
    "cli gamma_shift0 eval-K --grid r=2..10,n=3\t(0, 'a62aa97ee8103b4b')",
    "cli iterated_log audit\t(0, '1281ad197ad71576')",
]


def test_cli_digest_counts_exit_code_fails(tmp_path):
    # a changed stdout digest is counted, not a finding
    moved = [CLI[0].replace("a62aa97ee8103b4b", "0000000000000000"), CLI[1]]
    out = _compare(tmp_path, moved, CLI)
    assert out.returncode == 0, out.stdout + out.stderr
    assert re.search(r"^cli\s+1\s+1\s", out.stdout, re.M), out.stdout
    # a changed exit code is
    failed = [CLI[0], CLI[1].replace("(0,", "(1,")]
    out = _compare(tmp_path, failed, CLI)
    assert out.returncode == 1, out.stdout + out.stderr
    assert "exit code: cli iterated_log audit: 0 -> 1" in out.stdout


REGION = [
    "classify gamma_shift0 r=10 psi=0\t('inside', 7.943282347242816)",
    "K_asymptotic gamma_shift0 r=10 psi=0\t"
    "((4.6901557462491754e-05+0j), 0.0, 'inside')",
    "K_asymptotic gamma_shift0 r=2 psi=0\tRegionError: decay asymptotics "
    "not applicable",
]


def test_region_lines_move_and_raise(tmp_path):
    # classify and K_asymptotic carry no bar: a moved value or a flipped
    # tag is counted, a refusal that turns into a value is a finding
    moved = [REGION[0], REGION[1].replace("4.6901557462491754e-05", "4.7e-05"),
             REGION[2]]
    out = _compare(tmp_path, moved, REGION)
    assert out.returncode == 0, out.stdout + out.stderr
    assert re.search(r"^K_asymptotic\s+1\s+1\s+0.00209$", out.stdout, re.M), \
        out.stdout
    assert re.search(r"^classify\s+0\s+1\s+0$", out.stdout, re.M), out.stdout
    flipped = [REGION[0].replace("'inside'", "'outside'"), REGION[1],
               REGION[2].split("\t")[0] + "\t((1+0j), 0.0, 'inside')"]
    out = _compare(tmp_path, flipped, REGION)
    assert out.returncode == 1, out.stdout + out.stderr
    assert "raise/return: K_asymptotic gamma_shift0 r=2" in out.stdout
    assert re.search(r"^classify\s+1\s+0\s+inf$", out.stdout, re.M), out.stdout


def test_dump_has_472_labelled_calls():
    # calls() builds the four weights and the thunks; no thunk runs here
    spec = importlib.util.spec_from_file_location("fingerprint", TOOL)
    fp = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fp)
    labels = [label for label, _ in fp.calls()]
    assert len(labels) == len(set(labels)) == 472
    kinds = Counter(label.split(" ", 1)[0] for label in labels)
    for kind in ("classify", "K_asymptotic", "local_gaussian_saddle",
                 "point_with_saddle_radius"):
        assert kinds[kind] == 36, kind
    # K and E together at three far points on each of the four weights
    assert kinds["asymptotics"] == 12
    # the 36 grid points and three points of the saddle stream
    assert kinds["solve"] == 39
    # the 36 grid points and two iterated_log points past a fold
    assert kinds["boundary_psi"] == 38
    # 9 one-point jets near the sector edge and 5 on arrays
    assert (kinds["weight"], kinds["jet"], kinds["cli"]) == (12, 14, 11)
    # moment n = 1..3 on each of the four weights
    assert kinds["moment"] == 12
    # the 36 grid points and six iterated_log points off the grid
    assert kinds["abel-plana"] == 42
