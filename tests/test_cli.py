import contextlib
import importlib
import importlib.util
import io
import json
import math
import os
import pkgutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import magcurves
from magcurves import cli
from magcurves import verify as verify_mod
from magcurves import (
    MagneticSetup,
    SpaceSignature,
    Trajectory,
    initial_tangent,
    integrate,
    random_params,
    residual,
)
from magcurves import sweep as sweep_mod
from magcurves.closed_form import RESIDUAL_TOL
from magcurves.dynamics import exact_flow
from magcurves.cli import main
from magcurves.io import read_trajectory, write_trajectory
from magcurves.sweep import SWEEP_COLUMNS, SweepSpec, run_sweep, write_sweep_csv
import golden
from conftest import SIG_GRID, slant_setup
from oracles import paper_equations


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------

def test_integrate_command(tmp_path, capsys):
    cfg = write_json(tmp_path / "run.json", {
        "n": 1, "s": 1, "q": 2.0, "cos_theta": 0.5, "t_end": 1.0, "step": 1e-3,
    })
    out = tmp_path / "traj.csv"
    code, stdout, _ = run_cli(capsys, "integrate", "--config", cfg, "--out", str(out))
    assert code == 0
    diag = json.loads(stdout)
    assert diag["speed_drift"] <= 1e-8
    assert diag["angle_drift"] <= 1e-8
    assert diag["lorentz_residual"] <= 1e-4
    traj = read_trajectory(out)
    assert len(traj) == diag["samples"] == 1001


def test_integrate_geodesic_straight_line(tmp_path, capsys):
    cfg = write_json(tmp_path / "run.json", {
        "n": 1, "s": 2, "q": 1.0, "cos_theta": 1.0 / math.sqrt(2.0),
        "t_end": 1.0, "step": 1e-3,
    })
    out = tmp_path / "geo.json"
    code, stdout, _ = run_cli(capsys, "integrate", "--config", cfg, "--out", str(out))
    assert code == 0
    traj = read_trajectory(out)
    assert np.abs(traj.points[:, :2]).max() == 0.0
    assert np.abs(traj.points[:, 2] - math.sqrt(2.0) * traj.times).max() < 1e-12


def test_integrate_invalid_step_exits_2(tmp_path, capsys):
    cfg = write_json(tmp_path / "run.json", {
        "n": 1, "s": 1, "q": 2.0, "cos_theta": 0.5, "t_end": 1.0, "step": 0.0,
    })
    code, _, stderr = run_cli(capsys, "integrate", "--config", cfg,
                              "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert "step" in stderr


@pytest.mark.parametrize("t_end,samples", [(0.001, 2), (0.003, 4), (0.004, 5)])
def test_integrate_refuses_too_few_samples_before_writing(tmp_path, capsys, t_end, samples):
    # the Lorentz residual's five-point difference needs 5 samples
    cfg = write_json(tmp_path / "run.json", {
        "n": 1, "s": 1, "q": 2.0, "cos_theta": 0.5, "t_end": t_end, "step": 0.001,
    })
    out = tmp_path / "x.csv"
    code, stdout, stderr = run_cli(capsys, "integrate", "--config", cfg, "--out", str(out))
    if samples < 5:
        assert code == 2 and stdout == "" and not out.exists()
        assert f"at least 5 recorded samples, got {samples}" in stderr
    else:
        assert code == 0 and json.loads(stdout)["samples"] == samples
        assert len(read_trajectory(out)) == samples


def test_integrate_divergence_exits_3(tmp_path, capsys):
    cfg = write_json(tmp_path / "run.json", {
        "n": 1, "s": 1, "q": 1e200, "cos_theta": 0.5, "t_end": 1.0, "step": 1e-3,
    })
    code, _, stderr = run_cli(capsys, "integrate", "--config", cfg,
                              "--out", str(tmp_path / "x.csv"))
    assert code == 3
    assert "last valid time" in stderr


def test_divergence_message_states_last_valid_time_once(tmp_path, capsys):
    cfg = write_json(tmp_path / "run.json", {
        "n": 1, "s": 1, "q": 1e6, "cos_theta": 0.5, "t_end": 1.0, "step": 1e-3,
    })
    code, _, stderr = run_cli(capsys, "integrate", "--config", cfg,
                              "--out", str(tmp_path / "x.csv"))
    assert code == 3
    assert stderr.count("last valid time") == 1


def run_python(*argv):
    """``python argv`` in a fresh interpreter that imports this magcurves,
    warnings shown."""
    src = str(Path(magcurves.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-W", "default", *argv],
                          env=env, capture_output=True, text=True, timeout=300)


def run_module(*argv):
    """``python -m magcurves argv`` in a fresh interpreter, warnings shown."""
    return run_python("-m", "magcurves", *argv)


def test_python_dash_m_runs_the_cli():
    done = run_module("verify", "--seed", "0", "--samples", "20", "--points", "9",
                      "--cases", "1")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["passed"] is True


_NO_MASKED_ARRAYS = """
import sys
import numpy as np
from magcurves import (SpaceSignature, classify_trajectory, cli, exact_flow, frenet_apparatus,
                       random_params, verify)
from magcurves.io import write_trajectory
from magcurves.sweep import SweepSpec, run_sweep

run_sweep(SweepSpec(q_values=(2.0, -1.5), cos_theta_values=(0.0, 0.3), n_values=(1, 2),
                    t_end=0.5, step=1e-2))
traj = exact_flow(random_params(SpaceSignature(1, 2), 1.5, 0.3, seed=0).setup(),
                  np.arange(401) * 1e-2)
classify_trajectory(traj, frenet_apparatus(traj))
verify.run_all(samples=2, points=9, cases=1)
write_trajectory(traj, sys.argv[1])
assert cli.main(["classify", "--traj", sys.argv[1]]) == 0
print("numpy.ma" in sys.modules)
"""


def test_sweep_verify_and_classify_leave_numpy_ma_unimported(tmp_path):
    # np.median's NaN check imports numpy.ma on its first call
    done = run_python("-c", _NO_MASKED_ARRAYS, str(tmp_path / "curve.csv"))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


def test_integrate_theta_in_radians(tmp_path, capsys):
    cfg = write_json(tmp_path / "run.json", {
        "n": 1, "s": 1, "q": 2.0, "theta": math.pi / 3.0, "t_end": 0.5, "step": 1e-3,
    })
    out = tmp_path / "t.csv"
    code, stdout, _ = run_cli(capsys, "integrate", "--config", cfg, "--out", str(out))
    assert code == 0
    traj = read_trajectory(out)
    etas = traj.etas()
    assert abs(etas[0, 0] - 0.5) < 1e-12


def test_conflicting_angle_keys_rejected(tmp_path, capsys):
    cfg = write_json(tmp_path / "run.json", {
        "n": 1, "s": 1, "q": 2.0, "cos_theta": 0.5, "theta": 1.0,
        "t_end": 1.0, "step": 1e-3,
    })
    code, _, stderr = run_cli(capsys, "integrate", "--config", cfg,
                              "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert "exactly one" in stderr


@pytest.mark.parametrize("command", ["integrate", "classify"])
def test_overflowing_cosine_exits_2_without_warning(tmp_path, capsys, command):
    # cos^2 overflows to inf, which check_angles rejects like any sum above 1
    cfg = write_json(tmp_path / "run.json", {
        "n": 1, "s": 1, "q": 1.0, "cos_theta": 1e200, "t_end": 1.0, "step": 1e-3,
    })
    argv = [command, "--config", cfg]
    if command == "integrate":
        argv += ["--out", str(tmp_path / "x.csv")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, stderr = run_cli(capsys, *argv)
    assert code == 2
    assert stdout == ""
    assert stderr.count("\n") == 1
    assert "angles are not realizable" in stderr


# ---------------------------------------------------------------------------
# closed-form
# ---------------------------------------------------------------------------

def test_closed_form_canonical_case_a(tmp_path, capsys):
    cfg = write_json(tmp_path / "cf.json", {
        "n": 1, "s": 1, "case": "a", "q": 2.0, "cos_theta": 0.5,
        "c": [math.sqrt(3.0)], "t_end": 2.0,
    })
    out = tmp_path / "cf.csv"
    code, stdout, _ = run_cli(capsys, "closed-form", "--config", cfg, "--out", str(out))
    assert code == 0
    diag = json.loads(stdout)
    assert diag["lorentz_residual"] <= 1e-12
    traj = read_trajectory(out)
    assert np.abs(traj.points[0] - np.array([0.0, -math.sqrt(3.0), 0.0])).max() < 1e-12


def test_closed_form_case_b_reports_strength(tmp_path, capsys):
    cfg = write_json(tmp_path / "cf.json", {
        "n": 1, "s": 1, "case": "b", "cos_theta": 0.5,
        "c": [math.sqrt(3.0), 0.0], "t_end": 1.0,
    })
    code, stdout, _ = run_cli(capsys, "closed-form", "--config", cfg,
                              "--out", str(tmp_path / "b.csv"))
    assert code == 0
    assert json.loads(stdout)["q"] == 1.0  # 2 s cos(theta)


def test_closed_form_bad_amplitudes_exit_2(tmp_path, capsys):
    cfg = write_json(tmp_path / "cf.json", {
        "n": 1, "s": 1, "case": "a", "q": 2.0, "cos_theta": 0.5, "c": [1.0],
    })
    code, _, stderr = run_cli(capsys, "closed-form", "--config", cfg,
                              "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert "4(1 - s cos^2 theta)" in stderr  # constraint echoed


def test_closed_form_overflowing_amplitudes_exit_2_without_warning(tmp_path):
    # c^2 overflows to inf, which the amplitude constraint rejects
    cfg = write_json(tmp_path / "cf.json", {
        "n": 1, "s": 1, "case": "a", "q": 2.0, "cos_theta": 0.5, "c": [1e200],
    })
    done = run_module("closed-form", "--config", cfg, "--out", str(tmp_path / "x.csv"))
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("invalid configuration: ")
    assert done.stderr.count("\n") == 1
    assert "Warning" not in done.stderr and "Traceback" not in done.stderr


def test_closed_form_default_amplitudes(tmp_path, capsys):
    cfg = write_json(tmp_path / "cf.json", {
        "n": 2, "s": 1, "q": 2.0, "cos_theta": 0.5, "t_end": 1.0,
    })
    code, stdout, _ = run_cli(capsys, "closed-form", "--config", cfg,
                              "--out", str(tmp_path / "d.csv"))
    assert code == 0
    assert json.loads(stdout)["case"] == "a"


def test_closed_form_configs_that_pass_the_paper_equations_exit_0(tmp_path, capsys):
    # closed-form used to sample the paper's equations, and exited 0 when
    # their Lorentz residual was at most 1e-10.  Every such config, here case
    # a at both signs of lambda and at lambda = +-0.01, and case b, for each
    # (n, s), still exits 0
    times = np.arange(2001) * 1e-3
    for n, s in SIG_GRID:
        sig = SpaceSignature(n, s)
        ct = 0.3 / math.sqrt(s)
        for k, lam in enumerate((-1.2, 0.8, -1e-2, 1e-2, 0.0)):
            params = random_params(sig, -lam + 2 * s * ct, ct, seed=[n, s, k])
            assert residual(paper_equations(params, times), params.q) <= 1e-10
            doc = dict(params.as_dict(), t_end=2.0, step=1e-3)
            cfg = write_json(tmp_path / "cf.json", doc)
            code, stdout, stderr = run_cli(capsys, "closed-form", "--config", cfg,
                                           "--out", str(tmp_path / "cf.csv"))
            assert code == 0, (doc, stdout, stderr)


def test_closed_form_exit_code_holds_the_residual_bound(tmp_path, capsys, monkeypatch):
    # one bound, closed_form.RESIDUAL_TOL, for the exit code and for verify's check
    cfg = write_json(tmp_path / "cf.json", {"n": 1, "s": 1, "q": 2.0, "cos_theta": 0.5,
                                            "t_end": 0.01})
    for factor, want in ((1 + 1e-3, 1), (1 - 1e-3, 0)):
        monkeypatch.setattr(cli, "residual", lambda traj, q: RESIDUAL_TOL * factor)
        code, stdout, _ = run_cli(capsys, "closed-form", "--config", cfg,
                                  "--out", str(tmp_path / "cf.csv"))
        assert (code, json.loads(stdout)["lorentz_residual"]) == (want, RESIDUAL_TOL * factor)
    tols = [r.tol for r in verify_mod.curve_suite(0) if r.name == "closed_form_residual"]
    assert tols == [RESIDUAL_TOL]


@pytest.mark.parametrize("doc", [
    dict(random_params(SpaceSignature(1, 1), 0.6 + 1e-6, 0.3, seed=0).as_dict(), t_end=1.0),
    {"n": 1, "s": 1, "case": "a", "q": 2.0, "cos_theta": 0.3, "d": [1e5], "t_end": 1.0},
    {"n": 1, "s": 1, "case": "a", "q": 2.0, "cos_theta": 0.3, "b": [1e5], "d": [1e5],
     "t_end": 1.0},
])
def test_closed_form_ill_conditioned_case_a_exit_2(tmp_path, capsys, doc):
    # lambda near 0 or a large d puts T0 off unit speed by more than 1e-12 of
    # rounding; the run stops before it writes anything
    cfg = write_json(tmp_path / "cf.json", doc)
    out = tmp_path / "cf.csv"
    code, stdout, stderr = run_cli(capsys, "closed-form", "--config", cfg, "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("invalid configuration: T0 must be unit speed")
    assert stderr.count("\n") == 1
    assert not out.exists()


# ---------------------------------------------------------------------------
# classify / invert
# ---------------------------------------------------------------------------

def test_classify_triple(tmp_path, capsys):
    cfg = write_json(tmp_path / "c.json", {"q": 3.0, "s": 2, "cos_theta": 1.0 / 3.0})
    code, stdout, _ = run_cli(capsys, "classify", "--config", cfg)
    assert code == 0
    doc = json.loads(stdout)
    assert doc["class"] == "slant_circle"
    assert doc["kappa1"] == pytest.approx(math.sqrt(7.0), abs=1e-12)


def test_classify_nonslant_triple(tmp_path, capsys):
    cfg = write_json(tmp_path / "c.json", {"q": 1.0, "s": 2, "cosines": [0.5, 0.0]})
    code, stdout, _ = run_cli(capsys, "classify", "--config", cfg)
    assert code == 0
    doc = json.loads(stdout)
    assert doc["class"] == "general_magnetic"
    assert doc["kappa2"] == pytest.approx(1.0, abs=1e-12)


def test_classify_trajectory_file(tmp_path, capsys):
    cfg = write_json(tmp_path / "run.json", {
        "n": 1, "s": 2, "q": 1.5, "cos_theta": 0.0, "t_end": 2.0, "step": 1e-3,
    })
    out = tmp_path / "leg.csv"
    code, _, _ = run_cli(capsys, "integrate", "--config", cfg, "--out", str(out))
    assert code == 0
    code, stdout, _ = run_cli(capsys, "classify", "--traj", str(out))
    assert code == 0
    doc = json.loads(stdout)
    assert doc["class"] == "legendre_helix"
    assert doc["measured"]["kappa2"] == pytest.approx(math.sqrt(2.0), abs=1e-3)


def _csv_row(text: str, k: int, edit) -> str:
    """The CSV text with its line k (0 is the header) replaced by edit(line)."""
    lines = text.split("\r\n")
    lines[k] = edit(lines[k])
    return "\r\n".join(lines)


def _json_with(text: str, **changes) -> str:
    doc = json.loads(text)
    doc.update(changes)
    return json.dumps(doc)


def _x_1(text: str, edit) -> str:
    """The JSON text with its column x_1 replaced by edit(column)."""
    return _json_with(text, x_1=edit(json.loads(text)["x_1"]))


# case: (suffix, part of the error message, the bad text from the good text t)
MALFORMED_TRAJECTORY_FILES = {
    "empty csv": ("csv", "is empty", lambda t: ""),
    "header-only csv": ("csv", "no data rows", lambda t: t.split("\r\n")[0] + "\r\n"),
    "ragged csv row": ("csv", "number of columns changed",
                       lambda t: _csv_row(t, 3, lambda line: line + ",1.0")),
    "short csv rows": ("csv", "cells per row",
                       lambda t: "\r\n".join([line if k == 0 else line.rsplit(",", 1)[0]
                                              for k, line in enumerate(t.split("\r\n"))])),
    "non-numeric csv cell": ("csv", "could not convert string 'zero'",
                             lambda t: _csv_row(t, 2, lambda ln: "zero" + ln[ln.index(","):])),
    "blank csv body line": ("csv", "blank line at line 4",
                            lambda t: _csv_row(t, 3, lambda line: "")),
    "blank csv first line": ("csv", "blank line at line 2",
                             lambda t: _csv_row(t, 1, lambda line: "")),
    "blank csv last line": ("csv", "blank line at line", lambda t: t + "\r\n"),
    "nan csv time": ("csv", "times must be finite",
                     lambda t: _csv_row(t, 5, lambda ln: "nan" + ln[ln.index(","):])),
    "json n null": ("json", "n must be an integer, got None", lambda t: _json_with(t, n=None)),
    "json n string": ("json", "n must be an integer, got '1'", lambda t: _json_with(t, n="1")),
    "json n float": ("json", "n must be an integer, got 1.5", lambda t: _json_with(t, n=1.5)),
    "json n true": ("json", "n must be an integer, got True", lambda t: _json_with(t, n=True)),
    "json s float": ("json", "s must be an integer, got 1.0", lambda t: _json_with(t, s=1.0)),
    "json n huge": ("json", "lacks columns", lambda t: _json_with(t, n=10 ** 12)),
    "json n missing": ("json", "n must be an integer, got None",
                       lambda t: json.dumps({k: v for k, v in json.loads(t).items() if k != "n"})),
    "json q string": ("json", "q must be a real number", lambda t: _json_with(t, q="2")),
    "json q true": ("json", "q must be a real number", lambda t: _json_with(t, q=True)),
    "json q list": ("json", "q must be a real number", lambda t: _json_with(t, q=[2.0])),
    "json column scalar": ("json", "'x_1' must be a list", lambda t: _x_1(t, lambda c: 0.0)),
    "json column strings": ("json", "'x_1' must be a list",
                            lambda t: _x_1(t, lambda c: [str(v) for v in c])),
    "json column null": ("json", "'x_1' must be a list",
                         lambda t: _x_1(t, lambda c: [None] + c[1:])),
    "json column bool": ("json", "'x_1' must be a list",
                         lambda t: _x_1(t, lambda c: [True] + c[1:])),
    "json column ragged": ("json", "inhomogeneous", lambda t: _x_1(t, lambda c: c[1:])),
    "json column huge int": ("json", "too large",
                             lambda t: _x_1(t, lambda c: [10 ** 400] + c[1:])),
    "json not an object": ("json", "must hold a JSON object", lambda t: "[1, 2]"),
    # a non-finite point or velocity cell reads, but is no sample to classify
    **{f"nan csv {name}": ("csv", "sample 4 (t = 0.004) has a non-finite point or velocity",
                           lambda t, col=col: _csv_row(t, 5, lambda ln: ",".join(
                               "nan" if j == col else cell
                               for j, cell in enumerate(ln.split(",")))))
       for col, name in enumerate(("x_1", "y_1", "z_1", "vx_1", "vy_1", "vz_1"), 1)},
    "inf json vy_1": ("json", "sample 4 (t = 0.004) has a non-finite point or velocity",
                      lambda t: _json_with(t, vy_1=[math.inf if k == 4 else v for k, v
                                                    in enumerate(json.loads(t)["vy_1"])])),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_TRAJECTORY_FILES))
def test_malformed_trajectory_files_exit_2(tmp_path, capsys, circle_traj, case):
    suffix, message, corrupt = MALFORMED_TRAJECTORY_FILES[case]
    good = tmp_path / f"good.{suffix}"
    write_trajectory(circle_traj, good)
    code, _, _ = run_cli(capsys, "classify", "--traj", str(good))
    assert code == 0  # the valid file reads: only the corruption fails
    bad = tmp_path / f"bad.{suffix}"
    bad.write_text(corrupt(good.read_bytes().decode()), newline="")
    code, stdout, err = run_cli(capsys, "classify", "--traj", str(bad))
    assert code == 2, err
    assert stdout == ""
    assert err.startswith("invalid configuration: ") and "Traceback" not in err
    assert message in err


@pytest.mark.parametrize("suffix", ["csv", "json"])
@pytest.mark.parametrize("cos_theta, scale, message", [
    (0.3, 1e150, "measured q is not finite: got inf"),
    (1.0, 1e160, "measured speed_deviation is not finite: got inf"),  # a Reeb-direction flow
], ids=["fit", "speed"])
def test_classify_traj_refuses_measurements_that_overflow(tmp_path, capsys, suffix, cos_theta,
                                                          scale, message):
    # a finite file whose velocities overflow the Lorentz terms or the speed:
    # classify exits 2 before it prints, where it printed Infinity or NaN
    # (Tier-1 turns a leaked RuntimeWarning into an error)
    flow = exact_flow(slant_setup(1, 1, 2.0, cos_theta), 1e-3 * np.arange(2001))
    path = tmp_path / f"huge.{suffix}"
    with warnings.catch_warnings():  # the writer's speed column overflows at 1e160
        warnings.simplefilter("ignore", RuntimeWarning)
        write_trajectory(Trajectory(flow.sig, flow.times, flow.points, scale * flow.velocities,
                                    q=flow.q), path)
    code, stdout, stderr = run_cli(capsys, "classify", "--traj", str(path))
    assert (code, stdout) == (2, "")
    assert stderr == f"invalid configuration: {message}\n"


# finite configs whose curvature formula overflows: kappa1 = sqrt(q^2 - s)
# of a circle
OVERFLOW_CASES = [
    ({"q": 1e200, "cos_theta": 1e-201, "s": 1}, "kappa1 must be finite, got inf for q = 1e+200"),
    ({"q": -1e300, "cos_theta": -1e-300, "s": 2},
     "kappa1 must be finite, got inf for q = -1e+300"),
]


@pytest.mark.parametrize("doc,message", OVERFLOW_CASES)
def test_classify_config_overflow_exits_2(tmp_path, capsys, doc, message):
    cfg = write_json(tmp_path / "c.json", doc)
    code, stdout, stderr = run_cli(capsys, "classify", "--config", cfg)
    assert (code, stdout) == (2, "")
    assert stderr == f"invalid configuration: {message}\n"


@pytest.mark.parametrize("q,cosines", [(1e200, [0.1, 0.2]), (-1e300, [0.3, -0.1]),
                                       (1e308, [0.6, 0.7])], ids=["1e200", "-1e300", "1e308"])
def test_classify_config_kappa2_where_q_squared_overflows(tmp_path, capsys, q, cosines):
    # kappa2^2 = A q^2 - 2 B q + ... of a non-slant curve overflows (to inf,
    # or inf - inf = NaN), though kappa2 ~ sqrt(A) |q| is finite
    cfg = write_json(tmp_path / "c.json", {"q": q, "cosines": cosines, "s": 2})
    code, stdout, _ = run_cli(capsys, "classify", "--config", cfg)
    assert code == 0
    a_sum = cosines[0] ** 2 + cosines[1] ** 2
    assert json.loads(stdout)["kappa2"] == pytest.approx(abs(q) * math.sqrt(a_sum), rel=1e-15)


def test_classify_config_circle_keeps_its_formula_up_to_overflow(tmp_path, capsys):
    cfg = write_json(tmp_path / "c.json", {"q": 1e154, "cos_theta": 1e-154, "s": 1})
    code, stdout, _ = run_cli(capsys, "classify", "--config", cfg)
    doc = json.loads(stdout)
    assert (code, doc["class"]) == (0, "slant_circle")
    assert doc["kappa1"] == math.sqrt(1e154 * 1e154 - 1)


@pytest.mark.parametrize("s", [0, -1])
def test_classify_config_takes_s_as_a_positive_integer(tmp_path, capsys, s):
    cfg = write_json(tmp_path / "c.json", {"q": 1.0, "s": s, "cos_theta": 0.2})
    code, stdout, stderr = run_cli(capsys, "classify", "--config", cfg)
    assert (code, stdout) == (2, "")
    assert stderr == f"invalid configuration: s must be a positive integer, got {s}\n"


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
def test_classify_rejects_bad_tolerance_before_reading(tmp_path, capsys, tol):
    # the file does not exist: the tolerance is refused before it is read
    missing = tmp_path / "missing.csv"
    code, stdout, stderr = run_cli(capsys, "classify", "--traj", str(missing), f"--tol={tol}")
    assert (code, stdout) == (2, "")
    want = f"--tol must be finite and positive, got {float(tol)!r}"
    assert stderr == f"invalid configuration: {want}\n"


def test_classify_requires_one_input(capsys):
    code, _, stderr = run_cli(capsys, "classify")
    assert code == 2
    assert "exactly one" in stderr


def test_invert_command(capsys):
    code, stdout, _ = run_cli(capsys, "invert", "--kappa1", "2", "--kappa2", "1",
                              "--s", "1", "--case", "ii")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["q_candidates"] == [2.0, -2.0]
    code, _, stderr = run_cli(capsys, "invert", "--kappa1", "1", "--kappa2", "0.4",
                              "--s", "1", "--case", "iii")
    assert code == 2  # kappa2 != 0 under the circle case


@pytest.mark.parametrize("argv, message", [
    (["--kappa1", "1", "--s", "0", "--case", "iii"], "s must be a positive integer, got 0"),
    (["--kappa1", "1", "--s", "-2", "--case", "iii"], "s must be a positive integer, got -2"),
    (["--kappa1", "1", "--kappa2", "nan", "--s", "1", "--case", "iv"],
     "kappa2 must be finite, got nan"),
    (["--kappa1", "inf", "--s", "1", "--case", "iii"], "kappa1 must be finite, got inf"),
    (["--kappa1", "1", "--kappa2", "inf", "--s", "1", "--case", "iv"],
     "kappa2 must be finite, got inf"),
    # finite curvatures whose strength overflows
    (["--kappa1", "1e200", "--s", "1", "--case", "iii"],
     "inverse strengths must be finite and nonzero, got (inf,)"),
    (["--kappa1", "1", "--kappa2", "1e308", "--s", "1", "--case", "iv"],
     "inverse strengths must be finite and nonzero, got (inf,)"),
])
def test_invert_rejects_bad_numbers(capsys, argv, message):
    code, stdout, stderr = run_cli(capsys, "invert", *argv)
    assert (code, stdout) == (2, "")
    assert stderr == f"invalid configuration: {message}\n"


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_passes_and_is_deterministic(tmp_path, capsys):
    args = ["verify", "--seed", "7", "--samples", "50", "--points", "18", "--cases", "2"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2  # identical report bytes for a fixed seed
    report = json.loads(out1)
    assert report["passed"] is True


def test_verify_negative_control(capsys):
    code, stdout, _ = run_cli(capsys, "verify", "--seed", "7", "--samples", "20",
                              "--points", "9", "--cases", "1",
                              "--inject-metric-perturbation", "0.05")
    assert code == 1
    report = json.loads(stdout)
    failed = [c for c in report["checks"] if not c["passed"]]
    assert any(c["suite"] == "structure" for c in failed)


@pytest.mark.parametrize("argv, message", [
    (["--seed", "-1"], "--seed must be at least 0, got -1"),
    (["--samples", "0"], "--samples must be at least 1, got 0"),
    (["--points", "0"], "--points must be at least 1, got 0"),
    (["--points", "-3"], "--points must be at least 1, got -3"),
    (["--cases", "-1"], "--cases must be at least 0, got -1"),
    (["--inject-metric-perturbation", "nan"],
     "--inject-metric-perturbation must be finite, got nan"),
    (["--inject-metric-perturbation=-inf"],
     "--inject-metric-perturbation must be finite, got -inf"),
])
def test_verify_rejects_bad_flags(tmp_path, capsys, argv, message):
    out = tmp_path / "report.json"
    code, stdout, stderr = run_cli(capsys, "verify", "--out", str(out), *argv)
    assert (code, stdout) == (2, "")
    assert stderr == f"invalid configuration: {message}\n"
    assert not out.exists()


def test_verify_prints_a_nan_error_as_null(tmp_path, capsys, monkeypatch):
    # a fault that makes a check's error NaN must not make the report
    # unreadable to a strict JSON parser; the check still fails
    real = verify_mod.structure_suite
    monkeypatch.setattr(verify_mod, "structure_suite",
                        lambda seed, samples, perturbation: real(seed, samples, math.nan))
    out = tmp_path / "report.json"
    code, stdout, _ = run_cli(capsys, "verify", "--samples", "20", "--points", "9",
                              "--cases", "0", "--out", str(out))
    assert code == 1
    assert out.read_text() == stdout

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    report = json.loads(stdout, parse_constant=reject)
    compat = next(c for c in report["checks"] if c["name"] == "phi_metric_compat")
    assert compat["max_err"] is None and compat["passed"] is False
    assert report["passed"] is False


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

SWEEP_DOC = {
    "q_values": [2.0, 3.0, -2.5],
    "cos_theta_values": [0.5, 0.0, 1.0 / math.sqrt(2.0)],
    "n_values": [1, 2],
    "s_values": [1, 2],
    "t_end": 1.0,
    "step": 1e-3,
    "seed": 3,
}


def test_sweep_grid(tmp_path, capsys):
    cfg = write_json(tmp_path / "sweep.json", SWEEP_DOC)
    out = tmp_path / "sweep.csv"
    code, stdout, _ = run_cli(capsys, "sweep", "--config", cfg, "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 1 + 36  # 3 q x 3 cos x 2 n x 2 s
    assert json.loads(stdout)["cells_out_of_tol"] == 0

    # geodesic cells (cos theta = 1/sqrt(2) at s = 2) carry vanishing curvature
    rows = [dict(zip(SWEEP_COLUMNS, ln.split(","))) for ln in lines[1:]]
    geo = [r for r in rows
           if float(r["s"]) == 2
           and abs(float(r["cos_theta"]) - 1.0 / math.sqrt(2.0)) < 1e-12]
    assert geo and all(float(r["kappa1_meas"]) <= 1e-6 for r in geo)


def test_sweep_deterministic_bytes(tmp_path, capsys):
    spec_doc = dict(SWEEP_DOC, q_values=[2.0], cos_theta_values=[0.5, 0.0],
                    n_values=[1], s_values=[1])
    cfg = write_json(tmp_path / "sweep.json", spec_doc)
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert run_cli(capsys, "sweep", "--config", cfg, "--out", str(out1))[0] == 0
    assert run_cli(capsys, "sweep", "--config", cfg, "--out", str(out2))[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_rows_match_per_cell_exact_flow(tmp_path):
    # n = 5 cells next to n = 16 cells: each cell is sampled on its own, so no
    # cell's bits depend on the widths of the others
    spec = SweepSpec(q_values=(2.5, -1.5), cos_theta_values=(0.3,), n_values=(5, 16),
                     s_values=(1, 2), t_end=0.5, step=1e-3, seed=1)
    rows = run_sweep(spec)
    exact, rk4 = [], []
    for i, (n, s, q, ct) in enumerate(spec.cells()):
        rng = np.random.default_rng([spec.seed, i])
        sig = SpaceSignature(n, s)
        p0 = np.zeros(sig.dim)
        setup = MagneticSetup(sig, q, p0, initial_tangent(sig, p0, [ct] * s, rng.normal(size=2 * n)))
        exact.append(sweep_mod._cell_row(n, s, q, ct, exact_flow(setup, spec.integrator.times)))
        rk4.append(sweep_mod._cell_row(n, s, q, ct, integrate(setup, spec.integrator)))
    # row order and values identical (bytes compare nan-safely)
    p1, p2 = tmp_path / "sweep.csv", tmp_path / "reference.csv"
    write_sweep_csv(rows, p1)
    write_sweep_csv(exact, p2)
    assert p1.read_bytes() == p2.read_bytes()
    # the independent RK4 path measures the same curvatures
    for row, ref in zip(rows, rk4):
        for key in ("kappa1_meas", "kappa2_meas"):
            assert abs(row[key] - ref[key]) <= 1e-9, (row, key)


def test_sweep_divergence_reports_first_cell_in_grid_order(tmp_path, capsys):
    # lambda = w = 2 s cos(theta) - q vanishes in cells 2 (q = 1, cos 0.5) and
    # 5 (q = 0.5, cos 0.25): their x and y grow linearly, so x . y in z
    # overflows at the first sample t = 1e199.  The other cells stay bounded
    # in x and y and finite.  The sweep names cell 2.
    doc = {"q_values": [2.0, 1.0, 0.5], "cos_theta_values": [0.5, 0.25],
           "t_end": 1e200, "step": 1e199, "seed": 4}
    code, _, stderr = run_cli(capsys, "sweep", "--config",
                              write_json(tmp_path / "sweep.json", doc),
                              "--out", str(tmp_path / "x.csv"))
    assert code == 3
    assert "sweep cell 2 (n = 1, s = 1, q = 1.0, cos_theta = 0.5)" in stderr
    assert "nonfinite sample at t = 1e+199; last valid time 0" in stderr
    assert "Traceback" not in stderr
    assert not (tmp_path / "x.csv").exists()


def test_sweep_out_of_tolerance_exits_1(tmp_path, capsys):
    # q = 50 at step 0.05 turns the velocity by |w| h = 2.5 rad per sample:
    # the samples are exact, but the five-point differences behind the
    # measured curvatures cannot resolve them, so they miss the prediction
    cfg = write_json(tmp_path / "sweep.json", {
        "q_values": [50.0], "cos_theta_values": [0.0], "step": 0.05,
    })
    code, stdout, _ = run_cli(capsys, "sweep", "--config", cfg,
                              "--out", str(tmp_path / "x.csv"))
    assert code == 1
    assert json.loads(stdout)["cells_out_of_tol"] == 1


def test_sweep_in_tolerance_edges():
    tol = 1e-3
    row = {"kappa1_pred": 0.0, "kappa2_pred": 0.0, "kappa1_meas": 0.0, "kappa2_meas": 0.0}
    assert sweep_mod.in_tolerance(row, tol)
    # kappa2 unmeasured passes, kappa1 unmeasured fails
    assert sweep_mod.in_tolerance({**row, "kappa2_meas": math.nan}, tol)
    assert not sweep_mod.in_tolerance({**row, "kappa1_meas": math.nan}, tol)
    # a difference of exactly tol passes, one ulp more fails
    for key in ("kappa1_meas", "kappa2_meas"):
        assert sweep_mod.in_tolerance({**row, key: tol}, tol)
        assert not sweep_mod.in_tolerance({**row, key: math.nextafter(tol, 1.0)}, tol)


NONFINITE_CASES = [
    ("integrate", {"t_end": math.inf}, "t_end must be finite"),
    ("integrate", {"step": math.nan}, "step must be finite"),
    ("integrate", {"q": math.nan}, "q must be finite"),
    ("sweep", {"q_values": [2.0, math.nan]}, "q_values must be finite"),
    ("sweep", {"cos_theta_values": [math.nan]}, "cos_theta_values must be finite"),
    ("sweep", {"tol": math.nan}, "tol must be finite"),
    ("sweep", {"t_end": math.inf}, "t_end must be finite"),
    ("sweep", {"step": math.inf}, "step must be finite"),
    ("sweep", {"tol": math.inf}, "tol must be finite, got inf"),
    ("sweep", {"tol": -1}, "tol must be finite and positive, got -1.0"),
    ("sweep", {"tol": 0}, "tol must be finite and positive, got 0.0"),
    ("integrate", {"p0": [0.0, math.nan, 0.0]}, "p0 must be finite"),
    ("integrate", {"direction": [math.inf, 0.0]}, "direction must be finite"),
]


@pytest.mark.parametrize("command,override,message", NONFINITE_CASES)
def test_nonfinite_config_exits_2(tmp_path, capsys, command, override, message):
    if command == "integrate":
        base = {"n": 1, "s": 1, "q": 2.0, "cos_theta": 0.5, "t_end": 1.0, "step": 1e-3}
    else:
        base = {"q_values": [2.0], "cos_theta_values": [0.5], "t_end": 1.0, "step": 1e-3}
    cfg = write_json(tmp_path / "cfg.json", {**base, **override})
    code, _, stderr = run_cli(capsys, command, "--config", cfg,
                              "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert message in stderr
    assert not (tmp_path / "x.csv").exists()


BAD_GRID_CASES = [
    ({"q_values": ["2"]}, "q_values entries must be real numbers"),
    ({"q_values": 2.0}, "q_values must be a list"),
    ({"q_values": [True]}, "q_values entries must be real numbers"),
    ({"q_values": [None]}, "q_values entries must be real numbers"),
    ({"n_values": [0]}, "n must be a positive integer, got 0"),
]


@pytest.mark.parametrize("override,message", BAD_GRID_CASES)
def test_sweep_bad_grid_entries_exit_2(tmp_path, capsys, override, message):
    base = {"q_values": [2.0], "cos_theta_values": [0.5], "t_end": 1.0, "step": 1e-3}
    cfg = write_json(tmp_path / "cfg.json", {**base, **override})
    code, _, stderr = run_cli(capsys, "sweep", "--config", cfg,
                              "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert message in stderr
    assert not (tmp_path / "x.csv").exists()


def test_sweep_inadmissible_cell_exit_2(tmp_path, capsys):
    cfg = write_json(tmp_path / "sweep.json", {
        "q_values": [2.0], "cos_theta_values": [0.9], "s_values": [2],
    })
    code, stdout, stderr = run_cli(capsys, "sweep", "--config", cfg,
                                   "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert stdout == ""
    assert stderr == ("invalid configuration: inadmissible cell s = 2, cos_theta = 0.9: "
                      "sum of squared cosines exceeds 1 by 0.62 (slack 1e-12); "
                      "angles are not realizable\n")


# geodesic cells where cos(theta) = 1/sqrt(s) for s = 2 are exercised in
# test_sweep_grid via the s = 2 rows with cos_theta = 1/sqrt(2)
def test_sweep_geodesic_cells_flagged(tmp_path, capsys):
    cfg = write_json(tmp_path / "sweep.json", dict(
        SWEEP_DOC, q_values=[2.0], cos_theta_values=[1.0 / math.sqrt(2.0)],
        n_values=[1], s_values=[2]))
    out = tmp_path / "geo.csv"
    code, _, _ = run_cli(capsys, "sweep", "--config", cfg, "--out", str(out))
    assert code == 0
    row = dict(zip(SWEEP_COLUMNS, out.read_text().splitlines()[1].split(",")))
    assert float(row["kappa1_pred"]) == 0.0
    assert float(row["kappa1_meas"]) <= 1e-6


# ---------------------------------------------------------------------------
# the config contract: typed fields, documented exit codes
# ---------------------------------------------------------------------------

# one small valid config per command, holding every key the command reads
VALID_CONFIGS = {
    "integrate": {"n": 1, "s": 2, "q": 2.0, "cos_theta": 0.5, "t_end": 0.01, "step": 1e-3,
                  "record_every": 1, "p0": [0.0, 0.0, 0.0, 0.0], "direction": [1.0, 0.0]},
    "closed-form": {"n": 1, "s": 1, "case": "a", "q": 2.0, "cos_theta": 0.5,
                    "a": [0.0], "b": [0.0], "c": [math.sqrt(3.0)], "d": [0.0], "h": [0.0],
                    "t_end": 0.01, "step": 1e-3},
    "classify": {"q": 2.0, "s": 2, "cos_theta": 0.5},
    "sweep": {"q_values": [2.0], "cos_theta_values": [0.5], "n_values": [1], "s_values": [1],
              "tol": 1e-3, "seed": 0, "t_end": 0.01, "step": 1e-3, "record_every": 1},
}


def _cli_argv(command, cfg, out):
    argv = [command, "--config", str(cfg)]
    return argv if command == "classify" else argv + ["--out", str(out)]


BAD_TYPE_CASES = [
    ("integrate", "q", None), ("integrate", "q", [2.0]), ("integrate", "cos_theta", [0.3]),
    ("integrate", "t_end", None), ("integrate", "step", [1]), ("integrate", "n", None),
    ("integrate", "s", [1]), ("integrate", "record_every", None),
    ("integrate", "n", 1.5), ("integrate", "n", "1"), ("integrate", "n", True),
    ("integrate", "q", "2"), ("integrate", "record_every", 2.7),
    ("sweep", "seed", None), ("sweep", "seed", [1]), ("sweep", "t_end", None),
    ("sweep", "tol", None), ("sweep", "step", [0.001]),
    ("sweep", "seed", 1.5), ("sweep", "seed", True), ("sweep", "t_end", "0.01"),
    ("closed-form", "q", [2.0]), ("closed-form", "t_end", [1]),
    ("classify", "q", None), ("classify", "s", None), ("classify", "s", 1.7),
]


@pytest.mark.parametrize("command,key,value", BAD_TYPE_CASES)
def test_malformed_config_types_exit_2(tmp_path, capsys, command, key, value):
    cfg = write_json(tmp_path / "cfg.json", {**VALID_CONFIGS[command], key: value})
    code, _, stderr = run_cli(capsys, *_cli_argv(command, cfg, tmp_path / "x.csv"))
    assert code == 2
    assert f"{key} must be" in stderr


# Runs whose arrays would not fit in physical memory exit 2 before they
# allocate: a huge s (the contact angles alone need 8 TiB), a huge n (the
# frame matrix at p0 needs 32 TB; at n = 10**12 one point needs 16 TB, and
# the default p0 and c are such points) and steps that make the sample
# arrays terabytes long.
_TINY_STEP = {"step": 2.5554245801443455e-13}
_HUGE_N = {"n": 10**6, "s": 1, "q": 2.0, "cos_theta": 0.5, "t_end": 0.01, "step": 1e-3}
_HUGER_N = {"n": 10**12, "s": 1, "q": 2.0, "cos_theta": 0.5, "t_end": 0.01, "step": 1e-3}
TOO_BIG_CASES = [
    ("classify", {**VALID_CONFIGS["classify"], "s": 1099511627776}, "the contact angles need"),
    ("integrate", {**VALID_CONFIGS["integrate"], **_TINY_STEP}, "the recorded samples need"),
    ("integrate", _HUGE_N, "the frame matrix at p0 need"),
    ("integrate", _HUGER_N, "the coordinates of one point need"),
    ("closed-form", {**VALID_CONFIGS["closed-form"], **_TINY_STEP},
     "the closed-form samples need"),
    ("closed-form", {**_HUGER_N, "case": "a"}, "the coordinates of one point need"),
    ("closed-form", {**_HUGER_N, "case": "b", "q": 1.0}, "the coordinates of one point need"),
    ("sweep", {**VALID_CONFIGS["sweep"], **_TINY_STEP}, "the samples of one sweep cell need"),
]


@pytest.mark.parametrize("command,doc,message", TOO_BIG_CASES,
                         ids=["classify-s", "integrate-step", "integrate-n", "integrate-n-point",
                              "closed-form-step", "closed-form-a-n", "closed-form-b-n",
                              "sweep-step"])
def test_runs_beyond_physical_memory_exit_2(tmp_path, capsys, command, doc, message):
    cfg = write_json(tmp_path / "cfg.json", doc)
    code, stdout, stderr = run_cli(capsys, *_cli_argv(command, cfg, tmp_path / "x.csv"))
    assert code == 2
    assert stdout == ""
    assert message in stderr and "bytes of physical memory" in stderr
    assert not (tmp_path / "x.csv").exists()


# Huge and tiny numbers: past the float range, past the index range, and
# steps that make t_end / step overflow or the sample count unaddressable.
# Ordinary numbers stay at or above 1e-3 in size, which bounds the run time:
# a step of 1e-9 is a valid run of 1e7 steps, merely a long one.
JSON_EXTREMES = [1e308, -1e308, 5e-324, 1e-300, -1e-300, 2**63, 10**400, 0, -1]
json_scalars = st.one_of(st.none(), st.booleans(), st.text(max_size=4),
                         st.integers(-3, 3),
                         st.floats(-2.0, 2.0).filter(lambda x: x == 0 or abs(x) >= 1e-3),
                         st.sampled_from(JSON_EXTREMES))
json_values = st.one_of(json_scalars, st.lists(json_scalars, max_size=3),
                        st.dictionaries(st.text(max_size=3), json_scalars, max_size=2))


@settings(max_examples=120, deadline=None)
@given(command=st.sampled_from(sorted(VALID_CONFIGS)), data=st.data())
def test_fuzzed_config_exits_with_a_documented_code(command, data):
    base = VALID_CONFIGS[command]
    key = data.draw(st.sampled_from(sorted(base)), label="key")
    value = data.draw(json_values, label="value")
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps({**base, key: value}))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(_cli_argv(command, cfg, Path(tmp) / "x.csv"))
    assert code in (0, 1, 2, 3)


# ---------------------------------------------------------------------------
# the key table: each command reads its declared keys and refuses any other
# ---------------------------------------------------------------------------

def _wrong_typed(command, key):
    """The valid config of command with a str, which no key takes, at key
    (an angle key in the place of the config's own angle key)."""
    doc = dict(VALID_CONFIGS[command])
    if key in cli._ANGLE_KEYS:
        del doc["cos_theta"]
    return {**doc, key: "x"}


@pytest.mark.parametrize("command, key", [
    (command, key) for command in ("integrate", "closed-form", "sweep")
    for key in cli._CONFIG_KEYS[command]])
def test_every_declared_key_is_read(tmp_path, capsys, command, key):
    cfg = write_json(tmp_path / "cfg.json", _wrong_typed(command, key))
    code, stdout, stderr = run_cli(capsys, *_cli_argv(command, cfg, tmp_path / "x.csv"))
    assert (code, stdout) == (2, "")
    assert stderr.startswith(f"invalid configuration: {key} "), stderr
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command", sorted(VALID_CONFIGS))
def test_an_undeclared_key_exits_2_and_writes_nothing(tmp_path, capsys, command):
    cfg = write_json(tmp_path / "cfg.json", {**VALID_CONFIGS[command], "stpe": 0.005})
    code, stdout, stderr = run_cli(capsys, *_cli_argv(command, cfg, tmp_path / "x.csv"))
    assert (code, stdout, stderr) == (2, "", "invalid configuration: unknown config keys "
                                             "['stpe']\n")
    assert not (tmp_path / "x.csv").exists()


def test_classify_config_takes_the_integrate_keys(tmp_path, capsys):
    # the curve that an integrate config describes: the keys classify does
    # not read (n, p0, direction and the grid) change nothing
    run = write_json(tmp_path / "run.json", VALID_CONFIGS["integrate"])
    triple = write_json(tmp_path / "triple.json",
                        {k: VALID_CONFIGS["integrate"][k] for k in ("q", "s", "cos_theta")})
    assert cli._CONFIG_KEYS["classify"] == cli._CONFIG_KEYS["integrate"]
    got = run_cli(capsys, "classify", "--config", run)
    assert got[0] == 0 and got == run_cli(capsys, "classify", "--config", triple)


@pytest.mark.parametrize("key", cli._CONFIG_KEYS["integrate"])
def test_classify_config_checks_each_integrate_key_as_integrate_does(tmp_path, capsys, key):
    # an integrate config: a wrong-typed key it holds exits 2 under classify
    # with integrate's own message
    cfg = write_json(tmp_path / "cfg.json", _wrong_typed("integrate", key))
    got = run_cli(capsys, "classify", "--config", cfg)
    assert got[0] == 2 and got[2].startswith(f"invalid configuration: {key} "), got
    assert got == run_cli(capsys, *_cli_argv("integrate", cfg, tmp_path / "x.csv"))


def test_classify_config_refuses_what_integrate_refuses(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", {"n": "x", "s": 1, "q": 2.0, "cos_theta": 0.5,
                                             "p0": [True], "step": -1})
    for argv in (["classify", "--config", cfg], _cli_argv("integrate", cfg, tmp_path / "x.csv")):
        assert run_cli(capsys, *argv) == (
            2, "", "invalid configuration: n must be an integer, got 'x'\n")
    # a key beyond s, q and the angle makes the config an integrate config,
    # which needs n
    for extra in ({"step": 1e-3}, {"p0": [0.0, 0.0, 0.0]}, {"record_every": 1}):
        cfg = write_json(tmp_path / "cfg.json", {**VALID_CONFIGS["classify"], **extra})
        assert run_cli(capsys, "classify", "--config", cfg) == (
            2, "", "invalid configuration: config is missing required key 'n'\n")


def test_golden_configs_pass_the_key_check(tmp_path):
    commands = {argv[argv.index("--config") + 1]: argv[0] for _, argv, _ in golden.RUNS
                if "--config" in argv}
    docs = golden._configs()
    assert sorted(commands) == sorted(docs)
    for name, doc in docs.items():
        cli._load_config(write_json(tmp_path / name, doc), commands[name])


def test_benchmark_configs_pass_the_key_check(tmp_path):
    # the configs perfbench/inputs.py writes for the CLI (verify-default
    # writes an argv, not a config)
    found = importlib.util.spec_from_file_location(
        "perfbench_inputs", Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(found)
    found.loader.exec_module(inputs)
    for seed in range(1, 7):
        for workload in ("sweep-grid", "exact-roundtrip"):
            out = tmp_path / f"{workload}-{seed}"
            inputs.generate(workload, seed, out)
            paths = sorted(out.iterdir())
            assert len(paths) == (1 if workload == "sweep-grid" else 8)
            for path in paths:
                cli._load_config(str(path), "sweep" if workload == "sweep-grid"
                                 else "closed-form")


# ---------------------------------------------------------------------------
# the CLI's own refusals
# ---------------------------------------------------------------------------

def test_unreadable_configs_exit_2(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    code, _, stderr = run_cli(capsys, "integrate", "--config", str(missing),
                              "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert stderr.startswith(f"invalid configuration: cannot read config {missing}: "
                             "[Errno 2] No such file or directory")
    broken = tmp_path / "broken.json"
    broken.write_text('{"n": 1,')
    code, _, stderr = run_cli(capsys, "integrate", "--config", str(broken),
                              "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert stderr.startswith(f"invalid configuration: cannot read config {broken}: Expecting")
    listed = write_json(tmp_path / "list.json", [VALID_CONFIGS["integrate"]])
    assert run_cli(capsys, "integrate", "--config", listed, "--out", str(tmp_path / "x.csv")) \
        == (2, "", "invalid configuration: config must be a JSON object\n")
    assert not (tmp_path / "x.csv").exists()


# the first three were ignored with exit 0 before each command declared its keys
@pytest.mark.parametrize("command, doc, message", [
    ("integrate", {"n": 1, "s": 1, "q": 2.0, "cos_theta": 0.5, "t_end": 0.01, "stpe": 0.005},
     "unknown config keys ['stpe']"),
    ("closed-form", {"n": 1, "s": 1, "q": 1.0, "cos_theta": 0.5, "case": "b", "a": [3.0],
                     "t_end": 0.01, "step": 1e-3},
     "case b has no constants ['a']"),
    ("sweep", {"q": [2.0], "cos_theta": [0.5]}, "unknown config keys ['cos_theta', 'q']"),
    ("integrate", {k: v for k, v in VALID_CONFIGS["integrate"].items() if k != "q"},
     "config is missing required key 'q'"),
    ("closed-form", {"n": 1, "s": 2, "q": 2.0, "cosines": [0.1, 0.2]},
     "closed-form families are slant: all contact angles must be equal"),
    ("sweep", {"cos_theta_values": [0.5]}, "sweep config is missing 'q_values'"),
    ("sweep", {"q_values": [2.0]}, "sweep config is missing 'cos_theta_values'"),
], ids=["misspelt-step", "case-b-a", "sweep-short-grids", "integrate-no-q",
        "closed-form-unequal-cosines", "sweep-no-q-values", "sweep-no-cos-theta-values"])
def test_config_refusal_messages(tmp_path, capsys, command, doc, message):
    cfg = write_json(tmp_path / "cfg.json", doc)
    assert run_cli(capsys, *_cli_argv(command, cfg, tmp_path / "x.csv")) == (
        2, "", f"invalid configuration: {message}\n")
    assert not (tmp_path / "x.csv").exists()


def test_sweep_spec_refuses_an_empty_grid():
    with pytest.raises(ValueError) as exc:
        SweepSpec(q_values=[], cos_theta_values=[0.5])
    assert str(exc.value) == "q_values must be nonempty"


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------

def test_main_reuses_one_parser_with_a_fresh_parsers_results(tmp_path, monkeypatch):
    """Commands run one after another in one process (as the benchmark and
    the tests run them) exit and print exactly as each does in a fresh
    interpreter, and the parser is built at most once."""
    monkeypatch.setenv("COLUMNS", "80")  # --help wraps at the same width on both sides
    cfg = write_json(tmp_path / "classify.json", VALID_CONFIGS["classify"])
    sequence = [
        (["classify", "--config", cfg], 0),
        (["verify", "--samples", "0"], 2),
        (["invert", "--kappa1", "1.0", "--kappa2", "0.4", "--s", "1", "--case", "iv"], 0),
        (["--help"], 0),
    ]
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    for argv, want in sequence:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # --help
                code = exc.code
        fresh = run_module(*argv)
        assert (code, out.getvalue(), err.getvalue()) == (
            fresh.returncode, fresh.stdout, fresh.stderr), argv
        assert code == want and out.getvalue() + err.getvalue(), argv
    assert len(built) <= 1


def test_importing_the_cli_builds_no_parser():
    # the parser is built by the first main call, not at import
    done = run_python("-c", """
import argparse
made = []
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    made.append(1)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
import magcurves.cli
print(len(made))
for _ in range(2):
    magcurves.cli.main(["invert", "--kappa1", "1", "--s", "1", "--case", "iii"])
    print(len(made))
""")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    built = [int(line) for line in lines if line.isdigit()]
    assert built[0] == 0 and built[1] == built[2] > 0, done.stdout


def test_every_exported_name_resolves():
    # a deletion that leaves its name in an __all__ fails here, not at the
    # first star import
    modules = [magcurves] + [importlib.import_module(f"magcurves.{info.name}")
                             for info in pkgutil.iter_modules(magcurves.__path__)]
    stale = [(mod.__name__, name) for mod in modules for name in getattr(mod, "__all__", ())
             if not hasattr(mod, name)]
    assert len(modules) > 9 and not stale
