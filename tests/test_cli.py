import json
import math

import numpy as np
import pytest

from magcurves import (
    MagneticSetup,
    SpaceSignature,
    angle_drift,
    frenet_apparatus,
    initial_tangent,
    integrate,
    origin,
    predict_class,
    speed_drift,
)
from magcurves import sweep as sweep_mod
from magcurves.cli import main
from magcurves.io import read_trajectory
from magcurves.sweep import SWEEP_COLUMNS, SweepSpec, run_sweep, write_sweep_csv


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


def test_integrate_divergence_exits_3(tmp_path, capsys):
    cfg = write_json(tmp_path / "run.json", {
        "n": 1, "s": 1, "q": 1e200, "cos_theta": 0.5, "t_end": 1.0, "step": 1e-3,
    })
    code, _, stderr = run_cli(capsys, "integrate", "--config", cfg,
                              "--out", str(tmp_path / "x.csv"))
    assert code == 3
    assert "last valid time" in stderr


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


def test_closed_form_default_amplitudes(tmp_path, capsys):
    cfg = write_json(tmp_path / "cf.json", {
        "n": 2, "s": 1, "q": 2.0, "cos_theta": 0.5, "t_end": 1.0,
    })
    code, stdout, _ = run_cli(capsys, "closed-form", "--config", cfg,
                              "--out", str(tmp_path / "d.csv"))
    assert code == 0
    assert json.loads(stdout)["case"] == "a"


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


@pytest.mark.filterwarnings("ignore:All-NaN slice:RuntimeWarning")
def test_sweep_rows_match_per_cell_integrate(tmp_path, monkeypatch):
    # a budget of two n = 1 cells (dim 3) splits that 3-cell group into a
    # batch of two (integrate_many) and one of one (integrate); the n = 2
    # cells (dim 5) run one at a time
    spec = SweepSpec(q_values=(2.0, 3.0, -2.5), cos_theta_values=(0.5,), n_values=(1, 2),
                     t_end=0.5, step=1e-3, seed=1)
    monkeypatch.setattr(sweep_mod, "_BATCH_FLOATS", 2 * spec.integrator.n_samples * 2 * 3)
    batched = run_sweep(spec)
    reference = []
    for i, (n, s, q, ct) in enumerate(spec.cells()):
        rng = np.random.default_rng([spec.seed, i])
        sig = SpaceSignature(n, s)
        p0 = origin(sig)
        setup = MagneticSetup(sig, q, p0, initial_tangent(p0, [ct] * s, rng.normal(size=2 * n)))
        traj = integrate(setup, spec.integrator)
        series = frenet_apparatus(traj)
        pred = predict_class(q, ct, s)
        reference.append({
            "n": n, "s": s, "q": q, "cos_theta": ct,
            "kappa1_pred": pred.kappa1, "kappa2_pred": pred.kappa2,
            "kappa1_meas": float(np.nanmedian(series.kappa1)),
            "kappa2_meas": float(np.nanmedian(series.kappa2)),
            "kappa3_max": float(np.nanmax(series.kappa3)),
            "drift": max(speed_drift(traj), angle_drift(traj)),
        })
    # row order and values identical (bytes compare nan-safely)
    p1, p2 = tmp_path / "batched.csv", tmp_path / "reference.csv"
    write_sweep_csv(batched, p1)
    write_sweep_csv(reference, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_sweep_divergence_reports_first_cell_in_grid_order(tmp_path, capsys):
    # cell 1 (q = 400) diverges at t = 0.1, cell 2 (q = 1e4) sooner, at t = 0.03;
    # cells 0 and 3 stay finite.  The sweep reports cell 1 exactly as a
    # serial integrate of that cell does.
    doc = {"q_values": [2.0, 400.0, 1e4, -3.0], "cos_theta_values": [0.5],
           "t_end": 2.0, "step": 0.01, "seed": 4}
    code, _, sweep_err = run_cli(capsys, "sweep", "--config",
                                 write_json(tmp_path / "sweep.json", doc),
                                 "--out", str(tmp_path / "x.csv"))
    assert code == 3
    direction = np.random.default_rng([doc["seed"], 1]).normal(size=2)
    cell = write_json(tmp_path / "cell.json", {
        "n": 1, "s": 1, "q": 400.0, "cos_theta": 0.5, "direction": direction.tolist(),
        "t_end": 2.0, "step": 0.01,
    })
    code, _, cell_err = run_cli(capsys, "integrate", "--config", cell,
                                "--out", str(tmp_path / "cell.csv"))
    assert code == 3
    assert sweep_err == cell_err
    assert "t = 0.1;" in sweep_err


def test_sweep_out_of_tolerance_exits_1(tmp_path, capsys):
    # q = 50 at step 0.05 puts h|w| = 2.5 near RK4's stability limit: the
    # run stays finite but its curvatures miss the prediction
    cfg = write_json(tmp_path / "sweep.json", {
        "q_values": [50.0], "cos_theta_values": [0.0], "step": 0.05,
    })
    code, stdout, _ = run_cli(capsys, "sweep", "--config", cfg,
                              "--out", str(tmp_path / "x.csv"))
    assert code == 1
    assert json.loads(stdout)["cells_out_of_tol"] == 1


NONFINITE_CASES = [
    ("integrate", {"t_end": math.inf}, "t_end must be finite"),
    ("integrate", {"step": math.nan}, "step must be finite"),
    ("integrate", {"q": math.nan}, "q must be finite"),
    ("sweep", {"q_values": [2.0, math.nan]}, "q_values must be finite"),
    ("sweep", {"cos_theta_values": [math.nan]}, "cos_theta_values must be finite"),
    ("sweep", {"tol": math.nan}, "tol must be finite"),
    ("sweep", {"t_end": math.inf}, "t_end must be finite"),
    ("sweep", {"step": math.inf}, "step must be finite"),
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


def test_sweep_inadmissible_cell_exit_2(tmp_path, capsys):
    cfg = write_json(tmp_path / "sweep.json", {
        "q_values": [2.0], "cos_theta_values": [0.9], "s_values": [2],
    })
    code, _, stderr = run_cli(capsys, "sweep", "--config", cfg,
                              "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert "inadmissible" in stderr


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
