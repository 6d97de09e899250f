import numpy as np
import pytest

from magcurves import SpaceSignature, frenet_apparatus
from magcurves.io import (
    read_trajectory,
    trajectory_columns,
    write_frenet_csv,
    write_trajectory,
    write_trajectory_csv,
    write_trajectory_json,
)


def test_column_order_fixed():
    cols = trajectory_columns(SpaceSignature(2, 3))
    assert cols == [
        "t", "x_1", "x_2", "y_1", "y_2", "z_1", "z_2", "z_3",
        "vx_1", "vx_2", "vy_1", "vy_2", "vz_1", "vz_2", "vz_3",
        "speed", "eta_1", "eta_2", "eta_3",
    ]


def test_csv_round_trip(tmp_path, circle_traj):
    path = tmp_path / "traj.csv"
    write_trajectory_csv(circle_traj, path)
    back = read_trajectory(path)
    assert back.sig == circle_traj.sig
    assert np.array_equal(back.times, circle_traj.times)
    assert np.array_equal(back.points, circle_traj.points)
    assert np.array_equal(back.velocities, circle_traj.velocities)
    assert back.q is None  # CSV carries no strength
    # read columns are copied out of the table, one layout for classify
    assert all(a.flags.c_contiguous for a in (back.times, back.points, back.velocities))


def test_json_round_trip(tmp_path, circle_traj):
    path = tmp_path / "traj.json"
    write_trajectory_json(circle_traj, path)
    back = read_trajectory(path)
    assert back.q == circle_traj.q
    assert np.array_equal(back.points, circle_traj.points)
    assert np.array_equal(back.velocities, circle_traj.velocities)
    assert all(a.flags.c_contiguous for a in (back.times, back.points, back.velocities))


def test_write_dispatch_by_suffix(tmp_path, circle_traj):
    p_csv = tmp_path / "a.csv"
    p_json = tmp_path / "a.json"
    write_trajectory(circle_traj, p_csv)
    write_trajectory(circle_traj, p_json)
    assert p_csv.read_text().startswith("t,x_1")
    assert p_json.read_text().startswith("{")
    with pytest.raises(ValueError):
        write_trajectory(circle_traj, tmp_path / "a.xml")


def test_byte_identical_rewrites(tmp_path, circle_traj):
    p1 = tmp_path / "one.csv"
    p2 = tmp_path / "two.csv"
    write_trajectory_csv(circle_traj, p1)
    write_trajectory_csv(circle_traj, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_header_mismatch_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,a,b\n0.0,1.0,2.0\n")
    with pytest.raises(ValueError):
        read_trajectory(path)


def test_frenet_csv(tmp_path, circle_traj):
    series = frenet_apparatus(circle_traj)
    path = tmp_path / "frenet.csv"
    write_frenet_csv(series, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,kappa1,kappa2,kappa3,order"
    assert len(lines) == len(series.times) + 1
    first = lines[1].split(",")
    assert float(first[1]) == series.kappa1[0]
    assert first[3] == "nan"  # kappa3 undefined on a circle
