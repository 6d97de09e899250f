import csv
import json

import numpy as np
import pytest

from magcurves import (IntegratorConfig, SpaceSignature, Trajectory, exact_flow, integrate,
                       random_params)
from magcurves.io import (
    _trajectory_table,
    read_trajectory,
    trajectory_columns,
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
    # read columns are copied out of the table into the one sample layout
    assert back.times.flags.c_contiguous
    assert all(a.flags.f_contiguous for a in (back.points, back.velocities))


def test_json_round_trip(tmp_path, circle_traj):
    path = tmp_path / "traj.json"
    write_trajectory_json(circle_traj, path)
    back = read_trajectory(path)
    assert back.q == circle_traj.q
    assert np.array_equal(back.points, circle_traj.points)
    assert np.array_equal(back.velocities, circle_traj.velocities)
    assert back.times.flags.c_contiguous
    assert all(a.flags.f_contiguous for a in (back.points, back.velocities))


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


def test_header_in_the_wrong_order_rejected(tmp_path, circle_traj):
    # the right number of x_ and z_ columns, but x_1 and y_1 swapped
    path = tmp_path / "swapped.csv"
    write_trajectory_csv(circle_traj, path)
    header, rest = path.read_text().split("\n", 1)
    path.write_text(header.replace("x_1,y_1", "y_1,x_1") + "\n" + rest)
    with pytest.raises(ValueError) as exc:
        read_trajectory(path)
    assert str(exc.value) == "CSV header does not match the fixed trajectory column order"


def test_unknown_trajectory_format_rejected(tmp_path, circle_traj):
    path = tmp_path / "traj.txt"
    write_trajectory_csv(circle_traj, path)
    with pytest.raises(ValueError) as exc:
        read_trajectory(path)
    assert str(exc.value) == "unknown trajectory format 'txt' (expected csv or json)"


@pytest.mark.parametrize("name, fmt", [("traj.txt", "txt"), ("traj", ""), ("traj.csv.gz", "gz")])
def test_unknown_suffix_refused_before_the_file_is_made(tmp_path, circle_traj, name, fmt):
    path = tmp_path / name
    with pytest.raises(ValueError) as exc:
        write_trajectory(circle_traj, path)
    assert str(exc.value) == f"unknown trajectory format {fmt!r} (expected csv or json)"
    assert not path.exists()


# ---------------------------------------------------------------------------
# golden bytes: the writers against the per-cell reference they replaced
# ---------------------------------------------------------------------------

SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16, 0.1, -2.5e-7, 1.0, 0.0]


def reference_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def reference_trajectory_csv(traj, path):
    table = _trajectory_table(traj)
    reference_csv(path, trajectory_columns(traj.sig),
                  [[repr(float(v)) for v in row] for row in table])


def reference_trajectory_json(traj, path):
    table = _trajectory_table(traj)
    doc = {"n": traj.sig.n, "s": traj.sig.s, "q": traj.q}
    for k, name in enumerate(trajectory_columns(traj.sig)):
        doc[name] = [float(v) for v in table[:, k]]
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def special_trajectory(n, s, rows):
    """Every special value in the points and velocities, and -0.0, 5e-324
    and 1e16 among the strictly increasing times."""
    sig = SpaceSignature(n, s)
    rng = np.random.default_rng([n, s, rows])
    times = 0.1 * np.arange(rows)
    times[0] = -0.0
    if rows > 2:
        times[1], times[-1] = 5e-324, 1e16
    values = np.r_[SPECIAL, rng.standard_normal(37) * 10.0 ** rng.integers(-300, 300, 37)]
    points = np.resize(values, (rows, sig.dim))
    velocities = np.resize(values[::-1], (rows, sig.dim))
    return Trajectory(sig, times, points, velocities, q=0.1)


def assert_same_bits(back, traj):
    for name in ("times", "points", "velocities"):
        a, b = getattr(back, name), getattr(traj, name)
        assert np.array_equal(a, b, equal_nan=True), name
        assert np.array_equal(np.signbit(a), np.signbit(b)), name


@pytest.mark.parametrize("rows", [1, 2001])
@pytest.mark.parametrize("n, s", [(1, 1), (3, 2)])
def test_writers_match_reference_bytes(tmp_path, n, s, rows):
    traj = special_trajectory(n, s, rows)
    for suffix, write, reference in (("csv", write_trajectory_csv, reference_trajectory_csv),
                                     ("json", write_trajectory_json, reference_trajectory_json)):
        got, want = tmp_path / f"got.{suffix}", tmp_path / f"want.{suffix}"
        with np.errstate(all="ignore"):  # speed and eta of the infinite rows
            write(traj, got)
            reference(traj, want)
        assert got.read_bytes() == want.read_bytes(), suffix
        back = read_trajectory(got)
        assert back.sig == traj.sig
        assert_same_bits(back, traj)


@pytest.mark.parametrize("ending", ["\n", "\r"])
def test_csv_reader_takes_any_line_ending(tmp_path, circle_traj, ending):
    path = tmp_path / "traj.csv"
    write_trajectory_csv(circle_traj, path)
    other = tmp_path / "other.csv"
    other.write_bytes(path.read_bytes().replace(b"\r\n", ending.encode()))
    assert_same_bits(read_trajectory(other), circle_traj)


def bit_patterns(*words):
    return np.array(words, dtype=np.uint64).view(np.float64)


# -nan and a quiet NaN with a payload: other bits than np.nan, the same repr
NEG_NAN, PAYLOAD_NAN = bit_patterns(0xFFF8000000000000, 0x7FF800000000BEEF)


@pytest.mark.parametrize("rows", [511, 512, 513, 1025])
def test_csv_writer_formats_bit_patterns_like_repr(tmp_path, rows):
    """The writer formats each distinct bit pattern of a block once: it must
    give the bytes of repr on every cell, around the block boundary, where
    +0.0 and -0.0 (equal values, other reprs) share a block and where long
    runs of one constant repeat a pattern many times."""
    sig = SpaceSignature(2, 1)
    rng = np.random.default_rng(rows)
    times = 0.25 * np.arange(rows)
    points = np.empty((rows, sig.dim))
    points[:, 0] = 0.7071067811865476  # one constant throughout
    points[:, 1] = np.where(np.arange(rows) % 2, -0.0, 0.0)
    points[:, 2] = np.resize([NEG_NAN, 1.5, PAYLOAD_NAN, np.nan, -0.0], rows)
    points[:, 3] = rng.standard_normal(rows)
    points[:, 4] = np.where(np.arange(rows) < rows // 2, 0.0, -0.0)  # a long run of each
    velocities = np.resize([0.0, -0.0, 1.0, -1.0, 0.1], (rows, sig.dim))
    velocities[:, 2] = np.where(np.arange(rows) % 3, PAYLOAD_NAN, 2.0)
    traj = Trajectory(sig, times, points, velocities)
    words = set(_trajectory_table(traj).view(np.uint64).ravel().tolist())
    assert {0xFFF8000000000000, 0x7FF800000000BEEF, 0, 1 << 63} <= words  # all reach the writer
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_trajectory_csv(traj, got)
    reference_trajectory_csv(traj, want)
    assert got.read_bytes() == want.read_bytes()
    assert got.read_bytes().count(b"\r\n") == rows + 1


def json_table(kind):
    """A trajectory whose columns repeat bit patterns: the exact flow
    (constant speed and eta), RK4, the straight-line family lambda = 0
    (constant velocities too), or +0.0 and -0.0 in every column and -nan in
    one."""
    if kind == "signed_zeros":
        sig, rows = SpaceSignature(1, 2), 700
        zeros = np.where(np.arange(rows) % 3, -0.0, 0.0)
        table = np.tile(zeros[:, None], 2 * sig.dim)
        table[:, 1] = np.where(np.arange(rows) < rows // 2, 0.0, -0.0)  # a long run of each
        table[::7, 2] = NEG_NAN
        return Trajectory(sig, 0.5 * np.arange(rows), table[:, :sig.dim], table[:, sig.dim:],
                          q=-0.0)
    if kind == "lambda_zero":  # q = 2 s cos(theta)
        params = random_params(SpaceSignature(2, 1), 1.0, 0.5, seed=7)
    else:
        params = random_params(SpaceSignature(3, 3), 0.7, 0.2, seed=7)
    cfg = IntegratorConfig(t_end=1.5, step=1e-3)
    if kind == "rk4":
        return integrate(params.setup(), cfg)
    return exact_flow(params.setup(), cfg.times)


@pytest.mark.parametrize("kind", ["exact_flow", "rk4", "lambda_zero", "signed_zeros"])
def test_json_writer_matches_json_dump_bytes(tmp_path, kind):
    """The JSON writer formats each distinct bit pattern of a column once; it
    must give json.dump's bytes, +0.0 and -0.0 apart."""
    traj = json_table(kind)
    got, want = tmp_path / "got.json", tmp_path / "want.json"
    write_trajectory_json(traj, got)
    reference_trajectory_json(traj, want)
    assert got.read_bytes() == want.read_bytes()
