"""Flat-file formats for trajectories.

Trajectory CSV column order is fixed:

    t, x_1..x_n, y_1..y_n, z_1..z_s, vx_1..vx_n, vy_1..vy_n, vz_1..vz_s,
    speed, eta_1..eta_s

CSV files are written byte for byte as follows: one header line of the
column names, then one line per sample; cells are separated by commas
with no spaces and never quoted, and every line, the last included, ends
in ``\\r\\n``.  Each number is ``repr`` of a Python float (the shortest
decimal that round-trips, with ``nan``, ``inf`` and ``-inf`` for the
non-finite values).  The writer formats each distinct bit pattern of a
block of rows once and reuses the text for its repeats, which the exact
flow's first integrals (speed, every eta^a, and for lambda = 0 the
velocities) make common; the bytes are those of formatting every cell.

The JSON mirror keys the same column names, each to a list of numbers,
plus the metadata n, s, q; its numbers are ``repr`` floats too (``NaN``,
``Infinity`` and ``-Infinity`` for the non-finite values), and its bytes
are those of ``json.dumps``, which writes each column.

Identical inputs produce byte-identical files, and reading a file back
gives the same bits.
"""
from __future__ import annotations

import json
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from . import model_space as ms
from .dynamics import Trajectory
from .errors import typed_number

__all__ = [
    "trajectory_columns",
    "write_trajectory_csv",
    "write_trajectory_json",
    "write_trajectory",
    "read_trajectory",
]

# Rows formatted and written per block: the text held in memory stays the
# same size whatever the length of the trajectory.  Each block formats each
# distinct bit pattern among its cells once.
_BLOCK_ROWS = 512


def trajectory_columns(sig: ms.SpaceSignature) -> list[str]:
    n, s = sig.n, sig.s
    cols = ["t"]
    cols += [f"x_{i}" for i in range(1, n + 1)]
    cols += [f"y_{i}" for i in range(1, n + 1)]
    cols += [f"z_{a}" for a in range(1, s + 1)]
    cols += [f"vx_{i}" for i in range(1, n + 1)]
    cols += [f"vy_{i}" for i in range(1, n + 1)]
    cols += [f"vz_{a}" for a in range(1, s + 1)]
    cols.append("speed")
    cols += [f"eta_{a}" for a in range(1, s + 1)]
    return cols


def _trajectory_table(traj: Trajectory) -> np.ndarray:
    speeds = traj.speeds()
    etas = traj.etas()
    return np.column_stack([traj.times, traj.points, traj.velocities, speeds, etas])


def _format_cells(cells: np.ndarray) -> np.ndarray:
    """repr of every cell of the float array cells, as an object array of its
    shape.  Each distinct bit pattern is formatted once, keyed on bits, not
    values: -0.0 == 0.0 but their reprs differ (every NaN prints alike,
    whatever its bits)."""
    bits, inverse = np.unique(cells.view(np.int64), return_inverse=True)
    text = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    return text[inverse.reshape(cells.shape)]


def write_trajectory_csv(traj: Trajectory, path) -> None:
    table = _trajectory_table(traj)
    width = table.shape[1]
    # one block's text: each cell followed by its separator, "," or "\r\n"
    out = np.empty((min(len(table), _BLOCK_ROWS), 2 * width), dtype=object)
    out[:, 1::2] = [","] * (width - 1) + ["\r\n"]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(trajectory_columns(traj.sig)) + "\r\n")
        for start in range(0, len(table), _BLOCK_ROWS):
            block = table[start:start + _BLOCK_ROWS]
            text = out[:len(block)]
            text[:, 0::2] = _format_cells(block)
            fh.write("".join(text.ravel().tolist()))


def write_trajectory_json(traj: Trajectory, path) -> None:
    table = _trajectory_table(traj)
    meta = json.dumps({"n": traj.sig.n, "s": traj.sig.s, "q": traj.q})
    with open(path, "w") as fh:
        # json.dumps' bytes for the whole document, written one column at a
        # time so that only one column is held as Python floats
        fh.write(meta[:-1])
        for k, name in enumerate(trajectory_columns(traj.sig)):
            fh.write(f", {json.dumps(name)}: {json.dumps(table[:, k].tolist())}")
        fh.write("}\n")


def write_trajectory(traj: Trajectory, path, fmt: str | None = None) -> None:
    """Write CSV or JSON; the format defaults to the path suffix."""
    fmt = fmt or Path(path).suffix.lstrip(".").lower()
    if fmt == "csv":
        write_trajectory_csv(traj, path)
    elif fmt == "json":
        write_trajectory_json(traj, path)
    else:
        raise ValueError(f"unknown trajectory format {fmt!r} (expected csv or json)")


def _sig_from_header(header: list[str]) -> ms.SpaceSignature:
    n = sum(1 for c in header if c.startswith("x_"))
    s = sum(1 for c in header if c.startswith("z_"))
    if n < 1 or s < 1:
        raise ValueError(f"cannot infer (n, s) from CSV header {header}")
    sig = ms.SpaceSignature(n, s)
    if header != trajectory_columns(sig):
        raise ValueError("CSV header does not match the fixed trajectory column order")
    return sig


def _data_lines(fh, path):
    """The lines after the header; a blank line, which loadtxt would skip,
    or no line at all raises ValueError."""
    number = 1
    for number, line in enumerate(fh, start=2):
        if line == "\n":
            raise ValueError(f"trajectory file {path} has a blank line at line {number}")
        yield line
    if number == 1:
        raise ValueError(f"trajectory file {path} has a header but no data rows")


def _read_csv_table(path) -> tuple[ms.SpaceSignature, np.ndarray, None]:
    # Text mode reads \r\n, \r and \n alike as the end of a line.
    with open(path) as fh:
        header = fh.readline()
        if not header:
            raise ValueError(f"trajectory file {path} is empty")
        header = header.rstrip("\n").split(",")
        sig = _sig_from_header(header)
        # loadtxt converts each cell with the parser behind float(): same bits
        table = np.loadtxt(_data_lines(fh, path), delimiter=",", comments=None, ndmin=2)
    if table.shape[1] != len(header):
        raise ValueError(
            f"trajectory file {path} has {table.shape[1]} cells per row, "
            f"its header names {len(header)}"
        )
    return sig, table, None  # CSV carries no strength


def _read_json_table(path) -> tuple[ms.SpaceSignature, np.ndarray, float | None]:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"trajectory file {path} must hold a JSON object")
    n = typed_number("n", doc.get("n"), Integral)
    s = typed_number("s", doc.get("s"), Integral)
    q = doc.get("q")
    q = None if q is None else typed_number("q", q, Real)
    sig = ms.SpaceSignature(n, s)
    if 4 * n + 3 * s + 2 > len(doc) - 2:  # the column count; bounds n, s before listing them
        raise ValueError(f"trajectory file {path} lacks columns for n = {n}, s = {s}")
    cols = []
    for name in trajectory_columns(sig):
        col = doc.get(name)
        # the JSON decoder gives int, float, str, bool, None, list or dict
        if not (isinstance(col, list) and set(map(type, col)) <= {int, float}):
            raise ValueError(f"trajectory column {name!r} must be a list of numbers")
        cols.append(col)
    try:
        table = np.array(cols, dtype=float).T
    except OverflowError as exc:  # an integer beyond the float range
        raise ValueError(f"trajectory file {path}: {exc}") from exc
    return sig, table, q


def read_trajectory(path, fmt: str | None = None) -> Trajectory:
    """Read a trajectory written by this module.

    Speed and contact-form columns are derived quantities and are not
    trusted on input.  CSV carries no strength, so q is None there.  A
    malformed file (empty, no data rows, a blank line, a ragged row, a cell
    that is not a number, metadata of the wrong type, times that are not
    finite and increasing) raises ValueError.
    """
    fmt = fmt or Path(path).suffix.lstrip(".").lower()
    if fmt == "csv":
        sig, table, q = _read_csv_table(path)
    elif fmt == "json":
        sig, table, q = _read_json_table(path)
    else:
        raise ValueError(f"unknown trajectory format {fmt!r} (expected csv or json)")
    d = sig.dim
    return Trajectory(sig, table[:, 0], table[:, 1:1 + d], table[:, 1 + d:1 + 2 * d], q=q)

