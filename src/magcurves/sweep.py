"""Deterministic parameter sweeps over (n, s, q, cos theta) grids.

Each cell samples one slant trajectory from the origin with the exact flow
(``dynamics.exact_flow``) on the integrator's time grid, measures its
curvatures, and compares them with the predicted classification.  Cells are
independent and run in grid order, so identical specs give identical bytes.
"""
from __future__ import annotations

import csv
import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from . import model_space as ms
from .classify import predict_class
from .dynamics import (
    IntegratorConfig,
    MagneticSetup,
    check_angles,
    exact_flow,
    initial_tangent,
    # unused here, but kept bound: perfbench/spans.py wraps sweep.integrate by
    # name, and every traced benchmark run fails with an AttributeError without it
    integrate,  # noqa: F401
)
from .errors import DivergenceError, InfeasibleAngleError
from .frenet import Measurement, frenet_apparatus

__all__ = ["SweepSpec", "SWEEP_COLUMNS", "run_sweep", "in_tolerance", "write_sweep_csv"]

SWEEP_COLUMNS = [
    "n", "s", "q", "cos_theta",
    "kappa1_pred", "kappa2_pred",
    "kappa1_meas", "kappa2_meas",
    "kappa3_max", "drift",
]

@dataclass(frozen=True)
class SweepSpec:
    """Grids plus per-cell tolerance, seed and integrator settings.

    Every (s, cos theta) pair of the grid must pass ``check_angles`` (s
    cos^2(theta) <= 1 + 1e-12), else ValueError naming the inadmissible cell;
    a grid whose widest cell's samples would not fit in physical memory is
    refused too.
    """

    q_values: tuple[float, ...]
    cos_theta_values: tuple[float, ...]
    n_values: tuple[int, ...] = (1,)
    s_values: tuple[int, ...] = (1,)
    tol: float = 1e-3
    seed: int = 0
    t_end: float = 10.0
    step: float = 1e-3
    record_every: int = 1
    integrator: IntegratorConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, kind, what in (("q_values", numbers.Real, "real numbers"),
                                 ("cos_theta_values", numbers.Real, "real numbers"),
                                 ("n_values", numbers.Integral, "integers"),
                                 ("s_values", numbers.Integral, "integers")):
            vals = getattr(self, name)
            if not isinstance(vals, (list, tuple)):
                raise ValueError(f"{name} must be a list, got {vals!r}")
            if len(vals) == 0:
                raise ValueError(f"{name} must be nonempty")
            if not all(isinstance(v, kind) and not isinstance(v, bool) for v in vals):
                raise ValueError(f"{name} entries must be {what}, got {vals!r}")
            object.__setattr__(self, name, tuple(vals))
        for name in ("q_values", "cos_theta_values"):
            # false for NaN, the infinities and integers beyond the float range
            if not all(abs(v) <= sys.float_info.max for v in getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be finite and positive, got {self.tol!r}")
        if any(q == 0 for q in self.q_values):
            raise ValueError("q grid must not contain 0")
        for s in self.s_values:
            for ct in self.cos_theta_values:
                try:
                    check_angles(np.full(s, ct))
                except InfeasibleAngleError as exc:
                    raise ValueError(
                        f"inadmissible cell s = {s}, cos_theta = {ct!r}: {exc}") from exc
        # IntegratorConfig validates t_end, step and record_every
        cfg = IntegratorConfig(self.t_end, self.step, self.record_every)
        # one cell at a time: its times, points, velocities and accelerations
        cfg.check_fits(3 * (2 * max(self.n_values) + max(self.s_values)) + 1,
                       "the samples of one sweep cell")
        object.__setattr__(self, "integrator", cfg)

    def cells(self) -> list[tuple[int, int, float, float]]:
        return [
            (n, s, q, ct)
            for n in self.n_values
            for s in self.s_values
            for q in self.q_values
            for ct in self.cos_theta_values
        ]


def _cell_setup(spec: SweepSpec, index: int, n: int, s: int, q: float, ct: float) -> MagneticSetup:
    sig = ms.SpaceSignature(n, s)
    rng = np.random.default_rng([spec.seed, index])
    direction = rng.normal(size=2 * n)
    if np.linalg.norm(direction) < 1e-12:
        direction[0] = 1.0
    p0 = np.zeros(sig.dim)
    return MagneticSetup(sig, q, p0, initial_tangent(sig, p0, [ct] * s, direction))


def _cell_row(n: int, s: int, q: float, ct: float, traj) -> dict:
    m = Measurement(traj, frenet_apparatus(traj))
    pred = predict_class(q, ct, s)
    return {
        "n": n, "s": s, "q": q, "cos_theta": ct,
        "kappa1_pred": pred.kappa1, "kappa2_pred": pred.kappa2,
        "kappa1_meas": m.kappa1, "kappa2_meas": m.kappa2,
        "kappa3_max": m.kappa3_max, "drift": max(m.speed_drift, m.angle_drift),
    }


def run_sweep(spec: SweepSpec) -> list[dict]:
    """One row dict per cell, in deterministic grid order.

    Each cell is sampled from the exact flow on the integrator's time grid.
    A cell whose samples overflow raises DivergenceError naming the cell;
    the first such cell in grid order is the one reported.
    """
    times = spec.integrator.times
    rows: list[dict] = []
    for index, (n, s, q, ct) in enumerate(spec.cells()):
        setup = _cell_setup(spec, index, n, s, q, ct)
        try:
            traj = exact_flow(setup, times)
        except DivergenceError as exc:
            raise DivergenceError(
                f"sweep cell {index} (n = {n}, s = {s}, q = {q!r}, cos_theta = {ct!r}): {exc}",
                t_last=exc.t_last,
            ) from exc
        rows.append(_cell_row(n, s, q, ct, traj))
    return rows


def in_tolerance(row: dict, tol: float) -> bool:
    """The sweep's pass rule for one row: kappa1_meas is finite and within tol
    of kappa1_pred, and kappa2_meas is within tol of kappa2_pred unless it is
    not finite (it is undefined wherever kappa1 is at its noise floor)."""
    k1, k2 = row["kappa1_meas"], row["kappa2_meas"]
    return (math.isfinite(k1) and abs(k1 - row["kappa1_pred"]) <= tol
            and (not math.isfinite(k2) or abs(k2 - row["kappa2_pred"]) <= tol))


def write_sweep_csv(rows: list[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_COLUMNS)
        for row in rows:
            writer.writerow([
                row["n"], row["s"],
                *[repr(float(row[c])) for c in SWEEP_COLUMNS[2:]],
            ])
