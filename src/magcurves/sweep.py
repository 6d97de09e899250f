"""Deterministic parameter sweeps over (n, s, q, cos theta) grids.

Each cell samples one slant trajectory from the origin with the exact flow
(``dynamics.exact_flow``, without the accelerations that no row reads) on
the integrator's time grid, measures its curvatures, and compares them with
the predicted classification.  Cells are independent and run in grid
order, so identical specs give identical bytes.
"""
from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import model_space as ms
from .classify import predict_class
from .dynamics import (
    IntegratorConfig,
    MagneticSetup,
    _exact_flow,
    check_angles,
    initial_tangent,
    # unused here, but kept bound: perfbench/spans.py wraps sweep.integrate by
    # name, and every traced benchmark run fails with an AttributeError without it
    integrate,  # noqa: F401
)
from .errors import (DivergenceError, InfeasibleAngleError, nonzero_real, positive_int,
                     positive_real, typed_number)
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

    Each q must be finite and nonzero, each n and s a positive integer, tol finite
    and positive, and each grid cell's angle pass ``check_angles``, else
    ValueError, naming the inadmissible cell for an angle;
    a grid whose widest cell's samples would not fit in physical memory is
    refused too.
    """

    q_values: tuple[float, ...]
    cos_theta_values: tuple[float, ...]
    n_values: tuple[int, ...] = (1,)
    s_values: tuple[int, ...] = (1,)
    tol: float = 1e-3
    seed: int = 0
    t_end: float = IntegratorConfig.t_end
    step: float = IntegratorConfig.step
    record_every: int = IntegratorConfig.record_every
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
        for q in self.q_values:
            nonzero_real("q_values", q)
        for ct in self.cos_theta_values:
            typed_number("cos_theta_values", ct)
        positive_real("tol", self.tol)
        for n in self.n_values:
            positive_int("n", n)
        for s in self.s_values:
            for ct in self.cos_theta_values:
                try:
                    check_angles(np.full(positive_int("s", s), ct))
                except InfeasibleAngleError as exc:
                    raise ValueError(
                        f"inadmissible cell s = {s}, cos_theta = {ct!r}: {exc}") from exc
        # IntegratorConfig validates t_end, step and record_every
        cfg = IntegratorConfig(self.t_end, self.step, self.record_every)
        # one cell at a time: its times, points and velocities, and one
        # (N, dim) block at least for the flow's temporaries
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
            traj = _exact_flow(setup, times, accelerations=False)
        except DivergenceError as exc:
            raise DivergenceError(
                f"sweep cell {index} (n = {n}, s = {s}, q = {q!r}, cos_theta = {ct!r}): {exc}",
                t_last=exc.t_last,
            ) from exc
        rows.append(_cell_row(n, s, q, ct, traj))
    return rows


def in_tolerance(row: dict, tol: float) -> bool:
    """The sweep's pass rule for one row, at a finite positive tol: kappa1_meas
    is finite and within tol of kappa1_pred, and kappa2_meas is within tol of
    kappa2_pred unless it is not finite (undefined at kappa1's noise floor)."""
    positive_real("tol", tol)
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
