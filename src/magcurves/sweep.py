"""Deterministic parameter sweeps over (n, s, q, cos theta) grids.

Each cell integrates one slant trajectory from the origin, measures its
curvatures, and compares them with the predicted classification.  Cells of
one (n, s) are stepped together by the batched RK4 engine, which gives every
cell the bits it would get alone, so rows come out in the deterministic grid
order and with identical bytes for identical specs.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from . import model_space as ms
from .classify import predict_class
from .dynamics import (
    IntegratorConfig,
    MagneticSetup,
    initial_tangent,
    integrate,
    integrate_many,
)
from .frenet import frenet_apparatus

__all__ = ["SweepSpec", "SWEEP_COLUMNS", "run_sweep", "write_sweep_csv"]

SWEEP_COLUMNS = [
    "n", "s", "q", "cos_theta",
    "kappa1_pred", "kappa2_pred",
    "kappa1_meas", "kappa2_meas",
    "kappa3_max", "drift",
]

# Recorded floats (points and velocities) held at once by one batched run,
# 32 MiB; caps the batch size so memory does not grow with the grid.
_BATCH_FLOATS = 1 << 22


@dataclass(frozen=True)
class SweepSpec:
    """Grids plus per-cell tolerance, seed and integrator settings."""

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
        for name in ("q_values", "cos_theta_values", "n_values", "s_values"):
            vals = tuple(getattr(self, name))
            if len(vals) == 0:
                raise ValueError(f"{name} must be nonempty")
            object.__setattr__(self, name, vals)
        for name in ("q_values", "cos_theta_values"):
            if not all(math.isfinite(v) for v in getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not math.isfinite(self.tol):
            raise ValueError(f"tol must be finite, got {self.tol!r}")
        if any(q == 0 for q in self.q_values):
            raise ValueError("q grid must not contain 0")
        for s in self.s_values:
            limit = 1.0 / math.sqrt(s)
            for ct in self.cos_theta_values:
                if abs(ct) > limit + 1e-12:
                    raise ValueError(
                        f"inadmissible cell: |cos_theta| = {abs(ct):.6g} exceeds "
                        f"1/sqrt(s) = {limit:.6g} for s = {s}"
                    )
        # IntegratorConfig validates t_end, step and record_every
        object.__setattr__(self, "integrator",
                           IntegratorConfig(self.t_end, self.step, self.record_every))

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
    p0 = ms.origin(sig)
    T0 = initial_tangent(p0, [ct] * s, direction)
    return MagneticSetup(sig, q, p0, T0)


def _cell_row(n: int, s: int, q: float, ct: float, traj) -> dict:
    series = frenet_apparatus(traj)
    pred = predict_class(q, ct, s)
    k1 = float(np.nanmedian(series.kappa1)) if np.any(np.isfinite(series.kappa1)) else math.nan
    k2 = float(np.nanmedian(series.kappa2)) if np.any(np.isfinite(series.kappa2)) else math.nan
    k3 = float(np.nanmax(series.kappa3)) if np.any(np.isfinite(series.kappa3)) else math.nan
    etas = traj.etas()
    drift = max(
        float(np.max(np.abs(traj.speeds() - 1.0))),
        float(np.max(np.abs(etas - etas[0]))),
    )
    return {
        "n": n, "s": s, "q": q, "cos_theta": ct,
        "kappa1_pred": pred.kappa1, "kappa2_pred": pred.kappa2,
        "kappa1_meas": k1, "kappa2_meas": k2,
        "kappa3_max": k3, "drift": drift,
    }


def run_sweep(spec: SweepSpec) -> list[dict]:
    """One row dict per cell, in deterministic grid order.

    The cells of one (n, s) are contiguous in grid order and are integrated
    together, in batches of at most _BATCH_FLOATS recorded floats; a batch of
    one cell takes the faster scalar path.  A diverging cell raises the
    DivergenceError of the first diverging cell in grid order.
    """
    cfg = spec.integrator
    rows: list[dict] = []
    for (n, s), group in groupby(enumerate(spec.cells()), key=lambda c: c[1][:2]):
        group = list(group)
        size = max(1, _BATCH_FLOATS // (cfg.n_samples * 2 * ms.SpaceSignature(n, s).dim))
        for start in range(0, len(group), size):
            batch = group[start:start + size]
            setups = [_cell_setup(spec, i, *cell) for i, cell in batch]
            trajs = integrate_many(setups, cfg) if len(setups) > 1 else [integrate(setups[0], cfg)]
            rows.extend(_cell_row(*cell, traj) for (_, cell), traj in zip(batch, trajs))
    return rows


def write_sweep_csv(rows: list[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_COLUMNS)
        for row in rows:
            writer.writerow([
                row["n"], row["s"],
                *[repr(float(row[c])) for c in SWEEP_COLUMNS[2:]],
            ])
