"""Curvatures and Frenet frames extracted numerically from sampled curves.

Along a unit-speed curve with tangent T = v_1, the Frenet recursion

    nabla_T T   = k1 v_2
    nabla_T v_2 = -k1 T   + k2 v_3
    nabla_T v_3 = -k2 v_2 + k3 v_4

defines the curvatures k1, k2, k3 and the frame vectors v_1..v_3 extracted
here.  Each covariant rate nabla_T V is assembled from a fourth-order central
difference of the component series plus the exact connection correction
Gamma(T, V), at the trajectory's own grid step.  Every differentiation
level trims two samples from each end (the five-point stencil's reach);
quantities are NaN where trimmed or where the preceding curvature falls
below its level's degeneracy threshold (no frame vector is normalized out
of noise).  Normal magnetic curves have osculating order at most 3, so k3
serves only to confirm that bound and v_4 is not formed.  The Lorentz
residual and fitted strength (the same stencil) live here too, as does
``Measurement``, the one record of what a sampled curve measures.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import dynamics, model_space as ms
from .dynamics import Trajectory
from .errors import InsufficientDataError, InvalidGridError

__all__ = ["EPS_GEO", "FrenetSeries", "Measurement", "fit_field_strength", "frenet_apparatus",
           "residual"]

# Degeneracy thresholds: below these a curvature counts as zero and the next
# frame vector is not normalized out of noise.  kappa1 is clean (exact
# connection plus one fourth-order difference of integrated data, rounding
# ceiling ~1e-11); the next level adds a normalization and another
# difference, raising the ceiling to ~3e-9 (kappa2) at desk-scale steps, so
# its threshold steps up accordingly.  Both sit well below the
# 1e-4 .. 1e-3 tolerances at which curvatures are compared.
EPS_GEO = 1e-9
_EPS_LEVEL = (EPS_GEO, 1e-7)
_TRIM = 2       # samples dropped from each end per differentiation level
_MIN_SAMPLES = 2 * _TRIM + 1  # the five-point stencil's width
_GRID_RTOL = 1e-9


def _unit(field: np.ndarray, kappa: np.ndarray, eps: float) -> np.ndarray:
    """field / kappa per sample where kappa > eps, NaN elsewhere."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where((kappa > eps)[:, None], field / kappa[:, None], np.nan)


@dataclass(frozen=True)
class FrenetSeries:
    """Curvature series and Frenet vectors on the trimmed interior grid.

    ``v1``, ``v2`` and ``v3`` are (len(times), dim) arrays of coordinate
    components, NaN where undefined.  ``kappa3`` is the g-norm of
    nabla_T v_3 + kappa2 v_2; v_4 itself is not formed.
    """

    sig: ms.SpaceSignature
    times: np.ndarray
    kappa1: np.ndarray
    kappa2: np.ndarray
    kappa3: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    v3: np.ndarray


def _uniform_step(times: np.ndarray) -> float:
    dt = np.diff(times)
    h = float(dt[0])
    if np.max(np.abs(dt - h)) > _GRID_RTOL * max(1.0, abs(h)):
        raise InvalidGridError("trajectory time grid is not uniform")
    return h


def _five_point(field: np.ndarray, h: float) -> np.ndarray:
    """d(field)/dt at samples 2..N-3 of a uniform grid of step h: the
    fourth-order five-point central difference (Fornberg 1988), which drops
    _TRIM samples from each end."""
    return (-field[4:] + 8.0 * field[3:-1] - 8.0 * field[1:-3] + field[:-4]) / (12.0 * h)


def _lorentz_terms(traj: Trajectory) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(points, nabla_T T, phi T), the two terms of the Lorentz residual
    nabla_T T + q phi T: at every sample from the exact recorded
    accelerations when the trajectory carries them, otherwise from the
    five-point difference of the velocities at samples 2..N-3."""
    if traj.accelerations is not None:
        sl = slice(None)
        acc = traj.accelerations
    else:
        if len(traj) < _MIN_SAMPLES:
            raise InsufficientDataError(
                f"need at least {_MIN_SAMPLES} samples to reconstruct accelerations")
        sl = slice(_TRIM, -_TRIM)
        acc = _five_point(traj.velocities, _uniform_step(traj.times))
    pts = traj.points[sl]
    vel = traj.velocities[sl]
    return pts, acc + ms.gamma_bilinear(traj.sig, pts, vel, vel), ms.phi_comps(traj.sig, pts, vel)


def residual(traj: Trajectory, q: float) -> float:
    """max_t || nabla_T T + q phi T ||_g over the trajectory.

    Uses the trajectory's exact accelerations when present; otherwise the
    acceleration is reconstructed from the recorded velocities by a
    fourth-order five-point difference, and the first and last two samples
    are excluded.
    """
    pts, ntt, phit = _lorentz_terms(traj)
    return float(np.max(ms.norm(traj.sig, pts, ntt + q * phit)))


def fit_field_strength(traj: Trajectory) -> tuple[float | None, float]:
    """Least-squares strength estimate and the resulting Lorentz residual.

    Minimizes sum_t || nabla_T T + q phi T ||_g^2 over q, which is a scalar
    quadratic with closed-form minimizer q = -sum <nabla_T T, phi T> /
    sum ||phi T||^2.  When phi T vanishes along the curve (Reeb-direction
    geodesics) the strength is indeterminate and None is returned together
    with max_t || nabla_T T ||_g.
    """
    sig = traj.sig
    pts, ntt, phit = _lorentz_terms(traj)
    den = float(np.sum(ms.inner(sig, pts, phit, phit)))
    if den <= 1e-12 * len(pts):
        return None, float(np.max(ms.norm(sig, pts, ntt)))
    q = -float(np.sum(ms.inner(sig, pts, ntt, phit))) / den
    return q, float(np.max(ms.norm(sig, pts, ntt + q * phit)))


def frenet_apparatus(traj: Trajectory) -> FrenetSeries:
    """Curvatures k1..k3 and frame vectors v_1..v_3 along a sampled curve.

    Requires at least 5 samples on a uniform grid.
    """
    sig = traj.sig
    N = len(traj)
    if N < _MIN_SAMPLES:
        raise InsufficientDataError(f"need at least {_MIN_SAMPLES} samples, got {N}")
    h = _uniform_step(traj.times)

    P, V = traj.points, traj.velocities
    gamma_v = ms._gamma_along(sig, P, V)  # the (P, V) sums, taken once for all levels

    def rate(field: np.ndarray) -> np.ndarray:
        # nabla_T field: fourth-order difference of the components (matching
        # the integrator's order; hence the 2-sample trim per level) plus the
        # exact connection term
        out = np.full_like(field, np.nan)
        out[_TRIM:-_TRIM] = _five_point(field, h)
        return out + gamma_v(field)

    def trim(arr: np.ndarray, level: int) -> np.ndarray:
        k = _TRIM * level
        arr[:k] = np.nan
        arr[-k:] = np.nan
        return arr

    def gnorm(field: np.ndarray) -> np.ndarray:
        return ms.norm(sig, P, field)

    with np.errstate(over="ignore", invalid="ignore"):  # huge rates give infinite curvatures
        ntt = trim(rate(V), 1)
        kappa1 = gnorm(ntt)
        v2 = _unit(ntt, kappa1, _EPS_LEVEL[0])

        k2v3 = trim(rate(v2) + kappa1[:, None] * V, 2)
        kappa2 = gnorm(k2v3)
        v3 = _unit(k2v3, kappa2, _EPS_LEVEL[1])

        kappa3 = gnorm(trim(rate(v3) + kappa2[:, None] * v2, 3))

    keep = slice(_TRIM, N - _TRIM)
    return FrenetSeries(
        sig=sig,
        times=traj.times[keep],
        kappa1=kappa1[keep],
        kappa2=kappa2[keep],
        kappa3=kappa3[keep],
        v1=V[keep],
        v2=v2[keep],
        v3=v3[keep],
    )


def _nanmedian(arr: np.ndarray) -> float:
    """Median of the values of arr that are not NaN (an infinite one
    counts), NaN when none is finite: the bits of np.nanmedian, signed
    zeros included, without np.median (whose NaN check imports numpy.ma).

    Which of two equal zeros lands in the middle depends on the order
    partitioned, so the NaNs are dropped in numpy's order (the non-NaN
    values of the tail fill the NaN slots, and the tail is cut), the
    partition is made at np.median's indices, and the middle is averaged as
    np.mean averages it (an add.reduce, which starts from +0.0, so a -0.0
    middle gives +0.0).
    """
    if not np.isfinite(arr).any():
        return float("nan")
    holes = np.flatnonzero(np.isnan(arr))
    vals = arr.copy()
    if holes.size:
        tail = arr[-holes.size:]
        tail = tail[~np.isnan(tail)]
        vals[holes[:tail.size]] = tail
        vals = vals[:-holes.size]
    k = vals.size // 2
    if vals.size % 2:
        vals.partition([k, -1])
        mid = vals[k:k + 1]
    else:
        vals.partition([k - 1, k, -1])
        mid = vals[k - 1:k + 1]
    return float(np.add.reduce(mid)) / mid.size


@dataclass(frozen=True)
class Measurement:
    """What the sampled curve traj, with its Frenet series, measures.  Each
    field is computed on its first read and kept, so a caller pays only for
    the fields it reads: ``dynamics.speed_drift`` and ``angle_drift`` (the
    latter from eta^a(T)(0)), the time-mean ``cosines`` of each eta^a(T) and
    the ``angle_deviation`` about them, the time-medians ``kappa1..kappa3``
    and the largest kappa3 ``kappa3_max`` (over the samples that are not
    NaN, an infinite one included; NaN when none is finite), the ``fit`` of
    ``fit_field_strength`` and the ``v2_alignment``;
    ``osculating_order(tol)`` walks the curvature medians.
    """

    traj: Trajectory
    series: FrenetSeries

    speed_drift = cached_property(lambda self: dynamics.speed_drift(self.traj))
    angle_drift = cached_property(lambda self: dynamics.angle_drift(self.traj))
    kappa1 = cached_property(lambda self: _nanmedian(self.series.kappa1))
    kappa2 = cached_property(lambda self: _nanmedian(self.series.kappa2))
    kappa3 = cached_property(lambda self: _nanmedian(self.series.kappa3))
    fit = cached_property(lambda self: fit_field_strength(self.traj))  # (q or None, residual)
    _etas = cached_property(lambda self: self.traj.etas())

    @cached_property
    def cosines(self) -> np.ndarray:
        # numpy adds over the sample axis in an order that follows the layout;
        # a C-ordered copy fixes it (classify --traj prints these last bits)
        return np.ascontiguousarray(self._etas).mean(axis=0)

    @cached_property
    def angle_deviation(self) -> float:
        return float(np.max(np.abs(self._etas - self.cosines)))

    @cached_property
    def kappa3_max(self) -> float:
        k3 = self.series.kappa3
        return float(np.nanmax(k3)) if np.isfinite(k3).any() else float("nan")

    @cached_property
    def v2_alignment(self) -> float | None:
        """Mean of g(v2, phi T / ||phi T||) over the samples where both are
        defined, None where they never are."""
        sig, series = self.traj.sig, self.series
        pts = self.traj.points[_TRIM:len(self.traj) - _TRIM]
        phit = ms.phi_comps(sig, pts, series.v1)
        with np.errstate(invalid="ignore", divide="ignore"):
            vals = ms.inner(sig, pts, series.v2, phit) / ms.norm(sig, pts, phit)
        vals = vals[np.isfinite(vals)]
        return float(np.mean(vals)) if len(vals) else None

    def osculating_order(self, tol: float) -> int:
        """Largest r with time-median kappa_{r-1} above tol (r = 1 when even
        kappa1 stays below tol).

        The chain is walked in order: once a curvature median falls below tol,
        the later ones are Frenet-undefined (numerically they are differentiated
        noise) and are neither consulted nor computed.  Nothing caps the result
        at 3, so the order bound for magnetic inputs is a checkable outcome
        rather than an assumption.
        """
        r = 1
        for name in ("kappa1", "kappa2", "kappa3"):
            med = getattr(self, name)
            if not (np.isfinite(med) and med > tol):
                break
            r += 1
        return r
