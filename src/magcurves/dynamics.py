"""Normal magnetic trajectories as a first-order ODE system.

A normal magnetic trajectory of strength q solves the Lorentz equation

    nabla_T T = -q phi T,        g(T, T) = 1,

which in coordinates becomes the first-order system on states
(coords, velocity) of length 2(2n+s):

    coords' = v
    v'^k    = -Gamma^k_{ij} v^i v^j - q (phi v)^k

integrated here with classical fixed-step fourth-order Runge-Kutta, one
trajectory at a time (``integrate``) or as a batch of one signature stepped
together (``integrate_many``), with the same bits either way.  The
integrator never renormalizes the velocity: drift in the speed and in the
contact angles eta^a(T) (both first integrals of the exact flow) is the
accuracy diagnostic reported to callers.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import model_space as ms
from .errors import DegenerateDirectionError, DivergenceError, InfeasibleAngleError

__all__ = [
    "MagneticSetup",
    "IntegratorConfig",
    "Trajectory",
    "lorentz_force",
    "initial_tangent",
    "magnetic_rhs",
    "integrate",
    "integrate_many",
    "speed_drift",
    "angle_drift",
]

_UNIT_SPEED_TOL = 1e-12
_FEASIBILITY_SLACK = 1e-12


@dataclass(frozen=True)
class MagneticSetup:
    """Initial data for one normal magnetic trajectory."""

    sig: ms.SpaceSignature
    q: float
    p0: ms.Point
    T0: ms.Tangent
    label: str | None = None

    def __post_init__(self):
        if not math.isfinite(self.q):
            raise ValueError(f"field strength q must be finite, got {self.q!r}")
        if self.q == 0:
            raise ValueError("field strength q must be nonzero")
        if self.p0.sig != self.sig or self.T0.sig != self.sig:
            raise ValueError("p0/T0 signature does not match setup signature")
        speed = ms.inner(self.sig, self.p0.coords, self.T0.comps, self.T0.comps)
        if abs(speed - 1.0) > _UNIT_SPEED_TOL:
            raise ValueError(
                f"T0 must be unit speed: |g(T0,T0) - 1| = {abs(speed - 1.0):.3e} > 1e-12"
            )


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step RK4 settings."""

    t_end: float = 10.0
    step: float = 1e-3
    record_every: int = 1

    def __post_init__(self):
        for name in ("t_end", "step"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not self.step > 0:
            raise ValueError("step must be positive")
        if not self.t_end > 0:
            raise ValueError("t_end must be positive")
        if self.step > self.t_end:
            raise ValueError("step must not exceed t_end")
        if not (isinstance(self.record_every, (int, np.integer)) and self.record_every >= 1):
            raise ValueError("record_every must be a positive integer")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.step))

    @property
    def n_samples(self) -> int:
        """Recorded samples per trajectory, the initial one included."""
        return self.n_steps // self.record_every + 1


@dataclass(frozen=True)
class Trajectory:
    """Sampled curve: times plus per-sample coordinates and velocities.

    ``accelerations`` is filled only by generators that know the exact
    second derivatives (the closed-form samplers); integrated trajectories
    leave it None so that residual checks reconstruct accelerations
    independently by finite differences.
    """

    sig: ms.SpaceSignature
    times: np.ndarray
    points: np.ndarray
    velocities: np.ndarray
    q: float | None = None
    accelerations: np.ndarray | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        pts = np.asarray(self.points, dtype=float)
        vel = np.asarray(self.velocities, dtype=float)
        if times.ndim != 1 or len(times) == 0:
            raise ValueError("times must be a nonempty 1-d array")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        want = (len(times), self.sig.dim)
        if pts.shape != want or vel.shape != want:
            raise ValueError(
                f"points/velocities must have shape {want}, got {pts.shape} and {vel.shape}"
            )
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "velocities", vel)
        if self.accelerations is not None:
            acc = np.asarray(self.accelerations, dtype=float)
            if acc.shape != want:
                raise ValueError(f"accelerations must have shape {want}, got {acc.shape}")
            object.__setattr__(self, "accelerations", acc)

    def __len__(self) -> int:
        return len(self.times)

    def point_at(self, i: int) -> ms.Point:
        return ms.Point(self.sig, self.points[i])

    def tangent_at(self, i: int) -> ms.Tangent:
        return ms.Tangent(self.point_at(i), self.velocities[i])

    def speeds(self) -> np.ndarray:
        return ms.norm(self.sig, self.points, self.velocities)

    def etas(self) -> np.ndarray:
        """Contact-form values eta^a(T) per sample, shape (len, s)."""
        return ms.eta_comps(self.sig, self.points, self.velocities)


def lorentz_force(p: ms.Point, T: ms.Tangent, q: float) -> ms.Tangent:
    """Force -q phi T of the contact magnetic field of strength q.

    Accepts q = 0 (geodesic limit) even though MagneticSetup forbids it.
    """
    return ms.Tangent(p, -q * ms.phi_comps(p.sig, p.coords, T.comps))


def initial_tangent(p0: ms.Point, cosines, direction=None) -> ms.Tangent:
    """Unit tangent at p0 with prescribed contact-form values.

    ``cosines`` gives the target cos(theta_a) = eta^a(T) per Reeb direction;
    feasibility requires sum_a cos^2(theta_a) <= 1.  The remaining
    contact-distribution part, of norm sqrt(1 - sum cos^2), points along the
    frame combination sum_k direction_k X_k normalized over the 2n frame
    vectors X_1..X_2n (default: X_1).  The split is g-orthogonal, so the
    result is exactly unit speed.
    """
    sig = p0.sig
    cos = np.asarray(cosines, dtype=float)
    if cos.shape != (sig.s,):
        raise ValueError(f"cosines must have length s={sig.s}, got shape {cos.shape}")
    a_sum = float(np.sum(cos * cos))
    if a_sum > 1.0 + _FEASIBILITY_SLACK:
        raise InfeasibleAngleError(
            f"sum of squared cosines is {a_sum:.6g} > 1; angles are not realizable"
        )
    # cosines like 1/sqrt(s) put a_sum within rounding of 1; treat that as the
    # degenerate Reeb-combination family rather than keeping a spurious
    # contact component of size ~sqrt(eps)
    contact_norm = 0.0 if a_sum >= 1.0 - 1e-13 else np.sqrt(1.0 - a_sum)

    frame = ms.frame_matrix(sig, p0.coords)
    comps = frame[:, 2 * sig.n:] @ cos
    if contact_norm > 0:
        if direction is None:
            u = np.zeros(2 * sig.n)
            u[0] = 1.0
        else:
            u = np.asarray(direction, dtype=float)
            if u.shape != (2 * sig.n,):
                raise ValueError(
                    f"direction must have length 2n={2 * sig.n}, got shape {u.shape}"
                )
            unorm = np.linalg.norm(u)
            if unorm == 0:
                raise DegenerateDirectionError(
                    "direction must be nonzero when the contact part of T0 is nonzero"
                )
            u = u / unorm
        comps = comps + contact_norm * (frame[:, :2 * sig.n] @ u)
    return ms.Tangent(p0, comps)


def _rhs(sig: ms.SpaceSignature, q: float, state: np.ndarray) -> np.ndarray:
    # Fused form of -Gamma(v, v) - q phi(v): with w = sum(vz) - q - s (y . vx)
    # the acceleration is (vy w, -vx w, vx . vy + (y . vy) w).  Agrees with
    # gamma_bilinear/phi_comps; kept lean because RK4 calls it four times per step.
    n, d = sig.n, sig.dim
    y = state[n:2 * n]
    vx = state[d:d + n]
    vy = state[d + n:d + 2 * n]
    w = np.sum(state[d + 2 * n:]) - q - sig.s * np.dot(y, vx)
    out = np.empty_like(state)
    out[:d] = state[d:]
    out[d:d + n] = vy * w
    out[d + n:d + 2 * n] = -vx * w
    out[d + 2 * n:] = np.dot(vx, vy) + np.dot(y, vy) * w
    return out


def _rhs_rows(sig: ms.SpaceSignature, q: np.ndarray, state: np.ndarray) -> np.ndarray:
    # _rhs applied to each row of a (B, 2 dim) state, with one strength per
    # row.  Each dot product is a stacked (1, n) @ (n, 1) matmul, which per row
    # gives the bits of _rhs's np.dot; sum(-1) and einsum round differently.
    # _rhs stays separate because a shape-generic version is slower at B = 1.
    n, d = sig.n, sig.dim
    y = state[:, n:2 * n]
    vx = state[:, d:d + n]
    vy = state[:, d + n:d + 2 * n]

    def dot(a, b):
        return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]

    w = np.sum(state[:, d + 2 * n:], axis=1) - q - sig.s * dot(y, vx)
    out = np.empty_like(state)
    out[:, :d] = state[:, d:]
    out[:, d:d + n] = vy * w[:, None]
    out[:, d + n:d + 2 * n] = -vx * w[:, None]
    out[:, d + 2 * n:] = (dot(vx, vy) + dot(y, vy) * w)[:, None]
    return out


def magnetic_rhs(state: tuple[ms.Point, ms.Tangent], q: float) -> tuple[ms.Tangent, np.ndarray]:
    """Right-hand side of the first-order system at one state.

    Returns (velocity, a) with a^k = -Gamma^k_{ij} v^i v^j - q (phi v)^k, so
    the covariant acceleration assembled from a equals -q phi v exactly.
    """
    p, T = state
    if T.sig != p.sig:
        raise ValueError("state point and tangent have mismatched signatures")
    flat = _rhs(p.sig, q, np.concatenate([p.coords, T.comps]))
    return ms.Tangent(p, flat[:p.sig.dim]), flat[p.sig.dim:]


def _rk4(rhs, state: np.ndarray, cfg: IntegratorConfig):
    """Classical RK4 of state' = rhs(state) for one state of shape (2 dim,) or
    a batch of shape (B, 2 dim), one trajectory per row.

    Returns the recorded times, points and velocities, the latter of shape
    (n_samples, dim) with the batch axis first for a batch.  Rows never mix,
    so a row that goes nonfinite leaves the others untouched; the
    DivergenceError raised is that of the first such row, with its own time.
    The loop stops early only when row 0 diverges, since its error is then
    the one to raise whatever the later rows do.
    """
    h = cfg.step
    stride = cfg.record_every
    d = state.shape[-1] // 2
    lead = state.shape[:-1]
    pts = np.empty(lead + (cfg.n_samples, d))
    vel = np.empty(lead + (cfg.n_samples, d))
    pts[..., 0, :] = state[..., :d]
    vel[..., 0, :] = state[..., d:]
    diverged = np.zeros(math.prod(lead), dtype=int)  # per row: first nonfinite step

    rec = 1
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is the detected failure mode
        for k in range(1, cfg.n_steps + 1):
            k1 = rhs(state)
            k2 = rhs(state + (0.5 * h) * k1)
            k3 = rhs(state + (0.5 * h) * k2)
            k4 = rhs(state + h * k3)
            state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(state)):
                finite = np.all(np.isfinite(state).reshape(len(diverged), -1), axis=1)
                diverged[~finite & (diverged == 0)] = k
                if diverged[0]:
                    break
            if k % stride == 0:
                pts[..., rec, :] = state[..., :d]
                vel[..., rec, :] = state[..., d:]
                rec += 1

    if np.any(diverged):
        k = int(diverged[np.flatnonzero(diverged)[0]])
        raise DivergenceError(
            f"nonfinite state at t = {k * h:.6g}; last valid time {(k - 1) * h:.6g}",
            t_last=(k - 1) * h,
        )
    return (stride * np.arange(cfg.n_samples)) * h, pts, vel


def integrate(setup: MagneticSetup, cfg: IntegratorConfig) -> Trajectory:
    """Fixed-step RK4 solution of the Lorentz equation.

    Samples are recorded at times 0, step*record_every, ...; the first
    recorded point and velocity are exactly p0 and T0.  A nonfinite state
    aborts with DivergenceError carrying the last valid time.
    """
    state = np.concatenate([setup.p0.coords, setup.T0.comps])
    times, pts, vel = _rk4(functools.partial(_rhs, setup.sig, setup.q), state, cfg)
    return Trajectory(setup.sig, times, pts, vel, q=setup.q)


def integrate_many(setups, cfg: IntegratorConfig) -> list[Trajectory]:
    """``integrate`` for several setups of one signature, stepped together.

    Each setup keeps its own q, p0 and T0, and each returned trajectory has
    the same bits as ``integrate`` gives for its setup alone.  If any setup
    diverges, raises the DivergenceError that ``integrate`` raises for the
    first diverging setup in list order.  For a single setup ``integrate``
    is faster.
    """
    setups = list(setups)
    if not setups:
        raise ValueError("integrate_many needs at least one setup")
    sig = setups[0].sig
    if any(st.sig != sig for st in setups):
        raise ValueError("integrate_many setups must share one signature")
    q = np.array([st.q for st in setups])
    state = np.stack([np.concatenate([st.p0.coords, st.T0.comps]) for st in setups])
    times, pts, vel = _rk4(functools.partial(_rhs_rows, sig, q), state, cfg)
    return [Trajectory(sig, times, p, v, q=st.q) for st, p, v in zip(setups, pts, vel)]


def speed_drift(traj: Trajectory) -> float:
    """max_t | sqrt(g(T,T)) - 1 | over the recorded samples."""
    return float(np.max(np.abs(traj.speeds() - 1.0)))


def angle_drift(traj: Trajectory) -> float:
    """max over a, t of | eta^a(T)(t) - eta^a(T)(0) |."""
    etas = traj.etas()
    return float(np.max(np.abs(etas - etas[0])))
