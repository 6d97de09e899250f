"""Normal magnetic trajectories as a first-order ODE system.

A normal magnetic trajectory of strength q solves the Lorentz equation

    nabla_T T = -q phi T,        g(T, T) = 1,

which in coordinates becomes the first-order system on states
(coords, velocity) of length 2(2n+s):

    coords' = v
    v'^k    = -Gamma^k_{ij} v^i v^j - q (phi v)^k

integrated here with classical fixed-step fourth-order Runge-Kutta by one
driver, ``integrate_many``, for setups of any mix of signatures, each under
its own config or all under one; ``integrate`` is its one-setup call.  The
integrator never renormalizes the velocity: drift in the speed and in the
contact angles eta^a(T) (both first integrals of the exact flow) is the
accuracy diagnostic reported to callers.

The system is also solved exactly (``exact_flow``): the first integrals make
w = 2 sum_a eta^a(T) - q constant, so each (x_i', y_i') pair rotates at the
rate w; RK4 stays the independent path that it is checked against.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import model_space as ms
from .errors import (DegenerateDirectionError, DivergenceError, InfeasibleAngleError,
                     check_memory, nonzero_real, positive_int, positive_real, real_vector)

__all__ = [
    "MagneticSetup",
    "IntegratorConfig",
    "Trajectory",
    "check_angles",
    "initial_tangent",
    "integrate",
    "integrate_many",
    "exact_flow",
    "speed_drift",
    "angle_drift",
]

_UNIT_SPEED_TOL = 1e-12
_FEASIBILITY_SLACK = 1e-12


@dataclass(frozen=True)
class MagneticSetup:
    """Initial data for one normal magnetic trajectory: the start point p0
    and the unit tangent T0 there, each a finite array of length sig.dim in
    the coordinate basis."""

    sig: ms.SpaceSignature
    q: float
    p0: np.ndarray
    T0: np.ndarray

    def __post_init__(self):
        nonzero_real("q", self.q)
        # read-only copies, so that the checks here hold for the setup's life
        for name in ("p0", "T0"):
            arr = real_vector(name, getattr(self, name), self.sig.dim).copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        speed = ms.inner(self.sig, self.p0, self.T0, self.T0)
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
        positive_real("t_end", self.t_end)
        if positive_real("step", self.step) > self.t_end:
            raise ValueError("step must not exceed t_end")
        if not math.isfinite(self.t_end / self.step):
            raise ValueError(f"t_end / step = {self.t_end!r} / {self.step!r} overflows")
        if positive_int("record_every", self.record_every) > self.n_steps:
            raise ValueError("record_every must be a positive integer, at most the step count")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.step))

    @property
    def n_samples(self) -> int:
        """Recorded samples per trajectory, the initial one included."""
        return self.n_steps // self.record_every + 1

    @property
    def times(self) -> np.ndarray:
        """The recorded times step * record_every * i, the one grid that every
        run under this config is sampled on."""
        return (self.record_every * np.arange(self.n_samples)) * self.step

    def check_fits(self, floats_per_sample: int, what: str) -> None:
        """Raise ConfigError when arrays of floats_per_sample 8-byte floats
        per recorded sample would need more bytes than physical memory."""
        check_memory(8 * floats_per_sample * self.n_samples, what)


@dataclass(frozen=True)
class Trajectory:
    """Sampled curve: times plus per-sample coordinates and velocities.

    ``accelerations`` is filled only by ``exact_flow``, from its exact second
    derivatives; integrated trajectories leave it None, so that residual
    checks reconstruct accelerations independently by finite differences.

    The (N, dim) arrays are stored column-major, so each coordinate's series
    is contiguous; arrays in another layout are copied here, the one place
    that fixes the layout.  Component sums give the same bits in any layout
    (the bit order of ``model_space``); a sum over the samples does not, so
    each such sum (``frenet.Measurement.cosines``) runs on a C-ordered copy.
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
        if not (np.all(np.isfinite(times)) and np.all(np.diff(times) > 0)):
            raise ValueError("times must be finite and strictly increasing")
        want = (len(times), self.sig.dim)
        if pts.shape != want or vel.shape != want:
            raise ValueError(
                f"points/velocities must have shape {want}, got {pts.shape} and {vel.shape}"
            )
        object.__setattr__(self, "times", np.ascontiguousarray(times))
        object.__setattr__(self, "points", np.asfortranarray(pts))
        object.__setattr__(self, "velocities", np.asfortranarray(vel))
        if self.accelerations is not None:
            acc = np.asarray(self.accelerations, dtype=float)
            if acc.shape != want:
                raise ValueError(f"accelerations must have shape {want}, got {acc.shape}")
            object.__setattr__(self, "accelerations", np.asfortranarray(acc))

    def __len__(self) -> int:
        return len(self.times)

    def first_nonfinite(self) -> int | None:
        """Index of the first sample whose point or velocity is not finite, or None."""
        finite = np.isfinite(self.points).all(axis=1) & np.isfinite(self.velocities).all(axis=1)
        return None if finite.all() else int(np.argmin(finite))

    def speeds(self) -> np.ndarray:
        return ms.norm(self.sig, self.points, self.velocities)

    def etas(self) -> np.ndarray:
        """Contact-form values eta^a(T) per sample, shape (len, s)."""
        return ms.eta_comps(self.sig, self.points, self.velocities)


def check_angles(cosines) -> float:
    """sum_a cos^2(theta_a) of the contact angles, checked realizable.

    This is the one check of contact-angle input: each cosine must be a
    real number (the entry rule of ``errors.real_vector``), and cosines a
    nonempty 1-D sequence, else ValueError.  A unit tangent has eta^a(T) =
    cos(theta_a) for every a exactly when the sum is at most 1; for slant
    angles that is |cos(theta)| <= 1/sqrt(s).  The sum gets 1e-12 of slack,
    so that cosines rounded from 1/sqrt(s) pass; a larger sum, or NaN,
    raises InfeasibleAngleError.  The sum has the bits of np.sum(cos * cos)
    (the bit order of ``model_space``).
    """
    cos = real_vector("cosines", cosines)
    if type(cos) is not list or not cos or type(cos[0]) is list:
        raise ValueError(
            f"contact angles must be a nonempty 1-D sequence, got shape {np.shape(cosines)}")
    a_sum = ms._scalar_sum([c * c for c in cos])  # an overflow is inf
    if not a_sum <= 1.0 + _FEASIBILITY_SLACK:
        raise InfeasibleAngleError(
            f"sum of squared cosines exceeds 1 by {a_sum - 1.0:.3g} "
            f"(slack {_FEASIBILITY_SLACK:g}); angles are not realizable"
        )
    return a_sum


def initial_tangent(sig: ms.SpaceSignature, p0, cosines, direction=None) -> np.ndarray:
    """Unit tangent at p0 with prescribed contact-form values.

    ``cosines`` gives the target cos(theta_a) = eta^a(T) per Reeb direction,
    s finite real numbers that ``check_angles`` must accept, and
    ``direction``, when given, 2n finite real numbers.  The remaining
    contact-distribution part, of norm sqrt(1 - sum cos^2), points along the
    frame combination sum_k direction_k X_k normalized over the 2n frame
    vectors X_1..X_2n (default: X_1).  The split is g-orthogonal, so the
    result is exactly unit speed.
    """
    cos = real_vector("cosines", cosines, sig.s)
    u = None if direction is None else real_vector("direction", direction, 2 * sig.n)
    a_sum = check_angles(cos)
    check_memory(8 * sig.dim ** 2, "the frame matrix at p0")
    # cosines like 1/sqrt(s) put a_sum within rounding of 1; treat that as the
    # degenerate Reeb-combination family rather than keeping a spurious
    # contact component of size ~sqrt(eps)
    contact_norm = 0.0 if a_sum >= 1.0 - 1e-13 else np.sqrt(1.0 - a_sum)

    frame = ms.frame_matrix(sig, p0)
    comps = frame[:, 2 * sig.n:] @ cos
    if contact_norm > 0:
        if u is None:
            u = np.zeros(2 * sig.n)
            u[0] = 1.0
        else:
            big = np.max(np.abs(u))
            if big == 0:
                raise DegenerateDirectionError(
                    "direction must be nonzero when the contact part of T0 is nonzero"
                )
            with np.errstate(over="ignore", under="ignore"):
                unorm = np.linalg.norm(u)
            if not 1e-150 < unorm < 1e150:
                # squares of entries like 1e308 or 1e-300 overflow or underflow
                # the norm; scaled to a largest entry of 1 they do not
                u = u / big
                unorm = np.linalg.norm(u)
            u = u / unorm
        comps = comps + contact_norm * (frame[:, :2 * sig.n] @ u)
    return comps


def _rhs(n: int, q, s, reeb: np.ndarray, state: np.ndarray) -> np.ndarray:
    # Fused form of -Gamma(v, v) - q phi(v) on a (2 D,) state or a (B, 2 D)
    # batch, columns x | y | z | vx | vy | vz: with w = sum(vz) - q - s (y . vx)
    # the acceleration is (vy w, -vx w, (vx . vy + (y . vy) w) reeb), as
    # gamma_bilinear/phi_comps give it.  A batch is padded to D = 2 n + S; q
    # and s are per row, and reeb is 1 on a row's own Reeb slots and 0 on the
    # padding, so padded vz stays 0 and never enters w (padded x and y stay 0
    # by themselves).  np.vecdot adds like BLAS ddot and add.reduce like
    # np.sum, so each row gets the bits of its unpadded state (integrate_many
    # says up to which widths).  Few numpy calls: RK4 calls it 4 times a step.
    d = state.shape[-1] // 2
    y = state[..., n:2 * n]
    vx = state[..., d:d + n]
    vy = state[..., d + n:d + 2 * n]
    w = np.add.reduce(state[..., d + 2 * n:], axis=-1) - q - s * np.vecdot(y, vx)
    az = (np.vecdot(vx, vy) + np.vecdot(y, vy) * w)[..., None]
    w = w[..., None]
    return np.concatenate((state[..., d:], vy * w, -vx * w, az * reeb), axis=-1)


def _rk4(rhs, state: np.ndarray, h, ends: np.ndarray, stride: int) -> np.ndarray:
    """Classical RK4 of state' = rhs(state) for one state of shape (2 dim,) or
    a batch of shape (B, 2 dim), one trajectory per row: row r takes ends[r]
    steps of its own step h (a float, or a (B, 1) column of per-row steps),
    and all rows step together for max(ends) steps.

    Returns every stride-th state, shape state.shape + (max(ends) // stride
    + 1,), so each component's series is contiguous; a row's samples past
    its own end are steps it did not ask for.  Rows never mix; the
    DivergenceError raised is that of the first row to go nonfinite within
    its own steps, with its own time (a row that goes nonfinite only after
    its end raises nothing).  The loop stops early only when row 0 diverges,
    since its error is then the one to raise.
    """
    half, sixth = 0.5 * h, h / 6.0
    n_steps = int(ends.max())
    rec = np.empty(state.shape + (n_steps // stride + 1,))
    rec[..., 0] = state
    diverged = np.zeros(len(ends), dtype=int)  # per row: first nonfinite step within its end

    with np.errstate(over="ignore", invalid="ignore"):  # overflow is the detected failure mode
        for k in range(1, n_steps + 1):
            k1 = rhs(state)
            k2 = rhs(state + half * k1)
            k3 = rhs(state + half * k2)
            k4 = rhs(state + h * k3)
            state = state + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.isfinite(state).all():
                finite = np.all(np.isfinite(state).reshape(len(diverged), -1), axis=1)
                diverged[~finite & (diverged == 0) & (k <= ends)] = k
                if diverged[0]:
                    break
            if k % stride == 0:
                rec[..., k // stride] = state

    if np.any(diverged):
        row = int(np.flatnonzero(diverged)[0])
        k, step = int(diverged[row]), float(h if np.ndim(h) == 0 else h[row, 0])
        raise DivergenceError(
            f"nonfinite state at t = {k * step:.6g}; last valid time {(k - 1) * step:.6g}",
            t_last=(k - 1) * step,
        )
    return rec


def integrate(setup: MagneticSetup, cfg: IntegratorConfig) -> Trajectory:
    """Fixed-step RK4 solution of the Lorentz equation.

    Samples are recorded at times 0, step*record_every, ...; the first
    recorded point and velocity are exactly p0 and T0.  A nonfinite state
    aborts with DivergenceError carrying the last valid time.
    """
    return integrate_many([setup], cfg)[0]


def integrate_many(setups, cfg) -> list[Trajectory]:
    """RK4 solutions of the Lorentz equation for setups of any mix of
    signatures, stepped together; ``integrate`` is the one-setup call,
    stepped as a 1-D state with scalar q, s and step (about 20% faster per
    step than a batch of one).

    cfg is one IntegratorConfig for every setup or a sequence of one per
    setup, all with the same record_every (else ValueError).  The rows step
    together for the largest step count, each at its own step, and each
    returns its own config's samples and times: a row's bits are those of
    ``integrate`` under its own config, and a row that goes nonfinite only
    after its own end raises nothing.

    A batch is padded to its largest n and s.  The padding adds exact zeros
    to each row's sums, so each row has the bits of its setup alone while
    they add in order (the bit order of ``model_space``): up to n = 15 for
    BLAS ddot and s = 7 for np.sum.
    Rows that take every recorded sample at the batch's width return views
    of them; padded or shorter rows copy their own columns and samples.  If
    any setup diverges, raises the DivergenceError of the first in list
    order.
    """
    setups = list(setups)
    if not setups:
        raise ValueError("integrate_many needs at least one setup")
    cfgs = [cfg] * len(setups) if isinstance(cfg, IntegratorConfig) else list(cfg)
    if len(cfgs) != len(setups):
        raise ValueError(f"integrate_many needs one config per setup, or one for all; "
                         f"got {len(cfgs)} for {len(setups)} setups")
    stride = cfgs[0].record_every
    if any(c.record_every != stride for c in cfgs):
        raise ValueError("the configs of one batch must share record_every")
    n = max(st.sig.n for st in setups)
    s = max(st.sig.s for st in setups)
    d = 2 * n + s
    width = max(c.n_samples for c in cfgs)
    views = [st.sig.dim == d and c.n_samples == width for st, c in zip(setups, cfgs)]
    # the padded samples of every row, the other rows' own copies and each
    # config's times
    check_memory(8 * (len(setups) * 2 * d * width
                      + sum(2 * st.sig.dim * c.n_samples
                            for st, c, view in zip(setups, cfgs, views) if not view)
                      + sum(c.n_samples for c in dict.fromkeys(cfgs))), "the recorded samples")
    state = np.zeros((len(setups), 2 * d))
    reeb = np.zeros((len(setups), s))
    own = []  # each row's x | y | z | vx | vy | vz columns in the padded layout
    for row, st in enumerate(setups):
        k, r = st.sig.n, st.sig.s
        cols = np.r_[0:k, n:n + k, 2 * n:2 * n + r]
        own.append(np.r_[cols, d + cols])
        state[row, own[-1]] = np.r_[st.p0, st.T0]
        reeb[row, :r] = 1.0

    ends = np.array([c.n_steps for c in cfgs])
    if len(setups) == 1:
        rhs = functools.partial(_rhs, n, setups[0].q, s, reeb[0])
        rec = _rk4(rhs, state[0], cfgs[0].step, ends, stride)[None]
    else:
        q = np.array([st.q for st in setups])
        s_rows = np.array([st.sig.s for st in setups], dtype=float)
        # one shared step is stepped as a float, a step per row as a (B, 1) column
        steps = {c.step for c in cfgs}
        step = steps.pop() if len(steps) == 1 else np.array([c.step for c in cfgs])[:, None]
        rec = _rk4(functools.partial(_rhs, n, q, s_rows, reeb), state, step, ends, stride)
    times = {c: c.times for c in cfgs}
    return [Trajectory(st.sig, times[c], *(rec[row] if view else rec[row, cols, :c.n_samples])
                       .reshape(2, -1, c.n_samples).mT, q=st.q)
            for row, (st, c, cols, view) in enumerate(zip(setups, cfgs, own, views))]


# Below this |w t| the rotation integrals are summed from their Taylor
# series, whose first dropped term is then under 1e-17; at and above it the
# closed forms lose no digits to cancellation.
_SERIES_BAND = 1.0
_SERIES_TERMS = 9
# row k - 1 holds the coefficients (-1)^j / (2j + k)! of the series of S, C / z
# and G / z in z^2, j = 0 .. _SERIES_TERMS - 1
_SERIES_COEFFS = np.array([[(-1) ** j / math.factorial(2 * j + k) for j in range(_SERIES_TERMS)]
                           for k in (1, 2, 3)])


def _rotation_integrals(z: np.ndarray):
    """cos z, sin z and the entire functions S = sin z / z, C = (1 - cos z)/z
    and G = (z - sin z)/z^2 of a 1-d array z (phi-functions of -i z:
    t phi_1(-i w t) is t (S - i C) at z = w t).

    At z = w t they give t S = int_0^t cos(w r) dr, t C = int_0^t sin(w r) dr
    and t^2 G = int_0^t r C(w r) dr without dividing by w, so w = 0 is an
    ordinary value.
    """
    small = np.abs(z) < _SERIES_BAND
    zs = z[small]  # the series are summed only where they are used

    # the three series sum_j (-1)^j z^(2j) / (2j + k)!, k = 1, 2, 3, by one
    # Horner loop in z^2 over a (3, len(zs)) accumulator; tiling z^2 keeps
    # every operand the accumulator's shape
    zz = np.tile(zs * zs, (3, 1))
    series = np.zeros_like(zz)
    for j in reversed(range(_SERIES_TERMS)):
        series = series * zz + _SERIES_COEFFS[:, j, None]

    zl = np.where(small, 1.0, z)  # the closed forms are taken only where |z| >= 1
    cos, sin = np.cos(z), np.sin(z)
    S = sin / zl
    C = (1.0 - cos) / zl
    G = (zl - sin) / zl / zl
    S[small] = series[0]
    C[small] = zs * series[1]
    G[small] = zs * series[2]
    return cos, sin, S, C, G


def exact_flow(setup: MagneticSetup, times) -> Trajectory:
    """The exact solution of the Lorentz equation from (p0, T0), sampled at
    the given times, for any signature and any unit-speed T0, slant or not.
    times are finite real numbers (the rule of ``errors.real_vector``),
    else ConfigError.

    Each eta^a(T) is a first integral, so w = 2 sum_a eta^a(T) - q is
    constant and u = vx + i vy obeys u' = -i w u.  With z = w t and the
    rotation integrals S, C, G of ``_rotation_integrals``, and (a, b) =
    (vx0, vy0):

        vx = a cos z + b sin z,        vy = b cos z - a sin z
        x  = x0 + t (a S + b C),       y  = y0 + t (b S - a C)
        z_a  = z_a0 + 2 eta^a t + int_0^t y . vx
        vz_a = 2 eta^a + y . vx

    where, with X = x - x0 and Y = y - y0, int_0^t y . vx =
    y0 . X + (X . Y + (|a|^2 + |b|^2) t^2 G) / 2.  Nothing divides by w, so
    w = 0 (the slant straight-line family, lambda = w = 0) takes the same
    path.  The accelerations are exact: (vy w, -vx w, vx . vy + (y . vy) w).
    A nonfinite sample raises DivergenceError with the time of the last
    finite one.

    Every block is computed as (components, N) rows, so each operation runs
    along the samples, and the returned arrays are column-major views of
    them, with the bits of the same formulas on C-ordered (N, dim) arrays.
    """
    return _exact_flow(setup, real_vector("times", times, np.size(times)), accelerations=True)


def _exact_flow(setup: MagneticSetup, t: np.ndarray, accelerations: bool) -> Trajectory:
    """``exact_flow`` at the float array t; without accelerations the
    trajectory carries none, and its points and velocities keep their bits
    (a sweep cell reads no acceleration)."""
    sig = setup.sig
    n = sig.n
    p0, v0 = setup.p0, setup.T0
    x0, y0, z0 = p0[:n], p0[n:2 * n], p0[2 * n:]
    a, b = v0[:n], v0[n:2 * n]
    eta = ms.eta_comps(sig, p0, v0)
    w = 2.0 * float(np.sum(eta)) - setup.q

    def dot(b):  # per sample, the sum over the components of b's rows
        return ms._rowsum(b.T)

    a_, b_ = a[:, None], b[:, None]
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is the detected failure mode
        cos, sin, S, C, G = _rotation_integrals(w * t)
        X = t * (a_ * S + b_ * C)
        Y = t * (b_ * S - a_ * C)
        y = y0[:, None] + Y
        vx = a_ * cos + b_ * sin
        vy = b_ * cos - a_ * sin
        # gemv adds in another order for a column-major X, so it gets the
        # C-ordered (N, n) copy; t (t G), not t^2 G: t^2 overflows long
        # before t^2 G ~ t / w does
        int_y_vx = np.ascontiguousarray(X.T) @ y0 + 0.5 * (
            dot(X * Y) + (a @ a + b @ b) * (t * (t * G)))
        two_eta = (2.0 * eta)[:, None]
        pts = np.concatenate([x0[:, None] + X, y, z0[:, None] + two_eta * t + int_y_vx]).T
        vel = np.concatenate([vx, vy, two_eta + dot(y * vx)]).T
        acc = None
        if accelerations:
            az = dot(vx * vy) + dot(y * vy) * w
            acc = np.concatenate([vy * w, vx * -w, np.broadcast_to(az, (sig.s, len(t)))]).T

    traj = Trajectory(sig, t, pts, vel, q=setup.q, accelerations=acc)
    if (k := traj.first_nonfinite()) is not None:
        t_last = float(t[k - 1]) if k else math.nan
        raise DivergenceError(
            f"nonfinite sample at t = {t[k]:.6g}; last valid time {t_last:.6g}", t_last=t_last)
    return traj


def speed_drift(traj: Trajectory) -> float:
    """max_t | sqrt(g(T,T)) - 1 | over the recorded samples."""
    return float(np.max(np.abs(traj.speeds() - 1.0)))


def angle_drift(traj: Trajectory) -> float:
    """max over a, t of | eta^a(T)(t) - eta^a(T)(0) |."""
    etas = traj.etas()
    return float(np.max(np.abs(etas - etas[0])))
