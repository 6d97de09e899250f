"""Reference formulas that the tests check the package against, written out
independently of the code they check.

* ``paper_case_a`` and ``paper_case_b``: the paper's parametric equations of
  the slant normal magnetic curves in R^(2n+s)(-3s), with their exact first
  and second derivatives.  The package samples both families from
  ``exact_flow``; these are the equations it must reproduce.
* ``metric_matrix``: the coordinate components g_ab of the metric.
* ``rk4_reference``: classical RK4 of the Lorentz equation for one setup, as
  a plain loop on a single state; the package's batched driver must give its
  bits.
"""
import functools

import numpy as np

from magcurves import CaseAParams, SpaceSignature, Trajectory, dynamics
from magcurves.errors import DivergenceError


def paper_case_a(params, times) -> Trajectory:
    """The oscillatory family (lambda != 0) at the given times: with
    f_i = -lambda t + a_i,

        x_i = (c_i / -lambda) sin f_i + b_i,   y_i = (c_i / lambda) cos f_i + d_i
        z_a = 2 t cos(theta)
              - sum_i [c_i^2/(4 lambda^2) (sin 2f_i + 2 f_i) + (c_i d_i / lambda) sin f_i]
              + h_a
    """
    sig = params.sig
    s = sig.s
    t = np.asarray(times, dtype=float)[:, None]
    lam = params.lam
    a, b, c, d, h = params.a, params.b, params.c, params.d, params.h
    ct = params.cos_theta

    f = -lam * t + a
    gx = (c / -lam) * np.sin(f) + b
    gy = (c / lam) * np.cos(f) + d
    zcore = 2.0 * t[:, 0] * ct - np.sum(
        (c * c / (4.0 * lam * lam)) * (np.sin(2.0 * f) + 2.0 * f)
        + (c * d / lam) * np.sin(f),
        axis=1,
    )
    pts = np.concatenate([gx, gy, zcore[:, None] + h], axis=1)

    vx = c * np.cos(f)
    vy = c * np.sin(f)
    vz = 2.0 * ct + np.sum((c * c / lam) * np.cos(f) ** 2 + c * d * np.cos(f), axis=1)
    vel = np.concatenate([vx, vy, np.repeat(vz[:, None], s, axis=1)], axis=1)

    ax = lam * c * np.sin(f)
    ay = -lam * c * np.cos(f)
    az = np.sum(c * c * np.sin(2.0 * f) + lam * c * d * np.sin(f), axis=1)
    acc = np.concatenate([ax, ay, np.repeat(az[:, None], s, axis=1)], axis=1)

    return Trajectory(sig, t[:, 0], pts, vel, q=params.q, accelerations=acc)


def paper_case_b(params, times) -> Trajectory:
    """The straight-line family (lambda = 0, q = 2 s cos(theta)) at the given
    times:

        gamma_i = c_i t + d_i                      (i = 1..2n)
        z_a     = 2 t cos(theta) + sum_i c_i (c_{n+i} t^2 / 2 + d_{n+i} t) + h_a
    """
    sig = params.sig
    n, s = sig.n, sig.s
    t = np.asarray(times, dtype=float)[:, None]
    c, d, h = params.c, params.d, params.h
    ct = params.cos_theta

    gxy = c * t + d
    zcore = 2.0 * t[:, 0] * ct + np.sum(c[:n] * (c[n:] * t * t / 2.0 + d[n:] * t), axis=1)
    pts = np.concatenate([gxy, zcore[:, None] + h], axis=1)

    vz = 2.0 * ct + np.sum(c[:n] * (c[n:] * t + d[n:]), axis=1)
    vel = np.concatenate(
        [np.broadcast_to(c, gxy.shape), np.repeat(vz[:, None], s, axis=1)], axis=1
    )

    acc = np.zeros_like(pts)
    acc[:, 2 * n:] = np.sum(c[:n] * c[n:])

    return Trajectory(sig, t[:, 0], pts, vel, q=params.q, accelerations=acc)


def paper_equations(params, times) -> Trajectory:
    """``paper_case_a`` or ``paper_case_b``, by the family of params."""
    return (paper_case_a if isinstance(params, CaseAParams) else paper_case_b)(params, times)


def metric_matrix(sig: SpaceSignature, p) -> np.ndarray:
    """Coordinate components g_ab at the point p, as a (dim, dim) matrix."""
    n, s, d = sig.n, sig.s, sig.dim
    y = np.asarray(p, dtype=float)[n:2 * n]
    g = np.zeros((d, d))
    g[:n, :n] = 0.25 * np.eye(n) + (s / 4.0) * np.outer(y, y)
    g[n:2 * n, n:2 * n] = 0.25 * np.eye(n)
    g[2 * n:, 2 * n:] = 0.25 * np.eye(s)
    g[:n, 2 * n:] = -0.25 * y[:, None]
    g[2 * n:, :n] = -0.25 * y[None, :]
    return g


def rk4_reference(setup, cfg) -> Trajectory:
    """Classical RK4 of the Lorentz equation from setup under cfg: a 1-D
    state (p0, T0), ``dynamics._rhs`` with scalar q, the stage sum
    k1 + 2 k2 + 2 k3 + k4, and every record_every-th state kept by slicing.
    A nonfinite state raises DivergenceError with the last valid time."""
    sig, h = setup.sig, cfg.step
    rhs = functools.partial(dynamics._rhs, sig.n, setup.q, sig.s, np.ones(sig.s))
    state = np.concatenate([setup.p0, setup.T0])
    states = [state]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, cfg.n_steps + 1):
            k1 = rhs(state)
            k2 = rhs(state + 0.5 * h * k1)
            k3 = rhs(state + 0.5 * h * k2)
            k4 = rhs(state + h * k3)
            state = state + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(state)):
                raise DivergenceError(f"nonfinite state at step {k}", t_last=(k - 1) * h)
            states.append(state)
    kept = np.array(states[::cfg.record_every])
    times = h * np.arange(0, cfg.n_steps + 1, cfg.record_every)
    return Trajectory(sig, times, kept[:, :sig.dim], kept[:, sig.dim:], q=setup.q)
