"""Reference formulas that the tests check the package against, written out
independently of the code they check.

* ``paper_case_a`` and ``paper_case_b``: the paper's parametric equations of
  the slant normal magnetic curves in R^(2n+s)(-3s), with their exact first
  and second derivatives.  The package samples both families from
  ``exact_flow``; these are the equations it must reproduce.
* ``metric_matrix``: the coordinate components g_ab of the metric.
* ``rk4_reference``: classical RK4 of the Lorentz equation for one setup, as
  a plain loop on a single state; the package's batched driver must give its
  bits.  With a ``force`` it integrates a perturbed equation, whose curves
  sit a chosen distance from magnetic.
* ``connection_errors``: verify's connection suite as a loop over single
  points, each with its own Christoffel symbols, frame and contractions;
  ``verify.connection_suite`` must give its errors bit for bit.
* ``classification_formula_checks``: the formula checks of verify's
  classification suite and its case draws, written plainly (``rng.choice``
  for signs, ``np.full`` for slant cosines, one library call per draw);
  ``verify._classification_plan`` must give their errors and draws bit for
  bit.
"""
import functools
import math

import numpy as np

from magcurves import CaseAParams, SpaceSignature, Trajectory, dynamics
from magcurves import model_space as ms
from magcurves.classify import (CurveKind, _slant_class, invert_q, order_bound_curvatures,
                                predict_class)
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


def rk4_reference(setup, cfg, force=None) -> Trajectory:
    """Classical RK4 of the Lorentz equation from setup under cfg: a 1-D
    state (p0, T0), ``dynamics._rhs`` with scalar q, the stage sum
    k1 + 2 k2 + 2 k3 + k4, and every record_every-th state kept by slicing.
    A nonfinite state raises DivergenceError with the last valid time.
    force(point, velocity), when given, is added to the acceleration."""
    sig, h = setup.sig, cfg.step
    lorentz = functools.partial(dynamics._rhs, sig.n, setup.q, sig.s, np.ones(sig.s))
    rhs = lorentz if force is None else (lambda state: lorentz(state) + np.concatenate(
        [np.zeros(sig.dim), force(state[:sig.dim], state[sig.dim:])]))
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


def _admissible(rng, s):
    """(q, cos theta) away from the degenerate loci, as verify draws them."""
    limit = 1.0 / math.sqrt(s)
    while True:
        q = rng.uniform(0.5, 3.0) * rng.choice([-1.0, 1.0])
        ct = rng.uniform(-0.9 * limit, 0.9 * limit)
        if abs(1.0 - q * ct) > 0.05 and abs(ct) > 0.01 and abs(ct - 1.0 / q) > 0.01:
            return q, ct


def classification_formula_checks(seed, cases):
    """The errors of verify's four random formula checks from one seeded
    stream, then the stream's cases (s, n, q, cos theta, direction).

    Returns ({check name: list of errors}, cases)."""
    rng = np.random.default_rng(seed)
    errs = {name: [] for name in ("slant_consistency_square", "inversion_round_trip",
                                  "circle_kappa2_boundary", "single_reeb_reduction")}

    for s in (1, 2, 3):
        for _ in range(100):
            q, ct = _admissible(rng, s)
            cls = predict_class(q, ct, s)
            k1, k2 = order_bound_curvatures(q, np.full(s, ct))
            errs["slant_consistency_square"] += [abs(cls.kappa1 - k1), abs(cls.kappa2 - k2)]

    for s in (1, 2, 3):
        for _ in range(50):
            k1 = rng.uniform(0.1, 5.0)
            k2 = rng.uniform(0.05, 5.0)
            for eps in (1, -1):
                inv = invert_q(k1, 0.0, s, case="iii", eps=eps)
                cls = predict_class(inv.q_candidates[0], inv.cos_theta, s)
                errs["inversion_round_trip"] += [abs(cls.kappa1 - k1), abs(cls.kappa2)]
                for branch in (1, -1):
                    if abs(eps * math.sqrt(s) + branch * k2) < 1e-6:
                        continue
                    inv = invert_q(k1, k2, s, case="iv", eps=eps, branch=branch)
                    cls = predict_class(inv.q_candidates[0], inv.cos_theta, s)
                    errs["inversion_round_trip"] += [abs(cls.kappa1 - k1),
                                                     abs(cls.kappa2 - k2)]
            inv = invert_q(k1, math.sqrt(s), s, case="ii")
            for q in inv.q_candidates:
                cls = predict_class(q, 0.0, s)
                errs["inversion_round_trip"] += [abs(cls.kappa1 - k1),
                                                 abs(cls.kappa2 - math.sqrt(s))]

    for s in (1, 2, 3):
        for _ in range(50):
            q = rng.uniform(math.sqrt(s) + 0.1, 4.0) * rng.choice([-1.0, 1.0])
            errs["circle_kappa2_boundary"].append(
                _slant_class(CurveKind.SLANT_HELIX, q, 1.0 / q, s).kappa2)

    for _ in range(100):
        theta = rng.uniform(0.2, math.pi - 0.2)
        q, _ct = _admissible(rng, 1)
        ct = math.cos(theta)
        if abs(1.0 - q * ct) < 0.05 or abs(ct - 1.0 / q) < 0.01 or abs(abs(ct) - 1.0) < 1e-9:
            continue
        k1, _k2 = order_bound_curvatures(q, np.full(1, ct))
        errs["single_reeb_reduction"] += [abs(k1 - abs(q) * math.sin(theta)),
                                          abs(predict_class(q, ct, 1).kappa2 - abs(1.0 - q * ct))]

    drawn = []
    for _ in range(cases):
        s = int(rng.integers(1, 4))
        n = int(rng.integers(1, 3))
        q, ct = _admissible(rng, s)
        drawn.append((s, n, q, ct, rng.normal(size=2 * n)))
    return errs, drawn


def connection_errors(seed, points):
    """The largest error of each of verify's connection checks, by check
    name, from one point at a time of every signature in the grid, the
    point's c, x, v and w drawn in turn from one seeded stream."""
    rng = np.random.default_rng(seed)
    errs = {name: [] for name in ("lower_index_symmetry", "frame_table",
                                  "nabla_xi_is_minus_phi", "metric_compatibility")}
    grid = [(n, s) for n in (1, 2, 3) for s in (1, 2, 3)]
    for n, s in grid:
        sig = SpaceSignature(n, s)
        d = sig.dim
        coord_dirs = np.eye(d)
        xis = 2.0 * coord_dirs[2 * n:]
        for _ in range(max(1, points // len(grid))):
            c = rng.normal(scale=2.0, size=d)
            gamma = ms.christoffel_array(sig, c)
            errs["lower_index_symmetry"].append(np.max(np.abs(gamma - gamma.transpose(0, 2, 1))))

            # nabla_{F_e} F_f: central differences of the frame along F_e
            # (exact, the frame is linear in the point) plus the Christoffels
            F = ms.frame_matrix(sig, c)
            dF = np.stack([(ms.frame_matrix(sig, c + 0.25 * F[:, e])
                            - ms.frame_matrix(sig, c - 0.25 * F[:, e])) / 0.5
                           for e in range(d)], axis=1)
            nabla = dF + np.einsum("kij,ie,jf->kef", gamma, F, F)
            table = np.zeros((d, d, d))
            for i in range(n):
                table[2 * n:, i, n + i] = 2.0
                table[2 * n:, n + i, i] = -2.0
                table[:, i, 2 * n:] = table[:, 2 * n:, i] = -F[:, n + i, None]
                table[:, n + i, 2 * n:] = table[:, 2 * n:, n + i] = F[:, i, None]
            errs["frame_table"].append(np.max(np.abs(nabla - table)))

            x = rng.normal(scale=2.0, size=d)
            nabla_xi = np.einsum("kij,i,aj->ak", gamma, x, xis)
            errs["nabla_xi_is_minus_phi"].append(
                np.max(np.abs(nabla_xi + ms.phi_comps(sig, c, x))))

            h = 1e-5
            v, w = rng.normal(scale=2.0, size=(2, d))
            lhs = (ms.inner(sig, c + h * coord_dirs, v, w)
                   - ms.inner(sig, c - h * coord_dirs, v, w)) / (2 * h)
            rhs = (ms.inner(sig, c, np.einsum("kij,ei,j->ek", gamma, coord_dirs, v), w)
                   + ms.inner(sig, c, v, np.einsum("kij,ei,j->ek", gamma, coord_dirs, w)))
            errs["metric_compatibility"].append(np.max(np.abs(lhs - rhs)))
    return {name: float(np.max(e)) for name, e in errs.items()}
