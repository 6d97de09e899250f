"""Seeded verification suites for the structure, connection, curve and
classification invariants.

Each suite returns a list of check records; ``run_all`` aggregates them
into a machine-readable report that is byte-identical across runs for a
fixed seed.  A record keeps the largest error of its check, and a NaN error
is the largest, so it fails the check.  The structure suite reduces every
identity once per signature, and the connection suite compares the whole
frame table nabla_{F_e} F_f, the xi-xi block included, with the expected
one, for all of a signature's points at once.  The curve and
classification suites integrate their curves at one fine step, 8e-3, set
from the measured errors of the checks that depend on it, all fourth order
in the step (see ``_FINE_STEP``); only rk4_drift_ratio's two coarse runs
take steps of their own.  ``run_all`` steps all of those curves in one RK4
batch, each under its own config (``_run_plans``), with the bits that each
suite gets on its own.  The tests hold fault injections (a scaled
or sign-flipped field strength in the RK4 right-hand side, shifted Frenet
curvatures) that the curve and classification checks catch at this step as
at 1e-3.
``metric_perturbation`` deliberately corrupts the metric used inside the
structure suite; it exists as a negative control so callers can confirm the
suite actually fails when the geometry is wrong.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from . import model_space as ms
from .classify import (
    CurveKind,
    _slant_class,
    check_circle_existence,
    classify_trajectory,
    invert_q,
    order_bound_curvatures,
    predict_class,
)
from .closed_form import random_params, sample_case_a
from .dynamics import (
    IntegratorConfig,
    MagneticSetup,
    Trajectory,
    initial_tangent,
    # unused here, but kept bound: perfbench/spans.py wraps verify.integrate by
    # name, and every traced benchmark run fails with an AttributeError without it
    integrate,  # noqa: F401
    integrate_many,
    speed_drift,
)
from .frenet import Measurement, frenet_apparatus, residual

__all__ = [
    "CheckRecord",
    "structure_suite",
    "connection_suite",
    "curve_suite",
    "classification_suite",
    "run_all",
]

_SIG_GRID = [(n, s) for n in (1, 2, 3) for s in (1, 2, 3)]


@dataclass(frozen=True)
class CheckRecord:
    suite: str
    name: str
    max_err: float
    tol: float
    passed: bool


def _record(suite: str, name: str, errs, tol: float) -> CheckRecord:
    """The check record of the largest of errs, a nonnegative error or an
    array or list of them (0.0 for none).  A NaN among them is the largest,
    so that it fails the check."""
    err = float(np.max(errs, initial=0.0))
    return CheckRecord(suite, name, err, tol, bool(err <= tol))


# ---------------------------------------------------------------------------
# structure identities
# ---------------------------------------------------------------------------

def _nabla_phi_sides(sig: ms.SpaceSignature, p: np.ndarray, u: np.ndarray, v: np.ndarray,
                     h: float = 1e-6) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the covariant-derivative identity for phi, batched over
    leading axes.

    The left side (nabla_u phi)v = nabla_u(phi v) - phi(nabla_u v) is
    assembled for constant-component extensions of u and v: the coefficient
    derivative of phi v along u is taken by central differences (phi's
    coefficients are linear in y, so the step only controls rounding), the
    connection terms come from the closed-form contraction.  The right side

        g(phi u, phi v) sum_a xi_a + (sum_a eta^a(v)) phi^2 u

    is evaluated exactly.  Returns (lhs, rhs).
    """
    d_phiv = (ms.phi_comps(sig, p + h * u, v) - ms.phi_comps(sig, p - h * u, v)) / (2 * h)
    phiu = ms.phi_comps(sig, p, u)
    phiv = ms.phi_comps(sig, p, v)
    nab_u_phiv = d_phiv + ms.gamma_bilinear(sig, p, u, phiv)
    lhs = nab_u_phiv - ms.phi_comps(sig, p, ms.gamma_bilinear(sig, p, u, v))
    sum_xi = np.zeros(sig.dim)
    sum_xi[2 * sig.n:] = 2.0
    rhs = (ms.inner(sig, p, phiu, phiv)[..., None] * sum_xi
           + np.sum(ms.eta_comps(sig, p, v), axis=-1, keepdims=True)
           * ms.phi_comps(sig, p, phiu))
    return lhs, rhs


# name -> tolerance of every structure check, in report order; the
# derivative identities are taken by central differences
_STRUCTURE_TOLS = {
    "phi_squared": 1e-12,
    "phi_metric_compat": 1e-12,
    "eta_xi_duality": 1e-12,
    "phi_xi_kernel": 1e-12,
    "eta_phi_kernel": 1e-12,
    "eta_metric_dual": 1e-12,
    "d_eta_fundamental": 1e-5,
    "nabla_phi": 1e-5,
}


def structure_suite(seed: int = 0, samples: int = 1000,
                    metric_perturbation: float = 0.0) -> list[CheckRecord]:
    """Algebraic and finite-difference identities of the framed structure.

    Runs ``samples`` random (point, vector, vector) triples for every
    (n, s) in {1,2,3} x {1,2,3}.
    """
    rng = np.random.default_rng(seed)
    rows = []  # per signature, the largest error of every check

    for (n, s) in _SIG_GRID:
        sig = ms.SpaceSignature(n, s)
        p, u, v = rng.normal(scale=2.0, size=(3, samples, sig.dim))

        def g(a, b):
            base = ms.inner(sig, p, a, b)
            if metric_perturbation:
                base = base + metric_perturbation * a[..., 0] * b[..., 0]
            return base

        phiu = ms.phi_comps(sig, p, u)
        phiv = ms.phi_comps(sig, p, v)
        eta_u = ms.eta_comps(sig, p, u)
        eta_v = ms.eta_comps(sig, p, v)
        xis = 2.0 * np.eye(sig.dim)[2 * n:]  # row a is xi_a

        # phi^2 = -I + sum eta^a (x) xi_a
        phi_sq = -u
        phi_sq[:, 2 * n:] += 2.0 * eta_u
        # d(eta^a)(X, Y) = g(X, phi Y) with the 1/2-alternation convention,
        # by central differences on constant-component fields
        h = 1e-5
        x_eta_v = (ms.eta_comps(sig, p + h * u, v) - ms.eta_comps(sig, p - h * u, v)) / (2 * h)
        y_eta_u = (ms.eta_comps(sig, p + h * v, u) - ms.eta_comps(sig, p - h * v, u)) / (2 * h)
        # the covariant derivative of phi against its closed form
        nabla_phi, nabla_phi_rhs = _nabla_phi_sides(sig, p, u, v)
        diff = nabla_phi - nabla_phi_rhs

        errs = {
            "phi_squared": np.abs(ms.phi_comps(sig, p, phiu) - phi_sq),
            # g(phi X, phi Y) = g(X, Y) - sum eta(X) eta(Y)
            "phi_metric_compat": np.abs(g(phiu, phiv)
                                        - (g(u, v) - np.sum(eta_u * eta_v, axis=-1))),
            # eta^a(xi_b) = delta, phi xi = 0
            "eta_xi_duality": np.abs(ms.eta_comps(sig, p[:s], xis) - np.eye(s)),
            "phi_xi_kernel": np.abs(ms.phi_comps(sig, p[:s], xis)),
            # eta(phi X) = 0 and eta^a(X) = g(X, xi_a)
            "eta_phi_kernel": np.abs(ms.eta_comps(sig, p, phiu)),
            "eta_metric_dual": np.abs(eta_u - ms.inner(sig, p[:, None], u[:, None], xis)),
            "d_eta_fundamental": np.abs(0.5 * (x_eta_v - y_eta_u)
                                        - ms.inner(sig, p, u, phiv)[:, None]),
            "nabla_phi": np.sqrt(ms.inner(sig, p, diff, diff)),
        }
        rows.append([np.max(errs[name]) for name in _STRUCTURE_TOLS])

    return [_record("structure", name, err, tol)
            for (name, tol), err in zip(_STRUCTURE_TOLS.items(), np.max(rows, axis=0))]


# ---------------------------------------------------------------------------
# connection table
# ---------------------------------------------------------------------------

def _frame_derivatives(sig: ms.SpaceSignature, coords: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Derivatives of the frame matrix's coefficients along every column of
    F: out[:, e, f] is the derivative of column f along F_e.  Batched over
    trailing axes: coords of shape (dim, ...) holds one point per trailing
    index, F of shape (dim, dim, ...) its frame, and out has shape
    (dim, dim, dim, ...).

    Frame coefficients are linear in the coordinates, so the central
    difference is exact for any step; a large step minimizes rounding.  One
    batched ``frame_matrix`` call takes the 2 dim points coords +- h F_e of
    every point.
    """
    h = 0.25
    step = h * F
    # points of shape (+-, e, ..., dim), the layout frame_matrix batches over
    points = np.moveaxis(np.stack([coords[:, None] + step, coords[:, None] - step]), 1, -1)
    frames = ms.frame_matrix(sig, points)
    return np.moveaxis((frames[0] - frames[1]) / (2 * h), (-2, -1), (0, 2))


def _frame_table(sig: ms.SpaceSignature, F: np.ndarray) -> np.ndarray:
    """The connection table of the frame F = (X_1..X_2n, xi_1..xi_s):
    table[:, e, f] is nabla_{F_e} F_f.  Its nonzero entries are

        nabla_{X_i} X_{n+i}  = -nabla_{X_{n+i}} X_i = sum_a xi_a,
        nabla_{X_i} xi_a     = nabla_{xi_a} X_i     = -X_{n+i},
        nabla_{X_{n+i}} xi_a = nabla_{xi_a} X_{n+i} = X_i;

    every other pair, the xi-xi block included, is 0.  Batched over trailing
    axes as ``_frame_derivatives``: F of shape (dim, dim, ...) gives a table
    of shape (dim, dim, dim, ...).
    """
    n = sig.n
    xi = slice(2 * n, None)
    table = np.zeros((sig.dim,) * 3 + F.shape[2:])
    for i in range(n):
        table[xi, i, n + i] = 2.0
        table[xi, n + i, i] = -2.0
        table[:, i, xi] = table[:, xi, i] = -F[:, n + i, None]
        table[:, n + i, xi] = table[:, xi, n + i] = F[:, i, None]
    return table


# name -> tolerance of every connection check, in report order
_CONNECTION_TOLS = {
    "lower_index_symmetry": 1e-14,
    "frame_table": 1e-10,
    "nabla_xi_is_minus_phi": 1e-10,
    "metric_compatibility": 1e-5,
}


def connection_suite(seed: int = 0, points: int = 100) -> list[CheckRecord]:
    """The frame-by-frame connection table, metric compatibility, symmetry
    and the Reeb-field derivative rule, from the coordinate Christoffels.

    Each of the 9 signatures of the grid checks max(1, points // 9) random
    points, so the number checked is not ``points`` unless it is a multiple
    of 9 (``magcurves verify``'s default 50 checks 45).  A signature's
    points are checked together, each with the bits of checking it alone.
    """
    rng = np.random.default_rng(seed)
    rows = []  # per signature, the largest error of every check

    for (n, s) in _SIG_GRID:
        sig = ms.SpaceSignature(n, s)
        d = sig.dim
        coord_dirs = np.eye(d)
        xis = 2.0 * coord_dirs[2 * n:]  # row a is xi_a
        # each point draws its c, x, v and w from the stream in turn
        c, x, v, w = np.moveaxis(
            rng.normal(scale=2.0, size=(max(1, points // len(_SIG_GRID)), 4, d)), 1, 0)
        gamma = ms.christoffel_array(sig, c)

        # nabla[:, e, f, p] = nabla_{F_e} F_f at point p: the derivative of
        # F_f's coefficients along F_e plus the coordinate Christoffels
        F = np.moveaxis(ms.frame_matrix(sig, c), 0, -1)
        nabla = _frame_derivatives(sig, c.T, F) + np.einsum("pkij,iep,jfp->kefp", gamma, F, F)

        # nabla_X xi_a = -phi X for constant-component X
        nabla_xi = np.einsum("pkij,pi,aj->pak", gamma, x, xis)

        # metric compatibility along the coordinate directions (step 1e-5)
        h = 1e-5
        c1, v1, w1 = c[:, None], v[:, None], w[:, None]
        lhs = (ms.inner(sig, c1 + h * coord_dirs, v1, w1)
               - ms.inner(sig, c1 - h * coord_dirs, v1, w1)) / (2 * h)
        rhs = (ms.inner(sig, c1, np.einsum("pkij,ei,pj->pek", gamma, coord_dirs, v), w1)
               + ms.inner(sig, c1, v1, np.einsum("pkij,ei,pj->pek", gamma, coord_dirs, w)))

        rows.append([np.max(np.abs(gamma - gamma.swapaxes(-1, -2))),
                     np.max(np.abs(nabla - _frame_table(sig, F))),
                     np.max(np.abs(nabla_xi + ms.phi_comps(sig, c, x)[:, None])),
                     np.max(np.abs(lhs - rhs))])

    return [_record("connection", name, err, tol)
            for (name, tol), err in zip(_CONNECTION_TOLS.items(), np.max(rows, axis=0))]


# ---------------------------------------------------------------------------
# the fine-step trajectories of the curve and classification suites
# ---------------------------------------------------------------------------

# The fine step is the largest power-of-two multiple of 1e-3 at which every
# check whose error depends on it keeps its worst max_err at or below tol / 5
# over seeds 0-199.  Every such check grows as h^4 (x16 per doubling): the
# RK4-bound ones from the integrator, the finite-difference-bound ones from
# the five-point stencil of frenet.  Worst max_err / tol at h = 1e-3, 2e-3,
# 4e-3, 8e-3, 16e-3:
#   empirical_frenet_curvature     5.2e-6  8.3e-5  1.3e-3  0.019   0.31
#   closed_form_vs_rk4             2.6e-6  4.1e-5  6.6e-4  0.0105  0.169
#   angle_drift                    2.3e-6  3.4e-5  5.4e-4  0.0087  0.14
#   speed_drift                    1.3e-6  1.7e-5  2.8e-4  0.0047  0.081
#   empirical_curvature_agreement  2.9e-7  4.7e-6  7.4e-5  0.0012  0.019
# and every other curve or classification check stays below 1e-3 of its tol
# at 16e-3 (closed_form_residual sits at rounding level, 1.4e-5 of its
# 1e-10, at every step).  At 8e-3 the smallest margin is 10.5x inside tol / 5.
# 16e-3 is out twice over: empirical_frenet_curvature breaks tol / 5, and
# the largest h|w| (0.097 there, 0.048 here) would exceed the 0.05 that the
# tests hold it to (see _run_plans).  The fault injections of
# tests/test_verify.py fail their checks from the same size (power of ten)
# at 1e-3 and at this step.
_FINE_STEP = 8e-3
_CURVE_CFG = IntegratorConfig(t_end=5.0, step=_FINE_STEP)
_CLASSIFICATION_CFG = IntegratorConfig(t_end=2.0, step=_FINE_STEP)
# the coarse grid of rk4_drift_ratio, whose speed drift falls 16x per halving
_COARSE_CFGS = [IntegratorConfig(t_end=5.0, step=0.05), IntegratorConfig(t_end=5.0, step=0.025)]


class _Plan(NamedTuple):
    """One suite's share of the RK4 run: the setups it needs integrated, the
    config of each (cfg[i] for setups[i]), and finish(trajectories) -> the
    suite's records."""

    setups: list[MagneticSetup]
    cfg: list[IntegratorConfig]
    finish: Callable[[list[Trajectory]], list[CheckRecord]]


def _run_plans(plans: list[_Plan]) -> list[list[CheckRecord]]:
    """The records of every plan, with all their setups stepped in one
    ``integrate_many`` batch, each under its own config.

    RK4 rows never mix, so every trajectory has the bits of a run of its
    setup alone (the batch stays within the widths where ``integrate_many``
    keeps each row's bits).  The batch steps every row for the longest
    config's step count (625), so rows with fewer steps run on past their
    own end, and no row goes nonfinite there: a slant curve's (vx, vy) turns
    at the constant rate w = 2 s cos(theta) - q, and |w| < 1.8 sqrt(3) + 3 < 6.12
    for every case that ``_random_admissible`` draws, so h|w| < 0.049 at
    ``_FINE_STEP`` (0.0483 measured over seeds 0-199), while the coarse rows
    of rk4_drift_ratio (w = -3.6) step to t = 31.25 and 15.625 at h|w| =
    0.18 and 0.09; all far inside RK4's stability limit of 2 sqrt(2).
    """
    setups = [st for p in plans for st in p.setups]
    trajs = integrate_many(setups, [c for p in plans for c in p.cfg]) if setups else []
    out = []
    for p in plans:
        own, trajs = trajs[:len(p.setups)], trajs[len(p.setups):]
        out.append(p.finish(own))
    return out


def _slant_setup(n: int, s: int, q: float, cos_theta: float,
                 direction=None) -> MagneticSetup:
    sig = ms.SpaceSignature(n, s)
    p0 = np.zeros(sig.dim)
    return MagneticSetup(sig, q, p0, initial_tangent(sig, p0, [cos_theta] * s, direction))


def _curve_plan(seed: int) -> _Plan:
    # the circle, the Legendre helix and a closed-form trajectory, which is
    # sampled on the integrator's own recorded times, then one slant circle
    # on each coarse grid
    params = random_params(ms.SpaceSignature(1, 1), q=2.0, cos_theta=0.5, seed=seed)
    exact = sample_case_a(params, _CURVE_CFG.times)
    setups = [_slant_setup(1, 1, 2.0, 0.5), _slant_setup(1, 2, 1.5, 0.0), params.setup()]
    coarse = _slant_setup(1, 1, 4.0, 0.2)
    return _Plan(setups + [coarse] * len(_COARSE_CFGS), [_CURVE_CFG] * len(setups) + _COARSE_CFGS,
                 functools.partial(_curve_checks, exact))


def _curve_checks(exact: Trajectory, trajs: list[Trajectory]) -> list[CheckRecord]:
    traj, traj_h, traj_cf, coarse1, coarse2 = trajs
    out: list[CheckRecord] = []

    # canonical slant circle: n=1, s=1, q=2, cos theta = 1/2
    circle = Measurement(traj, frenet_apparatus(traj))
    out.append(_record("curves", "speed_drift", circle.speed_drift, 1e-8))
    out.append(_record("curves", "angle_drift", circle.angle_drift, 1e-8))
    out.append(_record("curves", "lorentz_fd_residual", residual(traj, 2.0), 1e-4))
    out.append(_record("curves", "circle_kappa1", abs(circle.kappa1 - math.sqrt(3.0)), 1e-4))
    out.append(_record("curves", "circle_kappa2", circle.kappa2, 1e-4))
    out.append(_record("curves", "circle_order", abs(circle.osculating_order(1e-3) - 2), 0.0))

    # fourth-order drift decay on a coarse grid
    d1, d2 = speed_drift(coarse1), speed_drift(coarse2)
    ratio = d1 / d2 if d2 != 0 else math.inf  # a NaN drift gives a NaN ratio
    out.append(_record("curves", "rk4_drift_ratio", 12.0 - min(ratio, 12.0), 0.0))

    # Legendre helix with two Reeb directions: kappa1=|q|, kappa2=sqrt(2)
    helix = Measurement(traj_h, frenet_apparatus(traj_h))
    out.append(_record("curves", "legendre_kappa1", abs(helix.kappa1 - 1.5), 1e-4))
    out.append(_record("curves", "legendre_kappa2", abs(helix.kappa2 - math.sqrt(2.0)), 1e-3))
    out.append(_record("curves", "legendre_kappa3", helix.kappa3, 1e-3))

    # closed form against the integrator, matched initial data
    out.append(_record("curves", "closed_form_residual", residual(exact, 2.0), 1e-10))
    out.append(_record("curves", "closed_form_vs_rk4",
                       np.abs(traj_cf.points - exact.points), 1e-6))
    return out


def curve_suite(seed: int = 0) -> list[CheckRecord]:
    """Integrator conservation/convergence, closed-form agreement, and the
    curvature relations of the canonical circle and helix cases."""
    return _run_plans([_curve_plan(seed)])[0]


# ---------------------------------------------------------------------------
# classification consistency
# ---------------------------------------------------------------------------

def _random_sign(rng) -> float:
    """-1.0 or 1.0, picked as rng.choice([-1.0, 1.0]) picks it (the same
    index from the same draw of the stream), without choice's per-call
    cost."""
    return (-1.0, 1.0)[rng.integers(2)]


def _random_admissible(rng, s: int) -> tuple[float, float]:
    """(q, cos_theta) sampled away from the degenerate loci so the exact
    comparisons below are well conditioned (the loci get their own checks)."""
    limit = 1.0 / math.sqrt(s)
    while True:
        q = rng.uniform(0.5, 3.0) * _random_sign(rng)
        ct = rng.uniform(-0.9 * limit, 0.9 * limit)
        if abs(1.0 - q * ct) > 0.05 and abs(ct) > 0.01 and abs(ct - 1.0 / q) > 0.01:
            return q, ct


def _classification_plan(seed: int, cases: int) -> _Plan:
    # the formula checks first, then the case draws, in one random stream
    rng = np.random.default_rng(seed)
    out: list[CheckRecord] = []

    # predicted curvatures match the general order-bound formulas
    square_err = []
    for s in (1, 2, 3):
        for _ in range(100):
            q, ct = _random_admissible(rng, s)
            cls = predict_class(q, ct, s)
            k1, k2 = order_bound_curvatures(q, [ct] * s)
            square_err += [abs(cls.kappa1 - k1), abs(cls.kappa2 - k2)]
    out.append(_record("classification", "slant_consistency_square", square_err, 1e-14))

    # invert/predict round trips over all branch choices
    rt_err = []
    for s in (1, 2, 3):
        for _ in range(50):
            k1 = rng.uniform(0.1, 5.0)
            k2 = rng.uniform(0.05, 5.0)
            for eps in (1, -1):
                inv = invert_q(k1, 0.0, s, case="iii", eps=eps)
                cls = predict_class(inv.q_candidates[0], inv.cos_theta, s)
                rt_err += [abs(cls.kappa1 - k1), abs(cls.kappa2)]
                for branch in (1, -1):
                    if abs(eps * math.sqrt(s) + branch * k2) < 1e-6:
                        continue
                    inv = invert_q(k1, k2, s, case="iv", eps=eps, branch=branch)
                    cls = predict_class(inv.q_candidates[0], inv.cos_theta, s)
                    rt_err += [abs(cls.kappa1 - k1), abs(cls.kappa2 - k2)]
            inv = invert_q(k1, math.sqrt(s), s, case="ii")
            for q in inv.q_candidates:
                cls = predict_class(q, 0.0, s)
                rt_err += [abs(cls.kappa1 - k1), abs(cls.kappa2 - math.sqrt(s))]
    out.append(_record("classification", "inversion_round_trip", rt_err, 1e-12))

    # circle boundary: the slant helix's kappa2 vanishes at cos theta = 1/q,
    # and the existence threshold is honored exactly at |q| = sqrt(s)
    boundary_err = []
    for s in (1, 2, 3):
        for _ in range(50):
            q = rng.uniform(math.sqrt(s) + 0.1, 4.0) * _random_sign(rng)
            boundary_err.append(_slant_class(CurveKind.SLANT_HELIX, q, 1.0 / q, s).kappa2)
    out.append(_record("classification", "circle_kappa2_boundary", boundary_err, 1e-15))
    prop_ok = all(
        not check_circle_existence(math.sqrt(s), s)
        and not check_circle_existence(-math.sqrt(s), s)
        and check_circle_existence(math.sqrt(s) + 1e-9, s)
        for s in (1, 2, 3)
    )
    out.append(_record("classification", "circle_existence_threshold",
                       0.0 if prop_ok else 1.0, 0.0))

    # s = 1 reduces to the single-Reeb (Sasakian) formulas
    sas_err = []
    for _ in range(100):
        theta = rng.uniform(0.2, math.pi - 0.2)
        q, _ct = _random_admissible(rng, 1)
        ct = math.cos(theta)
        if abs(1.0 - q * ct) < 0.05 or abs(ct - 1.0 / q) < 0.01 or abs(abs(ct) - 1.0) < 1e-9:
            continue
        k1, _k2 = order_bound_curvatures(q, [ct])
        sas_err += [abs(k1 - abs(q) * math.sin(theta)),
                    abs(predict_class(q, ct, 1).kappa2 - abs(1.0 - q * ct))]
    out.append(_record("classification", "single_reeb_reduction", sas_err, 1e-14))

    # empirical agreement between measured and predicted classes; every case
    # is drawn before the batched run, which draws no random numbers
    drawn = []
    for i in range(cases):
        s = int(rng.integers(1, 4))
        n = int(rng.integers(1, 3))
        q, ct = _random_admissible(rng, s)
        drawn.append((s, q, ct, _slant_setup(n, s, q, ct, direction=rng.normal(size=2 * n))))
    return _Plan([setup for *_, setup in drawn], [_CLASSIFICATION_CFG] * len(drawn),
                 functools.partial(_classification_checks, out, drawn))


def _classification_checks(before: list[CheckRecord], drawn: list,
                           trajs: list[Trajectory]) -> list[CheckRecord]:
    kind_mismatches = 0
    curv_err = []
    frenet_err = []  # the Frenet medians, which got's curvatures (from the fitted q) skip
    for (s, q, ct, _), traj in zip(drawn, trajs):
        got = classify_trajectory(traj, frenet_apparatus(traj), tol=1e-3)
        want = predict_class(q, ct, s)
        if got.kind != want.kind:
            kind_mismatches += 1
        else:
            curv_err += [abs(got.kappa1 - want.kappa1), abs(got.kappa2 - want.kappa2)]
        # measured reports a NaN median as None; as NaN it fails the check
        k1, k2 = (math.nan if got.measured[k] is None else got.measured[k]
                  for k in ("kappa1", "kappa2"))
        frenet_err += [abs(k1 - want.kappa1), abs(k2 - want.kappa2)]
    return before + [
        _record("classification", "empirical_kind_agreement", float(kind_mismatches), 0.0),
        _record("classification", "empirical_curvature_agreement", curv_err, 1e-3),
        _record("classification", "empirical_frenet_curvature", frenet_err, 1e-4),
    ]


def classification_suite(seed: int = 0, cases: int = 10) -> list[CheckRecord]:
    """The predicted classes against the general curvature formulas, the
    inversion round trips, the circle boundary and the s = 1 reduction, and
    the classes measured on ``cases`` integrated random slant curves."""
    return _run_plans([_classification_plan(seed, cases)])[0]


def run_all(seed: int = 0, samples: int = 200, points: int = 50, cases: int = 5,
            metric_perturbation: float = 0.0) -> dict:
    """All suites; returns a deterministic report dictionary."""
    checks: list[CheckRecord] = []
    checks += structure_suite(seed, samples, metric_perturbation)
    checks += connection_suite(seed, points)
    # the curve and classification suites' trajectories share one RK4 batch
    for records in _run_plans([_curve_plan(seed), _classification_plan(seed, cases)]):
        checks += records
    return {
        "seed": seed,
        "samples": samples,
        "points": points,
        "cases": cases,
        "metric_perturbation": metric_perturbation,
        "checks": [asdict(c) for c in checks],
        "passed": all(c.passed for c in checks),
    }
