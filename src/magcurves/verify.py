"""Seeded verification suites for the structure, connection, curve and
classification invariants.

Each suite returns a list of check records; ``run_all`` aggregates them
into a machine-readable report that is byte-identical across runs for a
fixed seed.  ``metric_perturbation`` deliberately corrupts the metric used
inside the structure suite; it exists as a negative control so callers can
confirm the suite actually fails when the geometry is wrong.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import model_space as ms
from .classify import (
    check_circle_existence,
    classify_trajectory,
    invert_q,
    order_bound_curvatures,
    predict_class,
)
from .closed_form import random_params, residual, sample_case_a
from .dynamics import (
    IntegratorConfig,
    MagneticSetup,
    angle_drift,
    initial_tangent,
    integrate,
    integrate_many,
    speed_drift,
)
from .frenet import _nanmedian, frenet_apparatus, osculating_order

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


def _record(suite: str, name: str, err: float, tol: float) -> CheckRecord:
    err = float(err)
    return CheckRecord(suite, name, err, tol, bool(err <= tol))


# ---------------------------------------------------------------------------
# structure identities
# ---------------------------------------------------------------------------

def structure_suite(seed: int = 0, samples: int = 1000,
                    metric_perturbation: float = 0.0) -> list[CheckRecord]:
    """Algebraic and finite-difference identities of the framed structure.

    Runs ``samples`` random (point, vector, vector) triples for every
    (n, s) in {1,2,3} x {1,2,3}.
    """
    rng = np.random.default_rng(seed)
    out: list[CheckRecord] = []
    errs = {
        "phi_squared": 0.0,
        "phi_metric_compat": 0.0,
        "eta_xi_duality": 0.0,
        "phi_xi_kernel": 0.0,
        "eta_phi_kernel": 0.0,
        "eta_metric_dual": 0.0,
        "d_eta_fundamental": 0.0,
        "nabla_phi": 0.0,
    }

    for (n, s) in _SIG_GRID:
        sig = ms.SpaceSignature(n, s)
        d = sig.dim
        p = rng.normal(scale=2.0, size=(samples, d))
        u = rng.normal(scale=2.0, size=(samples, d))
        v = rng.normal(scale=2.0, size=(samples, d))

        def g(a, b, pts=p):
            base = ms.inner(sig, pts, a, b)
            if metric_perturbation:
                base = base + metric_perturbation * a[..., 0] * b[..., 0]
            return base

        phiu = ms.phi_comps(sig, p, u)
        eta_u = ms.eta_comps(sig, p, u)
        eta_v = ms.eta_comps(sig, p, v)

        # phi^2 = -I + sum eta^a (x) xi_a   (xi_a components: 2 in slot z_a)
        phi2 = ms.phi_comps(sig, p, phiu)
        expected = -u
        expected[:, 2 * n:] += 2.0 * eta_u
        errs["phi_squared"] = max(errs["phi_squared"], np.max(np.abs(phi2 - expected)))

        # g(phi X, phi Y) = g(X, Y) - sum eta(X) eta(Y)
        phiv = ms.phi_comps(sig, p, v)
        lhs = g(phiu, phiv)
        rhs = g(u, v) - np.sum(eta_u * eta_v, axis=-1)
        errs["phi_metric_compat"] = max(errs["phi_metric_compat"], np.max(np.abs(lhs - rhs)))

        # eta^a(xi_b) = delta, phi xi = 0
        xis = np.zeros((s, d))
        for a in range(s):
            xis[a, 2 * n + a] = 2.0
        eta_xi = ms.eta_comps(sig, p[:s], xis)
        errs["eta_xi_duality"] = max(errs["eta_xi_duality"], np.max(np.abs(eta_xi - np.eye(s))))
        errs["phi_xi_kernel"] = max(
            errs["phi_xi_kernel"], np.max(np.abs(ms.phi_comps(sig, p[:s], xis)))
        )

        # eta(phi X) = 0 and eta^a(X) = g(X, xi_a)
        errs["eta_phi_kernel"] = max(
            errs["eta_phi_kernel"], np.max(np.abs(ms.eta_comps(sig, p, phiu)))
        )
        g_u_xi = np.stack(
            [ms.inner(sig, p, u, np.broadcast_to(xis[a], u.shape)) for a in range(s)], axis=-1
        )
        errs["eta_metric_dual"] = max(errs["eta_metric_dual"], np.max(np.abs(eta_u - g_u_xi)))

        # d(eta^a)(X, Y) = g(X, phi Y) with the 1/2-alternation convention,
        # by central differences on constant-component fields
        h = 1e-5
        x_eta_v = (ms.eta_comps(sig, p + h * u, v) - ms.eta_comps(sig, p - h * u, v)) / (2 * h)
        y_eta_u = (ms.eta_comps(sig, p + h * v, u) - ms.eta_comps(sig, p - h * v, u)) / (2 * h)
        deta = 0.5 * (x_eta_v - y_eta_u)
        g_u_phiv = ms.inner(sig, p, u, phiv)
        errs["d_eta_fundamental"] = max(
            errs["d_eta_fundamental"], np.max(np.abs(deta - g_u_phiv[:, None]))
        )

        # covariant derivative of phi against its closed form
        hf = 1e-6
        d_phiv = (ms.phi_comps(sig, p + hf * u, v) - ms.phi_comps(sig, p - hf * u, v)) / (2 * hf)
        nab_u_phiv = d_phiv + ms.gamma_bilinear(sig, p, u, phiv)
        lhs_np = nab_u_phiv - ms.phi_comps(sig, p, ms.gamma_bilinear(sig, p, u, v))
        sum_xi = np.zeros(d)
        sum_xi[2 * n:] = 2.0
        rhs_np = (ms.inner(sig, p, phiu, phiv)[:, None] * sum_xi
                  + np.sum(eta_v, axis=-1)[:, None] * phi2)
        diff = lhs_np - rhs_np
        err = np.max(np.sqrt(ms.inner(sig, p, diff, diff)))
        errs["nabla_phi"] = max(errs["nabla_phi"], err)

    tols = {
        "phi_squared": 1e-12,
        "phi_metric_compat": 1e-12,
        "eta_xi_duality": 1e-12,
        "phi_xi_kernel": 1e-12,
        "eta_phi_kernel": 1e-12,
        "eta_metric_dual": 1e-12,
        "d_eta_fundamental": 1e-5,
        "nabla_phi": 1e-5,
    }
    for name, err in errs.items():
        out.append(_record("structure", name, err, tols[name]))
    return out


# ---------------------------------------------------------------------------
# connection table
# ---------------------------------------------------------------------------

def _frame_field_rate(sig: ms.SpaceSignature, coords: np.ndarray, gamma: np.ndarray,
                      frame: np.ndarray, e_idx: int, f_idx: int) -> np.ndarray:
    """nabla of the f-th frame field along the e-th, from coordinate
    Christoffels plus the derivative of the frame coefficients.

    Frame coefficients are linear in the coordinates, so the central
    difference is exact for any step; a large step minimizes rounding.
    """
    h = 0.25
    e = frame[:, e_idx]
    fp = ms.frame_matrix(sig, coords + h * e)[:, f_idx]
    fm = ms.frame_matrix(sig, coords - h * e)[:, f_idx]
    return (fp - fm) / (2 * h) + np.einsum("kij,i,j->k", gamma, e, frame[:, f_idx])


def connection_suite(seed: int = 0, points: int = 100) -> list[CheckRecord]:
    """The frame-by-frame connection table, metric compatibility, symmetry
    and the Reeb-field derivative rule, from the coordinate Christoffels."""
    rng = np.random.default_rng(seed)
    out: list[CheckRecord] = []
    table_err = 0.0
    nabla_xi_err = 0.0
    sym_err = 0.0
    compat_err = 0.0

    for (n, s) in _SIG_GRID:
        sig = ms.SpaceSignature(n, s)
        d = sig.dim
        per_sig = max(1, points // len(_SIG_GRID))
        for _ in range(per_sig):
            c = rng.normal(scale=2.0, size=d)
            gamma = ms.christoffel_array(sig, c)
            sym_err = max(sym_err, np.max(np.abs(gamma - gamma.transpose(0, 2, 1))))

            F = ms.frame_matrix(sig, c)
            sum_xi = np.zeros(d)
            sum_xi[2 * n:] = 2.0

            def rate(e_idx, f_idx, c=c, gamma=gamma, F=F):
                return _frame_field_rate(sig, c, gamma, F, e_idx, f_idx)

            for i in range(n):
                for j in range(n):
                    table_err = max(table_err, np.max(np.abs(rate(i, j))))
                    table_err = max(table_err, np.max(np.abs(rate(n + i, n + j))))
                    table_err = max(table_err, np.max(np.abs(
                        rate(i, n + j) - (sum_xi if i == j else 0.0))))
                    table_err = max(table_err, np.max(np.abs(
                        rate(n + i, j) + (sum_xi if i == j else 0.0))))
            for i in range(n):
                for a in range(s):
                    xi_idx = 2 * n + a
                    table_err = max(table_err, np.max(np.abs(rate(i, xi_idx) + F[:, n + i])))
                    table_err = max(table_err, np.max(np.abs(rate(xi_idx, i) + F[:, n + i])))
                    table_err = max(table_err, np.max(np.abs(rate(n + i, xi_idx) - F[:, i])))
                    table_err = max(table_err, np.max(np.abs(rate(xi_idx, n + i) - F[:, i])))

            # nabla_X xi_a = -phi X for constant-component X
            x = rng.normal(scale=2.0, size=d)
            phix = ms.phi_comps(sig, c, x)
            for a in range(s):
                xi_c = np.zeros(d)
                xi_c[2 * n + a] = 2.0
                nab = np.einsum("kij,i,j->k", gamma, x, xi_c)
                nabla_xi_err = max(nabla_xi_err, np.max(np.abs(nab + phix)))

            # metric compatibility along coordinate directions (step 1e-5)
            h = 1e-5
            vws = rng.normal(scale=2.0, size=(2, d))
            for k in range(d):
                e = np.zeros(d)
                e[k] = 1.0
                gp = ms.inner(sig, c + h * e, vws[0], vws[1])
                gm = ms.inner(sig, c - h * e, vws[0], vws[1])
                lhs = (gp - gm) / (2 * h)
                rhs = (ms.inner(sig, c, np.einsum("kij,i,j->k", gamma, e, vws[0]), vws[1])
                       + ms.inner(sig, c, vws[0], np.einsum("kij,i,j->k", gamma, e, vws[1])))
                compat_err = max(compat_err, abs(lhs - rhs))

    out.append(_record("connection", "lower_index_symmetry", sym_err, 1e-14))
    out.append(_record("connection", "frame_table", table_err, 1e-10))
    out.append(_record("connection", "nabla_xi_is_minus_phi", nabla_xi_err, 1e-10))
    out.append(_record("connection", "metric_compatibility", compat_err, 1e-5))
    return out


# ---------------------------------------------------------------------------
# trajectories and curvatures
# ---------------------------------------------------------------------------

def _slant_setup(n: int, s: int, q: float, cos_theta: float,
                 direction=None) -> MagneticSetup:
    sig = ms.SpaceSignature(n, s)
    p0 = ms.origin(sig)
    return MagneticSetup(sig, q, p0, initial_tangent(p0, [cos_theta] * s, direction))


def curve_suite(seed: int = 0, t_end: float = 5.0) -> list[CheckRecord]:
    """Integrator conservation/convergence, closed-form agreement, and the
    curvature relations of the canonical circle and helix cases."""
    out: list[CheckRecord] = []

    # the circle, the Legendre helix and the closed form's matched initial
    # data share one batched run; the closed form is sampled on the
    # integrator's own recorded times
    params = random_params(ms.SpaceSignature(1, 1), q=2.0, cos_theta=0.5, seed=seed)
    cfg = IntegratorConfig(t_end=t_end, step=1e-3)
    exact = sample_case_a(params, cfg.times)
    setup_cf = MagneticSetup(exact.sig, 2.0, exact.point_at(0), exact.tangent_at(0))
    traj, traj_h, traj_cf = integrate_many(
        [_slant_setup(1, 1, 2.0, 0.5), _slant_setup(1, 2, 1.5, 0.0), setup_cf], cfg)

    # canonical slant circle: n=1, s=1, q=2, cos theta = 1/2
    out.append(_record("curves", "speed_drift", speed_drift(traj), 1e-8))
    out.append(_record("curves", "angle_drift", angle_drift(traj), 1e-8))
    out.append(_record("curves", "lorentz_fd_residual", residual(traj, 2.0), 1e-4))

    series = frenet_apparatus(traj)
    out.append(_record("curves", "circle_kappa1",
                       abs(_nanmedian(series.kappa1) - math.sqrt(3.0)), 1e-4))
    out.append(_record("curves", "circle_kappa2",
                       _nanmedian(series.kappa2), 1e-4))
    out.append(_record("curves", "circle_order",
                       abs(osculating_order(series, 1e-3) - 2), 0.0))

    # fourth-order drift decay on a coarse grid
    coarse = _slant_setup(1, 1, 4.0, 0.2)
    d1 = speed_drift(integrate(coarse, IntegratorConfig(t_end=5.0, step=0.05)))
    d2 = speed_drift(integrate(coarse, IntegratorConfig(t_end=5.0, step=0.025)))
    ratio = d1 / d2 if d2 > 0 else math.inf
    out.append(_record("curves", "rk4_drift_ratio", 12.0 - min(ratio, 12.0), 0.0))

    # Legendre helix with two Reeb directions: kappa1=|q|, kappa2=sqrt(2)
    series_h = frenet_apparatus(traj_h)
    out.append(_record("curves", "legendre_kappa1",
                       abs(_nanmedian(series_h.kappa1) - 1.5), 1e-4))
    out.append(_record("curves", "legendre_kappa2",
                       abs(_nanmedian(series_h.kappa2) - math.sqrt(2.0)), 1e-3))
    out.append(_record("curves", "legendre_kappa3",
                       _nanmedian(series_h.kappa3), 1e-3))

    # closed form against the integrator, matched initial data
    out.append(_record("curves", "closed_form_residual", residual(exact, 2.0), 1e-10))
    out.append(_record("curves", "closed_form_vs_rk4",
                       np.max(np.abs(traj_cf.points - exact.points)), 1e-6))
    return out


# ---------------------------------------------------------------------------
# classification consistency
# ---------------------------------------------------------------------------

def _random_admissible(rng, s: int) -> tuple[float, float]:
    """(q, cos_theta) sampled away from the degenerate loci so the exact
    comparisons below are well conditioned (the loci get their own checks)."""
    limit = 1.0 / math.sqrt(s)
    while True:
        q = rng.uniform(0.5, 3.0) * rng.choice([-1.0, 1.0])
        ct = rng.uniform(-0.9 * limit, 0.9 * limit)
        if abs(1.0 - q * ct) > 0.05 and abs(ct) > 0.01 and abs(ct - 1.0 / q) > 0.01:
            return q, ct


def classification_suite(seed: int = 0, cases: int = 10,
                         t_end: float = 2.0) -> list[CheckRecord]:
    rng = np.random.default_rng(seed)
    out: list[CheckRecord] = []

    # predicted curvatures match the general order-bound formulas
    square_err = 0.0
    for s in (1, 2, 3):
        for _ in range(100):
            q, ct = _random_admissible(rng, s)
            cls = predict_class(q, ct, s)
            k1, k2 = order_bound_curvatures(q, [ct] * s)
            square_err = max(square_err, abs(cls.kappa1 - k1), abs(cls.kappa2 - k2))
    out.append(_record("classification", "slant_consistency_square", square_err, 1e-14))

    # invert/predict round trips over all branch choices
    rt_err = 0.0
    for s in (1, 2, 3):
        for _ in range(50):
            k1 = rng.uniform(0.1, 5.0)
            k2 = rng.uniform(0.05, 5.0)
            for eps in (1, -1):
                inv = invert_q(k1, 0.0, s, case="iii", eps=eps)
                cls = predict_class(inv.q_candidates[0], inv.cos_theta, s)
                rt_err = max(rt_err, abs(cls.kappa1 - k1), abs(cls.kappa2))
                for branch in (1, -1):
                    if abs(eps * math.sqrt(s) + branch * k2) < 1e-6:
                        continue
                    inv = invert_q(k1, k2, s, case="iv", eps=eps, branch=branch)
                    cls = predict_class(inv.q_candidates[0], inv.cos_theta, s)
                    rt_err = max(rt_err, abs(cls.kappa1 - k1), abs(cls.kappa2 - k2))
            inv = invert_q(k1, math.sqrt(s), s, case="ii")
            for q in inv.q_candidates:
                cls = predict_class(q, 0.0, s)
                rt_err = max(rt_err, abs(cls.kappa1 - k1), abs(cls.kappa2 - math.sqrt(s)))
    out.append(_record("classification", "inversion_round_trip", rt_err, 1e-12))

    # circle boundary: kappa2 formula vanishes at cos theta = 1/q, and the
    # existence threshold is honored exactly at |q| = sqrt(s)
    boundary_err = 0.0
    for s in (1, 2, 3):
        for _ in range(50):
            q = rng.uniform(math.sqrt(s) + 0.1, 4.0) * rng.choice([-1.0, 1.0])
            boundary_err = max(boundary_err, math.sqrt(s) * abs(1.0 - q * (1.0 / q)))
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
    sas_err = 0.0
    for _ in range(100):
        theta = rng.uniform(0.2, math.pi - 0.2)
        q, _ct = _random_admissible(rng, 1)
        ct = math.cos(theta)
        if abs(1.0 - q * ct) < 0.05 or abs(ct - 1.0 / q) < 0.01 or abs(abs(ct) - 1.0) < 1e-9:
            continue
        k1, k2 = order_bound_curvatures(q, [ct])
        sas_err = max(sas_err,
                      abs(abs(q) * math.sqrt(1.0 - ct * ct) - abs(q) * math.sin(theta)),
                      abs(predict_class(q, ct, 1).kappa2 - abs(1.0 - q * ct)))
    out.append(_record("classification", "single_reeb_reduction", sas_err, 1e-14))

    # empirical agreement between measured and predicted classes; every case
    # is drawn before the batched run, which draws no random numbers
    drawn = []
    for i in range(cases):
        s = int(rng.integers(1, 4))
        n = int(rng.integers(1, 3))
        q, ct = _random_admissible(rng, s)
        drawn.append((s, q, ct, _slant_setup(n, s, q, ct, direction=rng.normal(size=2 * n))))
    cfg = IntegratorConfig(t_end=t_end, step=1e-3)
    trajs = integrate_many([setup for *_, setup in drawn], cfg) if drawn else []
    kind_mismatches = 0
    curv_err = 0.0
    for (s, q, ct, _), traj in zip(drawn, trajs):
        series = frenet_apparatus(traj)
        got = classify_trajectory(traj, series, tol=1e-3)
        want = predict_class(q, ct, s)
        if got.kind != want.kind:
            kind_mismatches += 1
        else:
            curv_err = max(curv_err, abs(got.kappa1 - want.kappa1),
                           abs(got.kappa2 - want.kappa2))
    out.append(_record("classification", "empirical_kind_agreement",
                       float(kind_mismatches), 0.0))
    out.append(_record("classification", "empirical_curvature_agreement", curv_err, 1e-3))
    return out


def run_all(seed: int = 0, samples: int = 200, points: int = 50, cases: int = 5,
            metric_perturbation: float = 0.0) -> dict:
    """All suites; returns a deterministic report dictionary."""
    checks: list[CheckRecord] = []
    checks += structure_suite(seed, samples, metric_perturbation)
    checks += connection_suite(seed, points)
    checks += curve_suite(seed)
    checks += classification_suite(seed, cases)
    return {
        "seed": seed,
        "samples": samples,
        "points": points,
        "cases": cases,
        "metric_perturbation": metric_perturbation,
        "checks": [asdict(c) for c in checks],
        "passed": all(c.passed for c in checks),
    }
