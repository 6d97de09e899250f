"""Acceptance suite.

One test per criterion, each pinned to its stated tolerance and printing a
PASS line (run with ``pytest tests/test_acceptance.py -v -s`` to see them).
"""
import math
import time

import numpy as np

from magcurves import (
    CaseAParams,
    CaseBParams,
    IntegratorConfig,
    MagneticSetup,
    SpaceSignature,
    angle_drift,
    check_circle_existence,
    frenet_apparatus,
    integrate_many,
    invert_q,
    order_bound_curvatures,
    predict_class,
    random_params,
    residual,
    speed_drift,
)
from magcurves.frenet import Measurement
from magcurves.verify import connection_suite, structure_suite
from conftest import integrate_angles, integrate_slant, slant_setup
from oracles import paper_equations


def report(num, name, **details):
    parts = " ".join(f"{k}={v:.3e}" if isinstance(v, float) else f"{k}={v}"
                     for k, v in details.items())
    print(f"\nACCEPTANCE {num} {name}: PASS {parts}")


def medians(traj):
    """The time-medians of traj's Frenet curvatures kappa1..kappa3, each NaN
    where its series has no finite value."""
    m = Measurement(traj, frenet_apparatus(traj))
    return m.kappa1, m.kappa2, m.kappa3


def test_criterion_1_structure_identities():
    t0 = time.perf_counter()
    records = structure_suite(seed=101, samples=1000)
    elapsed = time.perf_counter() - t0
    exact = {"phi_squared", "phi_metric_compat", "eta_xi_duality",
             "phi_xi_kernel", "eta_phi_kernel", "eta_metric_dual"}
    for rec in records:
        tol = 1e-12 if rec.name in exact else 1e-5
        assert rec.max_err <= tol, (rec.name, rec.max_err)
    assert elapsed < 10.0
    report(1, "structure identities",
           worst_exact=max(r.max_err for r in records if r.name in exact),
           worst_fd=max(r.max_err for r in records if r.name not in exact),
           seconds=elapsed)


def test_criterion_2_connection_table():
    t0 = time.perf_counter()
    records = connection_suite(seed=102, points=108)
    elapsed = time.perf_counter() - t0
    by_name = {r.name: r for r in records}
    assert by_name["frame_table"].max_err <= 1e-10
    assert by_name["nabla_xi_is_minus_phi"].max_err <= 1e-10
    assert by_name["lower_index_symmetry"].max_err == 0.0
    assert elapsed < 5.0
    report(2, "connection table",
           frame_table=by_name["frame_table"].max_err, seconds=elapsed)


def test_criterion_3_slant_circle():
    traj = integrate_slant(1, 1, 2.0, 0.5, t_end=10.0, step=1e-3)
    k1, k2, _ = medians(traj)
    sd, ad = speed_drift(traj), angle_drift(traj)
    assert abs(k1 - math.sqrt(3.0)) <= 1e-4
    assert k2 <= 1e-4
    assert sd <= 1e-8
    assert ad <= 1e-8
    report(3, "slant circle (q=2, cos=1/2, s=1)",
           kappa1_err=abs(k1 - math.sqrt(3.0)), kappa2=k2,
           speed_drift=sd, angle_drift=ad)


def test_criterion_4_legendre_helix():
    traj = integrate_slant(1, 2, 1.5, 0.0, t_end=10.0, step=1e-3)
    k1, k2, k3 = medians(traj)
    assert abs(k1 - 1.5) <= 1e-4
    assert abs(k2 - math.sqrt(2.0)) <= 1e-3
    assert k3 <= 1e-3
    report(4, "Legendre helix (q=1.5, s=2)",
           kappa1_err=abs(k1 - 1.5), kappa2_err=abs(k2 - math.sqrt(2.0)), kappa3=k3)


def test_criterion_5_slant_helices_randomized():
    t0 = time.perf_counter()
    rng = np.random.default_rng(105)
    drawn = []
    while len(drawn) < 50:
        s = int(rng.integers(1, 4))
        n = int(rng.integers(1, 3))
        q = rng.uniform(0.5, 3.0) * rng.choice([-1.0, 1.0])
        ct = rng.uniform(-0.95, 0.95) / math.sqrt(s)
        if abs(ct) < 0.02 or abs(ct - 1.0 / q) < 0.02:
            continue  # strictly between the Legendre and circle loci
        drawn.append((s, q, ct, slant_setup(n, s, q, ct, direction=rng.normal(size=2 * n))))
    trajs = integrate_many([setup for *_, setup in drawn], IntegratorConfig(t_end=2.0, step=1e-3))
    worst_k1 = worst_k2 = worst_k3 = 0.0
    for (s, q, ct, _), traj in zip(drawn, trajs):
        k1, k2, k3 = medians(traj)
        worst_k1 = max(worst_k1, abs(k1 - abs(q) * math.sqrt(1.0 - s * ct * ct)))
        worst_k2 = max(worst_k2, abs(k2 - math.sqrt(s) * abs(1.0 - q * ct)))
        worst_k3 = max(worst_k3, k3)
    elapsed = time.perf_counter() - t0
    assert worst_k1 <= 1e-3
    assert worst_k2 <= 1e-3
    assert worst_k3 <= 1e-3
    assert elapsed < 300.0
    report(5, "slant helices, 50 randomized",
           kappa1_err=worst_k1, kappa2_err=worst_k2, kappa3_max_median=worst_k3,
           seconds=elapsed)


def test_criterion_6_nonslant_order_bound():
    rng = np.random.default_rng(106)
    worst_k1 = worst_k2 = worst_k3 = 0.0
    cases = 0
    while cases < 20:
        s = int(rng.integers(2, 4))
        q = rng.uniform(0.5, 2.5) * rng.choice([-1.0, 1.0])
        cos = rng.uniform(-0.9, 0.9, size=s) / math.sqrt(s)
        if np.max(cos) - np.min(cos) < 0.05:
            continue  # genuinely unequal angles
        cases += 1
        traj = integrate_angles(1, s, q, cos, t_end=2.0, step=1e-3)
        k1, k2, k3 = medians(traj)
        k1_pred, k2_pred = order_bound_curvatures(q, cos)
        worst_k1 = max(worst_k1, abs(k1 - k1_pred))
        worst_k2 = max(worst_k2, abs(k2 - k2_pred))
        worst_k3 = max(worst_k3, k3)
    assert worst_k1 <= 1e-3
    assert worst_k2 <= 1e-3
    assert worst_k3 <= 1e-3

    # the exact-valued cell: s=2, cosines (1/2, 0), q=1 has kappa2 = 1
    traj = integrate_angles(1, 2, 1.0, [0.5, 0.0], t_end=2.0, step=1e-3)
    _, k2, _ = medians(traj)
    assert abs(k2 - 1.0) <= 1e-3
    report(6, "non-slant order bound, 20 randomized + exact cell",
           kappa1_err=worst_k1, kappa2_err=worst_k2, kappa3_max_median=worst_k3,
           exact_cell_kappa2_err=abs(k2 - 1.0))


def test_criterion_7_closed_form_oracle_equivalence():
    rng = np.random.default_rng(107)
    step, t_end = 1e-3, 10.0
    times = step * np.arange(int(round(t_end / step)) + 1)
    worst_res = 0.0
    # RK4 side: every case in one batched run
    members = []

    def check(params, q):
        nonlocal worst_res
        exact = paper_equations(params, times)
        worst_res = max(worst_res, residual(exact, q))
        setup = MagneticSetup(exact.sig, q, exact.points[0], exact.velocities[0])
        members.append((setup, exact.points))

    cases_a = 0
    seed = 0
    while cases_a < 20:
        seed += 1
        s = int(rng.integers(1, 4))
        n = int(rng.integers(1, 3))
        sig = SpaceSignature(n, s)
        q = rng.uniform(0.3, 3.0) * rng.choice([-1.0, 1.0])
        ct = rng.uniform(-0.95, 0.95) / math.sqrt(s)
        if abs(q - 2 * s * ct) < 0.05:
            continue
        params = random_params(sig, q, ct, seed=seed)
        assert isinstance(params, CaseAParams)
        check(params, q)
        cases_a += 1

    for k in range(10):
        s = int(rng.integers(1, 4))
        n = int(rng.integers(1, 3))
        sig = SpaceSignature(n, s)
        ct = rng.uniform(0.05, 0.95) / math.sqrt(s) * rng.choice([-1.0, 1.0])
        q = 2.0 * s * ct
        params = random_params(sig, q, ct, seed=1000 + k)
        assert isinstance(params, CaseBParams)
        check(params, q)

    worst_gap = 0.0
    trajs = integrate_many([setup for setup, _ in members],
                           IntegratorConfig(t_end=t_end, step=step))
    for (_, exact_points), traj in zip(members, trajs):
        worst_gap = max(worst_gap, float(np.max(np.abs(traj.points - exact_points))))

    assert len(members) == 30
    assert worst_gap <= 1e-6
    assert worst_res <= 1e-10
    report(7, "closed form vs integrator, 20 + 10 parameter sets",
           sup_gap=worst_gap, residual=worst_res)


def test_criterion_8_inversion_round_trip():
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(200):
        s = int(rng.integers(1, 4))
        k1 = rng.uniform(0.05, 5.0)
        k2 = rng.uniform(0.01, 5.0)
        for eps in (1, -1):
            # circle branch (kappa2 = 0)
            res = invert_q(k1, 0.0, s, case="iii", eps=eps)
            back = predict_class(res.q_candidates[0], res.cos_theta, s)
            worst = max(worst, abs(back.kappa1 - k1), abs(back.kappa2))
            # generic branch, all sign combinations
            for branch in (1, -1):
                if abs(eps * math.sqrt(s) + branch * k2) < 1e-6:
                    continue
                res = invert_q(k1, k2, s, case="iv", eps=eps, branch=branch)
                back = predict_class(res.q_candidates[0], res.cos_theta, s)
                worst = max(worst, abs(back.kappa1 - k1), abs(back.kappa2 - k2))
        # Legendre branch
        res = invert_q(k1, math.sqrt(s), s, case="ii")
        for q in res.q_candidates:
            back = predict_class(q, 0.0, s)
            worst = max(worst, abs(back.kappa1 - k1), abs(back.kappa2 - math.sqrt(s)))
    assert worst <= 1e-12

    # the circle existence boundary is honored exactly
    for s in (1, 2, 3):
        root = math.sqrt(s)
        assert not check_circle_existence(root, s)
        assert not check_circle_existence(-root, s)
        assert check_circle_existence(root + 1e-9, s)
    report(8, "inversion round trip, 200 pairs x all branches", worst_err=worst)


def test_criterion_9_single_reeb_reduction():
    rng = np.random.default_rng(109)
    worst = 0.0
    checked = 0
    while checked < 100:
        theta = rng.uniform(0.2, math.pi - 0.2)
        q = rng.uniform(0.5, 2.5) * rng.choice([-1.0, 1.0])
        ct = math.cos(theta)
        if abs(ct - 1.0 / q) < 1e-6:
            continue  # the circle locus dispatches differently by design
        checked += 1
        cls = predict_class(q, ct, 1)
        k1_general, _ = order_bound_curvatures(q, [ct])
        worst = max(worst,
                    abs(cls.kappa1 - abs(q) * math.sin(theta)),
                    abs(cls.kappa2 - abs(1.0 - q * ct)),
                    abs(k1_general - cls.kappa1))
    assert worst <= 1e-14
    report(9, "single-Reeb (s=1) reduction, 100 angles", worst_err=worst)
