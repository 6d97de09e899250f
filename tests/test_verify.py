import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from magcurves import SpaceSignature, dynamics, initial_tangent, integrate, integrate_many
from magcurves import model_space as ms
from magcurves import verify
from magcurves.verify import (classification_suite, connection_suite, curve_suite, run_all,
                              structure_suite)
import oracles


def test_report_shape_and_pass():
    report = run_all(seed=3, samples=50, points=18, cases=2)
    assert report["passed"] is True
    assert {"suite", "name", "max_err", "tol", "passed"} <= set(report["checks"][0])
    json.dumps(report)  # serializable as-is


def test_metric_perturbation_is_detected():
    records = structure_suite(seed=3, samples=50, metric_perturbation=0.05)
    failed = {r.name for r in records if not r.passed}
    assert "phi_metric_compat" in failed
    clean = structure_suite(seed=3, samples=50)
    assert all(r.passed for r in clean)


def test_nan_metric_fails_the_structure_suite():
    # a NaN error is the largest one, not skipped by the reduction
    report = run_all(seed=3, samples=20, points=9, cases=0, metric_perturbation=math.nan)
    compat = [c for c in report["checks"] if c["name"] == "phi_metric_compat"]
    assert math.isnan(compat[0]["max_err"]) and not compat[0]["passed"]
    assert report["passed"] is False


def _nan_curvatures(fn):
    def patched(*args, **kwargs):
        return dataclasses.replace(fn(*args, **kwargs), kappa1=math.nan, kappa2=math.nan)
    return patched


def test_nan_curvatures_fail_their_classification_checks(monkeypatch):
    monkeypatch.setattr(verify, "predict_class", _nan_curvatures(verify.predict_class))
    monkeypatch.setattr(verify, "_slant_class", _nan_curvatures(verify._slant_class))
    monkeypatch.setattr(verify, "order_bound_curvatures", lambda q, cosines: (math.nan, 0.0))
    records = {r.name: r for r in classification_suite(seed=0, cases=2)}
    for name in ("slant_consistency_square", "inversion_round_trip", "circle_kappa2_boundary",
                 "single_reeb_reduction", "empirical_curvature_agreement",
                 "empirical_frenet_curvature"):
        assert math.isnan(records[name].max_err) and not records[name].passed, name


def test_a_nan_frenet_median_fails_empirical_frenet_curvature(monkeypatch):
    # classify_trajectory reports an all-NaN kappa2 series' median as None;
    # the check reads it back as NaN, the largest error
    real = verify.frenet_apparatus

    def nan_kappa2(traj):
        series = real(traj)
        return dataclasses.replace(series, kappa2=np.full_like(series.kappa2, math.nan))

    monkeypatch.setattr(verify, "frenet_apparatus", nan_kappa2)
    record = {r.name: r for r in classification_suite(seed=0, cases=2)}[
        "empirical_frenet_curvature"]
    assert math.isnan(record.max_err) and not record.passed


def test_frame_table_checks_the_xi_xi_block(monkeypatch):
    # shift only nabla_{xi_a} xi_b: the coefficient derivatives of the xi
    # columns along a xi direction (a direction with no x or y part)
    real = verify._frame_derivatives

    def shifted(sig, coords, F):
        out = real(sig, coords, F)
        for e in range(sig.dim):
            if not np.any(F[:2 * sig.n, e]):
                out[:, e, 2 * sig.n:] += 1e-3
        return out

    assert all(r.passed for r in connection_suite(seed=0, points=9))
    monkeypatch.setattr(verify, "_frame_derivatives", shifted)
    records = {r.name: r for r in connection_suite(seed=0, points=9)}
    assert not records["frame_table"].passed
    assert records["frame_table"].max_err == pytest.approx(1e-3)
    assert all(r.passed for name, r in records.items() if name != "frame_table")


@pytest.mark.parametrize("n,s", [(1, 1), (2, 3), (3, 2)])
def test_whole_frame_contraction_has_the_bits_of_each_pair(n, s):
    # connection_suite contracts the Christoffels with every pair of frame
    # fields at once; each entry keeps the bits of contracting its own pair
    sig = SpaceSignature(n, s)
    c = np.random.default_rng(10 * n + s).normal(scale=2.0, size=sig.dim)
    gamma, F = ms.christoffel_array(sig, c), ms.frame_matrix(sig, c)
    whole = np.einsum("kij,ie,jf->kef", gamma, F, F)
    for e, f in itertools.product(range(sig.dim), repeat=2):
        assert np.array_equal(whole[:, e, f], np.einsum("kij,i,j->k", gamma, F[:, e], F[:, f]))


@pytest.mark.parametrize("n,s", [(1, 1), (2, 3), (3, 2)])
def test_batched_frame_derivatives_have_the_bits_of_each_direction(n, s):
    # one frame_matrix call on the 2 dim points c +- h F_e gives, for every
    # direction F_e, the bits of the central difference along F_e alone
    sig = SpaceSignature(n, s)
    c = np.random.default_rng(10 * n + s).normal(scale=2.0, size=sig.dim)
    F = ms.frame_matrix(sig, c)
    dF = verify._frame_derivatives(sig, c, F)
    for e in range(sig.dim):
        one = (ms.frame_matrix(sig, c + 0.25 * F[:, e])
               - ms.frame_matrix(sig, c - 0.25 * F[:, e])) / 0.5
        assert np.array_equal(dF[:, e, :], one)


FORMULA_CHECKS = ("slant_consistency_square", "inversion_round_trip",
                  "circle_kappa2_boundary", "single_reeb_reduction")


@pytest.mark.parametrize("seed", range(50))
def test_formula_checks_match_the_plain_oracle(seed):
    # every formula record's max_err has the oracle's bits, and the cases
    # drawn after the formula checks are the oracle's, so the random stream
    # is consumed exactly as by the plain loop
    errs, drawn = oracles.classification_formula_checks(seed, 5)
    plan = verify._classification_plan(seed, 5)
    records = {r.name: r for r in plan.finish([])}  # no trajectories: formula records only
    for name in FORMULA_CHECKS:
        assert float.hex(records[name].max_err) == float.hex(max(errs[name], default=0.0)), name
    assert len(plan.setups) == len(drawn)
    for setup, (s, n, q, ct, direction) in zip(plan.setups, drawn):
        sig = SpaceSignature(n, s)
        assert setup.sig == sig and float.hex(float(setup.q)) == float.hex(float(q))
        T0 = initial_tangent(sig, np.zeros(sig.dim), np.full(s, ct), direction)
        assert np.array_equal(setup.T0, T0)


def test_formula_checks_make_one_library_call_per_draw(monkeypatch):
    # the plan calls each formula as often as the plain oracle does
    def counted(module):
        counts = {}
        for name in ("predict_class", "order_bound_curvatures", "invert_q", "_slant_class"):
            def spy(*args, _real=getattr(module, name), _name=name, **kwargs):
                counts[_name] = counts.get(_name, 0) + 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(module, name, spy)
        return counts

    plan_counts, oracle_counts = counted(verify), counted(oracles)
    verify._classification_plan(0, 5)
    oracles.classification_formula_checks(0, 5)
    assert plan_counts == oracle_counts
    assert plan_counts["predict_class"] > 1000


def test_reports_identical_for_fixed_seed():
    a = json.dumps(run_all(seed=5, samples=30, points=9, cases=1), sort_keys=True)
    b = json.dumps(run_all(seed=5, samples=30, points=9, cases=1), sort_keys=True)
    assert a == b


def test_batched_runs_match_per_setup_integrate(monkeypatch):
    # the batched engine is an execution detail: a per-setup integrate loop
    # in its place, each setup under its own config, gives the same report
    small = dict(samples=20, points=9)
    batched = [run_all(seed, **small) for seed in range(3)]
    monkeypatch.setattr(verify, "integrate_many",
                        lambda setups, cfgs: [integrate(st, c) for st, c in zip(setups, cfgs)])
    assert [run_all(seed, **small) for seed in range(3)] == batched


def _bits(records):
    return [(r.suite, r.name, float.hex(r.max_err), r.tol, r.passed) for r in records]


@pytest.mark.parametrize("seed,cases", [(0, 5), (1, 5), (2, 5), (0, 0), (1, 1)])
def test_run_all_matches_standalone_suites(seed, cases):
    # one batch for both suites gives the bits of each suite run on its own
    report = run_all(seed, samples=10, points=9, cases=cases)
    merged = [verify.CheckRecord(**c) for c in report["checks"]
              if c["suite"] in ("curves", "classification")]
    alone = curve_suite(seed) + classification_suite(seed, cases)
    assert _bits(merged) == _bits(alone)


def test_run_all_steps_one_fine_batch(monkeypatch):
    # the curve suite's 3 fine and 2 coarse rows and the 5 cases, in one
    # batch that steps for the curve config's 625 steps; integrate unused
    calls = []
    real = verify.integrate_many

    def spy(setups, cfgs):
        calls.append([(c.step, c.n_steps) for c in cfgs])
        return real(setups, cfgs)

    def refuse(*args):
        raise AssertionError("run_all steps every trajectory in its one batch")

    monkeypatch.setattr(verify, "integrate_many", spy)
    monkeypatch.setattr(verify, "integrate", refuse)
    run_all(0, samples=10, points=9, cases=5)
    fine = (verify._FINE_STEP, verify._CURVE_CFG.n_steps)
    assert calls == [[fine] * 3 + [(0.05, 100), (0.025, 200)]
                     + [(verify._FINE_STEP, verify._CLASSIFICATION_CFG.n_steps)] * 5]
    assert max(n for _, n in calls[0]) == fine[1] == 625


def test_coarse_drifts_have_the_bits_of_integrate():
    # the report prints 0.0 for any drift ratio of 12 or more (seed 0's is
    # 29.7), so the coarse drifts themselves are pinned, row by row
    plan = verify._curve_plan(0)
    trajs = verify.integrate_many(plan.setups, plan.cfg)
    coarse = verify._slant_setup(1, 1, 4.0, 0.2)
    for traj, step in zip(trajs[3:], (0.05, 0.025)):
        alone = integrate(coarse, dynamics.IntegratorConfig(t_end=5.0, step=step))
        assert float.hex(dynamics.speed_drift(traj)) == float.hex(dynamics.speed_drift(alone))
    d1, d2 = (dynamics.speed_drift(t) for t in trajs[3:])
    assert 12.0 < d1 / d2 < 32.0


@pytest.mark.parametrize("points", [9, 50, 90])
def test_connection_suite_has_the_bits_of_the_per_point_loop(points):
    # each signature's points checked at once give the records of checking
    # them one at a time, the random stream drawn in the same order
    for seed in range(40):
        got = connection_suite(seed, points)
        want = oracles.connection_errors(seed, points)
        assert [r.name for r in got] == list(want)
        assert [float.hex(r.max_err) for r in got] == [float.hex(e) for e in want.values()]


# (suite, name, tol) of every record of a report, in report order
REPORT_TABLE = [
    ("structure", "phi_squared", 1e-12),
    ("structure", "phi_metric_compat", 1e-12),
    ("structure", "eta_xi_duality", 1e-12),
    ("structure", "phi_xi_kernel", 1e-12),
    ("structure", "eta_phi_kernel", 1e-12),
    ("structure", "eta_metric_dual", 1e-12),
    ("structure", "d_eta_fundamental", 1e-5),
    ("structure", "nabla_phi", 1e-5),
    ("connection", "lower_index_symmetry", 1e-14),
    ("connection", "frame_table", 1e-10),
    ("connection", "nabla_xi_is_minus_phi", 1e-10),
    ("connection", "metric_compatibility", 1e-5),
    ("curves", "speed_drift", 1e-8),
    ("curves", "angle_drift", 1e-8),
    ("curves", "lorentz_fd_residual", 1e-4),
    ("curves", "circle_kappa1", 1e-4),
    ("curves", "circle_kappa2", 1e-4),
    ("curves", "circle_order", 0.0),
    ("curves", "rk4_drift_ratio", 0.0),
    ("curves", "legendre_kappa1", 1e-4),
    ("curves", "legendre_kappa2", 1e-3),
    ("curves", "legendre_kappa3", 1e-3),
    ("curves", "closed_form_residual", 1e-10),
    ("curves", "closed_form_vs_rk4", 1e-6),
    ("classification", "slant_consistency_square", 1e-14),
    ("classification", "inversion_round_trip", 1e-12),
    ("classification", "circle_kappa2_boundary", 1e-15),
    ("classification", "circle_existence_threshold", 0.0),
    ("classification", "single_reeb_reduction", 1e-14),
    ("classification", "empirical_kind_agreement", 0.0),
    ("classification", "empirical_curvature_agreement", 1e-3),
    ("classification", "empirical_frenet_curvature", 1e-4),
]


@pytest.mark.parametrize("seed", range(10))
def test_default_report_has_fixed_checks_and_tolerances_and_passes(seed):
    # seeds 0-199 all pass as well; ten of them keep the suite fast
    checks = run_all(seed)["checks"]
    assert [(c["suite"], c["name"], c["tol"]) for c in checks] == REPORT_TABLE
    assert [c["name"] for c in checks if not c["passed"]] == []


def test_fine_step_is_far_inside_rk4_stability():
    # A slant curve's (vx, vy) turns at the constant rate w = 2 sum_a
    # eta^a(T0) - q; RK4 is stable for h|w| up to 2 sqrt(2), and the batch
    # steps every row for the longest config's step count, each at its own
    # step.
    fine, coarse = [], []
    for seed in range(200):
        for plan in (verify._curve_plan(seed), verify._classification_plan(seed, 5)):
            for st, cfg in zip(plan.setups, plan.cfg):
                w = 2.0 * np.sum(ms.eta_comps(st.sig, st.p0, st.T0)) - st.q
                (fine if cfg.step == verify._FINE_STEP else coarse).append(cfg.step * abs(w))
    assert max(fine) < 0.05
    # the coarse rows of rk4_drift_ratio, w = -3.6: 0.18 at step 0.05
    assert max(coarse) == pytest.approx(0.18, rel=1e-12) and max(coarse) < 2 * math.sqrt(2)


# ---------------------------------------------------------------------------
# negative controls: faults that the curve and classification checks catch
# at verify's fine step from the same size as at 1e-3
# ---------------------------------------------------------------------------

def _scaled_q(factor):
    """dynamics._rhs with the field strength scaled by factor; q enters only
    through the Lorentz force q phi(T), so -1 flips the sign of that term."""
    real = dynamics._rhs

    def rhs(n, q, s, reeb, state):
        return real(n, q * factor, s, reeb, state)
    return rhs


def _shifted(field, delta):
    """verify.frenet_apparatus with delta added to the curvature series field."""
    real = verify.frenet_apparatus

    def apparatus(traj):
        series = real(traj)
        return dataclasses.replace(series, **{field: getattr(series, field) + delta})
    return apparatus


@pytest.fixture(scope="module", params=[1e-3, verify._FINE_STEP], ids=["0.001", "fine"])
def seed0_plans(request):
    """The seed-0 curve plan and classification plan (5 cases) at the step
    request.param, each with its clean trajectories: the reference step
    1e-3 and verify's fine step, whose id stays "fine" whatever its value."""
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_CURVE_CFG", "_CLASSIFICATION_CFG"):
            mp.setattr(verify, name, dataclasses.replace(getattr(verify, name),
                                                         step=request.param))
        plans = [verify._curve_plan(0), verify._classification_plan(0, 5)]
    return [(plan, integrate_many(plan.setups, plan.cfg)) for plan in plans]


def _failed_checks(plans, module, name, fault) -> set[str]:
    """The checks that fail with module.name replaced by fault; a fault in
    the right-hand side integrates the plans again."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, name, fault)
        return {r.name
                for plan, clean in plans
                for r in plan.finish(integrate_many(plan.setups, plan.cfg)
                                     if module is dynamics else clean)
                if not r.passed}


def _fault(kind, size):
    if kind == "q":
        return dynamics, "_rhs", _scaled_q(1.0 + size)
    return verify, "frenet_apparatus", _shifted(kind, size)


@pytest.mark.parametrize("kind,size,checks", [
    ("q", 1e-7, {"closed_form_vs_rk4"}),
    ("q", 1e-3, {"empirical_curvature_agreement"}),
    ("kappa1", 1e-3, {"circle_kappa1", "legendre_kappa1"}),
    ("kappa2", 1e-4, {"circle_kappa2"}),
])
def test_fault_fails_its_checks_from_the_same_size(seed0_plans, kind, size, checks):
    # the smallest power of ten that fails the checks: a tenth of it passes
    assert checks <= _failed_checks(seed0_plans, *_fault(kind, size))
    assert not checks & _failed_checks(seed0_plans, *_fault(kind, size / 10))


def test_frenet_kappa1_shift_fails_the_classification_curvatures(seed0_plans):
    # the classes compare curvatures recomputed from the fitted q; only the
    # Frenet medians carry a shift of the measured kappa1 into this suite
    assert "empirical_frenet_curvature" in _failed_checks(seed0_plans, *_fault("kappa1", 1e-3))
    assert "empirical_frenet_curvature" not in _failed_checks(seed0_plans,
                                                              *_fault("kappa1", 1e-5))


def test_flipped_lorentz_force_fails_the_curve_checks(seed0_plans):
    failed = _failed_checks(seed0_plans, dynamics, "_rhs", _scaled_q(-1.0))
    assert {"lorentz_fd_residual", "circle_kappa2", "circle_order", "closed_form_vs_rk4",
            "empirical_curvature_agreement"} <= failed
