import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from magcurves import SpaceSignature, integrate
from magcurves import model_space as ms
from magcurves import verify
from magcurves.verify import (classification_suite, connection_suite, curve_suite, run_all,
                              structure_suite)


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
                 "single_reeb_reduction", "empirical_curvature_agreement"):
        assert math.isnan(records[name].max_err) and not records[name].passed, name


def test_frame_table_checks_the_xi_xi_block(monkeypatch):
    # shift only nabla_{xi_a} xi_b: the coefficient derivatives of the xi
    # columns along a xi direction (a direction with no x or y part)
    real = verify._frame_derivative

    def shifted(sig, coords, e):
        out = real(sig, coords, e)
        if not np.any(e[:2 * sig.n]):
            out[:, 2 * sig.n:] += 1e-3
        return out

    assert all(r.passed for r in connection_suite(seed=0, points=9))
    monkeypatch.setattr(verify, "_frame_derivative", shifted)
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


def test_reports_identical_for_fixed_seed():
    a = json.dumps(run_all(seed=5, samples=30, points=9, cases=1), sort_keys=True)
    b = json.dumps(run_all(seed=5, samples=30, points=9, cases=1), sort_keys=True)
    assert a == b


def test_batched_runs_match_per_setup_integrate(monkeypatch):
    # the batched engine is an execution detail: a per-setup integrate loop
    # in its place gives the same report
    small = dict(samples=20, points=9)
    batched = [run_all(seed, **small) for seed in range(3)]
    monkeypatch.setattr(verify, "integrate_many",
                        lambda setups, cfg: [integrate(st, cfg) for st in setups])
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
    calls = []
    real = verify.integrate_many

    def spy(setups, cfg):
        calls.append((len(setups), cfg.step, cfg.n_steps))
        return real(setups, cfg)

    monkeypatch.setattr(verify, "integrate_many", spy)
    run_all(0, samples=10, points=9, cases=5)
    assert calls == [(3 + 5, 1e-3, 5000)]
