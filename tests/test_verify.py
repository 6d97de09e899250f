import json

import pytest

from magcurves import integrate
from magcurves import verify
from magcurves.verify import classification_suite, curve_suite, run_all, structure_suite


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
