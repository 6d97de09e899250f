"""Per-layer timing of the trajectory engines in ``magcurves.dynamics``, of
the stages of one ``sweep`` and of verify's suites.

    python bench/engine_layer.py --label change --out BENCH_engine.json
    python bench/engine_layer.py --src ../parent/src --label parent --src src --label change \
        --out BENCH_engine.json

Cases (each a ``layer`` with its unit of work):

* ``dynamics.exact_flow``: one 2001-sample trajectory for every (n, s) in
  {1, 2, 3}^2, in microseconds per sample;
* ``dynamics._rhs``: the RK4 right-hand side at n = s = 2, on one state and
  on a padded batch of 5 (verify's classification batch), 1000 calls,
  microseconds per call;
* ``frenet.apparatus`` and ``classify.trajectory``: on the 2001-sample exact
  trajectory of every (n, s) in {1, 2, 3}^2 and of (9, 1), whose component
  sums are 8 or more wide, in microseconds per sample;
* ``dynamics.check_angles`` at widths 1, 3 and 8, and
  ``classify.order_bound_curvatures`` and ``classify.predict_class`` at
  s = 3: the formula checks verify makes about 2,000 times per report, on
  slant cosines given as a list (as verify gives them), 1000 calls,
  microseconds per call;
* ``dynamics.integrate``: n = s = 2, 1000 RK4 steps, microseconds per step;
* ``dynamics.integrate_many``: n = s = 2 at B = 1, 5, 10, 64 (1000 steps)
  and 1024 (100 steps), all rows under one config (so stepped at one float
  step), microseconds per row-step; 5 is the batch of verify's curve suite
  and of its classification suite, 10 that of ``verify.run_all``;
* ``sweep.setup``, ``sweep.trajectory`` (the exact flow of each cell,
  without accelerations, by the call ``run_sweep`` makes) and
  ``sweep.frenet_row``: the stages of the benchmark's ``sweep-grid`` seed-1
  sweep (32 cells of 2001 samples, from ``perfbench/inputs.py``'s
  generator), in milliseconds per cell, and ``frenet.median``: the kappa1
  and kappa2 medians of each of its cells (``frenet._nanmedian``), in
  microseconds per cell;
* ``closed_form.sample``: ``exact_flow(params.setup(), times)``, the call of
  ``sample_case_a``/``sample_case_b``, on the 8 configs of the benchmark's
  ``exact-roundtrip`` seed-1 workload (case a and case b for 4 signatures,
  2001 samples each; parsed as ``closed-form`` parses them), in microseconds
  per sample;
* ``verify.structure_suite``, ``verify.connection_suite``,
  ``verify.curve_suite``, ``verify.classification_suite``,
  ``verify._classification_plan`` (the classification formula checks and
  case draws, without RK4) and ``verify.run_all`` (one whole report): one
  call at ``magcurves verify``'s defaults (seed 0, 200 structure samples,
  50 connection points, 5 classification cases), in milliseconds per call.
Each package builds its own cases; ``harness.py`` times them.
"""
from __future__ import annotations

import functools
import importlib.util

import numpy as np

import harness

GRID = [(n, s) for n in (1, 2, 3) for s in (1, 2, 3)]
FRENET_GRID = GRID + [(9, 1)]
CALLS = 1000
SAMPLES = 2001
STEP = 1e-3
SWEEP_SEED = 1
ROUNDTRIP_SEED = 1


def _setup(mc, n: int, s: int, seed):
    """A non-slant setup of (n, s) from a random non-origin point."""
    rng = np.random.default_rng(seed)
    sig = mc.SpaceSignature(n, s)
    p0 = rng.normal(scale=1.5, size=sig.dim)
    cos = rng.uniform(-1.0, 1.0, size=s)
    cos *= 0.8 / max(1.0, float(np.linalg.norm(cos)))
    return mc.MagneticSetup(sig, rng.uniform(0.5, 3.0), p0,
                            mc.initial_tangent(sig, p0, cos, rng.normal(size=2 * n)))


def cases(mc, tmp) -> list[tuple[dict, int, object]]:
    """(description, units of work per run, callable) for every case; every
    binding is looked up here, so that building the table finds a renamed one."""
    sweep, verify, cli = (importlib.import_module(f"{mc.__name__}.{name}")
                          for name in ("sweep", "verify", "cli"))
    # perfbench/inputs.py, the benchmark's seeded input generator, loaded by path
    found = importlib.util.spec_from_file_location("perfbench_inputs",
                                                   harness.ROOT / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(found)
    found.loader.exec_module(inputs)

    out = []
    times = STEP * np.arange(SAMPLES)
    for n, s in GRID:
        out.append(({"layer": "dynamics.exact_flow", "n": n, "s": s, "unit": "us/sample"},
                    SAMPLES, functools.partial(mc.exact_flow, _setup(mc, n, s, [n, s]), times)))

    def calls(fn, *args):
        for _ in range(CALLS):
            fn(*args)

    rng = np.random.default_rng(2)
    for batch, args in ((1, (2, 1.5, 2, np.ones(2), rng.normal(size=12))),
                        (5, (2, rng.normal(size=5), np.full(5, 2.0), np.ones((5, 2)),
                             rng.normal(size=(5, 12))))):
        out.append(({"layer": "dynamics._rhs", "n": 2, "s": 2, "B": batch, "unit": "us/call"},
                    CALLS, functools.partial(calls, mc.dynamics._rhs, *args)))

    for width in (1, 3, 8):
        out.append(({"layer": "dynamics.check_angles", "s": width, "unit": "us/call"}, CALLS,
                    functools.partial(calls, mc.dynamics.check_angles, [0.3] * width)))
    for name, args in (("order_bound_curvatures", (1.7, [0.3] * 3)),
                       ("predict_class", (1.7, 0.3, 3))):
        out.append(({"layer": f"classify.{name}", "s": 3, "unit": "us/call"}, CALLS,
                    functools.partial(calls, getattr(mc, name), *args)))

    for n, s in FRENET_GRID:
        traj = mc.exact_flow(_setup(mc, n, s, [n, s]), times)
        series = mc.frenet_apparatus(traj)
        out.append(({"layer": "frenet.apparatus", "n": n, "s": s, "unit": "us/sample"},
                    SAMPLES, functools.partial(mc.frenet_apparatus, traj)))
        out.append(({"layer": "classify.trajectory", "n": n, "s": s, "unit": "us/sample"},
                    SAMPLES, functools.partial(mc.classify_trajectory, traj, series)))

    steps = 1000
    cfg = mc.IntegratorConfig(t_end=steps * STEP, step=STEP)
    out.append(({"layer": "dynamics.integrate", "n": 2, "s": 2, "unit": "us/step"},
                steps, functools.partial(mc.integrate, _setup(mc, 2, 2, [2, 2]), cfg)))
    for batch, steps in ((1, 1000), (5, 1000), (10, 1000), (64, 1000), (1024, 100)):
        cfg = mc.IntegratorConfig(t_end=steps * STEP, step=STEP)
        setups = [_setup(mc, 2, 2, [2, 2, b]) for b in range(batch)]
        out.append(({"layer": "dynamics.integrate_many", "n": 2, "s": 2, "B": batch,
                     "unit": "us/row-step"},
                    batch * steps, functools.partial(mc.integrate_many, setups, cfg)))

    spec = sweep.SweepSpec(**inputs.sweep_config(
        np.random.default_rng([SWEEP_SEED, 0]), SWEEP_SEED))
    cells = list(enumerate(spec.cells()))

    def setup_stage():
        return [sweep._cell_setup(spec, i, *cell) for i, cell in cells]

    cell_flow = functools.partial(sweep._exact_flow, accelerations=False)  # run_sweep's call

    def trajectory_stage():
        return [cell_flow(setup, spec.integrator.times) for setup in setups]

    def frenet_row_stage(cell_row=sweep._cell_row):
        return [cell_row(*cell, traj) for (_, cell), traj in zip(cells, trajs)]

    def median_stage(median=mc.frenet._nanmedian):
        return [(median(series.kappa1), median(series.kappa2)) for series in cell_series]
    setups = setup_stage()
    trajs = trajectory_stage()
    cell_series = [mc.frenet_apparatus(traj) for traj in trajs]
    for layer, fn, extra, unit in (
            ("sweep.setup", setup_stage, {}, "ms/cell"),
            ("sweep.trajectory", trajectory_stage, {"engine": "exact_flow"}, "ms/cell"),
            ("sweep.frenet_row", frenet_row_stage, {}, "ms/cell"),
            ("frenet.median", median_stage, {}, "us/cell")):
        out.append(({"layer": layer, "cells": len(cells), "samples": spec.integrator.n_samples,
                     **extra, "unit": unit}, len(cells), fn))

    docs = inputs.roundtrip_configs(np.random.default_rng([ROUNDTRIP_SEED, 1]), ROUNDTRIP_SEED)
    runs = [functools.partial(mc.exact_flow, cli._closed_form_params(doc).setup(),
                              mc.IntegratorConfig(doc["t_end"], doc["step"]).times)
            for doc in docs]
    out.append(({"layer": "closed_form.sample", "configs": len(runs), "unit": "us/sample"},
                sum(len(run.args[1]) for run in runs), lambda: [run() for run in runs]))

    for name, params, args in (
            ("structure_suite", {"samples": 200}, (0, 200)),
            ("connection_suite", {"points": 50}, (0, 50)),
            ("curve_suite", {}, (0,)),
            ("classification_suite", {"cases": 5}, (0, 5)),
            ("_classification_plan", {"cases": 5}, (0, 5)),
            ("run_all", {"samples": 200, "points": 50, "cases": 5}, (0, 200, 50, 5))):
        out.append(({"layer": f"verify.{name}", **params, "unit": "ms/call"}, 1,
                    functools.partial(getattr(verify, name), *args)))
    return out


if __name__ == "__main__":
    harness.main(__doc__, cases, "engine", repeats=10)
