"""Per-layer timing of the trajectory engines in ``magcurves.dynamics`` and
of the stages of one ``sweep``.

    python bench/engine_layer.py --label change --out BENCH_engine.json
    python bench/engine_layer.py --src ../parent/src --label parent --out BENCH_engine.json

Cases (each a ``layer`` with its unit of work):

* ``dynamics.exact_flow``: one 2001-sample trajectory for every (n, s) in
  {1, 2, 3}^2, in microseconds per sample (skipped for a source without it);
* ``dynamics._rhs``: the RK4 right-hand side at n = s = 2, on one state and
  on a padded batch of 5 (verify's classification batch), 1000 calls,
  microseconds per call;
* ``frenet.apparatus`` and ``classify.trajectory``: ``frenet_apparatus`` and
  ``classify_trajectory`` on the 2001-sample exact trajectory of every (n, s)
  in {1, 2, 3}^2 and of (9, 1), whose component sums are 8 or more wide,
  in microseconds per sample (skipped, like ``exact_flow``, for a source
  without it);
* ``dynamics.integrate``: n = s = 2, 1000 RK4 steps, microseconds per step;
* ``dynamics.integrate_many``: n = s = 2 at B = 1, 3, 5, 8, 64 (1000 steps)
  and 1024 (100 steps), microseconds per row-step; 3 and 5 are the batch
  sizes of verify's curve and classification suites run on their own, 8 that
  of ``verify.run_all``, which steps both suites' trajectories together;
* ``sweep.setup``, ``sweep.trajectory`` and ``sweep.frenet_row``: the three
  stages of the benchmark's ``sweep-grid`` seed-1 sweep (32 cells of 2001
  samples; ``perfbench/inputs.py`` writes the same grid), in milliseconds
  per cell.  The trajectory stage runs the engine that source's
  ``run_sweep`` uses: ``exact_flow`` per cell where ``magcurves.sweep`` has
  it, else one ``integrate_many`` batch of all cells;
* ``closed_form.sample``: ``sample_case_a``/``sample_case_b`` on the 8
  configs of the benchmark's ``exact-roundtrip`` seed-1 workload (case a and
  case b for 4 signatures, 2001 samples each; parsed as ``closed-form``
  parses them), in microseconds per sample;
* ``verify.structure_suite``, ``verify.connection_suite``,
  ``verify.curve_suite`` and ``verify.classification_suite``: one call of
  each on its own at ``magcurves verify``'s defaults (seed 0, 200 structure
  samples, 50 connection points, 5 classification cases), and
  ``verify.run_all``: one whole report at those defaults, in milliseconds
  per call.

Each case runs ``--repeats`` times, round robin with the others, after one
warm-up round; the record keeps the best time and the spread (worst / best
- 1).  ``--src``, ``--label`` and ``--out`` work as in ``io_layer.py``, given
once.
"""
from __future__ import annotations

import argparse
import functools
import importlib.util
import json
import sys
import time
from pathlib import Path

import numpy as np

from io_layer import ROOT, git_state, machine

GRID = [(n, s) for n in (1, 2, 3) for s in (1, 2, 3)]
FRENET_GRID = GRID + [(9, 1)]
RHS_CALLS = 1000
SAMPLES = 2001
STEP = 1e-3
SWEEP_SEED = 1
ROUNDTRIP_SEED = 1


def _perfbench_inputs():
    """perfbench/inputs.py, the benchmark's seeded input generator (loaded by
    path, so that the magcurves already imported is the one used)."""
    spec = importlib.util.spec_from_file_location("perfbench_inputs",
                                                  ROOT / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs


def _setup(n: int, s: int, seed):
    """A non-slant setup of (n, s) from a random non-origin point."""
    from magcurves import MagneticSetup, SpaceSignature, initial_tangent
    rng = np.random.default_rng(seed)
    sig = SpaceSignature(n, s)
    p0 = rng.normal(scale=1.5, size=sig.dim)
    cos = rng.uniform(-1.0, 1.0, size=s)
    cos *= 0.8 / max(1.0, float(np.linalg.norm(cos)))
    return MagneticSetup(sig, rng.uniform(0.5, 3.0), p0,
                         initial_tangent(sig, p0, cos, rng.normal(size=2 * n)))


def _sweep_spec():
    """The sweep-grid spec of seed 1, from perfbench/inputs.py's generator."""
    from magcurves.sweep import SweepSpec
    doc = _perfbench_inputs().sweep_config(np.random.default_rng([SWEEP_SEED, 0]), SWEEP_SEED)
    return SweepSpec(q_values=doc["q_values"], cos_theta_values=doc["cos_theta_values"],
                     n_values=doc["n_values"], s_values=doc["s_values"], tol=doc["tol"],
                     seed=doc["seed"], t_end=doc["t_end"], step=doc["step"])


def cases() -> list[tuple[dict, int, object]]:
    """(description, units of work per run, callable) for every case."""
    from magcurves import IntegratorConfig, dynamics, integrate, integrate_many
    from magcurves import sweep, verify

    out = []
    times = STEP * np.arange(SAMPLES)
    if hasattr(dynamics, "exact_flow"):
        for n, s in GRID:
            out.append(({"layer": "dynamics.exact_flow", "n": n, "s": s, "unit": "us/sample"},
                        SAMPLES,
                        functools.partial(dynamics.exact_flow, _setup(n, s, [n, s]), times)))

    def rhs_calls(args):
        for _ in range(RHS_CALLS):
            dynamics._rhs(*args)

    rng = np.random.default_rng(2)
    for batch, args in ((1, (2, 1.5, 2, np.ones(2), rng.normal(size=12))),
                        (5, (2, rng.normal(size=5), np.full(5, 2.0), np.ones((5, 2)),
                             rng.normal(size=(5, 12))))):
        out.append(({"layer": "dynamics._rhs", "n": 2, "s": 2, "B": batch, "unit": "us/call"},
                    RHS_CALLS, functools.partial(rhs_calls, args)))

    from magcurves import classify_trajectory, frenet_apparatus
    for n, s in FRENET_GRID if hasattr(dynamics, "exact_flow") else []:
        traj = dynamics.exact_flow(_setup(n, s, [n, s]), times)
        series = frenet_apparatus(traj)
        out.append(({"layer": "frenet.apparatus", "n": n, "s": s, "unit": "us/sample"},
                    SAMPLES, functools.partial(frenet_apparatus, traj)))
        out.append(({"layer": "classify.trajectory", "n": n, "s": s, "unit": "us/sample"},
                    SAMPLES, functools.partial(classify_trajectory, traj, series)))

    steps = 1000
    cfg = IntegratorConfig(t_end=steps * STEP, step=STEP)
    out.append(({"layer": "dynamics.integrate", "n": 2, "s": 2, "unit": "us/step"},
                steps, functools.partial(integrate, _setup(2, 2, [2, 2]), cfg)))
    for batch, steps in ((1, 1000), (3, 1000), (5, 1000), (8, 1000), (64, 1000),
                        (1024, 100)):
        cfg = IntegratorConfig(t_end=steps * STEP, step=STEP)
        setups = [_setup(2, 2, [2, 2, b]) for b in range(batch)]
        out.append(({"layer": "dynamics.integrate_many", "n": 2, "s": 2, "B": batch,
                     "unit": "us/row-step"},
                    batch * steps, functools.partial(integrate_many, setups, cfg)))

    spec = _sweep_spec()
    cells = spec.cells()
    setups = [sweep._cell_setup(spec, i, *cell) for i, cell in enumerate(cells)]
    if hasattr(sweep, "exact_flow"):
        engine = "exact_flow"
        times = spec.integrator.times

        def trajectories():
            return [sweep.exact_flow(st, times) for st in setups]
    else:
        engine = "integrate_many"

        def trajectories():
            return integrate_many(setups, spec.integrator)
    trajs = trajectories()

    def setup_stage():
        return [sweep._cell_setup(spec, i, *cell) for i, cell in enumerate(cells)]

    def frenet_row_stage():
        return [sweep._cell_row(*cell, traj) for cell, traj in zip(cells, trajs)]

    for layer, fn, extra in (("sweep.setup", setup_stage, {}),
                             ("sweep.trajectory", trajectories, {"engine": engine}),
                             ("sweep.frenet_row", frenet_row_stage, {})):
        out.append(({"layer": layer, "cells": len(cells), "samples": spec.integrator.n_samples,
                     **extra, "unit": "ms/cell"}, len(cells), fn))

    from magcurves import cli
    runs = []
    for doc in _perfbench_inputs().roundtrip_configs(
            np.random.default_rng([ROUNDTRIP_SEED, 1]), ROUNDTRIP_SEED):
        params = cli._closed_form_params(doc)
        sample = cli.sample_case_a if isinstance(params, cli.CaseAParams) else cli.sample_case_b
        runs.append(functools.partial(sample, params,
                                      IntegratorConfig(doc["t_end"], doc["step"]).times))
    out.append(({"layer": "closed_form.sample", "configs": len(runs), "unit": "us/sample"},
                sum(len(run.args[1]) for run in runs), lambda: [run() for run in runs]))

    out.append(({"layer": "verify.structure_suite", "samples": 200, "unit": "ms/call"}, 1,
                functools.partial(verify.structure_suite, 0, 200)))
    out.append(({"layer": "verify.connection_suite", "points": 50, "unit": "ms/call"}, 1,
                functools.partial(verify.connection_suite, 0, 50)))
    out.append(({"layer": "verify.curve_suite", "unit": "ms/call"}, 1,
                functools.partial(verify.curve_suite, 0)))
    out.append(({"layer": "verify.classification_suite", "cases": 5, "unit": "ms/call"}, 1,
                functools.partial(verify.classification_suite, 0, 5)))
    out.append(({"layer": "verify.run_all", "samples": 200, "points": 50, "cases": 5,
                 "unit": "ms/call"}, 1, functools.partial(verify.run_all, 0, 200, 50, 5)))
    return out


def measure(repeats: int) -> list[dict]:
    """Every case once per round, for repeats rounds after a warm-up round,
    so that the runs of each case are spread over the whole measurement."""
    todo = cases()
    seconds = [[] for _ in todo]
    for round_ in range(repeats + 1):
        for (_, _, fn), runs in zip(todo, seconds):
            t0 = time.perf_counter()
            fn()
            if round_:
                runs.append(time.perf_counter() - t0)
    scale = {"us": 1e6, "ms": 1e3}
    return [{**desc, "work": work, "repeats": repeats, "best_s": min(runs),
             "per_unit": min(runs) / work * scale[desc["unit"].split("/")[0]],
             "spread": max(runs) / min(runs) - 1.0}
            for (desc, work, _), runs in zip(todo, seconds)]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory holding the magcurves package to time")
    parser.add_argument("--label", required=True, help="name of the record, e.g. parent")
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--out", default=None, help="JSON file the record is stored in")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import magcurves
    if Path(magcurves.__file__).resolve().parent != src / "magcurves":
        sys.exit(f"engine_layer: imported magcurves from {magcurves.__file__}, not from {src}")

    record = {"label": args.label, **git_state(src), "machine": machine(),
              "cases": measure(args.repeats)}
    for case in record["cases"]:
        where = " ".join(f"{k}={case[k]}" for k in ("n", "s", "B", "engine") if k in case)
        print(f"  {case['layer']:<24} {where:<22} {case['per_unit']:10.3f} {case['unit']:<12}"
              f" spread {case['spread']:.1%}")
    if args.out:
        out = Path(args.out)
        doc = json.loads(out.read_text()) if out.exists() else {"topic": "engine", "records": []}
        doc["records"] = [r for r in doc["records"] if r["label"] != args.label] + [record]
        out.write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps(record))


if __name__ == "__main__":
    main()
