"""Per-layer timing of the trajectory file formats in ``magcurves.io``.

    python bench/io_layer.py --label change --out BENCH_io.json
    python bench/io_layer.py --src ../parent/src --label parent --src src --label change \
        --out BENCH_io.json

Times CSV write, CSV read, JSON write and JSON read of trajectories of the
widest ``exact-roundtrip`` signature, (n, s) = (3, 3), in microseconds per
row:

* ``closed_form``, an exact slant helix, at 2001 and 10 000 rows: its speed
  and eta columns repeat one bit pattern, as the ``closed-form`` files do;
* ``all_distinct``, random values in every cell, at 10 000 rows: no bit
  pattern repeats, the CSV writer's worst case;
* ``rk4``, an ``integrate`` run of the same kind of helix, at 10 000 rows:
  RK4 drifts in the last bits, so its speed and eta columns repeat less.

Each package builds its own trajectories; ``harness.py`` times them.
"""
from __future__ import annotations

import functools
import importlib

import numpy as np

import harness

SIG = (3, 3)
TRAJECTORIES = (("closed_form", 2001), ("closed_form", 10_000), ("all_distinct", 10_000),
                ("rk4", 10_000))
STEP = 1e-3
LAYERS = (("csv", "write"), ("csv", "read"), ("json", "write"), ("json", "read"))


def trajectory(mc, kind: str, rows: int):
    """A case (a) slant helix (lambda = 0.7 - 2 * 3 * 0.2 = -0.5) sampled
    exactly or by RK4, or a table of random values, from the package mc."""
    sig = mc.SpaceSignature(*SIG)
    params = mc.random_params(sig, 0.7, 0.2, seed=[2101, rows])
    if kind == "closed_form":
        return mc.exact_flow(params.setup(), STEP * np.arange(rows))
    if kind == "rk4":
        return mc.integrate(params.setup(), mc.IntegratorConfig((rows - 1) * STEP, STEP))
    rng = np.random.default_rng([2102, rows])
    times = np.cumsum(rng.uniform(0.5, 1.5, rows)) * STEP
    return mc.Trajectory(sig, times, rng.standard_normal((rows, sig.dim)),
                         rng.standard_normal((rows, sig.dim)))


def cases(mc, tmp) -> list[tuple[dict, int, object]]:
    """(description, rows, callable) for every layer of every trajectory; a
    read follows the write of its file, which the warm-up round makes."""
    io = importlib.import_module(f"{mc.__name__}.io")
    out = []
    for kind, rows in TRAJECTORIES:
        traj = trajectory(mc, kind, rows)
        for fmt, op in LAYERS:
            path = tmp / f"{kind}-{rows}.{fmt}"
            fn = (functools.partial(getattr(io, f"write_trajectory_{fmt}"), traj, path)
                  if op == "write" else functools.partial(io.read_trajectory, path))
            out.append(({"layer": f"io.{fmt}_{op}", "trajectory": kind, "n": SIG[0],
                         "s": SIG[1], "rows": rows, "unit": "us/row"}, rows, fn))
    return out


if __name__ == "__main__":
    harness.main(__doc__, cases, "io", repeats=15)
