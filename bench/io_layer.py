"""Per-layer timing of the trajectory file formats in ``magcurves.io``.

    python bench/io_layer.py --label change --out BENCH_io.json
    python bench/io_layer.py --src ../parent/src --label parent --src src --label change \
        --out BENCH_io.json

Times CSV write, CSV read, JSON write and JSON read of trajectories of the
widest ``exact-roundtrip`` signature, (n, s) = (3, 3):

* ``closed_form``, an exact slant helix, at 2001 and 10 000 rows: its speed
  and eta columns repeat one bit pattern, as the ``closed-form`` files do;
* ``all_distinct``, random values in every cell, at 10 000 rows: no bit
  pattern repeats, the CSV writer's worst case;
* ``rk4``, an ``integrate`` run of the same kind of helix, at 10 000 rows:
  RK4 drifts in the last bits, so its speed and eta columns repeat less.

Each case runs ``--repeats`` times, round robin with the others; a record
keeps the best and the median time in microseconds per row and the spread
(worst / best - 1).

``--src`` selects the package source to time, so that one copy of this
script measures two commits alike.  Give ``--src`` and ``--label`` once per
package: all of them are imported into one process (each under its own
module name) and timed in the same rounds, each case of one package next to
the same case of the others, so that the speed changes of a shared host fall
on all of them alike; the trajectories are built by the first package.
With ``--out`` each record is stored in that JSON file under its ``--label``
(an earlier record of the same label is replaced, others are kept); the last
lines of standard output are the records.
"""
from __future__ import annotations

import argparse
import functools
import importlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIG = (3, 3)
TRAJECTORIES = (("closed_form", 2001), ("closed_form", 10_000), ("all_distinct", 10_000),
                ("rk4", 10_000))
STEP = 1e-3
LAYERS = (("csv", "write"), ("csv", "read"), ("json", "write"), ("json", "read"))


def machine() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"cpu": cpu or platform.processor(), "nproc": os.cpu_count(),
            "system": platform.system(), "python": platform.python_version(),
            "numpy": np.__version__}


def git_state(src: Path) -> dict:
    """HEAD of the checkout holding src, and whether src differs from it."""
    def git(*args):
        try:
            out = subprocess.run(["git", "-C", str(src), *args], capture_output=True,
                                 text=True, timeout=30)
        except OSError:
            return None
        return out.stdout.strip() if out.returncode == 0 else None
    sha = git("rev-parse", "HEAD")
    return {"git_sha": sha,
            "src_modified": None if sha is None else bool(git("status", "--porcelain", "."))}


def load_package(src: Path, name: str):
    """The magcurves package in src, imported as the module ``name`` (its
    modules import one another relatively)."""
    spec = importlib.util.spec_from_file_location(
        name, src / "magcurves" / "__init__.py",
        submodule_search_locations=[str(src / "magcurves")])
    if spec is None:
        sys.exit(f"io_layer: no magcurves package in {src}")
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def trajectory(mc, kind: str, rows: int):
    """A case (a) slant helix (lambda = 0.7 - 2 * 3 * 0.2 = -0.5) sampled
    exactly or by RK4, or a table of random values, from the package mc."""
    sig = mc.SpaceSignature(*SIG)
    params = mc.random_params(sig, 0.7, 0.2, seed=[2101, rows])
    if kind == "closed_form":
        return mc.sample_case_a(params, STEP * np.arange(rows))
    if kind == "rk4":
        return mc.integrate(params.setup(), mc.IntegratorConfig((rows - 1) * STEP, STEP))
    rng = np.random.default_rng([2102, rows])
    times = np.cumsum(rng.uniform(0.5, 1.5, rows)) * STEP
    return mc.Trajectory(sig, times, rng.standard_normal((rows, sig.dim)),
                         rng.standard_normal((rows, sig.dim)))


def measure(packages: list, repeats: int) -> list[list[dict]]:
    """Every case of every package once per round, for repeats rounds: the
    runs of each case are spread over the whole measurement, not bunched
    into one moment of a host whose speed varies.  Returns each package's
    cases."""
    ios = [importlib.import_module(f"{package.__name__}.io") for package in packages]
    with tempfile.TemporaryDirectory() as tmp:
        cases = []
        for kind, rows in TRAJECTORIES:
            traj = trajectory(packages[0], kind, rows)
            for fmt, op in LAYERS:
                for i, io in enumerate(ios):
                    path = Path(tmp) / f"{i}-{kind}-{rows}.{fmt}"
                    fn = (functools.partial(getattr(io, f"write_trajectory_{fmt}"), traj, path)
                          if op == "write" else functools.partial(io.read_trajectory, path))
                    cases.append((i, kind, rows, f"{fmt}_{op}", fn))
        seconds = [[] for _ in cases]
        for round_ in range(repeats + 1):  # round 0 warms up and writes the files read
            for (*_, fn), runs in zip(cases, seconds):
                t0 = time.perf_counter()
                fn()
                if round_:
                    runs.append(time.perf_counter() - t0)
    return [[{"layer": f"io.{layer}", "trajectory": kind, "n": SIG[0], "s": SIG[1],
              "rows": rows, "repeats": repeats, "best_s": min(runs),
              "us_per_row": min(runs) / rows * 1e6,
              "median_us_per_row": statistics.median(runs) / rows * 1e6,
              "spread": max(runs) / min(runs) - 1.0}
             for (i, kind, rows, layer, _), runs in zip(cases, seconds) if i == index]
            for index in range(len(packages))]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", default=None,
                        help="directory holding a magcurves package to time (default: this "
                             "checkout's src); repeat it to time several packages together")
    parser.add_argument("--label", action="append", required=True,
                        help="name of the record, e.g. parent; one per --src")
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--out", default=None, help="JSON file the records are stored in")
    args = parser.parse_args()
    srcs = [Path(src).resolve() for src in args.src or [ROOT / "src"]]
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if len(args.label) != len(srcs) or len(set(args.label)) != len(srcs):
        parser.error("give one distinct --label per --src")
    packages = [load_package(src, f"magcurves_{i}") for i, src in enumerate(srcs)]

    records = [{"label": label, **git_state(src), "machine": machine(), "cases": cases}
               for label, src, cases in zip(args.label, srcs, measure(packages, args.repeats))]
    for cases in zip(*(record["cases"] for record in records)):  # the same order in each
        line = f"  {cases[0]['layer']:<14} {cases[0]['trajectory']:<12} rows {cases[0]['rows']:>6}"
        for record, case in zip(records, cases):
            line += (f"  {record['label']} {case['us_per_row']:7.2f} us/row,"
                     f" median {case['median_us_per_row']:7.2f}")
        print(line)
    if args.out:
        out = Path(args.out)
        doc = json.loads(out.read_text()) if out.exists() else {"topic": "io", "records": []}
        doc["records"] = [r for r in doc["records"] if r["label"] not in args.label] + records
        out.write_text(json.dumps(doc, indent=1) + "\n")
    for record in records:
        print(json.dumps(record))


if __name__ == "__main__":
    main()
