"""Per-layer timing of the trajectory file formats in ``magcurves.io``.

    python bench/io_layer.py --label change --out BENCH_io.json
    python bench/io_layer.py --src ../parent/src --label parent --out BENCH_io.json

Times CSV write, CSV read, JSON write and JSON read of one closed-form
trajectory of the widest ``exact-roundtrip`` signature, (n, s) = (3, 3), at
2001 and 10 000 rows.  Each case runs ``--repeats`` times, round robin with
the others; the record keeps the best time in microseconds per row and the
spread (worst / best - 1).

``--src`` selects the package source to time, so that one copy of this
script measures two commits alike.  With ``--out`` the record is stored in
that JSON file under its ``--label`` (an earlier record of the same label is
replaced, others are kept); the last line of standard output is the record.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIG = (3, 3)
ROWS = (2001, 10_000)
STEP = 1e-3


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


def trajectory(rows: int):
    """A case (a) slant helix (lambda = 0.7 - 2 * 3 * 0.2 = -0.5) sampled exactly."""
    from magcurves import SpaceSignature
    from magcurves.closed_form import random_params, sample_case_a
    params = random_params(SpaceSignature(*SIG), 0.7, 0.2, seed=[2101, rows])
    return sample_case_a(params, STEP * np.arange(rows))


def measure(repeats: int) -> list[dict]:
    """Every case once per round, for repeats rounds: the runs of each case
    are spread over the whole measurement, not bunched into one moment of
    a host whose speed varies."""
    from magcurves.io import read_trajectory, write_trajectory_csv, write_trajectory_json
    with tempfile.TemporaryDirectory() as tmp:
        cases = []
        for rows in ROWS:
            traj = trajectory(rows)
            csv_path, json_path = Path(tmp) / f"{rows}.csv", Path(tmp) / f"{rows}.json"
            cases += [
                (rows, "csv_write", functools.partial(write_trajectory_csv, traj, csv_path)),
                (rows, "csv_read", functools.partial(read_trajectory, csv_path)),
                (rows, "json_write", functools.partial(write_trajectory_json, traj, json_path)),
                (rows, "json_read", functools.partial(read_trajectory, json_path)),
            ]
        seconds = [[] for _ in cases]
        for round_ in range(repeats + 1):  # round 0 warms up and writes the files read
            for (_, _, fn), runs in zip(cases, seconds):
                t0 = time.perf_counter()
                fn()
                if round_:
                    runs.append(time.perf_counter() - t0)
    return [{"layer": f"io.{layer}", "n": SIG[0], "s": SIG[1], "rows": rows,
             "repeats": repeats, "best_s": min(runs),
             "us_per_row": min(runs) / rows * 1e6, "spread": max(runs) / min(runs) - 1.0}
            for (rows, layer, _), runs in zip(cases, seconds)]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory holding the magcurves package to time")
    parser.add_argument("--label", required=True, help="name of the record, e.g. parent")
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--out", default=None, help="JSON file the record is stored in")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import magcurves
    if Path(magcurves.__file__).resolve().parent != src / "magcurves":
        sys.exit(f"io_layer: imported magcurves from {magcurves.__file__}, not from {src}")

    record = {"label": args.label, **git_state(src), "machine": machine(),
              "cases": measure(args.repeats)}
    for case in record["cases"]:
        print(f"  {case['layer']:<14} rows {case['rows']:>6}  {case['us_per_row']:8.2f} us/row"
              f"  spread {case['spread']:.1%}")
    if args.out:
        out = Path(args.out)
        doc = json.loads(out.read_text()) if out.exists() else {"topic": "io", "records": []}
        doc["records"] = [r for r in doc["records"] if r["label"] != args.label] + [record]
        out.write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps(record))


if __name__ == "__main__":
    main()
