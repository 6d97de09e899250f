"""The timing harness of bench/'s layer scripts.

A script hands ``main`` a table ``cases(mc, tmp)``: (description, units of
work per run, callable) for each case, built by the package mc for itself
from the script's seeds; a description names the case's ``layer``, its
parameters and its ``unit`` (``us/...`` or ``ms/...``).  Each ``--src``
package (default: this checkout's src) is imported into one process under
its own module name.  After one warm-up round, every round runs each case of
every package once, each case of one package next to the same case of the
others (in the order of ``--src``, reversed every other round), so that the
speed changes of a shared host fall on all of them alike.

A record keeps, per case, the best and the median time per unit of work and
the spread (worst / best - 1).  The record of each label after the first
also keeps, under ``paired``, the ratios of its time to the first label's in
the same round: their median and quartiles, and the number of rounds it won
(ratio below 1).  Compare packages by these ratios: on a shared host their
best-of-N times can differ by more than the noise that the ratios show.
With ``--out`` each record is stored in that JSON file under its ``--label``
(an earlier record of the same label is replaced, others are kept); the
last lines of standard output are the records.
"""
from __future__ import annotations

import argparse
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
_MEASURED = ("work", "repeats", "best_s", "per_unit", "median_per_unit", "spread", "paired")


def machine() -> dict:
    cpuinfo = Path("/proc/cpuinfo")
    models = [line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
              if line.startswith("model name")] if cpuinfo.is_file() else []
    return {"cpu": models[0] if models else platform.processor(), "nproc": os.cpu_count(),
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
    init = Path(src) / "magcurves" / "__init__.py"
    if not init.is_file():
        sys.exit(f"harness: no magcurves package in {src}")
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def _summary(desc: dict, work: int, runs: list[float]) -> dict:
    scale = {"us": 1e6, "ms": 1e3}[desc["unit"].split("/")[0]] / work
    return {**desc, "work": work, "repeats": len(runs), "best_s": min(runs),
            "per_unit": min(runs) * scale, "median_per_unit": statistics.median(runs) * scale,
            "spread": max(runs) / min(runs) - 1.0}


def _paired(runs: list[float], first: list[float]) -> dict:
    """The round-by-round ratios runs / first: median, quartiles, and the
    number of rounds won (ratio below 1)."""
    ratios = np.asarray(runs) / np.asarray(first)
    q1, median, q3 = np.quantile(ratios, [0.25, 0.5, 0.75])
    return {"median_ratio": float(median), "quartiles": [float(q1), float(q3)],
            "rounds_won": int(np.sum(ratios < 1.0))}


def measure(packages: dict, cases, repeats: int) -> dict[str, list[dict]]:
    """The cases of each package (label -> package), timed round robin for
    repeats rounds after a warm-up round.  Returns each label's cases, those
    of the labels after the first paired with the first's."""
    with tempfile.TemporaryDirectory() as tmp:
        tables = {}
        for i, (label, mc) in enumerate(packages.items()):
            (Path(tmp) / str(i)).mkdir()
            tables[label] = cases(mc, Path(tmp) / str(i))
        descs = [[desc for desc, _, _ in table] for table in tables.values()]
        if any(other != descs[0] for other in descs):
            sys.exit("harness: the packages' case tables differ")
        seconds = {label: [[] for _ in table] for label, table in tables.items()}
        order = list(tables.items())
        for round_ in range(repeats + 1):  # round 0 warms up (and writes the files read)
            for k in range(len(descs[0])):
                # the package run second finds the caches warm: alternate it
                for label, table in order if round_ % 2 else order[::-1]:
                    t0 = time.perf_counter()
                    table[k][2]()
                    if round_:
                        seconds[label][k].append(time.perf_counter() - t0)
    first = next(iter(tables))
    timed = {label: [_summary(desc, work, runs)
                     for (desc, work, _), runs in zip(table, seconds[label])]
             for label, table in tables.items()}
    for label in list(tables)[1:]:
        for case, runs, base in zip(timed[label], seconds[label], seconds[first]):
            case["paired"] = {"to": first, **_paired(runs, base)}
    return timed


def main(doc: str, cases, topic: str, repeats: int) -> None:
    """The command line of a script with the docstring doc and the table
    cases, storing its records in BENCH_<topic>.json files."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--src", action="append", help="directory holding a magcurves "
                        "package to time; repeat it to time several packages together")
    parser.add_argument("--label", action="append", required=True,
                        help="name of the record, e.g. parent; one per --src")
    parser.add_argument("--repeats", type=int, default=repeats)
    parser.add_argument("--out", default=None, help="JSON file the records are stored in")
    args = parser.parse_args()
    srcs = [Path(src).resolve() for src in args.src or [ROOT / "src"]]
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if len(args.label) != len(srcs) or len(set(args.label)) != len(srcs):
        parser.error("give one distinct --label per --src")
    packages = {label: load_package(src, f"magcurves_{i}")
                for i, (label, src) in enumerate(zip(args.label, srcs))}

    timed = measure(packages, cases, args.repeats)
    records = [{"label": label, **git_state(src), "machine": machine(), "cases": timed[label]}
               for label, src in zip(args.label, srcs)]
    for cases_k in zip(*timed.values()):  # the same case of each package
        where = " ".join(f"{key}={value}" for key, value in cases_k[0].items()
                         if key not in ("layer", "unit", *_MEASURED))
        line = f"  {cases_k[0]['layer']:<27} {where:<36}"
        for label, case in zip(timed, cases_k):
            line += (f"  {label} {case['per_unit']:.4g} {case['unit']} (median"
                     f" {case['median_per_unit']:.4g}, spread {case['spread']:.0%})")
            if "paired" in case:
                p = case["paired"]
                q1, q3 = p["quartiles"]
                line += (f" x{p['median_ratio']:.3f} [{q1:.3f}-{q3:.3f}]"
                         f" won {p['rounds_won']}/{case['repeats']}")
        print(line)
    if args.out:
        out = Path(args.out)
        stored = json.loads(out.read_text()) if out.exists() else {"topic": topic, "records": []}
        stored["records"] = [r for r in stored["records"] if r["label"] not in args.label]
        stored["records"] += records
        out.write_text(json.dumps(stored, indent=1) + "\n")
    for record in records:
        print(json.dumps(record))
