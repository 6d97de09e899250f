"""Golden digests of the CLI's outputs.

    python tests/golden.py --update

runs every command of ``RUNS`` in process through ``magcurves.cli.main``, in
a temporary directory, and rewrites tests/golden.json with the sha256 and
size of each output (standard output and written files) and its parsed
values, together with the Python, numpy and CPU model it was made on.

The digests hold only on a machine with those three: verify's RK4 batch
sums with BLAS ddot, whose last bits depend on the CPU.  ``mismatches``
therefore compares the parsed values everywhere and the digests only where
the environment matches.  Strings, ints and pass flags compare exactly,
floats to 1e-12 relative or 1e-9 absolute (a last-bit change in the samples
reaches the third Frenet curvature amplified by 1/h^3, about 1e-10 at the
step 0.01 used here), and each of verify's ``max_err`` to within 1e-3 of its
check's tol.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from magcurves import SpaceSignature, random_params  # noqa: E402
from magcurves.cli import main  # noqa: E402

TABLE = Path(__file__).resolve().parent / "golden.json"

_REL = 1e-12
_ABS = 1e-9
_MAX_ERR_OF_TOL = 1e-3

# 16 cells: a slant circle (cos theta = 1/q), Legendre helices and generic
# slant helices, at both signs of q, in two signatures of each n
_SWEEP = {"q_values": [2.0, -1.5], "cos_theta_values": [0.0, 0.5], "n_values": [1, 2],
          "s_values": [1, 3], "t_end": 2.0, "step": 1e-3, "seed": 1}

# (n, s, q, cos theta) of the closed-form round trips: two of case a
# (lambda != 0) and two of case b (q = 2 s cos theta, lambda = 0)
_ROUNDTRIPS = [(1, 1, 2.0, 0.3), (2, 2, -1.5, 0.2), (1, 2, 0.8, 0.2), (1, 3, -1.8, -0.3)]
_ROUNDTRIP_GRID = {"t_end": 0.5, "step": 0.01}

# (n, s, cos theta, q) of the integrate runs
_INTEGRATES = [(1, 1, 0.3, 2.0), (2, 3, 0.25, -1.2)]


def environment() -> dict:
    cpuinfo = Path("/proc/cpuinfo")
    models = [line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
              if line.startswith("model name")] if cpuinfo.is_file() else []
    return {"python": platform.python_version(), "numpy": np.__version__,
            "cpu": models[0] if models else platform.processor()}


def _configs() -> dict[str, dict]:
    docs = {"sweep16.json": _SWEEP}
    for i, (n, s, q, ct) in enumerate(_ROUNDTRIPS):
        doc = random_params(SpaceSignature(n, s), q, ct, seed=[7, i]).as_dict()
        docs[f"roundtrip{i}.json"] = {**doc, **_ROUNDTRIP_GRID}
    for n, s, ct, q in _INTEGRATES:
        docs[f"integrate{n}{s}.json"] = {"n": n, "s": s, "cos_theta": ct, "q": q,
                                         "t_end": 2.0, "step": 0.02}
    return docs


# (name of the standard output, argv, names of the files it writes)
RUNS = [(f"verify-seed{_seed}.stdout", ["verify", "--seed", str(_seed)], [])
        for _seed in range(4)]
RUNS += [("sweep16.stdout", ["sweep", "--config", "sweep16.json", "--out", "sweep16.csv"],
          ["sweep16.csv"])]
for _i in range(len(_ROUNDTRIPS)):
    RUNS += [(f"closed-form{_i}.stdout", ["closed-form", "--config", f"roundtrip{_i}.json",
                                          "--out", f"roundtrip{_i}.csv"], [f"roundtrip{_i}.csv"]),
             (f"classify{_i}.stdout", ["classify", "--traj", f"roundtrip{_i}.csv"], [])]
for _n, _s, *_ in _INTEGRATES:
    RUNS += [(f"integrate{_n}{_s}.stdout", ["integrate", "--config", f"integrate{_n}{_s}.json",
                                            "--out", f"integrate{_n}{_s}.csv"],
              [f"integrate{_n}{_s}.csv"])]


def outputs(workdir: Path) -> dict[str, bytes]:
    """Every output of ``RUNS``, by name, made in workdir (paths in the
    outputs are relative to it)."""
    old = os.getcwd()
    os.chdir(workdir)
    try:
        for name, doc in _configs().items():
            Path(name).write_text(json.dumps(doc))
        out = {}
        for name, argv, files in RUNS:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                main(argv)
            out[name] = buf.getvalue().encode()
            out.update((f, Path(f).read_bytes()) for f in files)
        return out
    finally:
        os.chdir(old)


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def parse(name: str, data: bytes):
    text = data.decode()
    if name.endswith(".csv"):
        return [[_cell(c) for c in row] for row in csv.reader(io.StringIO(text))]
    return json.loads(text)


def _differences(got, want, where: str):
    if isinstance(want, float) and isinstance(got, float):
        same = (math.isnan(got) and math.isnan(want)) or math.isclose(
            got, want, rel_tol=_REL, abs_tol=_ABS)
        if not same:
            yield f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict) and isinstance(got, dict):
        if sorted(got) != sorted(want):
            yield f"{where}: keys {sorted(got)} != {sorted(want)}"
        else:
            for k in want:
                yield from _differences(got[k], want[k], f"{where}.{k}")
    elif isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            yield f"{where}: length {len(got)} != {len(want)}"
        else:
            for i, (g, w) in enumerate(zip(got, want)):
                yield from _differences(g, w, f"{where}[{i}]")
    elif type(got) is not type(want) or got != want:
        yield f"{where}: {got!r} != {want!r}"


def _without_max_err(report: dict) -> dict:
    return {**report, "checks": [{**c, "max_err": None} for c in report.get("checks", [])]}


def value_differences(name: str, got, want) -> list[str]:
    """Where the parsed output got differs from the recorded want."""
    diffs = []
    if name.startswith("verify"):
        # each max_err to within 1e-3 of its check's tol, the rest as below
        for i, (g, w) in enumerate(zip(got.get("checks", []), want["checks"])):
            a, b = g["max_err"], w["max_err"]
            if (a is None) != (b is None) or (a is not None
                                              and abs(a - b) > _MAX_ERR_OF_TOL * w["tol"]):
                diffs.append(f"{name}.checks[{i}].max_err: {a!r} != {b!r}")
        got, want = _without_max_err(got), _without_max_err(want)
    return diffs + list(_differences(got, want, name))


def digest(data: bytes) -> dict:
    return {"sha256": hashlib.sha256(data).hexdigest(), "size": len(data)}


def load() -> dict:
    return json.loads(TABLE.read_text())


def mismatches(got: dict[str, bytes], table: dict) -> list[str]:
    """Every difference of the outputs got from the table: parsed values
    always, digests where the table's environment is this one."""
    recorded = table["outputs"]
    if sorted(got) != sorted(recorded):
        return [f"outputs {sorted(got)} != {sorted(recorded)}"]
    same_env = table["environment"] == environment()
    out = []
    for name, data in got.items():
        out += value_differences(name, parse(name, data), recorded[name]["values"])
        if same_env and digest(data) != {k: recorded[name][k] for k in ("sha256", "size")}:
            out.append(f"{name}: digest {digest(data)} != recorded")
    return out


def update(workdir: Path) -> None:
    got = outputs(workdir)
    table = {"environment": environment(),
             "outputs": {name: {**digest(data), "values": parse(name, data)}
                         for name, data in sorted(got.items())}}
    # one line per output, so that a change shows as the lines of its outputs
    lines = [f" {json.dumps(name)}: {json.dumps(entry)}"
             for name, entry in table["outputs"].items()]
    TABLE.write_text(f'{{"environment": {json.dumps(table["environment"])},\n'
                     ' "outputs": {\n' + ",\n".join(lines) + "\n}}\n")


if __name__ == "__main__":
    import tempfile

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true", required=True,
                        help="rewrite tests/golden.json from this checkout's outputs")
    parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        update(Path(tmp))
