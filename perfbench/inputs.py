"""Seeded input generation for the magcurves benchmark.

    python3 perfbench/inputs.py --workload sweep-grid --seed 1 --out DIR

writes the configs one workload hands to the ``magcurves`` CLI into DIR.
The same seed always gives byte-identical files.  ``run.py`` runs this
script in a fresh interpreter and times it as the benchmark's set-up, so the
time includes ``import magcurves``.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import magcurves  # noqa: E402,F401  (the import is part of the timed set-up)
from magcurves.closed_form import random_params  # noqa: E402
from magcurves.model_space import SpaceSignature  # noqa: E402

WORKLOADS = ("sweep-grid", "verify-default", "exact-roundtrip")

# Sweep cells: 2 x 2 x 2 x 4 = 32 trajectories of 2000 RK4 steps each, the
# cell size of the 96-cell sweep first timed for this benchmark, at the CLI's
# default step of 1e-3.  Fewer cells than that sweep keep several sweeps
# within one run.
SWEEP_T_END = 2.0
SWEEP_STEP = 1e-3
SWEEP_TOL = 1e-3

# Closed-form round trips: case a (lambda != 0) and case b (lambda = 0) for
# each signature, 2001 exact samples per file.
ROUNDTRIP_SIGS = ((1, 1), (1, 2), (2, 2), (3, 3))
ROUNDTRIP_T_END = 2.0
ROUNDTRIP_STEP = 1e-3


def _write(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def sweep_config(rng: np.random.Generator, seed: int) -> dict:
    """q below 1 and above sqrt(2), one of each sign (which one is positive
    comes from the seed); cos theta at 0, at 1/q_hi, at a generic positive
    value and at a negative value.  Every cos theta is admissible for s = 2
    (|cos theta| <= 1/sqrt(2))."""
    q_lo = float(rng.uniform(0.4, 0.9))
    q_hi = float(rng.uniform(1.6, 3.0))
    sign = float(rng.choice([-1.0, 1.0]))
    while True:
        generic = float(rng.uniform(0.1, 0.6))
        if abs(generic - 1.0 / q_hi) > 0.05:
            break
    negative = -float(rng.uniform(0.1, 0.6))
    return {
        "q_values": [sign * q_lo, -sign * q_hi],
        "cos_theta_values": [0.0, generic, 1.0 / q_hi, negative],
        "n_values": [1, 2],
        "s_values": [1, 2],
        "t_end": SWEEP_T_END,
        "step": SWEEP_STEP,
        "tol": SWEEP_TOL,
        "seed": seed,
    }


def _case_a_angles(rng: np.random.Generator, s: int) -> tuple[float, float]:
    """(q, cos theta) of a generic slant helix with |lambda| >= 0.5, away
    from the geodesic, circle and Legendre bands."""
    limit = 1.0 / math.sqrt(s)
    while True:
        q = float(rng.uniform(0.5, 3.0) * rng.choice([-1.0, 1.0]))
        ct = float(rng.uniform(-0.9 * limit, 0.9 * limit))
        if (abs(ct) > 0.05 and abs(1.0 - q * ct) > 0.05 and abs(ct - 1.0 / q) > 0.01
                and abs(-q + 2.0 * s * ct) >= 0.5):
            return q, ct


def _case_b_angle(rng: np.random.Generator, s: int) -> float:
    """cos theta of a straight-line family member; q = 2 s cos theta then
    gives lambda = 0 exactly.  Stays off the circle locus 2 s cos^2 = 1."""
    limit = 1.0 / math.sqrt(s)
    while True:
        ct = float(rng.uniform(-0.9 * limit, 0.9 * limit))
        if abs(ct) > 0.05 and abs(2.0 * s * ct * ct - 1.0) > 0.05:
            return ct


def roundtrip_configs(rng: np.random.Generator, seed: int) -> list[dict]:
    docs = []
    for k, (n, s) in enumerate(ROUNDTRIP_SIGS):
        sig = SpaceSignature(n, s)
        q, ct = _case_a_angles(rng, s)
        ct_b = _case_b_angle(rng, s)
        for case, (qq, cc) in (("a", (q, ct)), ("b", (2.0 * s * ct_b, ct_b))):
            params = random_params(sig, qq, cc, seed=[seed, k, ord(case)])
            doc = params.as_dict()
            if doc["case"] != case:
                raise RuntimeError(f"random_params chose case {doc['case']}, expected {case}")
            doc.update(t_end=ROUNDTRIP_T_END, step=ROUNDTRIP_STEP)
            docs.append(doc)
    return docs


def generate(workload: str, seed: int, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    if workload == "sweep-grid":
        _write(out / "sweep.json", sweep_config(np.random.default_rng([seed, 0]), seed))
    elif workload == "verify-default":
        _write(out / "verify.json", {"argv": ["verify", "--seed", str(seed)]})
    else:
        rng = np.random.default_rng([seed, 1])
        for i, doc in enumerate(roundtrip_configs(rng, seed)):
            _write(out / f"closed-form-{i}.json", doc)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    generate(args.workload, args.seed, Path(args.out))


if __name__ == "__main__":
    main()
