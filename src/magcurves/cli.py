"""Command-line interface.

Subcommands: integrate, closed-form, classify, invert, verify, sweep.
Exit codes: 0 success, 1 verification failure, 2 invalid configuration,
3 numerical divergence; a config key outside ``_CONFIG_KEYS`` exits 2.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from . import model_space as ms
from .classify import (
    CurveClass,
    CurveKind,
    classify_trajectory,
    invert_q,
    order_bound_curvatures,
    predict_class,
)
from .closed_form import RESIDUAL_TOL, family, sample_case_a, sample_case_b
from .dynamics import (
    IntegratorConfig,
    MagneticSetup,
    angle_drift,
    initial_tangent,
    integrate,
    speed_drift,
)
from .errors import (ConfigError, DivergenceError, check_memory, int_at_least, positive_int,
                     positive_real, real_vector, typed_number)
from .frenet import _MIN_SAMPLES, frenet_apparatus, residual
from .io import read_trajectory, write_trajectory
from .sweep import SweepSpec, in_tolerance, run_sweep, write_sweep_csv
from . import verify as verify_mod

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_BAD_CONFIG = 2
EXIT_DIVERGED = 3


_ANGLE_KEYS = ("cos_theta", "theta", "cosines", "thetas")  # a config holds one of them
_RUN_KEYS = {"t_end": Real, "step": Real, "record_every": Integral}  # key: kind it is typed to
_SWEEP_KEYS = {"tol": Real, "seed": Integral, **_RUN_KEYS}
_GRID_KEYS = ("q_values", "cos_theta_values", "n_values", "s_values")
# The keys each command's config may hold, one spelling each; classify
# --config classifies the curve that an integrate config describes.
_CONFIG_KEYS = {
    "integrate": ("n", "s", "q", *_ANGLE_KEYS, "p0", "direction", *_RUN_KEYS),
    "closed-form": ("n", "s", "q", "case", *_ANGLE_KEYS, "a", "b", "c", "d", "h",
                    "t_end", "step"),
    "sweep": (*_GRID_KEYS, *_SWEEP_KEYS),
}
_CONFIG_KEYS["classify"] = _CONFIG_KEYS["integrate"]


def _load_config(path: str, command: str) -> dict:
    """The JSON object at path, holding only keys that command reads."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    if unknown := set(doc).difference(_CONFIG_KEYS[command]):
        raise ConfigError(f"unknown config keys {sorted(unknown)}")
    return doc


_REQUIRED = object()


def _field(doc: dict, key: str, kind=Real, default=_REQUIRED, length=None):
    """The config value doc[key], or default when the key is absent.

    A real number (kind Real) comes back as a finite float and an integer
    (Integral) as an int; with ``length`` the value must be that many real
    numbers and comes back as a float array.  bool, str, None and containers
    in the place of a number raise ConfigError naming the key, by the rules
    of ``typed_number`` and ``real_vector``, which the library applies too.
    """
    if key not in doc:
        if default is _REQUIRED:
            raise ConfigError(f"config is missing required key {key!r}")
        return default
    value = doc[key]
    if length is None:
        return typed_number(key, value, kind)
    return real_vector(key, value, length)


def _given(doc: dict, kinds: dict) -> dict:
    """{key: _field(doc, key, kind)} for each key of kinds that doc holds, typed in
    that order; a key doc lacks keeps the default of the config it is passed to."""
    return {key: _field(doc, key, kind) for key, kind in kinds.items() if key in doc}


def _signature(doc: dict) -> ms.SpaceSignature:
    sig = ms.SpaceSignature(_field(doc, "n", Integral), _field(doc, "s", Integral))
    check_memory(8 * sig.dim, "the coordinates of one point")  # before any default allocates
    return sig


def _resolve_cosines(doc: dict, s: int) -> np.ndarray:
    """Contact angles from exactly one of _ANGLE_KEYS; plain angles are converted here."""
    given = [k for k in _ANGLE_KEYS if k in doc]
    if len(given) != 1:
        raise ConfigError("config must contain exactly one of "
                          f"{', '.join(map(repr, _ANGLE_KEYS))}; found {given or 'none'}")
    key = given[0]
    check_memory(8 * s, "the contact angles")
    if key == "cos_theta":
        return np.full(s, _field(doc, key))
    if key == "theta":
        return np.full(s, math.cos(_field(doc, key)))
    vals = _field(doc, key, length=s)
    return vals if key == "cosines" else np.cos(vals)


def _out_path(args) -> Path:
    out = Path(args.out)
    if args.format and out.suffix.lstrip(".").lower() != args.format:
        out = out.with_suffix("." + args.format)
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_integrate(args) -> int:
    doc = _load_config(args.config, "integrate")
    sig = _signature(doc)
    cosines = _resolve_cosines(doc, sig.s)
    q = _field(doc, "q")
    p0 = _field(doc, "p0", length=sig.dim, default=np.zeros(sig.dim))
    direction = _field(doc, "direction", length=2 * sig.n, default=None)
    setup = MagneticSetup(sig, q, p0, initial_tangent(sig, p0, cosines, direction))
    cfg = IntegratorConfig(**_given(doc, _RUN_KEYS))
    if cfg.n_samples < _MIN_SAMPLES:  # the Lorentz residual's stencil, before any output
        raise ConfigError(f"integrate needs at least {_MIN_SAMPLES} recorded samples, "
                          f"got {cfg.n_samples}")
    traj = integrate(setup, cfg)
    out = _out_path(args)
    write_trajectory(traj, out, fmt=args.format)
    print(json.dumps({
        "out": str(out),
        "samples": len(traj),
        "speed_drift": speed_drift(traj),
        "angle_drift": angle_drift(traj),
        "lorentz_residual": residual(traj, q),
    }))
    return EXIT_OK


def _closed_form_params(doc: dict):
    """The config's family: its signature, one slant angle and a typed q;
    ``family`` picks the case, fills the constants left out and checks them."""
    sig = _signature(doc)
    cosines = _resolve_cosines(doc, sig.s)
    if np.max(cosines) - np.min(cosines) > 0:
        raise ConfigError("closed-form families are slant: all contact angles must be equal")
    return family(sig, float(cosines[0]), _field(doc, "q", default=None), doc.get("case"),
                  **{k: doc[k] for k in ("a", "b", "c", "d", "h") if k in doc})


def _cmd_closed_form(args) -> int:
    doc = _load_config(args.config, "closed-form")
    params = _closed_form_params(doc)
    # the integrator's grid: same validation, and the times integrate records
    cfg = IntegratorConfig(**_given(doc, {"step": Real, "t_end": Real}))
    cfg.check_fits(3 * params.sig.dim + 1, "the closed-form samples")
    traj = (sample_case_a if params.case == "a" else sample_case_b)(params, cfg.times)
    res = residual(traj, traj.q)
    out = _out_path(args)
    write_trajectory(traj, out, fmt=args.format)
    print(json.dumps({
        "out": str(out),
        "case": params.case,
        "q": traj.q,
        "samples": len(traj),
        "lorentz_residual": res,
    }))
    return EXIT_OK if res <= RESIDUAL_TOL else EXIT_VERIFY_FAIL


def _cmd_classify(args) -> int:
    if (args.config is None) == (args.traj is None):
        raise ConfigError("classify needs exactly one of --config or --traj")
    positive_real("--tol", args.tol)
    if args.config is not None:
        doc = _load_config(args.config, "classify")
        s = positive_int("s", _field(doc, "s", Integral))
        cosines = _resolve_cosines(doc, s)
        q = _field(doc, "q")
        if np.max(cosines) - np.min(cosines) > 0:
            k1, k2 = order_bound_curvatures(q, cosines)
            cls = CurveClass(CurveKind.GENERAL_MAGNETIC, q=q, kappa1=k1, kappa2=k2)
        else:
            cls = predict_class(q, float(cosines[0]), s)
    else:
        traj = read_trajectory(args.traj)
        cls = classify_trajectory(traj, frenet_apparatus(traj), tol=args.tol)
    print(cls.to_json())
    return EXIT_OK


def _cmd_invert(args) -> int:
    result = invert_q(args.kappa1, args.kappa2, args.s, case=args.case,
                      eps=args.eps, branch=args.branch)
    print(json.dumps({
        "case": result.case_tag,
        "q_candidates": list(result.q_candidates),
        "cos_theta": result.cos_theta,
    }))
    return EXIT_OK


def _cmd_verify(args) -> int:
    for flag, value, least in (("--seed", args.seed, 0), ("--samples", args.samples, 1),
                               ("--points", args.points, 1), ("--cases", args.cases, 0)):
        int_at_least(flag, value, least)
    typed_number("--inject-metric-perturbation", args.inject_metric_perturbation)
    report = verify_mod.run_all(
        seed=args.seed,
        samples=args.samples,
        points=args.points,
        cases=args.cases,
        metric_perturbation=args.inject_metric_perturbation,
    )
    # strict JSON: a non-finite error, whose check has failed, prints as null
    checks = [{**c, "max_err": c["max_err"] if math.isfinite(c["max_err"]) else None}
              for c in report["checks"]]
    text = json.dumps({**report, "checks": checks}, indent=2, sort_keys=True, allow_nan=False)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return EXIT_OK if report["passed"] else EXIT_VERIFY_FAIL


def _cmd_sweep(args) -> int:
    doc = _load_config(args.config, "sweep")
    for key in ("q_values", "cos_theta_values"):  # the grids without a default
        if key not in doc:
            raise ConfigError(f"sweep config is missing {key!r}")
    spec = SweepSpec(**{key: doc[key] for key in _GRID_KEYS if key in doc},
                     **_given(doc, _SWEEP_KEYS))
    rows = run_sweep(spec)
    write_sweep_csv(rows, args.out)
    bad = sum(not in_tolerance(r, spec.tol) for r in rows)
    print(json.dumps({"out": str(args.out), "rows": len(rows), "cells_out_of_tol": bad}))
    return EXIT_VERIFY_FAIL if bad else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magcurves",
        description="Normal magnetic trajectories on the model space R^(2n+s): "
                    "integrate, generate in closed form, classify, verify, sweep.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("integrate", help="integrate the Lorentz equation with RK4")
    p.add_argument("--config", required=True, help="JSON run configuration")
    p.add_argument("--out", required=True, help="trajectory output path")
    p.add_argument("--format", choices=("csv", "json"), default=None)
    p.set_defaults(func=_cmd_integrate)

    p = sub.add_parser("closed-form", help="sample an exact parametric trajectory")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "json"), default=None)
    p.set_defaults(func=_cmd_closed_form)

    p = sub.add_parser("classify", help="classify a (q, cos_theta, s) triple or a trajectory file")
    p.add_argument("--config", default=None)
    p.add_argument("--traj", default=None, help="trajectory CSV/JSON with velocities")
    p.add_argument("--tol", type=float, default=1e-3)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("invert", help="strengths for which given curvatures are magnetic")
    p.add_argument("--kappa1", type=float, required=True)
    p.add_argument("--kappa2", type=float, default=0.0)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--case", choices=("i", "ii", "iii", "iv"), required=True)
    p.add_argument("--eps", type=int, choices=(1, -1), default=1)
    p.add_argument("--branch", type=int, choices=(1, -1), default=1)
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("verify", help="run all invariant suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=200, help="structure samples per (n, s)")
    p.add_argument("--points", type=int, default=50,
                   help="connection-table points: each of the 9 signatures checks "
                        "max(1, points // 9) of them")
    p.add_argument("--cases", type=int, default=5, help="empirical classification cases")
    p.add_argument("--out", default=None, help="also write the JSON report here")
    p.add_argument("--inject-metric-perturbation", type=float, default=0.0,
                   help="negative-control test mode: corrupt the metric by this amount")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="deterministic grid sweep to CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted and ignored: the cells are sampled one after another "
                        "from the exact flow")
    p.set_defaults(func=_cmd_sweep)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built on its first call and not at import;
    parsing leaves it unchanged, and each subcommand's function looks up the
    layers it calls when it runs."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)  # the message states t_last
        return EXIT_DIVERGED
    except (ConfigError, ValueError, KeyError, OSError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
