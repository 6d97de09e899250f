"""Command-line interface.

Subcommands: integrate, closed-form, classify, invert, verify, sweep.
Exit codes: 0 success, 1 verification failure, 2 invalid configuration,
3 numerical divergence.
"""
from __future__ import annotations

import argparse
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
from .closed_form import (
    CaseAParams,
    CaseBParams,
    _lambda_vanishes,
    residual,
    sample_case_a,
    sample_case_b,
)
from .dynamics import (
    IntegratorConfig,
    MagneticSetup,
    angle_drift,
    initial_tangent,
    integrate,
    speed_drift,
)
from .errors import ConfigError, DivergenceError, check_memory, typed_number
from .frenet import frenet_apparatus
from .io import read_trajectory, write_trajectory
from .sweep import SweepSpec, run_sweep, write_sweep_csv
from . import verify as verify_mod

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_BAD_CONFIG = 2
EXIT_DIVERGED = 3


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    return doc


_REQUIRED = object()


def _field(doc: dict, key: str, kind=Real, default=_REQUIRED, length=None):
    """The config value doc[key], or default when the key is absent.

    A real number (kind Real) comes back as a finite float and an integer
    (Integral) as an int; with ``length`` the value must be a list of that
    many real numbers and comes back as a float array.  bool, str, None and
    containers in the place of a number raise ConfigError naming the key.
    """
    if key not in doc:
        if default is _REQUIRED:
            raise ConfigError(f"config is missing required key {key!r}")
        return default
    value = doc[key]
    if length is None:
        return typed_number(key, value, kind)
    if not (isinstance(value, list) and len(value) == length):
        raise ConfigError(f"{key} must be a list of {length} real numbers, got {value!r}")
    return np.array([typed_number(key, v, kind) for v in value])


def _signature(doc: dict) -> ms.SpaceSignature:
    return ms.SpaceSignature(_field(doc, "n", Integral), _field(doc, "s", Integral))


def _resolve_cosines(doc: dict, s: int) -> np.ndarray:
    """Contact angles from exactly one of cos_theta / theta / cosines / thetas.

    cos_theta is the preferred form; plain angles are converted once here.
    """
    given = [k for k in ("cos_theta", "theta", "cosines", "thetas") if k in doc]
    if len(given) != 1:
        raise ConfigError(
            "config must contain exactly one of 'cos_theta', 'theta', 'cosines', 'thetas'; "
            f"found {given or 'none'}"
        )
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
    doc = _load_config(args.config)
    sig = _signature(doc)
    cosines = _resolve_cosines(doc, sig.s)
    q = _field(doc, "q")
    p0 = ms.Point(sig, _field(doc, "p0", length=sig.dim, default=np.zeros(sig.dim)))
    direction = _field(doc, "direction", length=2 * sig.n, default=None)
    T0 = initial_tangent(p0, cosines, direction)
    setup = MagneticSetup(sig, q, p0, T0, label=doc.get("label"))
    cfg = IntegratorConfig(
        t_end=_field(doc, "t_end", default=10.0),
        step=_field(doc, "step", default=1e-3),
        record_every=_field(doc, "record_every", Integral, default=1),
    )
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
    sig = _signature(doc)
    cosines = _resolve_cosines(doc, sig.s)
    if np.max(cosines) - np.min(cosines) > 0:
        raise ConfigError("closed-form families are slant: all contact angles must be equal")
    ct = float(cosines[0])
    n, s = sig.n, sig.s
    case = doc.get("case")
    q = _field(doc, "q", default=None)
    if case is None:
        case = "b" if q is None or _lambda_vanishes(q, s, ct) else "a"
    if case not in ("a", "b"):
        raise ConfigError(f"case must be 'a' or 'b', got {case!r}")

    radius = 2.0 * math.sqrt(max(0.0, 1.0 - s * ct * ct))
    clen = n if case == "a" else 2 * n

    def vec(key: str, length: int) -> np.ndarray:
        return _field(doc, key, length=length, default=np.zeros(length))

    c = _field(doc, "c", length=clen, default=np.r_[radius, np.zeros(clen - 1)])
    h = vec("h", s)
    if case == "a":
        if q is None:
            raise ConfigError("case a requires an explicit strength q")
        return CaseAParams(
            sig, q, ct,
            a=vec("a", n), b=vec("b", n), c=c, d=vec("d", n), h=h,
        )
    params = CaseBParams(sig, ct, c=c, d=vec("d", 2 * n), h=h)
    if q is not None and not _lambda_vanishes(q, s, ct):
        raise ConfigError(
            f"case b fixes q = 2 s cos(theta) = {params.q!r}, config says {q!r}"
        )
    return params


def _cmd_closed_form(args) -> int:
    doc = _load_config(args.config)
    params = _closed_form_params(doc)
    step = _field(doc, "step", default=1e-3)
    t_end = _field(doc, "t_end", default=10.0)
    # the integrator's grid: same validation, and the times integrate records
    cfg = IntegratorConfig(t_end, step)
    cfg.check_fits(3 * params.sig.dim + 1, "the closed-form samples")
    times = cfg.times
    if isinstance(params, CaseAParams):
        traj = sample_case_a(params, times)
    else:
        traj = sample_case_b(params, times)
    res = residual(traj, traj.q)
    out = _out_path(args)
    write_trajectory(traj, out, fmt=args.format)
    print(json.dumps({
        "out": str(out),
        "case": "a" if isinstance(params, CaseAParams) else "b",
        "q": traj.q,
        "samples": len(traj),
        "lorentz_residual": res,
    }))
    return EXIT_OK if res <= 1e-10 else EXIT_VERIFY_FAIL


def _cmd_classify(args) -> int:
    if (args.config is None) == (args.traj is None):
        raise ConfigError("classify needs exactly one of --config or --traj")
    if args.config is not None:
        doc = _load_config(args.config)
        s = _field(doc, "s", Integral)
        cosines = _resolve_cosines(doc, s)
        q = _field(doc, "q")
        if np.max(cosines) - np.min(cosines) > 0:
            k1, k2 = order_bound_curvatures(q, cosines)
            cls = CurveClass(CurveKind.GENERAL_MAGNETIC, q=q, kappa1=k1, kappa2=k2)
            print(cls.to_json())
            return EXIT_OK
        cls = predict_class(q, float(cosines[0]), s)
        print(cls.to_json())
        return EXIT_OK
    traj = read_trajectory(args.traj)
    series = frenet_apparatus(traj)
    cls = classify_trajectory(traj, series, tol=args.tol)
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
    report = verify_mod.run_all(
        seed=args.seed,
        samples=args.samples,
        points=args.points,
        cases=args.cases,
        metric_perturbation=args.inject_metric_perturbation,
    )
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return EXIT_OK if report["passed"] else EXIT_VERIFY_FAIL


def _cmd_sweep(args) -> int:
    doc = _load_config(args.config)

    def grid(*names, default=None):
        for name in names:
            if name in doc:
                return doc[name]
        if default is not None:
            return default
        raise ConfigError(f"sweep config is missing {names[0]!r}")

    try:
        spec = SweepSpec(
            q_values=grid("q_values", "q"),
            cos_theta_values=grid("cos_theta_values", "cos_theta"),
            n_values=grid("n_values", "n", default=(1,)),
            s_values=grid("s_values", "s", default=(1,)),
            tol=_field(doc, "tol", default=1e-3),
            seed=_field(doc, "seed", Integral, default=0),
            t_end=_field(doc, "t_end", default=10.0),
            step=_field(doc, "step", default=1e-3),
            record_every=_field(doc, "record_every", Integral, default=1),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rows = run_sweep(spec)
    write_sweep_csv(rows, args.out)
    bad = sum(
        1 for r in rows
        if not (math.isfinite(r["kappa1_meas"])
                and abs(r["kappa1_meas"] - r["kappa1_pred"]) <= spec.tol
                and (not math.isfinite(r["kappa2_meas"])
                     or abs(r["kappa2_meas"] - r["kappa2_pred"]) <= spec.tol))
    )
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
    p.add_argument("--points", type=int, default=50, help="connection-table points")
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DivergenceError as exc:
        print(f"divergence: {exc} (last valid time {exc.t_last!r})", file=sys.stderr)
        return EXIT_DIVERGED
    except (ConfigError, ValueError, KeyError, OSError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
