"""Classification of normal magnetic trajectories and its inverse map.

A slant normal magnetic curve of strength q with contact angle theta
(cos theta = eta^a(T) for every a) is exactly one of four families, the
rows of ``_FAMILIES``: each holds the family's defining equality, existence
condition, curvatures (k1, k2) and inverse (a case of ``invert_q``).
``order_bound_curvatures`` drops the slant assumption, and
``classify_trajectory`` sorts a sampled curve by its ``frenet.Measurement``.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from numbers import Integral
from typing import Callable, NamedTuple

import numpy as np

from . import model_space as ms
from .dynamics import Trajectory, check_angles
from .errors import (InconsistentCaseError, nonzero_real, positive_int, positive_real,
                     real_vector, typed_number)
from .frenet import FrenetSeries, Measurement

__all__ = [
    "CurveKind",
    "CurveClass",
    "InverseResult",
    "predict_class",
    "order_bound_curvatures",
    "invert_q",
    "check_circle_existence",
    "rho",
    "classify_trajectory",
]

_DISPATCH_BAND = 1e-9       # exact-equality cases get this much numerical slack
_CURVATURE_SLACK = 1e-12   # the exact curvature conditions of invert_q


class CurveKind(str, Enum):
    GEODESIC = "geodesic"
    SLANT_CIRCLE = "slant_circle"
    LEGENDRE_HELIX = "legendre_helix"
    SLANT_HELIX = "slant_helix"
    GENERAL_MAGNETIC = "general_magnetic"
    NOT_MAGNETIC = "not_magnetic"


@dataclass(frozen=True)
class CurveClass:
    """Classification outcome with predicted curvatures and sign data.

    ``q`` is None when the strength is indeterminate (a Reeb-direction
    geodesic is magnetic for every q).  ``measured`` carries empirical
    values when the class was derived from a sampled trajectory.
    """

    kind: CurveKind
    q: float | None = None
    cos_theta: float | None = None
    kappa1: float | None = None
    kappa2: float | None = None
    epsilon: int | None = None
    measured: dict | None = None

    def __post_init__(self):
        for name in ("kappa1", "kappa2"):
            v = getattr(self, name)
            if v is not None and v < 0:
                raise ValueError(f"{name} must be nonnegative, got {v}")
            if v == math.inf:  # a formula that overflowed, e.g. sqrt(q^2 - s)
                raise ValueError(f"{name} must be finite, got inf for q = {self.q!r}")

    def as_dict(self) -> dict:
        return {
            "class": self.kind.value,
            "q": self.q,
            "cos_theta": self.cos_theta,
            "kappa1": self.kappa1,
            "kappa2": self.kappa2,
            "epsilon": self.epsilon,
            "measured": self.measured,
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.as_dict(), **kwargs)


@dataclass(frozen=True)
class InverseResult:
    """Strength candidates recovered from curvature data."""

    case_tag: str
    q_candidates: tuple[float, ...]
    cos_theta: float

    def __post_init__(self):
        for q in self.q_candidates:
            if q == 0 or not math.isfinite(q):
                raise ValueError(f"inverse strengths must be finite and nonzero, "
                                 f"got {self.q_candidates!r}")


def _invert_geodesic(kappa1, kappa2, s, eps, branch):
    raise InconsistentCaseError(
        "case i is the geodesic family (kappa1 = 0) with arbitrary strength")


def _invert_circle(kappa1, kappa2, s, eps, branch):
    if kappa2 > _CURVATURE_SLACK:
        raise InconsistentCaseError(f"case iii is a circle: kappa2 must be 0, got {kappa2!r}")
    root = math.sqrt(kappa1 * kappa1 + s)
    return (eps * root,), eps / root


def _invert_legendre(kappa1, kappa2, s, eps, branch):
    if abs(kappa2 - math.sqrt(s)) > _CURVATURE_SLACK:
        raise InconsistentCaseError(
            f"case ii requires kappa2 = sqrt(s) = {math.sqrt(s)!r}, got {kappa2!r}")
    return (kappa1, -kappa1), 0.0


def _invert_helix(kappa1, kappa2, s, eps, branch):
    if kappa2 <= _CURVATURE_SLACK:
        raise InconsistentCaseError("case iv requires kappa2 > 0 (use case iii for circles)")
    w = eps * math.sqrt(s) + branch * kappa2
    root = math.sqrt(kappa1 * kappa1 + w * w)
    return (eps * root,), w / (math.sqrt(s) * root)


class _Family(NamedTuple):
    kind: CurveKind
    case: str  # its tag in invert_q
    residual: Callable  # (q, cos theta, s) -> 0 on the defining equality
    exists: Callable  # (q, s) -> whether the family has a curve of strength q
    curvatures: Callable  # (q, cos theta, s) -> (k1, k2); q None for a geodesic only
    inverse: Callable  # (k1, k2, s, eps, branch) -> (q candidates, cos theta)


# The slant families in dispatch order; the helix, with no equality, takes the rest.
_FAMILIES = (
    _Family(CurveKind.GEODESIC, "i", lambda q, c, s: abs(c) - 1.0 / math.sqrt(s),
            lambda q, s: True, lambda q, c, s: (0.0, 0.0), _invert_geodesic),
    _Family(CurveKind.SLANT_CIRCLE, "iii", lambda q, c, s: c - 1.0 / q,
            lambda q, s: check_circle_existence(q, s),
            lambda q, c, s: (math.sqrt(max(0.0, q * q - s)), 0.0), _invert_circle),
    _Family(CurveKind.LEGENDRE_HELIX, "ii", lambda q, c, s: c, lambda q, s: True,
            lambda q, c, s: (abs(q), math.sqrt(s)), _invert_legendre),
    _Family(CurveKind.SLANT_HELIX, "iv", lambda q, c, s: 0.0, lambda q, s: True,
            lambda q, c, s: (abs(q) * math.sqrt(max(0.0, 1.0 - s * c * c)),
                             math.sqrt(s) * abs(1.0 - q * c)), _invert_helix),
)
_CURVATURES = {row.kind: row.curvatures for row in _FAMILIES}
_BY_CASE = {row.case: row for row in _FAMILIES}


def _slant_class(kind: CurveKind, q: float | None, cos_theta: float, s: int,
                 measured: dict | None = None) -> CurveClass:
    """The slant family ``kind`` with its row's (k1, k2) and eps = sgn(1 - q cos theta);
    q None (a geodesic of indeterminate strength) leaves eps None."""
    k1, k2 = _CURVATURES[kind](q, cos_theta, s)
    d = None if q is None else 1.0 - q * cos_theta
    return CurveClass(kind, q=q, cos_theta=cos_theta, kappa1=k1, kappa2=k2,
                      epsilon=None if d is None else int(d > 0) - int(d < 0), measured=measured)


def predict_class(q: float, cos_theta: float, s: int) -> CurveClass:
    """The class of (q, theta): the first row of ``_FAMILIES`` whose equality
    holds to within 1e-9 and that has a curve of strength q.  The angle must
    pass ``check_angles`` in each of the s directions (s cos^2(theta) <= 1 +
    1e-12), else InfeasibleAngleError."""
    nonzero_real("q", q)
    check_angles([cos_theta] * positive_int("s", s))
    for row in _FAMILIES:
        if abs(row.residual(q, cos_theta, s)) <= _DISPATCH_BAND and row.exists(q, s):
            return _slant_class(row.kind, q, cos_theta, s)


def order_bound_curvatures(q: float, cosines) -> tuple[float, float]:
    """(k1, k2) = (|q| sqrt(1 - A), sqrt(A q^2 - A s + B^2 - 2 B q + s)) of a
    normal magnetic curve with contact values cos(theta_a), for A = sum_a
    cos^2(theta_a) and B = sum_a cos(theta_a): valid without the slant
    assumption, and the slant formulas for equal cosines.  The cosines must
    pass ``check_angles``, which gives A; B adds in the same bit order (that
    of ``model_space``).  k2 factors q^2 out of its sum where q^2 overflows.
    """
    q = typed_number("q", q)
    cos = real_vector("cosines", cosines)
    a_sum = check_angles(cos)
    s = len(cos)
    b_sum = ms._scalar_sum(cos)
    k1 = abs(q) * math.sqrt(max(0.0, 1.0 - a_sum))
    k2sq = a_sum * q * q - a_sum * s + b_sum * b_sum - 2.0 * b_sum * q + s
    if not math.isfinite(k2sq):
        rest = ((b_sum * b_sum + s - a_sum * s) / q) / q
        return k1, abs(q) * math.sqrt(max(0.0, a_sum - 2.0 * b_sum / q + rest))
    return k1, math.sqrt(max(0.0, k2sq))


def invert_q(kappa1: float, kappa2: float, s: int, case: str,
             eps: int = 1, branch: int = 1) -> InverseResult:
    """Strengths for which a slant helix with these curvatures is magnetic.

    ``case`` tags the family inverted ("ii" Legendre, "iii" slant circle,
    "iv" generic slant helix; "i", the geodesic, is refused).  Its row of
    ``_FAMILIES`` checks the curvatures at 1e-12 and gives q and cos theta.

    ``eps`` is the orientation sign -sgn(g(phi T, v2)) and ``branch`` the
    sign of eta^a(v3); both depend on frame data absent from bare
    curvatures, so the caller supplies them, each the integer +1 or -1 (a
    bool or a float is refused).  The curvatures must be finite real numbers
    and s a positive integer.
    """
    kappa1 = typed_number("kappa1", kappa1)
    kappa2 = typed_number("kappa2", kappa2)
    positive_int("s", s)
    if not kappa1 > 0:
        raise ValueError("kappa1 must be positive; kappa1 = 0 is the geodesic case, "
                         "magnetic for an arbitrary strength")
    if kappa2 < 0:
        raise ValueError("kappa2 must be nonnegative")
    for v in (eps, branch):
        if not (isinstance(v, Integral) and not isinstance(v, bool) and v in (1, -1)):
            raise ValueError("eps and branch must be +1 or -1")
    row = _BY_CASE.get(case) if isinstance(case, str) else None
    if row is None:
        raise ValueError(f"unknown case {case!r}: expected one of 'i', 'ii', 'iii', 'iv'")
    q_candidates, cos_theta = row.inverse(kappa1, kappa2, s, eps, branch)
    return InverseResult(row.case, q_candidates, cos_theta)


def check_circle_existence(q: float, s: int) -> bool:
    """Whether a non-geodesic slant circle exists for strength q.

    None exists for 0 < |q| <= sqrt(s); the boundary is excluded exactly.
    """
    return abs(nonzero_real("q", q)) > math.sqrt(positive_int("s", s))


def rho(cos_theta: float, s: int) -> float:
    """Magnitude of the Reeb-sum component along v3 for order-3 slant helices.

    rho^2 = s - s^2 cos^2(theta); the sign is frame-dependent and not
    resolved here.  The angle must pass ``check_angles`` as in
    ``predict_class``.
    """
    check_angles([cos_theta] * positive_int("s", s))
    return math.sqrt(max(0.0, s - s * s * cos_theta * cos_theta))


def classify_trajectory(traj: Trajectory, series: FrenetSeries, tol: float = 1e-3) -> CurveClass:
    """Empirical classification of a sampled trajectory.

    The trajectory must behave like a normal magnetic curve to within tol:
    unit speed, constant contact-form values, and a small Lorentz residual
    at the least-squares strength.  Anything else is NOT_MAGNETIC (a curve
    can satisfy the Lorentz equation without being unit speed; normality is
    part of the contract being tested).  Magnetic curves dispatch on the
    measured angles and curvature medians: equal angles reproduce the slant
    families, constant-but-unequal angles are GENERAL_MAGNETIC.
    A tol that is not finite and positive, a sample whose point or velocity
    is not finite, or a measured value that is not (huge velocities
    overflow the Lorentz terms and the g-norms), raises ValueError.
    """
    positive_real("tol", tol)
    if (k := traj.first_nonfinite()) is not None:
        raise ValueError(f"sample {k} (t = {traj.times[k]:.6g}) has a non-finite point or velocity")
    s = traj.sig.s
    m = Measurement(traj, series)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        q_hat, res = m.fit
        measured = {
            "q": q_hat,
            "cosines": [float(c) for c in m.cosines],
            "kappa1": m.kappa1,
            "kappa2": None if np.isnan(m.kappa2) else m.kappa2,
            "kappa3": None if np.isnan(m.kappa3) else m.kappa3,
            "residual": res,
            "speed_deviation": m.speed_drift,
            "angle_deviation": m.angle_deviation,
            "v2_alignment": m.v2_alignment,
        }
    for name, v in measured.items():
        for x in v if isinstance(v, list) else (v,):
            if x is not None and not math.isfinite(x):
                raise ValueError(f"measured {name} is not finite: got {v!r}")

    if m.speed_drift > tol or m.angle_deviation > tol or res > tol:
        return CurveClass(CurveKind.NOT_MAGNETIC, q=q_hat, measured=measured)

    slant = float(np.max(m.cosines) - np.min(m.cosines)) <= tol
    if not slant:
        k1, k2 = order_bound_curvatures(q_hat, m.cosines)
        return CurveClass(CurveKind.GENERAL_MAGNETIC, q=q_hat, kappa1=k1, kappa2=k2,
                          measured=measured)

    cos_theta = float(np.mean(m.cosines))
    if m.kappa1 <= tol or q_hat is None:
        # magnetic for every strength, so none is reported
        return _slant_class(CurveKind.GEODESIC, None, cos_theta, s, measured)
    if np.isnan(m.kappa2) or m.kappa2 <= tol:
        kind = CurveKind.SLANT_CIRCLE
    elif abs(cos_theta) <= tol:
        kind = CurveKind.LEGENDRE_HELIX
    else:
        kind = CurveKind.SLANT_HELIX
    return _slant_class(kind, q_hat, cos_theta, s, measured)
