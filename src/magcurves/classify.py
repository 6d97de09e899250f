"""Classification of normal magnetic trajectories and its inverse map.

A slant normal magnetic curve of strength q with contact angle theta
(cos theta = eta^a(T) for every a) is exactly one of:

  * a geodesic along (+-1/sqrt(s)) sum_a xi_a          (cos theta = +-1/sqrt(s))
  * a slant circle, k1 = sqrt(q^2 - s), k2 = 0         (cos theta = 1/q, |q| > sqrt(s))
  * a Legendre helix, k1 = |q|, k2 = sqrt(s)           (cos theta = 0)
  * a slant helix of order 3,
        k1 = |q| sqrt(1 - s cos^2 theta),  k2 = sqrt(s) |1 - q cos theta|.

Dropping the slant assumption, a normal magnetic curve with contact-form
values cos(theta_a) still has osculating order at most 3 with

    A  = sum_a cos^2(theta_a),   B = sum_a cos(theta_a),
    k1 = |q| sqrt(1 - A),        k2 = sqrt(A q^2 - A s + B^2 - 2 B q + s).

The inverse direction recovers which strengths a given slant helix is a
magnetic curve for; the case tags mirror the angle regimes above
("i" geodesic / "ii" Legendre / "iii" circle / "iv" generic slant).
``classify_trajectory`` sorts a sampled curve by its ``frenet.Measurement``.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import model_space as ms
from .dynamics import Trajectory, _sum_in_order, check_angles
from .errors import InconsistentCaseError, typed_number
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
        if not all(q != 0 and math.isfinite(q) for q in self.q_candidates):
            raise ValueError(f"inverse strengths must be finite and nonzero, "
                             f"got {self.q_candidates!r}")


def _sign(x: float) -> int:
    return int(np.sign(x))


def _slant_class(kind: CurveKind, q: float | None, cos_theta: float, s: int,
                 measured: dict | None = None) -> CurveClass:
    """The slant family ``kind`` with its curvatures (k1, k2) and sign
    eps = sgn(1 - q cos theta); q None (an indeterminate strength, for a
    geodesic only) leaves eps None."""
    if kind is CurveKind.GEODESIC:
        k1, k2 = 0.0, 0.0
    elif kind is CurveKind.SLANT_CIRCLE:
        k1, k2 = math.sqrt(max(0.0, q * q - s)), 0.0
    elif kind is CurveKind.LEGENDRE_HELIX:
        k1, k2 = abs(q), math.sqrt(s)
    else:
        k1 = abs(q) * math.sqrt(max(0.0, 1.0 - s * cos_theta * cos_theta))
        k2 = math.sqrt(s) * abs(1.0 - q * cos_theta)
    eps = None if q is None else _sign(1.0 - q * cos_theta)
    return CurveClass(kind, q=q, cos_theta=cos_theta, kappa1=k1, kappa2=k2,
                      epsilon=eps, measured=measured)


def predict_class(q: float, cos_theta: float, s: int) -> CurveClass:
    """Classification of the slant normal magnetic curve with data (q, theta).

    The angle must pass ``check_angles`` with cos(theta) in each of the s
    directions, that is s cos^2(theta) <= 1 + 1e-12, else
    InfeasibleAngleError.  The angle regimes are exact-equality conditions;
    numerically each gets a band of 1e-9 around it.
    """
    if q == 0:
        raise ValueError("q must be nonzero")
    check_angles([cos_theta] * s)
    if abs(abs(cos_theta) - 1.0 / math.sqrt(s)) <= _DISPATCH_BAND:
        kind = CurveKind.GEODESIC
    elif abs(cos_theta - 1.0 / q) <= _DISPATCH_BAND and check_circle_existence(q, s):
        kind = CurveKind.SLANT_CIRCLE
    elif abs(cos_theta) <= _DISPATCH_BAND:
        kind = CurveKind.LEGENDRE_HELIX
    else:
        kind = CurveKind.SLANT_HELIX
    return _slant_class(kind, q, cos_theta, s)


def order_bound_curvatures(q: float, cosines) -> tuple[float, float]:
    """(k1, k2) of a normal magnetic curve with per-direction contact values.

    Valid without the slant assumption; with equal cosines it reduces to the
    slant formulas.  k2 factors q^2 out of its sum where q^2 overflows.
    """
    cos = np.asarray(cosines, dtype=float)
    s = cos.shape[-1]
    a_sum = check_angles(cos)
    if cos.ndim == 1 and s < ms._COLUMN_ADD_WIDTH:  # np.sum's bits, as check_angles takes them
        b_sum = _sum_in_order(cos.tolist())
    else:
        b_sum = float(np.sum(cos))
    k1 = abs(q) * math.sqrt(max(0.0, 1.0 - a_sum))
    k2sq = a_sum * q * q - a_sum * s + b_sum * b_sum - 2.0 * b_sum * q + s
    if not math.isfinite(k2sq):
        rest = ((b_sum * b_sum + s - a_sum * s) / q) / q
        return k1, abs(q) * math.sqrt(max(0.0, a_sum - 2.0 * b_sum / q + rest))
    return k1, math.sqrt(max(0.0, k2sq))


def invert_q(kappa1: float, kappa2: float, s: int, case: str,
             eps: int = 1, branch: int = 1) -> InverseResult:
    """Strengths for which a slant helix with these curvatures is magnetic.

    ``case`` selects the angle regime being inverted:
      * "ii"  Legendre (cos theta = 0): requires kappa2 = sqrt(s); the curve
        is magnetic for both of +-kappa1.
      * "iii" slant circle: requires kappa2 = 0; q = eps sqrt(kappa1^2 + s)
        and cos theta = 1/q.
      * "iv"  generic slant helix: with w = eps sqrt(s) + branch kappa2,
        q = eps sqrt(kappa1^2 + w^2), cos theta = w / (sqrt(s) |q|).

    ``eps`` is the orientation sign -sgn(g(phi T, v2)) and ``branch`` the
    sign of eta^a(v3); both depend on frame data absent from bare
    curvatures, so the caller supplies them.  The curvatures must be finite
    real numbers and s a positive integer.
    """
    kappa1 = typed_number("kappa1", kappa1)
    kappa2 = typed_number("kappa2", kappa2)
    ms.positive_int("s", s)
    if not kappa1 > 0:
        raise ValueError(
            "kappa1 must be positive; kappa1 = 0 is the geodesic case, "
            "magnetic for an arbitrary strength"
        )
    if kappa2 < 0:
        raise ValueError("kappa2 must be nonnegative")
    if eps not in (1, -1) or branch not in (1, -1):
        raise ValueError("eps and branch must be +1 or -1")

    if case == "i":
        raise InconsistentCaseError(
            "case i is the geodesic family (kappa1 = 0) with arbitrary strength"
        )
    if case == "ii":
        if abs(kappa2 - math.sqrt(s)) > _CURVATURE_SLACK:
            raise InconsistentCaseError(
                f"case ii requires kappa2 = sqrt(s) = {math.sqrt(s)!r}, got {kappa2!r}"
            )
        return InverseResult("ii", (kappa1, -kappa1), 0.0)
    if case == "iii":
        if kappa2 > _CURVATURE_SLACK:
            raise InconsistentCaseError(
                f"case iii is a circle: kappa2 must be 0, got {kappa2!r}"
            )
        q = eps * math.sqrt(kappa1 * kappa1 + s)
        return InverseResult("iii", (q,), eps / math.sqrt(kappa1 * kappa1 + s))
    if case == "iv":
        if kappa2 <= _CURVATURE_SLACK:
            raise InconsistentCaseError(
                "case iv requires kappa2 > 0 (use case iii for circles)"
            )
        w = eps * math.sqrt(s) + branch * kappa2
        root = math.sqrt(kappa1 * kappa1 + w * w)
        q = eps * root
        return InverseResult("iv", (q,), w / (math.sqrt(s) * root))
    raise ValueError(f"unknown case {case!r}: expected one of 'i', 'ii', 'iii', 'iv'")


def check_circle_existence(q: float, s: int) -> bool:
    """Whether a non-geodesic slant circle exists for strength q.

    None exists for 0 < |q| <= sqrt(s); the boundary is excluded exactly.
    """
    if q == 0:
        raise ValueError("q must be nonzero")
    return abs(q) > math.sqrt(s)


def rho(cos_theta: float, s: int) -> float:
    """Magnitude of the Reeb-sum component along v3 for order-3 slant helices.

    rho^2 = s - s^2 cos^2(theta); the sign is frame-dependent and not
    resolved here.  The angle must pass ``check_angles`` as in
    ``predict_class``.
    """
    check_angles(np.full(s, cos_theta))
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
    """
    s = traj.sig.s
    m = Measurement(traj, series)
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
