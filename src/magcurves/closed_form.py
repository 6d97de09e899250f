"""The paper's two families of slant normal magnetic trajectories, by
their free constants.

With contact angle theta and strength q, the x/y behaviour of a slant
normal magnetic trajectory is governed by lambda = -q + 2 s cos(theta):

  * lambda != 0 (case a): each (x_i, y_i) pair traces a circle of radius
    |c_i / lambda| at angular rate -lambda, with phases f_i(t) = -lambda t + a_i:

        x_i = (c_i / -lambda) sin f_i + b_i
        y_i = (c_i /  lambda) cos f_i + d_i
        z_a = 2 t cos(theta)
              - sum_i [ c_i^2/(4 lambda^2) (sin 2f_i + 2 f_i) + (c_i d_i / lambda) sin f_i ]
              + h_a

  * lambda = 0 (case b, forcing q = 2 s cos(theta)): straight x/y lines and
    quadratic z:

        gamma_i = c_i t + d_i                      (i = 1..2n)
        z_a     = 2 t cos(theta)
                  + sum_i c_i (c_{n+i} t^2 / 2 + d_{n+i} t) + h_a

Unit speed pins the c-amplitudes to sum c_i^2 = 4 (1 - s cos^2(theta)).
Both families solve the Lorentz equation, so each is the exact flow from
its own point and tangent at t = 0: ``setup()`` evaluates the equations
there, and ``sample_case_a``/``sample_case_b`` run ``exact_flow`` from that
setup, with its exact velocities and accelerations.  The equations at every
t are the tests' oracle (``tests/oracles.py``).  ``family`` picks the family
of a set of constants and fills in those left out; the CLI and
``random_params`` build through it.

Case a is ill-conditioned near lambda = 0: the circle centres sit at c/lambda,
and the rounding of T0 grows with them.  A parameter set whose T0 misses
unit speed by more than 1e-12 is refused by ``setup()`` (ValueError).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model_space as ms
from .dynamics import MagneticSetup, Trajectory, check_angles, exact_flow
from .errors import (ConfigError, InvalidParamsError, nonzero_real, positive_int, real_vector,
                     typed_number)

__all__ = [
    "CaseAParams",
    "CaseBParams",
    "RESIDUAL_TOL",
    "family",
    "lambda_",
    "sample_case_a",
    "sample_case_b",
    "random_params",
]

_LAMBDA_ZERO_BAND = 1e-12
_CONSTRAINT_TOL = 1e-12
# The Lorentz residual that exact samples must stay within: the bound of
# closed-form's exit code and the tol of verify's closed_form_residual.
RESIDUAL_TOL = 1e-10

# Each family's free constants, in config and draw order, with their lengths at (n, s).
_CONSTANTS = {
    "a": lambda n, s: {"a": n, "b": n, "c": n, "d": n, "h": s},
    "b": lambda n, s: {"c": 2 * n, "d": 2 * n, "h": s},
}


def lambda_(q: float, s: int, cos_theta: float) -> float:
    """Dichotomy coefficient -q + 2 s cos(theta) of the x/y equations (q = 0,
    the geodesic's, is allowed here)."""
    return (-typed_number("q", q)
            + 2.0 * positive_int("s", s) * typed_number("cos_theta", cos_theta))


def _lambda_vanishes(q: float, s: int, cos_theta: float) -> bool:
    """Whether (q, theta) is in the straight-line family (case b), within 1e-12."""
    return abs(lambda_(q, s, cos_theta)) <= _LAMBDA_ZERO_BAND


def _amplitude_radius(s: int, cos_theta: float) -> float:
    """2 sqrt(1 - s cos^2 theta), the radius of the sphere of c-amplitudes
    (0 at the geodesic angles, where rounding may leave 1 - s cos^2 < 0)."""
    return 2.0 * math.sqrt(max(0.0, 1.0 - s * cos_theta * cos_theta))


class _Family:
    """The constant vectors and ``as_dict`` of both families, by _CONSTANTS[case]."""

    def _check_constants(self):
        n, s = self.sig.n, self.sig.s
        for name, length in _CONSTANTS[self.case](n, s).items():
            object.__setattr__(self, name, real_vector(name, getattr(self, name), length))
        target = 4.0 * (1.0 - s * self.cos_theta * self.cos_theta)
        with np.errstate(over="ignore"):  # an overflowing sum is inf, and rejected below
            got = float(np.sum(self.c * self.c))
        if abs(got - target) > _CONSTRAINT_TOL:
            raise InvalidParamsError(
                f"sum of c_i^2 must equal 4(1 - s cos^2 theta) = {target!r}, got {got!r}"
            )

    def as_dict(self) -> dict:
        names = _CONSTANTS[self.case](self.sig.n, self.sig.s)
        return {"case": self.case, "n": self.sig.n, "s": self.sig.s, "q": self.q,
                "cos_theta": self.cos_theta, **{k: getattr(self, k).tolist() for k in names}}


@dataclass(frozen=True)
class CaseAParams(_Family):
    """Free constants of the oscillatory family (lambda != 0)."""

    sig: ms.SpaceSignature
    q: float
    cos_theta: float
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    h: np.ndarray
    case = "a"

    def __post_init__(self):
        nonzero_real("q", self.q)
        check_angles([self.cos_theta] * self.sig.s)
        self._check_constants()
        if _lambda_vanishes(self.q, self.sig.s, self.cos_theta):
            raise InvalidParamsError(
                "lambda = -q + 2 s cos(theta) vanishes; use the straight-line family (case b)"
            )

    @property
    def lam(self) -> float:
        return lambda_(self.q, self.sig.s, self.cos_theta)

    def setup(self) -> MagneticSetup:
        """The trajectory's point and unit tangent at t = 0 (phases f = a)."""
        lam, a, c, d = self.lam, self.a, self.c, self.d
        sin, cos = np.sin(a), np.cos(a)
        x = (c / -lam) * sin + self.b
        y = (c / lam) * cos + d
        z = -np.sum((c * c / (4.0 * lam * lam)) * (np.sin(2.0 * a) + 2.0 * a)
                    + (c * d / lam) * sin) + self.h
        vz = 2.0 * self.cos_theta + np.sum((c * c / lam) * cos ** 2 + c * d * cos)
        T0 = np.concatenate([c * cos, c * sin, np.full(self.sig.s, vz)])
        return MagneticSetup(self.sig, self.q, np.concatenate([x, y, z]), T0)


@dataclass(frozen=True)
class CaseBParams(_Family):
    """Free constants of the straight-line family (lambda = 0, q = 2 s cos theta)."""

    sig: ms.SpaceSignature
    cos_theta: float
    c: np.ndarray
    d: np.ndarray
    h: np.ndarray
    case = "b"

    def __post_init__(self):
        check_angles([self.cos_theta] * self.sig.s)
        if self.cos_theta == 0:
            raise InvalidParamsError(
                "cos(theta) = 0 implies q = 2 s cos(theta) = 0, which is excluded"
            )
        self._check_constants()

    @property
    def q(self) -> float:
        return 2.0 * self.sig.s * self.cos_theta

    def setup(self) -> MagneticSetup:
        """The trajectory's point and unit tangent at t = 0."""
        n, c = self.sig.n, self.c
        vz = 2.0 * self.cos_theta + np.sum(c[:n] * self.d[n:])
        T0 = np.concatenate([c, np.full(self.sig.s, vz)])
        return MagneticSetup(self.sig, self.q, np.concatenate([self.d, self.h]), T0)


def _case(sig: ms.SpaceSignature, cos_theta: float, q, case) -> str:
    """case if given, else "b" when q is None or lambda vanishes, else "a"."""
    if case is None:
        case = "b" if q is None or _lambda_vanishes(q, sig.s, cos_theta) else "a"
    if case not in ("a", "b"):  # a tuple, as a config's case may be unhashable
        raise ConfigError(f"case must be 'a' or 'b', got {case!r}")
    return case


def family(sig: ms.SpaceSignature, cos_theta: float, q=None, case=None,
           **constants) -> CaseAParams | CaseBParams:
    """The parameter set of the given free constants, in the family that
    the dichotomy picks: ``case`` ("a" or "b") when given, else the
    straight-line family (case b) when q is None or lambda = -q + 2 s cos(theta)
    vanishes (band 1e-12), and the oscillatory one (case a) otherwise.

    A constant left out is zero, but for c, which then lies on the first axis
    of its sphere (radius 2 sqrt(1 - s cos^2 theta)).  Case b has no a or b
    and refuses them.  Case a needs q; case b fixes q = 2 s cos(theta), so a q
    given there must make lambda vanish.  The family checks the constants.
    """
    unknown = set(constants) - set(_CONSTANTS["a"](1, 1))  # case a has all five
    if unknown:
        raise TypeError(f"family() got unexpected constants {sorted(unknown)}")
    case = _case(sig, cos_theta, q, case)
    if lacking := set(constants) - set(_CONSTANTS[case](1, 1)):
        raise ConfigError(f"case {case} has no constants {sorted(lacking)}")
    if case == "a" and q is None:
        raise ConfigError("case a requires an explicit strength q")
    given = {name: constants[name] if name in constants else np.zeros(length)
             for name, length in _CONSTANTS[case](sig.n, sig.s).items()}
    if "c" not in constants:
        given["c"][0] = _amplitude_radius(sig.s, cos_theta)
    if case == "a":
        return CaseAParams(sig, q, cos_theta, **given)
    params = CaseBParams(sig, cos_theta, **given)
    if q is not None and not _lambda_vanishes(q, sig.s, cos_theta):
        raise ConfigError(f"case b fixes q = 2 s cos(theta) = {params.q!r}, config says {q!r}")
    return params


def sample_case_a(params: CaseAParams | CaseBParams, times) -> Trajectory:
    """Exact samples of either family at the given times."""
    return exact_flow(params.setup(), times)


sample_case_b = sample_case_a  # one body: both families sample their exact flow


def random_params(sig: ms.SpaceSignature, q: float, cos_theta: float, seed) -> CaseAParams | CaseBParams:
    """Seed-deterministic parameter set for the (q, cos_theta) family.

    The c-vector is drawn uniformly on the sphere of radius
    2 sqrt(1 - s cos^2 theta); the remaining free constants are drawn
    uniformly in [-1, 1], in the family's constant order.  The family is
    the one ``family`` picks.
    """
    nonzero_real("q", q)
    check_angles([cos_theta] * sig.s)
    rng = np.random.default_rng(seed)
    radius = _amplitude_radius(sig.s, cos_theta)
    case = _case(sig, cos_theta, q, None)

    def sphere(k: int) -> np.ndarray:
        if radius == 0.0:
            return np.zeros(k)
        u = rng.normal(size=k)
        return u * (radius / np.linalg.norm(u))

    drawn = {name: sphere(length) if name == "c" else rng.uniform(-1.0, 1.0, size=length)
             for name, length in _CONSTANTS[case](sig.n, sig.s).items()}
    return family(sig, cos_theta, q, case, **drawn)
