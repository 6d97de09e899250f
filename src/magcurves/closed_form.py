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
t are the tests' oracle (``tests/oracles.py``).

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
from .errors import InvalidParamsError, nonzero_real, positive_int, real_vector, typed_number

__all__ = [
    "CaseAParams",
    "CaseBParams",
    "lambda_",
    "sample_case_a",
    "sample_case_b",
    "random_params",
]

_LAMBDA_ZERO_BAND = 1e-12
_CONSTRAINT_TOL = 1e-12


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


def _check_amplitudes(c: np.ndarray, s: int, cos_theta: float):
    target = 4.0 * (1.0 - s * cos_theta * cos_theta)
    with np.errstate(over="ignore"):  # an overflowing sum is inf, and rejected below
        got = float(np.sum(c * c))
    if abs(got - target) > _CONSTRAINT_TOL:
        raise InvalidParamsError(
            f"sum of c_i^2 must equal 4(1 - s cos^2 theta) = {target!r}, got {got!r}"
        )


@dataclass(frozen=True)
class CaseAParams:
    """Free constants of the oscillatory family (lambda != 0)."""

    sig: ms.SpaceSignature
    q: float
    cos_theta: float
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        nonzero_real("q", self.q)
        check_angles([self.cos_theta] * self.sig.s)
        n, s = self.sig.n, self.sig.s
        for name, length in (("a", n), ("b", n), ("c", n), ("d", n), ("h", s)):
            object.__setattr__(self, name, real_vector(name, getattr(self, name), length))
        _check_amplitudes(self.c, s, self.cos_theta)
        if _lambda_vanishes(self.q, s, self.cos_theta):
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

    def as_dict(self) -> dict:
        return {
            "case": "a",
            "n": self.sig.n,
            "s": self.sig.s,
            "q": self.q,
            "cos_theta": self.cos_theta,
            "a": self.a.tolist(),
            "b": self.b.tolist(),
            "c": self.c.tolist(),
            "d": self.d.tolist(),
            "h": self.h.tolist(),
        }


@dataclass(frozen=True)
class CaseBParams:
    """Free constants of the straight-line family (lambda = 0, q = 2 s cos theta)."""

    sig: ms.SpaceSignature
    cos_theta: float
    c: np.ndarray
    d: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        check_angles([self.cos_theta] * self.sig.s)
        if self.cos_theta == 0:
            raise InvalidParamsError(
                "cos(theta) = 0 implies q = 2 s cos(theta) = 0, which is excluded"
            )
        n, s = self.sig.n, self.sig.s
        for name, length in (("c", 2 * n), ("d", 2 * n), ("h", s)):
            object.__setattr__(self, name, real_vector(name, getattr(self, name), length))
        _check_amplitudes(self.c, s, self.cos_theta)

    @property
    def q(self) -> float:
        return 2.0 * self.sig.s * self.cos_theta

    def setup(self) -> MagneticSetup:
        """The trajectory's point and unit tangent at t = 0."""
        n, c = self.sig.n, self.c
        vz = 2.0 * self.cos_theta + np.sum(c[:n] * self.d[n:])
        T0 = np.concatenate([c, np.full(self.sig.s, vz)])
        return MagneticSetup(self.sig, self.q, np.concatenate([self.d, self.h]), T0)

    def as_dict(self) -> dict:
        return {
            "case": "b",
            "n": self.sig.n,
            "s": self.sig.s,
            "q": self.q,
            "cos_theta": self.cos_theta,
            "c": self.c.tolist(),
            "d": self.d.tolist(),
            "h": self.h.tolist(),
        }


def sample_case_a(params: CaseAParams, times) -> Trajectory:
    """Exact samples of the oscillatory family at the given times."""
    return exact_flow(params.setup(), times)


def sample_case_b(params: CaseBParams, times) -> Trajectory:
    """Exact samples of the straight-line family at the given times."""
    return exact_flow(params.setup(), times)


def random_params(sig: ms.SpaceSignature, q: float, cos_theta: float, seed) -> CaseAParams | CaseBParams:
    """Seed-deterministic parameter set for the (q, cos_theta) family.

    The c-vector is drawn uniformly on the sphere of radius
    2 sqrt(1 - s cos^2 theta); the remaining free constants are drawn
    uniformly in [-1, 1].  The family is selected by whether
    lambda = -q + 2 s cos(theta) vanishes (band 1e-12).
    """
    nonzero_real("q", q)
    check_angles([cos_theta] * sig.s)
    rng = np.random.default_rng(seed)
    n, s = sig.n, sig.s
    radius = _amplitude_radius(s, cos_theta)

    def sphere(k: int) -> np.ndarray:
        if radius == 0.0:
            return np.zeros(k)
        u = rng.normal(size=k)
        return u * (radius / np.linalg.norm(u))

    if _lambda_vanishes(q, s, cos_theta):
        return CaseBParams(
            sig,
            cos_theta,
            c=sphere(2 * n),
            d=rng.uniform(-1.0, 1.0, size=2 * n),
            h=rng.uniform(-1.0, 1.0, size=s),
        )
    return CaseAParams(
        sig,
        q,
        cos_theta,
        a=rng.uniform(-1.0, 1.0, size=n),
        b=rng.uniform(-1.0, 1.0, size=n),
        c=sphere(n),
        d=rng.uniform(-1.0, 1.0, size=n),
        h=rng.uniform(-1.0, 1.0, size=s),
    )

