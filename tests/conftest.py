import numpy as np
import pytest

from magcurves import (
    IntegratorConfig,
    MagneticSetup,
    SpaceSignature,
    initial_tangent,
    integrate,
)

SIG_GRID = [(n, s) for n in (1, 2, 3) for s in (1, 2, 3)]


def assert_same_bits(got, want, nan_sign=True):
    """Equal shapes and bits: equal values, NaN where NaN, equal signs.

    With nan_sign False the signs of NaNs are not compared: when both
    operands of a binary op are NaN, the sign of the result follows operand
    order in numpy's inner loop, which differs between memory layouts.
    """
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    signed = np.ones(want.size, dtype=bool) if nan_sign else ~np.isnan(want).ravel()
    assert np.array_equal(np.signbit(got).ravel()[signed], np.signbit(want).ravel()[signed])


def slant_setup(n, s, q, cos_theta, direction=None):
    sig = SpaceSignature(n, s)
    p0 = np.zeros(sig.dim)
    return MagneticSetup(sig, q, p0, initial_tangent(sig, p0, [cos_theta] * s, direction))


def integrate_angles(n, s, q, cosines, t_end=4.0, step=1e-3, direction=None):
    sig = SpaceSignature(n, s)
    p0 = np.zeros(sig.dim)
    setup = MagneticSetup(sig, q, p0, initial_tangent(sig, p0, cosines, direction))
    return integrate(setup, IntegratorConfig(t_end=t_end, step=step))


def integrate_slant(n, s, q, cos_theta, t_end=4.0, step=1e-3, direction=None):
    return integrate_angles(n, s, q, [cos_theta] * s, t_end, step, direction)


@pytest.fixture(scope="session")
def circle_traj():
    """Slant circle regime: n=1, s=1, q=2, cos(theta)=1/2."""
    return integrate_slant(1, 1, 2.0, 0.5)


@pytest.fixture(scope="session")
def legendre_traj():
    """Legendre helix regime: s=2, q=1.5, theta=pi/2."""
    return integrate_slant(1, 2, 1.5, 0.0)


@pytest.fixture(scope="session")
def helix_traj():
    """Generic slant helix: s=1, q=2, cos(theta)=0.3."""
    return integrate_slant(1, 1, 2.0, 0.3)


@pytest.fixture(scope="session")
def nonslant_traj():
    """Unequal contact angles: s=2, cosines (0.5, 0), q=1."""
    return integrate_angles(1, 2, 1.0, [0.5, 0.0])


@pytest.fixture(scope="session")
def geodesic_traj():
    """Integral curve of (1/sqrt(2)) (xi_1 + xi_2)."""
    return integrate_slant(1, 2, 1.0, 1.0 / np.sqrt(2.0))
