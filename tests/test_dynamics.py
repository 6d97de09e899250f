import numpy as np
import pytest

from magcurves import (
    IntegratorConfig,
    MagneticSetup,
    SpaceSignature,
    Tangent,
    Trajectory,
    angle_drift,
    initial_tangent,
    integrate,
    integrate_many,
    lorentz_force,
    magnetic_rhs,
    origin,
    speed_drift,
    xi,
)
from magcurves import model_space as ms
from magcurves.dynamics import _rhs, _rhs_rows
from magcurves.errors import DegenerateDirectionError, DivergenceError, InfeasibleAngleError
from conftest import SIG_GRID, integrate_slant, slant_setup


# ---------------------------------------------------------------------------
# setup types
# ---------------------------------------------------------------------------

def test_setup_rejects_zero_strength():
    sig = SpaceSignature(1, 1)
    p0 = origin(sig)
    T0 = initial_tangent(p0, [0.5])
    with pytest.raises(ValueError):
        MagneticSetup(sig, 0.0, p0, T0)


def test_setup_rejects_nonfinite_strength():
    sig = SpaceSignature(1, 1)
    p0 = origin(sig)
    T0 = initial_tangent(p0, [0.5])
    for q in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            MagneticSetup(sig, q, p0, T0)


def test_setup_rejects_non_unit_speed():
    sig = SpaceSignature(1, 1)
    p0 = origin(sig)
    with pytest.raises(ValueError):
        MagneticSetup(sig, 1.0, p0, Tangent(p0, [0.0, 0.0, 2.1]))


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(t_end=1.0, step=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(t_end=1.0, step=2.0)
    with pytest.raises(ValueError):
        IntegratorConfig(t_end=1.0, step=0.1, record_every=0)
    for t_end, step in ((np.inf, 0.1), (np.nan, 0.1), (1.0, np.nan), (np.inf, np.inf)):
        with pytest.raises(ValueError, match="finite"):
            IntegratorConfig(t_end=t_end, step=step)


def test_trajectory_invariants():
    sig = SpaceSignature(1, 1)
    with pytest.raises(ValueError):
        Trajectory(sig, [0.0, 0.0], np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        Trajectory(sig, [0.0, 1.0], np.zeros((2, 4)), np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# lorentz force and the first-order system
# ---------------------------------------------------------------------------

def test_lorentz_force_on_reeb_direction():
    sig = SpaceSignature(2, 2)
    p = origin(sig)
    for q in (-3.0, 0.5, 7.0):
        out = lorentz_force(p, xi(sig, 1, at=p), q)
        assert np.all(out.comps == 0.0)


def test_lorentz_force_geodesic_limit():
    sig = SpaceSignature(1, 1)
    rng = np.random.default_rng(0)
    p = ms.Point(sig, rng.normal(size=3))
    T = Tangent(p, rng.normal(size=3))
    assert np.all(lorentz_force(p, T, 0.0).comps == 0.0)


def test_lorentz_force_orthogonal_to_velocity():
    rng = np.random.default_rng(1)
    for (n, s) in [(1, 1), (2, 2), (1, 3)]:
        sig = SpaceSignature(n, s)
        for _ in range(20):
            p = ms.Point(sig, rng.normal(scale=2.0, size=sig.dim))
            T = Tangent(p, rng.normal(size=sig.dim))
            F = lorentz_force(p, T, rng.normal() or 1.0)
            assert abs(ms.metric(p, F, T)) < 1e-12


def test_magnetic_rhs_is_lorentz_equation():
    rng = np.random.default_rng(2)
    for (n, s) in [(1, 1), (2, 1), (1, 2), (3, 3)]:
        sig = SpaceSignature(n, s)
        for _ in range(20):
            p = ms.Point(sig, rng.normal(scale=2.0, size=sig.dim))
            T = Tangent(p, rng.normal(size=sig.dim))
            q = rng.uniform(0.5, 3.0)
            vel, acc = magnetic_rhs((p, T), q)
            assert np.all(vel.comps == T.comps)
            cov = ms.covariant_acceleration(p, T, Tangent(p, acc))
            force = lorentz_force(p, T, q)
            assert np.abs(cov.comps - force.comps).max() < 1e-13


def test_rhs_along_reeb_combination():
    # velocity in the Reeb span: acceleration vanishes entirely
    sig = SpaceSignature(1, 2)
    state = np.zeros(2 * sig.dim)
    state[sig.dim + 2:] = 2.0 / np.sqrt(2.0)
    out = _rhs(sig, 5.0, state)
    assert np.abs(out[sig.dim:]).max() == 0.0


# ---------------------------------------------------------------------------
# initial tangent construction
# ---------------------------------------------------------------------------

def test_initial_tangent_reeb_geodesic_start():
    for s in (1, 2, 3):
        sig = SpaceSignature(1, s)
        p0 = origin(sig)
        T0 = initial_tangent(p0, [1.0 / np.sqrt(s)] * s)
        expected = np.zeros(sig.dim)
        expected[2:] = 2.0 / np.sqrt(s)
        assert np.abs(T0.comps - expected).max() < 1e-12


def test_initial_tangent_legendre_default_direction():
    sig = SpaceSignature(2, 1)
    p0 = origin(sig)
    T0 = initial_tangent(p0, [0.0])
    # X_1 = 2 d/dy_1
    expected = np.zeros(sig.dim)
    expected[2] = 2.0
    assert np.abs(T0.comps - expected).max() == 0.0


def test_initial_tangent_worked_example():
    sig = SpaceSignature(1, 1)
    p0 = ms.Point(sig, [0.0, -np.sqrt(3.0), 0.0])
    T0 = initial_tangent(p0, [0.5], direction=[0.0, 1.0])
    assert np.abs(T0.comps - np.array([np.sqrt(3.0), 0.0, -2.0])).max() < 1e-12
    assert ms.eta(p0, T0)[0] == pytest.approx(0.5, abs=1e-15)
    assert ms.metric(p0, T0, T0) == pytest.approx(1.0, abs=1e-14)


def test_initial_tangent_targets_met_at_random_points():
    rng = np.random.default_rng(3)
    for (n, s) in [(1, 1), (2, 2), (1, 3)]:
        sig = SpaceSignature(n, s)
        for _ in range(20):
            p0 = ms.Point(sig, rng.normal(scale=2.0, size=sig.dim))
            cos = rng.uniform(-1, 1, size=s)
            cos *= rng.uniform(0, 0.99) / max(1.0, np.linalg.norm(cos))
            direction = rng.normal(size=2 * n)
            T0 = initial_tangent(p0, cos, direction)
            assert np.abs(ms.eta(p0, T0) - cos).max() < 1e-12
            assert ms.metric(p0, T0, T0) == pytest.approx(1.0, abs=1e-12)


def test_initial_tangent_errors():
    sig = SpaceSignature(1, 2)
    p0 = origin(sig)
    with pytest.raises(InfeasibleAngleError):
        initial_tangent(p0, [0.9, 0.9])
    with pytest.raises(DegenerateDirectionError):
        initial_tangent(p0, [0.1, 0.1], direction=[0.0, 0.0])
    with pytest.raises(ValueError):
        initial_tangent(p0, [0.1])  # wrong number of cosines
    # no direction needed when the contact part vanishes
    T0 = initial_tangent(p0, [1.0 / np.sqrt(2.0)] * 2, direction=[0.0, 0.0])
    assert ms.metric(p0, T0, T0) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def test_geodesic_straight_line_in_z():
    s = 2
    traj = integrate_slant(1, s, 1.0, 1.0 / np.sqrt(s), t_end=2.0, step=1e-3)
    expected_rate = 2.0 / np.sqrt(s)
    assert np.abs(traj.points[:, :2]).max() == 0.0
    for a in range(s):
        assert np.abs(traj.points[:, 2 + a] - expected_rate * traj.times).max() < 1e-12


def test_first_sample_is_exact_initial_data():
    setup = slant_setup(1, 1, 2.0, 0.5)
    traj = integrate(setup, IntegratorConfig(t_end=0.1, step=1e-3))
    assert np.all(traj.points[0] == setup.p0.coords)
    assert np.all(traj.velocities[0] == setup.T0.comps)
    assert traj.times[0] == 0.0


def test_record_every_subsampling():
    setup = slant_setup(1, 1, 2.0, 0.5)
    traj = integrate(setup, IntegratorConfig(t_end=1.0, step=1e-3, record_every=10))
    assert len(traj) == 101
    assert traj.times[1] == pytest.approx(0.01, abs=1e-15)
    dense = integrate(setup, IntegratorConfig(t_end=1.0, step=1e-3))
    assert np.abs(traj.points[5] - dense.points[50]).max() == 0.0


def test_conservation_drift_small(circle_traj):
    assert speed_drift(circle_traj) <= 1e-9
    assert angle_drift(circle_traj) <= 1e-9


def test_drift_shrinks_at_fourth_order():
    setup = slant_setup(1, 1, 4.0, 0.2)
    d_coarse = speed_drift(integrate(setup, IntegratorConfig(t_end=5.0, step=0.05)))
    d_fine = speed_drift(integrate(setup, IntegratorConfig(t_end=5.0, step=0.025)))
    assert d_coarse > 1e-9  # above rounding floor, so the ratio is meaningful
    assert d_coarse / d_fine >= 12.0


def test_divergence_error_carries_last_valid_time():
    # an absurd strength overflows within the first few steps
    setup = slant_setup(1, 1, 1e200, 0.5)
    with pytest.raises(DivergenceError) as err:
        integrate(setup, IntegratorConfig(t_end=1.0, step=1e-3))
    assert err.value.t_last >= 0.0
    assert err.value.t_last < 1.0


def _random_setups(rng, sig, count):
    """Setups of mixed sign of q, each from its own random non-origin point."""
    setups = []
    for k in range(count):
        p0 = ms.Point(sig, rng.normal(scale=1.5, size=sig.dim))
        cos = rng.uniform(-1, 1, size=sig.s)
        cos *= rng.uniform(0, 0.95) / max(1.0, np.linalg.norm(cos))
        T0 = initial_tangent(p0, cos, rng.normal(size=2 * sig.n))
        q = rng.uniform(0.3, 3.0) * (-1.0) ** k
        setups.append(MagneticSetup(sig, q, p0, T0))
    return setups


def test_rhs_rows_matches_rhs_bitwise():
    rng = np.random.default_rng(11)
    for (n, s) in SIG_GRID:
        sig = SpaceSignature(n, s)
        states = rng.normal(scale=2.0, size=(40, 2 * sig.dim))
        q = rng.normal(size=40)
        rows = _rhs_rows(sig, q, states)
        for b in range(40):
            assert np.array_equal(rows[b], _rhs(sig, q[b], states[b]))


@pytest.mark.parametrize("n,s", SIG_GRID)
def test_integrate_many_matches_integrate_bitwise(n, s):
    sig = SpaceSignature(n, s)
    setups = _random_setups(np.random.default_rng(10 * n + s), sig, 5)
    cfg = IntegratorConfig(t_end=0.3, step=1e-3, record_every=7)
    many = integrate_many(setups, cfg)
    assert len(many) == len(setups)
    for setup, traj in zip(setups, many):
        one = integrate(setup, cfg)
        assert traj.q == setup.q
        assert np.array_equal(traj.times, one.times)
        assert np.array_equal(traj.points, one.points)
        assert np.array_equal(traj.velocities, one.velocities)


def test_integrate_many_raises_first_diverging_setup():
    # setup 1 diverges at t = 0.1, setup 2 sooner, at t = 0.03; the error is
    # setup 1's, exactly as integrate raises it, so setup 2's overflow did
    # not reach row 1
    cfg = IntegratorConfig(t_end=2.0, step=0.01)
    setups = [slant_setup(1, 1, q, 0.5, direction=[0.3, -0.8]) for q in (2.0, 400.0, 1e4)]
    with pytest.raises(DivergenceError) as alone:
        integrate(setups[1], cfg)
    with pytest.raises(DivergenceError) as batched:
        integrate_many(setups, cfg)
    assert str(batched.value) == str(alone.value)
    assert batched.value.t_last == alone.value.t_last
    with pytest.raises(DivergenceError) as sooner:
        integrate(setups[2], cfg)
    assert sooner.value.t_last < alone.value.t_last


def test_integrate_many_rejects_bad_batches():
    cfg = IntegratorConfig(t_end=0.1, step=1e-2)
    with pytest.raises(ValueError):
        integrate_many([], cfg)
    with pytest.raises(ValueError):
        integrate_many([slant_setup(1, 1, 2.0, 0.5), slant_setup(2, 1, 2.0, 0.5)], cfg)


def test_q_sign_symmetry_via_residuals():
    from magcurves import residual

    # reflecting the contact direction through phi and negating q gives
    # another magnetic trajectory; both satisfy their own Lorentz equation
    u = np.array([0.7, -0.3])
    phi_u = np.array([0.3, 0.7])  # frame action: (u_x, u_y) -> (-u_y, u_x)
    for q, direction in ((1.7, u), (-1.7, phi_u)):
        traj = integrate_slant(1, 1, q, 0.4, t_end=2.0, direction=direction)
        assert residual(traj, q) < 1e-4


def test_drift_on_constructed_inputs():
    from magcurves import sample_case_a, random_params

    sig = SpaceSignature(1, 1)
    params = random_params(sig, q=2.0, cos_theta=0.5, seed=1)
    exact = sample_case_a(params, np.linspace(0.0, 5.0, 2001))
    assert speed_drift(exact) <= 1e-12
    assert angle_drift(exact) <= 1e-12

    scaled = Trajectory(sig, exact.times, exact.points, 1.01 * exact.velocities)
    assert speed_drift(scaled) == pytest.approx(0.01, abs=1e-12)
