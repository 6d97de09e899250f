import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from magcurves import (
    IntegratorConfig,
    MagneticSetup,
    SpaceSignature,
    Trajectory,
    angle_drift,
    initial_tangent,
    integrate,
    integrate_many,
    random_params,
    residual,
    speed_drift,
)
from magcurves import dynamics, model_space as ms
from magcurves.dynamics import _exact_flow, _rhs, _rotation_integrals, exact_flow
from magcurves.errors import (ConfigError, DegenerateDirectionError, DivergenceError,
                              InfeasibleAngleError)
from magcurves.sweep import SweepSpec, _cell_setup
from conftest import SIG_GRID, assert_same_bits, integrate_slant, slant_setup
from oracles import paper_equations, rk4_reference


# ---------------------------------------------------------------------------
# setup types
# ---------------------------------------------------------------------------

def test_setup_rejects_zero_strength():
    sig = SpaceSignature(1, 1)
    p0 = np.zeros(sig.dim)
    T0 = initial_tangent(sig, p0, [0.5])
    with pytest.raises(ValueError):
        MagneticSetup(sig, 0.0, p0, T0)


def test_setup_rejects_nonfinite_strength():
    sig = SpaceSignature(1, 1)
    p0 = np.zeros(sig.dim)
    T0 = initial_tangent(sig, p0, [0.5])
    for q in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            MagneticSetup(sig, q, p0, T0)


def test_setup_rejects_non_unit_speed():
    sig = SpaceSignature(1, 1)
    p0 = np.zeros(sig.dim)
    with pytest.raises(ValueError):
        MagneticSetup(sig, 1.0, p0, np.array([0.0, 0.0, 2.1]))


def test_setup_validates_p0_and_T0():
    sig = SpaceSignature(1, 1)
    p0 = np.array([0.0, 1.0, 2.0])
    T0 = initial_tangent(sig, p0, [0.5])
    for bad_p0, bad_T0, what in (([1.0, 2.0], T0, "p0 must have 3"),
                                 ([1.0, np.inf, 0.0], T0, "p0 must be finite"),
                                 (p0, [1.0], "T0 must have 3"),
                                 (p0, [np.nan, 0.0, 2.0], "T0 must be finite")):
        with pytest.raises(ValueError, match=what):
            MagneticSetup(sig, 1.0, bad_p0, bad_T0)
    setup = MagneticSetup(sig, 1.0, list(p0), tuple(T0))
    assert setup.p0.dtype == setup.T0.dtype == np.float64
    # the setup keeps its own read-only copies of the checked arrays
    setup = MagneticSetup(sig, 1.0, p0, T0)
    p0[1] = 5.0
    assert setup.p0[1] == 1.0
    with pytest.raises(ValueError):
        setup.T0[0] = 2.0


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(t_end=1.0, step=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(t_end=1.0, step=2.0)
    with pytest.raises(ValueError):
        IntegratorConfig(t_end=1.0, step=0.1, record_every=0)
    with pytest.raises(ValueError):
        IntegratorConfig(t_end=1.0, step=0.1, record_every=True)
    for t_end, step in ((np.inf, 0.1), (np.nan, 0.1), (1.0, np.nan), (np.inf, np.inf)):
        with pytest.raises(ValueError, match="finite"):
            IntegratorConfig(t_end=t_end, step=step)


@pytest.mark.parametrize("kwargs, message", [
    ({"t_end": 1e300, "step": 1e-10}, "t_end / step = 1e+300 / 1e-10 overflows"),
    ({"t_end": 0.01, "step": 1e-3, "record_every": 11},
     "record_every must be a positive integer, at most the step count"),
], ids=["steps-overflow", "record-every-above-steps"])
def test_integrator_config_refusal_messages(kwargs, message):
    with pytest.raises(ValueError) as exc:
        IntegratorConfig(**kwargs)
    assert str(exc.value) == message


@pytest.mark.parametrize("times, accelerations, message", [
    ([], None, "times must be a nonempty 1-d array"),
    ([0.0, 1.0], np.zeros((2, 4)), "accelerations must have shape (2, 3), got (2, 4)"),
], ids=["empty-times", "accelerations-shape"])
def test_trajectory_refusal_messages(times, accelerations, message):
    shape = (len(times), 3)
    with pytest.raises(ValueError) as exc:
        Trajectory(SpaceSignature(1, 1), times, np.zeros(shape), np.zeros(shape),
                   accelerations=accelerations)
    assert str(exc.value) == message


def test_trajectory_invariants():
    sig = SpaceSignature(1, 1)
    with pytest.raises(ValueError):
        Trajectory(sig, [0.0, 0.0], np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        Trajectory(sig, [0.0, 1.0], np.zeros((2, 4)), np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# lorentz force and the first-order system
# ---------------------------------------------------------------------------

def lorentz_force(sig, p, T, q):
    """-q phi T, the force of the contact magnetic field of strength q."""
    return -q * ms.phi_comps(sig, p, T)


def test_lorentz_force_on_reeb_direction():
    sig = SpaceSignature(2, 2)
    p = np.zeros(sig.dim)
    xi1 = np.zeros(sig.dim)
    xi1[2 * sig.n] = 2.0
    for q in (-3.0, 0.5, 7.0):
        assert np.all(lorentz_force(sig, p, xi1, q) == 0.0)


def test_lorentz_force_geodesic_limit():
    sig = SpaceSignature(1, 1)
    rng = np.random.default_rng(0)
    p = rng.normal(size=3)
    T = rng.normal(size=3)
    assert np.all(lorentz_force(sig, p, T, 0.0) == 0.0)


def test_lorentz_force_orthogonal_to_velocity():
    rng = np.random.default_rng(1)
    for (n, s) in [(1, 1), (2, 2), (1, 3)]:
        sig = SpaceSignature(n, s)
        for _ in range(20):
            p = rng.normal(scale=2.0, size=sig.dim)
            T = rng.normal(size=sig.dim)
            F = lorentz_force(sig, p, T, rng.normal() or 1.0)
            assert abs(ms.inner(sig, p, F, T)) < 1e-12


def test_magnetic_rhs_is_lorentz_equation():
    # _rhs returns (v, a) with a^k = -Gamma^k_ij v^i v^j - q (phi v)^k, so
    # the covariant acceleration a + Gamma(v, v) is the force -q phi v
    rng = np.random.default_rng(2)
    for (n, s) in [(1, 1), (2, 1), (1, 2), (3, 3)]:
        sig = SpaceSignature(n, s)
        for _ in range(20):
            p = rng.normal(scale=2.0, size=sig.dim)
            T = rng.normal(size=sig.dim)
            q = rng.uniform(0.5, 3.0)
            flat = _rhs(sig.n, q, sig.s, np.ones(sig.s), np.concatenate([p, T]))
            assert np.all(flat[:sig.dim] == T)
            cov = flat[sig.dim:] + ms.gamma_bilinear(sig, p, T, T)
            assert np.abs(cov - lorentz_force(sig, p, T, q)).max() < 1e-13


def test_rhs_along_reeb_combination():
    # velocity in the Reeb span: acceleration vanishes entirely
    sig = SpaceSignature(1, 2)
    state = np.zeros(2 * sig.dim)
    state[sig.dim + 2:] = 2.0 / np.sqrt(2.0)
    out = _rhs(sig.n, 5.0, sig.s, np.ones(sig.s), state)
    assert np.abs(out[sig.dim:]).max() == 0.0


# ---------------------------------------------------------------------------
# initial tangent construction
# ---------------------------------------------------------------------------

def test_initial_tangent_reeb_geodesic_start():
    for s in (1, 2, 3):
        sig = SpaceSignature(1, s)
        T0 = initial_tangent(sig, np.zeros(sig.dim), [1.0 / np.sqrt(s)] * s)
        expected = np.zeros(sig.dim)
        expected[2:] = 2.0 / np.sqrt(s)
        assert np.abs(T0 - expected).max() < 1e-12


def test_initial_tangent_legendre_default_direction():
    sig = SpaceSignature(2, 1)
    T0 = initial_tangent(sig, np.zeros(sig.dim), [0.0])
    # X_1 = 2 d/dy_1
    expected = np.zeros(sig.dim)
    expected[2] = 2.0
    assert np.abs(T0 - expected).max() == 0.0


def test_initial_tangent_worked_example():
    sig = SpaceSignature(1, 1)
    p0 = np.array([0.0, -np.sqrt(3.0), 0.0])
    T0 = initial_tangent(sig, p0, [0.5], direction=[0.0, 1.0])
    assert np.abs(T0 - np.array([np.sqrt(3.0), 0.0, -2.0])).max() < 1e-12
    assert ms.eta_comps(sig, p0, T0)[0] == pytest.approx(0.5, abs=1e-15)
    assert ms.inner(sig, p0, T0, T0) == pytest.approx(1.0, abs=1e-14)


def test_initial_tangent_targets_met_at_random_points():
    rng = np.random.default_rng(3)
    for (n, s) in [(1, 1), (2, 2), (1, 3)]:
        sig = SpaceSignature(n, s)
        for _ in range(20):
            p0 = rng.normal(scale=2.0, size=sig.dim)
            cos = rng.uniform(-1, 1, size=s)
            cos *= rng.uniform(0, 0.99) / max(1.0, np.linalg.norm(cos))
            direction = rng.normal(size=2 * n)
            T0 = initial_tangent(sig, p0, cos, direction)
            assert np.abs(ms.eta_comps(sig, p0, T0) - cos).max() < 1e-12
            assert ms.inner(sig, p0, T0, T0) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("e, contact", [(2e-13, True), (5e-14, False)])
def test_initial_tangent_drops_a_contact_part_below_1e_13(e, contact):
    # cos theta = sqrt(1 - e): the contact part's squared norm e at 2x and
    # 0.5x the band where T0 is taken in the Reeb span
    sig = SpaceSignature(1, 1)
    T0 = initial_tangent(sig, np.zeros(sig.dim), [np.sqrt(1.0 - e)])
    if contact:
        assert T0[1] == pytest.approx(2.0 * np.sqrt(e), rel=1e-3)  # X_1 = 2 d/dy_1
    else:
        assert np.array_equal(T0[:2], [0.0, 0.0])


def test_initial_tangent_errors():
    sig = SpaceSignature(1, 2)
    p0 = np.zeros(sig.dim)
    with pytest.raises(InfeasibleAngleError):
        initial_tangent(sig, p0, [0.9, 0.9])
    with pytest.raises(DegenerateDirectionError):
        initial_tangent(sig, p0, [0.1, 0.1], direction=[0.0, 0.0])
    with pytest.raises(ValueError):
        initial_tangent(sig, p0, [0.1])  # wrong number of cosines
    # no direction needed when the contact part vanishes
    T0 = initial_tangent(sig, p0, [1.0 / np.sqrt(2.0)] * 2, direction=[0.0, 0.0])
    assert ms.inner(sig, p0, T0, T0) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("direction,unit", [
    ([0.0, 1e308], [0.0, 1.0]),
    ([-1e308, 1e308], [-1.0, 1.0]),
    ([1e-300, 0.0], [1.0, 0.0]),
    ([5e-324, -5e-324], [1.0, -1.0]),
])
def test_initial_tangent_direction_of_extreme_size(direction, unit):
    # a direction whose squared entries over- or underflow points where its
    # unit-sized multiple does
    sig = SpaceSignature(1, 1)
    p0 = np.array([0.3, -0.2, 0.1])
    T0 = initial_tangent(sig, p0, [0.5], direction)
    assert np.abs(T0 - initial_tangent(sig, p0, [0.5], unit)).max() < 1e-15
    assert ms.inner(sig, p0, T0, T0) == pytest.approx(1.0, abs=1e-14)


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
    assert np.all(traj.points[0] == setup.p0)
    assert np.all(traj.velocities[0] == setup.T0)
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
        p0 = rng.normal(scale=1.5, size=sig.dim)
        cos = rng.uniform(-1, 1, size=sig.s)
        cos *= rng.uniform(0, 0.95) / max(1.0, np.linalg.norm(cos))
        T0 = initial_tangent(sig, p0, cos, rng.normal(size=2 * sig.n))
        q = rng.uniform(0.3, 3.0) * (-1.0) ** k
        setups.append(MagneticSetup(sig, q, p0, T0))
    return setups


def _padded_columns(sig, n_max):
    """Columns of sig's coordinates in a state padded to n_max: x | y | z."""
    n, s = sig.n, sig.s
    return np.r_[0:n, n_max:n_max + n, 2 * n_max:2 * n_max + s]


def _padded_batch(rng, sigs, n_max, s_max):
    """Random states of sigs padded to n_max and s_max, as integrate_many
    lays them out, with q, s and the Reeb mask per row and each row's own
    columns."""
    d = 2 * n_max + s_max
    states = np.zeros((len(sigs), 2 * d))
    reeb = np.zeros((len(sigs), s_max))
    own = []
    for b, sig in enumerate(sigs):
        cols = np.r_[_padded_columns(sig, n_max), d + _padded_columns(sig, n_max)]
        states[b, cols] = rng.normal(scale=2.0, size=2 * sig.dim)
        reeb[b, :sig.s] = 1.0
        own.append(cols)
    q = rng.normal(size=len(sigs))
    s = np.array([sig.s for sig in sigs], dtype=float)
    return states, q, s, reeb, own


def test_rhs_rows_matches_rhs_bitwise():
    # one mixed batch of every (n, s) in the grid, padded to n = s = 3: each
    # row has the bits of the same rhs on that row's unpadded state
    rng = np.random.default_rng(11)
    sigs = [SpaceSignature(*SIG_GRID[k]) for k in rng.integers(len(SIG_GRID), size=40)]
    states, q, s, reeb, own = _padded_batch(rng, sigs, 3, 3)
    rows = _rhs(3, q, s, reeb, states)
    for b, sig in enumerate(sigs):
        one = _rhs(sig.n, q[b], sig.s, np.ones(sig.s), states[b, own[b]])
        assert np.array_equal(rows[b, own[b]], one)
        padding = np.ones(states.shape[1], dtype=bool)
        padding[own[b]] = False
        assert np.all(rows[b, padding] == 0.0)


# ---------------------------------------------------------------------------
# the single and batched right-hand sides that _rhs replaced, kept as the
# reference for its bits
# ---------------------------------------------------------------------------

def reference_rhs(sig, q, state):
    n, d = sig.n, sig.dim
    y = state[n:2 * n]
    vx = state[d:d + n]
    vy = state[d + n:d + 2 * n]
    w = np.sum(state[d + 2 * n:]) - q - sig.s * np.dot(y, vx)
    out = np.empty_like(state)
    out[:d] = state[d:]
    out[d:d + n] = vy * w
    out[d + n:d + 2 * n] = -vx * w
    out[d + 2 * n:] = np.dot(vx, vy) + np.dot(y, vy) * w
    return out


def reference_rhs_rows(n, q, s, reeb, state):
    d = state.shape[1] // 2
    y = state[:, n:2 * n]
    vx = state[:, d:d + n]
    vy = state[:, d + n:d + 2 * n]

    def dot(a, b):
        return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]

    w = np.sum(state[:, d + 2 * n:], axis=1) - q - s * dot(y, vx)
    out = np.empty_like(state)
    out[:, :d] = state[:, d:]
    out[:, d:d + n] = vy * w[:, None]
    out[:, d + n:d + 2 * n] = -vx * w[:, None]
    out[:, d + 2 * n:] = (dot(vx, vy) + dot(y, vy) * w)[:, None] * reeb
    return out


# n from 16 and s from 8 are the widths where BLAS ddot and numpy's pairwise
# sum add in blocks
WIDE_SIGS = [(1, 1), (3, 2), (7, 7), (8, 8), (15, 9), (16, 1), (17, 12), (24, 12)]


@pytest.mark.parametrize("n,s", WIDE_SIGS)
def test_rhs_matches_reference_on_single_states(n, s):
    sig = SpaceSignature(n, s)
    rng = np.random.default_rng([n, s])
    for k in range(30):
        state = rng.normal(scale=2.0, size=2 * sig.dim)
        if k % 3 == 0:  # signed zeros and overflow
            state[rng.integers(len(state), size=3)] = rng.choice([0.0, -0.0, 1e300, -1e300], 3)
        q = rng.normal()
        with np.errstate(over="ignore", invalid="ignore"):
            got = _rhs(n, q, float(s), np.ones(s), state)
            want = reference_rhs(sig, q, state)
        assert_same_bits(got, want)


@pytest.mark.parametrize("n_max,s_max", WIDE_SIGS)
def test_rhs_matches_reference_on_padded_batches(n_max, s_max):
    rng = np.random.default_rng([n_max, s_max, 1])
    for batch in (1, 3, 5, 40):
        sigs = [SpaceSignature(int(rng.integers(1, n_max + 1)), int(rng.integers(1, s_max + 1)))
                for _ in range(batch)]
        states, q, s, reeb, _ = _padded_batch(rng, sigs, n_max, s_max)
        assert_same_bits(_rhs(n_max, q, s, reeb, states),
                         reference_rhs_rows(n_max, q, s, reeb, states))


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


def _slant_cases(rng, sig):
    """Slant setups of sig from random non-origin points: Legendre,
    Reeb-combination geodesics of both signs, a circle (cos theta = 1/q) and
    lambda = 0 (q = 2 s cos theta)."""
    root = np.sqrt(sig.s)
    lam0 = 0.4 / root
    cases = [(1.7, 0.0), (-1.3, 1.0 / root), (0.8, -1.0 / root), (-2.5, 1.0 / -2.5),
             (2.0 * sig.s * lam0, lam0)]
    setups = []
    for q, ct in cases:
        p0 = rng.normal(scale=1.5, size=sig.dim)
        T0 = initial_tangent(sig, p0, [ct] * sig.s, rng.normal(size=2 * sig.n))
        setups.append(MagneticSetup(sig, q, p0, T0))
    return setups


@pytest.mark.parametrize("sigs", [SIG_GRID, [(5, 1), (1, 1), (5, 2), (1, 3)]],
                         ids=["grid", "n5-with-n1"])
def test_integrate_many_mixed_signatures_bitwise(sigs):
    rng = np.random.default_rng(12)
    setups = [st for n, s in sigs for st in _slant_cases(rng, SpaceSignature(n, s))]
    setups = [setups[k] for k in rng.permutation(len(setups))]
    cfg = IntegratorConfig(t_end=0.3, step=1e-3, record_every=7)
    many = integrate_many(setups, cfg)
    assert len(many) == len(setups)
    for setup, traj in zip(setups, many):
        one = integrate(setup, cfg)
        assert traj.sig == setup.sig and traj.q == setup.q
        assert np.array_equal(traj.times, one.times)
        for got, want in ((traj.points, one.points), (traj.velocities, one.velocities)):
            assert got.flags.f_contiguous
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("record_every", [1, 3])
def test_longer_run_starts_with_the_shorter_run(record_every):
    # a batch run under a longer config, cut to the samples of a shorter one
    # with the same step, has the shorter run's bits on a mixed batch
    rng = np.random.default_rng(21)
    setups = [st for n, s in [(1, 1), (2, 3), (1, 2), (3, 1)]
              for st in _slant_cases(rng, SpaceSignature(n, s))[:2]]
    short = IntegratorConfig(t_end=0.12, step=1e-3, record_every=record_every)
    long_ = IntegratorConfig(t_end=0.3, step=1e-3, record_every=record_every)
    m = short.n_samples
    assert m < long_.n_samples
    for cut, want in zip(integrate_many(setups, long_), integrate_many(setups, short)):
        assert_same_bits(cut.times[:m], want.times)
        assert_same_bits(cut.points[:m], want.points)
        assert_same_bits(cut.velocities[:m], want.velocities)


def test_integrate_many_mixed_raises_first_diverging_setup():
    # setup 1 (n = 2, s = 2) diverges at t = 0.05, setup 2 (n = 1, s = 3)
    # sooner, at t = 0.03; the error is setup 1's, as integrate raises it
    cfg = IntegratorConfig(t_end=2.0, step=0.01)
    setups = [slant_setup(3, 1, 2.0, 0.5),
              slant_setup(2, 2, 400.0, 0.3, direction=[0.3, -0.8, 0.5, 0.1]),
              slant_setup(1, 3, 1e4, 0.2, direction=[0.3, -0.8]),
              slant_setup(1, 1, -3.0, 0.2)]
    with pytest.raises(DivergenceError) as alone:
        integrate(setups[1], cfg)
    with pytest.raises(DivergenceError) as batched:
        integrate_many(setups, cfg)
    assert str(batched.value) == str(alone.value)
    assert batched.value.t_last == alone.value.t_last
    with pytest.raises(DivergenceError) as sooner:
        integrate(setups[2], cfg)
    assert sooner.value.t_last < alone.value.t_last


@pytest.mark.parametrize("record_every", [1, 3])
def test_integrators_match_the_rk4_oracle_bitwise(record_every):
    # every (n, s) in {1, 2, 3}^2, alone and as rows of one mixed batch
    # padded to n = s = 3, has the bits of the plain single-state loop
    rng = np.random.default_rng(31)
    setups = [st for n, s in SIG_GRID for st in _random_setups(rng, SpaceSignature(n, s), 1)]
    cfg = IntegratorConfig(t_end=0.2, step=1e-3, record_every=record_every)
    for setup, row in zip(setups, integrate_many(setups, cfg)):
        want = rk4_reference(setup, cfg)
        for got in (integrate(setup, cfg), row):
            assert got.sig == setup.sig and got.q == setup.q
            assert_same_bits(got.times, want.times)
            assert_same_bits(got.points, want.points)
            assert_same_bits(got.velocities, want.velocities)


def test_divergence_time_matches_the_rk4_oracle():
    cfg = IntegratorConfig(t_end=2.0, step=0.01)
    blowup = slant_setup(2, 2, 400.0, 0.3, direction=[0.3, -0.8, 0.5, 0.1])
    with pytest.raises(DivergenceError) as want:
        rk4_reference(blowup, cfg)
    with pytest.raises(DivergenceError) as alone:
        integrate(blowup, cfg)
    with pytest.raises(DivergenceError) as batched:
        integrate_many([slant_setup(3, 1, 2.0, 0.5), blowup, slant_setup(1, 3, -3.0, 0.2)], cfg)
    assert 0.0 < want.value.t_last < 1.0
    assert alone.value.t_last == batched.value.t_last == want.value.t_last


def _owned_bytes(trajs):
    """Bytes of the distinct arrays that own the trajectories' samples."""
    owners = {}
    for traj in trajs:
        for arr in (traj.times, traj.points, traj.velocities):
            owner = arr if arr.base is None else arr.base
            owners[id(owner)] = owner
    return sum(a.nbytes for a in owners.values())


def test_memory_guard_counts_the_allocated_bytes(monkeypatch):
    rng = np.random.default_rng(32)
    cfg = IntegratorConfig(t_end=0.1, step=1e-2, record_every=3)
    one = _random_setups(rng, SpaceSignature(2, 3), 1)[0]
    uniform = _random_setups(rng, SpaceSignature(2, 3), 3)
    # (2, 3) is unpadded in the mixed batch, the other rows are padded
    mixed = [st for n, s in [(1, 1), (2, 3), (1, 2), (2, 1)]
             for st in _random_setups(rng, SpaceSignature(n, s), 1)]
    counted = []
    monkeypatch.setattr(dynamics, "check_memory", lambda nbytes, what: counted.append(nbytes))

    traj = integrate(one, cfg)
    assert counted == [8 * (2 * one.sig.dim + 1) * cfg.n_samples] == [_owned_bytes([traj])]
    for setups in (uniform, mixed):
        counted.clear()
        trajs = integrate_many(setups, cfg)
        assert counted == [_owned_bytes(trajs)]
    assert _owned_bytes(trajs) > 8 * (sum(2 * st.sig.dim for st in mixed) + 1) * cfg.n_samples
    # per-setup configs: rows shorter than the batch copy their own samples,
    # and rows that share a config share its times; the (2, 3) row keeps a
    # view of the batch's samples, which the owned bytes then count
    short = IntegratorConfig(t_end=0.05, step=1e-2, record_every=3)
    coarse = IntegratorConfig(t_end=0.1, step=2e-2, record_every=3)
    for setups in (uniform, mixed):
        counted.clear()
        trajs = integrate_many(setups, [short, cfg, coarse, cfg][:len(setups)])
        assert counted == [_owned_bytes(trajs)]


def test_integrate_many_steps_a_uniform_batch_at_one_float(monkeypatch):
    # rows that share a step are stepped at it as a float, rows with their
    # own steps at a (B, 1) column; test_integrate_many_matches_integrate_bitwise
    # holds the bits
    steps = []

    def spy(rhs, state, h, ends, stride):
        steps.append(h)
        return rk4(rhs, state, h, ends, stride)
    rk4 = dynamics._rk4
    monkeypatch.setattr(dynamics, "_rk4", spy)
    setups = [slant_setup(1, 1, 2.0, 0.5), slant_setup(2, 1, -1.5, 0.3)]
    fine, coarse = IntegratorConfig(t_end=0.1, step=1e-2), IntegratorConfig(t_end=0.1, step=2e-2)
    integrate_many(setups, fine)
    integrate_many(setups, [fine, IntegratorConfig(t_end=0.05, step=1e-2)])
    integrate_many(setups, [fine, coarse])
    assert steps[:2] == [1e-2, 1e-2] and all(type(h) is float for h in steps[:2])
    assert steps[2].shape == (2, 1) and steps[2].ravel().tolist() == [1e-2, 2e-2]


def test_integrate_many_rejects_bad_batches():
    with pytest.raises(ValueError):
        integrate_many([], IntegratorConfig(t_end=0.1, step=1e-2))


def test_integrate_many_rejects_mismatched_configs():
    setups = [slant_setup(1, 1, 2.0, 0.5), slant_setup(2, 1, -1.5, 0.3)]
    with pytest.raises(ValueError, match="one config per setup"):
        integrate_many(setups, [IntegratorConfig(t_end=0.1, step=1e-2)])
    with pytest.raises(ValueError, match="record_every"):
        integrate_many(setups, [IntegratorConfig(t_end=0.1, step=1e-2),
                                IntegratorConfig(t_end=0.1, step=1e-2, record_every=2)])


@pytest.mark.parametrize("record_every", [1, 3])
def test_per_setup_configs_give_each_row_its_own_run(record_every):
    # rows of one batch under their own steps and step counts (verify's mix
    # of 8e-3, 0.05 and 0.025 among them), padded and unpadded, each with the
    # bits, samples and times of integrate under its own config
    rng = np.random.default_rng(23)
    setups = [st for n, s in [(1, 1), (2, 3), (1, 2), (2, 1)]
              for st in _slant_cases(rng, SpaceSignature(n, s))[:2]]
    grid = [IntegratorConfig(t_end=0.6, step=8e-3, record_every=record_every),
            IntegratorConfig(t_end=0.6, step=0.05, record_every=record_every),
            IntegratorConfig(t_end=0.6, step=0.025, record_every=record_every),
            IntegratorConfig(t_end=0.2, step=8e-3, record_every=record_every)]
    cfgs = [grid[k % len(grid)] for k in range(len(setups))]
    many = integrate_many(setups, cfgs)
    for setup, cfg, row in zip(setups, cfgs, many):
        one = integrate(setup, cfg)
        assert row.sig == setup.sig and row.q == setup.q
        assert_same_bits(row.times, cfg.times)
        assert_same_bits(row.points, one.points)
        assert_same_bits(row.velocities, one.velocities)
    # one config for every setup is the same batch as a list of it
    for row, want in zip(integrate_many(setups, grid[0]), integrate_many(setups, [grid[0]] * 8)):
        assert_same_bits(row.points, want.points)


def test_a_row_that_diverges_after_its_own_end_raises_nothing():
    # the blow-up diverges at t = 0.05 under step 0.01: a batch that steps it
    # past that for a longer row raises only when the blow-up's own config
    # reaches it
    blowup = slant_setup(2, 2, 400.0, 0.3, direction=[0.3, -0.8, 0.5, 0.1])
    calm = slant_setup(1, 1, 2.0, 0.5)
    long_ = IntegratorConfig(t_end=1.0, step=0.01)
    with pytest.raises(DivergenceError) as alone:
        integrate(blowup, long_)
    short = IntegratorConfig(t_end=round(alone.value.t_last, 2), step=0.01)
    calm_row, blowup_row = integrate_many([calm, blowup], [long_, short])
    assert_same_bits(calm_row.points, integrate(calm, long_).points)
    assert_same_bits(blowup_row.points, integrate(blowup, short).points)
    assert np.all(np.isfinite(blowup_row.points))
    with pytest.raises(DivergenceError) as batched:
        integrate_many([calm, blowup], [long_, long_])
    assert str(batched.value) == str(alone.value)


def test_q_sign_symmetry_via_residuals():
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


# ---------------------------------------------------------------------------
# the exact flow
# ---------------------------------------------------------------------------

def _flow_cases():
    """Non-slant and slant setups of every (n, s) in the grid, from random
    non-origin points: mixed contact angles, Legendre, Reeb geodesics, a
    circle and lambda = w = 0."""
    rng = np.random.default_rng(21)
    setups = []
    for n, s in SIG_GRID:
        sig = SpaceSignature(n, s)
        setups += _random_setups(rng, sig, 2) + _slant_cases(rng, sig)
    return setups


def test_exact_flow_matches_rk4():
    setups = _flow_cases()
    cfg = IntegratorConfig(t_end=2.0, step=1e-3)
    for setup, rk4 in zip(setups, integrate_many(setups, cfg)):
        exact = exact_flow(setup, cfg.times)
        assert exact.sig == setup.sig and exact.q == setup.q
        assert np.array_equal(exact.times, rk4.times)
        assert np.max(np.abs(exact.points - rk4.points)) <= 1e-9
        assert np.max(np.abs(exact.velocities - rk4.velocities)) <= 1e-9


def test_exact_flow_conserves_first_integrals():
    times = IntegratorConfig(t_end=5.0, step=1e-3).times
    for setup in _flow_cases():
        traj = exact_flow(setup, times)
        assert speed_drift(traj) <= 1e-13
        assert angle_drift(traj) <= 1e-13
        assert np.array_equal(traj.points[0], setup.p0)
        # the exact accelerations solve the Lorentz equation
        assert residual(traj, setup.q) <= 1e-10


@pytest.mark.parametrize("n,s", [(1, 1), (2, 3), (3, 2)])
def test_exact_flow_reproduces_the_closed_form_families(n, s):
    sig = SpaceSignature(n, s)
    times = IntegratorConfig(t_end=5.0, step=1e-3).times
    # case a at both signs of lambda, and case b (lambda = 0, q = 2 s cos theta)
    for k, (q, ct) in enumerate([(2.0, 0.3), (-1.5, -0.2), (2.0 * s * 0.25, 0.25)]):
        params = random_params(sig, q, ct, seed=[n, s, k])
        paper = paper_equations(params, times)
        setup = MagneticSetup(sig, params.q, paper.points[0], paper.velocities[0])
        exact = exact_flow(setup, times)
        for got, want in ((exact.points, paper.points), (exact.velocities, paper.velocities),
                          (exact.accelerations, paper.accelerations)):
            assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("w", [1e-3, 1e-6, 1e-9, 1e-12, 0.0])
def test_exact_flow_near_vanishing_rotation(w):
    # w = 2 sum eta^a(T) - q is tuned to w (exactly 0 for the last case); a
    # form that divides by w loses its digits here
    rng = np.random.default_rng(22)
    cfg = IntegratorConfig(t_end=2.0, step=1e-3)
    setups = []
    for n, s in [(1, 1), (2, 2), (3, 1), (1, 3)]:
        sig = SpaceSignature(n, s)
        p0 = rng.normal(scale=1.5, size=sig.dim)
        cos = rng.uniform(-1, 1, size=s)
        T0 = initial_tangent(sig, p0, 0.6 * cos / max(1.0, np.linalg.norm(cos)),
                             rng.normal(size=2 * n))
        eta_sum = float(np.sum(ms.eta_comps(sig, p0, T0)))
        setups.append(MagneticSetup(sig, 2.0 * eta_sum - w, p0, T0))
    for setup, rk4 in zip(setups, integrate_many(setups, cfg)):
        exact = exact_flow(setup, cfg.times)
        assert np.max(np.abs(exact.points - rk4.points)) <= 1e-9
        assert np.max(np.abs(exact.velocities - rk4.velocities)) <= 1e-9


def test_rotation_integrals_join_at_the_series_band():
    # S = sin z / z, C = (1 - cos z) / z, G = (z - sin z) / z^2: the Taylor
    # branch below |z| = 1 meets the closed forms, which are accurate there
    z = np.array([-1.0 + 1e-12, -0.999, 0.999, 1.0 - 1e-12, 1.0, 1.001])
    _, _, S, C, G = _rotation_integrals(z)
    assert np.allclose(S, np.sin(z) / z, rtol=1e-15, atol=0.0)
    assert np.allclose(C, 2.0 * np.sin(z / 2) ** 2 / z, rtol=2e-15, atol=0.0)
    assert np.allclose(G, (z - np.sin(z)) / z ** 2, rtol=4e-15, atol=0.0)
    _, _, S0, C0, G0 = _rotation_integrals(np.array([0.0]))
    assert (S0[0], C0[0], G0[0]) == (1.0, 0.0, 0.0)


def reference_rotation_integrals(z):
    """_rotation_integrals with one Horner loop per series over every
    sample, kept as the reference for the bits of the single loop over the
    three series at the samples that use them."""
    small = np.abs(z) < 1.0
    zs = np.where(small, z, 0.0)
    zz = zs * zs

    def series(k):
        acc = np.zeros_like(zz)
        for j in reversed(range(9)):
            acc = acc * zz + (-1) ** j / math.factorial(2 * j + k)
        return acc

    zl = np.where(small, 1.0, z)
    cos, sin = np.cos(z), np.sin(z)
    S = np.where(small, series(1), sin / zl)
    C = np.where(small, zs * series(2), (1.0 - cos) / zl)
    G = np.where(small, zs * series(3), (zl - sin) / zl / zl)
    return cos, sin, S, C, G


def sweep_grid_wt(monkeypatch, seeds):
    """The w t grids of every cell of the benchmark's sweep-grid workload,
    from its own config generator (which puts src on sys.path)."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    for seed in seeds:
        sweep = SweepSpec(**inputs.sweep_config(np.random.default_rng([seed, 0]), seed))
        for index, cell in enumerate(sweep.cells()):
            setup = _cell_setup(sweep, index, *cell)
            w = 2.0 * float(np.sum(ms.eta_comps(setup.sig, setup.p0, setup.T0))) - setup.q
            yield w * sweep.integrator.times


def test_rotation_integrals_match_the_three_loop_reference(monkeypatch):
    below_one = 1.0 - 2.0 ** -53
    special = np.array([0.0, -0.0, 1e-300, 0.5, below_one, 1.0, 1.5, 1e3, np.inf, np.nan])
    grids = [np.concatenate([special, -special])]
    grids += list(sweep_grid_wt(monkeypatch, range(1, 7)))
    assert len(grids) == 1 + 6 * 32
    for z in grids:
        with np.errstate(invalid="ignore"):  # sin and cos of inf
            got, want = _rotation_integrals(z), reference_rotation_integrals(z)
        for a, b in zip(got, want):
            assert_same_bits(a, b)


def test_exact_flow_overflow_raises_divergence():
    # w = 2 * 0.5 - 1 = 0: x and y grow linearly and x . y in z overflows
    setup = slant_setup(1, 1, 1.0, 0.5, direction=[0.6, 0.8])
    times = 1e154 * np.arange(4.0)
    with pytest.raises(DivergenceError) as err:
        exact_flow(setup, times)
    assert err.value.t_last == 1e154


def test_exact_flow_times_are_real_numbers():
    setup = slant_setup(1, 1, 2.0, 0.3)
    for times, message in ((["0", True], "times entries must be real numbers"),
                           ([0.0, True], "times entries must be real numbers"),
                           ([0.0, math.inf], "times must be finite"),
                           (np.array([0.0, math.nan]), "times must be finite")):
        with pytest.raises(ConfigError, match=message):
            exact_flow(setup, times)
    # integers are real numbers, and a float array is taken as it is
    want = exact_flow(setup, np.arange(5.0))
    for times in ([0, 1, 2, 3, 4], np.arange(5), [0.0, 1.0, 2.0, 3.0, 4.0]):
        assert_same_bits(exact_flow(setup, times).points, want.points)


@pytest.mark.parametrize("n,s", [(1, 1), (2, 3), (9, 1)])
def test_exact_flow_without_accelerations_keeps_the_bits(n, s):
    # a sweep cell's flow: the same samples, and no accelerations
    setup = _random_setups(np.random.default_rng([n, s, 3]), SpaceSignature(n, s), 1)[0]
    times = IntegratorConfig(t_end=2.0, step=1e-3).times
    full = exact_flow(setup, times)
    bare = _exact_flow(setup, times, accelerations=False)
    assert full.accelerations is not None and bare.accelerations is None
    for got, want in ((bare.times, full.times), (bare.points, full.points),
                      (bare.velocities, full.velocities)):
        assert_same_bits(got, want)


def reference_exact_flow(setup, times):
    """exact_flow as computed on C-ordered (N, dim) blocks, kept as the
    reference for the bits of the component-row version: (points,
    velocities, accelerations)."""
    sig = setup.sig
    n = sig.n
    t = np.asarray(times, dtype=float)
    p0, v0 = setup.p0, setup.T0
    x0, y0, z0 = p0[:n], p0[n:2 * n], p0[2 * n:]
    a, b = v0[:n], v0[n:2 * n]
    eta = 0.5 * (v0[2 * n:] - np.sum(y0 * a, axis=-1, keepdims=True))
    w = 2.0 * float(np.sum(eta)) - setup.q
    cos, sin, S, C, G = (f[:, None] for f in _rotation_integrals(w * t))
    tc = t[:, None]
    X = tc * (a * S + b * C)
    Y = tc * (b * S - a * C)
    y = y0 + Y
    vx = a * cos + b * sin
    vy = b * cos - a * sin
    y_vx = np.sum(y * vx, axis=1, keepdims=True)
    int_y_vx = (X @ y0)[:, None] + 0.5 * (
        np.sum(X * Y, axis=1, keepdims=True) + (a @ a + b @ b) * (tc * (tc * G)))
    pts = np.concatenate([x0 + X, y, z0 + 2.0 * eta * tc + int_y_vx], axis=1)
    vel = np.concatenate([vx, vy, 2.0 * eta + y_vx], axis=1)
    az = np.sum(vx * vy, axis=1, keepdims=True) + np.sum(y * vy, axis=1, keepdims=True) * w
    acc = np.concatenate([vy * w, vx * -w, np.repeat(az, sig.s, axis=1)], axis=1)
    return pts, vel, acc


@pytest.mark.parametrize("n,s", [(1, 1), (2, 3), (3, 2), (4, 1), (7, 7), (8, 8), (9, 1), (16, 8)])
def test_exact_flow_matches_reference_bitwise(n, s):
    # the component rows, _rowsum and the C-ordered gemv give the bits of
    # the row-major formulas, for the widths where np.sum and BLAS add in
    # blocks too; w = 0 and signed zeros in p0 and T0 included
    sig = SpaceSignature(n, s)
    rng = np.random.default_rng([n, s, 2])
    setups = _random_setups(rng, sig, 3)
    p0 = rng.normal(scale=1.5, size=sig.dim)
    p0[rng.integers(sig.dim, size=2)] = -0.0
    T0 = initial_tangent(sig, p0, np.full(s, 0.3 / np.sqrt(s)), [0.0] * (2 * n - 1) + [1.0])
    T0[T0 == 0.0] = -0.0
    eta_sum = float(np.sum(ms.eta_comps(sig, p0, T0)))
    setups.append(MagneticSetup(sig, 2.0 * eta_sum, p0, T0))  # w = 0
    for setup, samples in zip(setups, (2001, 5, 731, 1200)):
        times = IntegratorConfig(t_end=samples * 1e-3, step=1e-3).times
        got = exact_flow(setup, times)
        for arr, want in zip((got.points, got.velocities, got.accelerations),
                             reference_exact_flow(setup, times)):
            assert arr.flags.f_contiguous
            assert_same_bits(arr, want)
