import dataclasses

import numpy as np
import pytest

from magcurves import (
    IntegratorConfig,
    MagneticSetup,
    SpaceSignature,
    Trajectory,
    classify_trajectory,
    exact_flow,
    fit_field_strength,
    frenet_apparatus,
    initial_tangent,
    integrate_many,
    rho,
)
from magcurves import frenet, verify
from magcurves import model_space as ms
from magcurves.errors import InsufficientDataError, InvalidGridError
from magcurves.frenet import _EPS_LEVEL, EPS_GEO, Measurement, _lorentz_terms
from magcurves.sweep import SweepSpec, run_sweep
from conftest import SIG_GRID, assert_same_bits, slant_setup


def interior(arr):
    return arr[np.isfinite(arr)]


# ---------------------------------------------------------------------------
# canonical regimes
# ---------------------------------------------------------------------------

def test_geodesic_order_one(geodesic_traj):
    series = frenet_apparatus(geodesic_traj)
    assert np.nanmax(series.kappa1) <= 1e-9
    assert Measurement(geodesic_traj, series).osculating_order(1e-6) == 1
    assert np.all(np.isnan(series.v2))


def test_slant_circle_curvatures(circle_traj):
    series = frenet_apparatus(circle_traj)
    k1 = interior(series.kappa1)
    assert np.abs(k1 - np.sqrt(3.0)).max() < 1e-4  # pointwise, not just the median
    assert np.nanmax(series.kappa2) < 1e-4
    assert Measurement(circle_traj, series).osculating_order(1e-3) == 2


def test_legendre_helix_curvatures(legendre_traj):
    series = frenet_apparatus(legendre_traj)
    assert abs(np.nanmedian(series.kappa1) - 1.5) < 1e-4
    assert abs(np.nanmedian(series.kappa2) - np.sqrt(2.0)) < 1e-3
    assert np.nanmedian(series.kappa3) < 1e-3
    assert Measurement(legendre_traj, series).osculating_order(1e-3) == 3


def test_slant_helix_curvatures(helix_traj):
    series = frenet_apparatus(helix_traj)
    q, ct, s = 2.0, 0.3, 1
    assert abs(np.nanmedian(series.kappa1) - abs(q) * np.sqrt(1 - s * ct * ct)) < 1e-4
    assert abs(np.nanmedian(series.kappa2) - np.sqrt(s) * abs(1 - q * ct)) < 1e-3
    assert np.nanmedian(series.kappa3) < 1e-3
    assert Measurement(helix_traj, series).osculating_order(1e-3) == 3


def test_nonslant_order_three(nonslant_traj):
    series = frenet_apparatus(nonslant_traj)
    assert Measurement(nonslant_traj, series).osculating_order(1e-3) == 3
    assert abs(np.nanmedian(series.kappa2) - 1.0) < 1e-3
    assert np.nanmedian(series.kappa3) < 1e-3


# ---------------------------------------------------------------------------
# frame properties
# ---------------------------------------------------------------------------

def test_frame_orthonormality(legendre_traj):
    series = frenet_apparatus(legendre_traj)
    sig = legendre_traj.sig
    pts = legendre_traj.points[2:-2]
    idx = np.linspace(0, len(series.times) - 1, 50).astype(int)
    for i in idx:
        defined = [v[i] for v in (series.v1, series.v2, series.v3) if np.all(np.isfinite(v[i]))]
        r = len(defined)
        gram = np.array([[float(ms.inner(sig, pts[i], a, b)) for b in defined] for a in defined])
        assert np.abs(gram - np.eye(r)).max() < 1e-6


def test_v2_aligns_with_phi_tangent(helix_traj):
    series = frenet_apparatus(helix_traj)
    sig = helix_traj.sig
    pts = helix_traj.points[2:-2]
    phit = ms.phi_comps(sig, pts, series.v1)
    align = ms.inner(sig, pts, series.v2, phit) / ms.norm(sig, pts, phit)
    align = align[np.isfinite(align)]
    assert np.abs(align + 1.0).max() < 1e-4  # -sgn(q) with q = 2 > 0


def test_v3_carries_the_reeb_sum(helix_traj):
    # sum_a xi_a - s cos(theta) T is parallel to v3 with squared length
    # s - s^2 cos^2(theta)
    series = frenet_apparatus(helix_traj)
    sig = helix_traj.sig
    ct = 0.3
    pts = helix_traj.points[2:-2]
    v3 = series.v3
    w = -sig.s * ct * series.v1
    w[:, 2 * sig.n:] += 2.0
    mask = np.all(np.isfinite(v3), axis=1)
    w_norm2 = ms.inner(sig, pts, w, w)[mask]
    proj = ms.inner(sig, pts, w, v3)[mask]
    expected = rho(ct, sig.s) ** 2
    assert np.abs(w_norm2 - expected).max() < 1e-3
    assert np.abs(proj ** 2 - expected).max() < 1e-3  # no component off v3


# ---------------------------------------------------------------------------
# grid handling and degenerate input
# ---------------------------------------------------------------------------

def test_requires_five_samples(circle_traj):
    sig = circle_traj.sig
    short = Trajectory(sig, circle_traj.times[:4], circle_traj.points[:4],
                       circle_traj.velocities[:4])
    with pytest.raises(InsufficientDataError):
        frenet_apparatus(short)


def test_rejects_nonuniform_grid(circle_traj):
    sig = circle_traj.sig
    times = circle_traj.times[:10].copy()
    times[5] += 3e-4
    bad = Trajectory(sig, times, circle_traj.points[:10], circle_traj.velocities[:10])
    with pytest.raises(InvalidGridError):
        frenet_apparatus(bad)


def _flow11(q, cos_theta, times):
    """The exact flow of (n, s) = (1, 1) from the origin, sampled at times."""
    return exact_flow(slant_setup(1, 1, q, cos_theta), times)


@pytest.mark.parametrize("shift, uniform", [(2e-9, False), (5e-10, True)])
def test_grid_uniformity_is_checked_at_1e_9(shift, uniform):
    # a step of 1e-2 with samples 25 and later shifted: 2x and 0.5x _GRID_RTOL
    times = 1e-2 * np.arange(50)
    times[25:] += shift
    traj = _flow11(2.0, 0.3, times)
    if uniform:
        assert len(frenet_apparatus(traj).times) == 46
    else:
        with pytest.raises(InvalidGridError):
            frenet_apparatus(traj)


@pytest.mark.parametrize("kappa2, resolved", [(2e-7, True), (5e-8, False)])
def test_v3_is_normalized_only_above_the_kappa2_floor(kappa2, resolved):
    # a slant helix of kappa2 = sqrt(s) |1 - q cos theta| at 2x and 0.5x
    # the floor _EPS_LEVEL[1]; below it v3 is never formed
    traj = _flow11(2.0, (1.0 - kappa2) / 2.0, 1e-3 * np.arange(2001))
    series = frenet_apparatus(traj)
    m = Measurement(traj, series)
    assert m.kappa2 == pytest.approx(kappa2, rel=1e-3)
    defined = np.isfinite(series.v3).all(axis=1)
    if resolved:
        assert defined.mean() > 0.99 and np.isfinite(m.kappa3)
    else:
        assert not defined.any() and np.isnan(m.kappa3)


@pytest.mark.parametrize("eps, determinate", [(2e-12, True), (5e-13, False)])
def test_fit_is_indeterminate_below_1e_12_mean_phi_t_squared(eps, determinate):
    # cos theta = sqrt(1 - eps): ||phi T||^2 = eps on every sample, at 2x and
    # 0.5x the band of fit_field_strength
    q, res = fit_field_strength(_flow11(2.0, np.sqrt(1.0 - eps), 1e-3 * np.arange(2001)))
    if determinate:
        assert q == pytest.approx(2.0, rel=1e-9) and res < 1e-20
    else:
        assert q is None and res > 1e-7


def test_trim_layout(circle_traj):
    series = frenet_apparatus(circle_traj)
    assert np.array_equal(series.times, circle_traj.times[2:-2])
    assert np.all(np.isfinite(series.kappa1))
    assert not np.any(np.isfinite(series.kappa2[:2]))
    assert not np.any(np.isfinite(series.kappa2[-2:]))
    assert np.all(np.isfinite(series.kappa2[2:-2]))
    # undefined curvature chain: kappa_i undefined implies kappa_{i+1} undefined
    undef2 = ~np.isfinite(series.kappa2)
    undef3 = ~np.isfinite(series.kappa3)
    assert np.all(undef3[undef2])


def test_covariant_tt_needs_five_samples_without_accelerations(circle_traj):
    # nabla_T T (with phi T) of _lorentz_terms, from the five-point stencil
    for m, width in ((4, None), (5, 1), (6, 2)):
        short = Trajectory(circle_traj.sig, circle_traj.times[:m], circle_traj.points[:m],
                           circle_traj.velocities[:m])
        if width is None:
            with pytest.raises(InsufficientDataError) as exc:
                _lorentz_terms(short)
            assert str(exc.value) == "need at least 5 samples to reconstruct accelerations"
        else:
            pts, ntt, phit = _lorentz_terms(short)
            assert np.array_equal(pts, short.points[2:-2]) and len(ntt) == width
            assert len(phit) == width


def test_minimal_five_sample_series():
    # five exact samples leave exactly one interior point with kappa1
    from magcurves import CaseAParams, sample_case_a

    sig = SpaceSignature(1, 1)
    params = CaseAParams(sig, q=2.0, cos_theta=0.5,
                         a=[0.0], b=[0.0], c=[np.sqrt(3.0)], d=[0.0], h=[0.0])
    traj = sample_case_a(params, np.linspace(0.0, 0.04, 5))
    series = frenet_apparatus(traj)
    assert len(series.times) == 1
    assert np.isfinite(series.kappa1[0])
    assert abs(series.kappa1[0] - np.sqrt(3.0)) < 1e-3
    assert not np.isfinite(series.kappa2[0])


def test_osculating_order_thresholds(circle_traj):
    series = frenet_apparatus(circle_traj)
    # a tolerance below the noise floor inflates the detected order
    assert Measurement(circle_traj, series).osculating_order(1e-3) == 2
    assert Measurement(circle_traj, series).osculating_order(1e-12) >= 3
    assert EPS_GEO == 1e-9


# ---------------------------------------------------------------------------
# a straight-line build of the curvatures and v_1..v_3, the reference for
# their bits
# ---------------------------------------------------------------------------

def reference_frenet_apparatus(traj):
    """frenet_apparatus as a straight-line build: (kappa1, kappa2, kappa3,
    v1, v2, v3)."""
    sig = traj.sig
    N = len(traj)
    h = float(np.diff(traj.times)[0])
    P, V = traj.points, traj.velocities
    gamma_v = ms._gamma_along(sig, P, V)

    def rate(field):
        # the stencil written out, not frenet._five_point: the bits it keeps
        out = np.full_like(field, np.nan)
        out[2:-2] = (-field[4:] + 8.0 * field[3:-1] - 8.0 * field[1:-3] + field[:-4]) / (12.0 * h)
        return out + gamma_v(field)

    def trim(arr, level):
        arr[:2 * level] = np.nan
        arr[-2 * level:] = np.nan
        return arr

    def unit(field, kappa, eps):
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where((kappa > eps)[:, None], field / kappa[:, None], np.nan)
        return out

    with np.errstate(invalid="ignore"):
        ntt = trim(rate(V), 1)
        kappa1 = ms.norm(sig, P, ntt)
        v2 = unit(ntt, kappa1, _EPS_LEVEL[0])
        k2v3 = trim(rate(v2) + kappa1[:, None] * V, 2)
        kappa2 = ms.norm(sig, P, k2v3)
        v3 = unit(k2v3, kappa2, _EPS_LEVEL[1])
        kappa3 = ms.norm(sig, P, trim(rate(v3) + kappa2[:, None] * v2, 3))

    keep = slice(2, N - 2)
    return kappa1[keep], kappa2[keep], kappa3[keep], V[keep], v2[keep], v3[keep]


def _frame_setups(n, s):
    """A non-slant curve from a random point, a slant circle and a Reeb
    geodesic: v_1..v_3, v_1..v_2 and v_1 alone defined."""
    sig = SpaceSignature(n, s)
    rng = np.random.default_rng([n, s, 4])
    p0 = rng.normal(scale=1.5, size=sig.dim)
    cos = rng.uniform(-1.0, 1.0, size=s)
    cos *= 0.8 / max(1.0, float(np.linalg.norm(cos)))
    direction = rng.normal(size=2 * n)
    return [MagneticSetup(sig, 1.7, p0, initial_tangent(sig, p0, cos, direction)),
            MagneticSetup(sig, 2.0, p0, initial_tangent(sig, p0, [0.5] * s, direction)),
            MagneticSetup(sig, 1.0, p0, initial_tangent(sig, p0, [s ** -0.5] * s, direction))]


@pytest.mark.parametrize("n, s", SIG_GRID + [(9, 1)])
def test_frames_and_order_match_the_eager_build(n, s):
    # exact-flow samples carry accelerations, RK4 samples do not; a curve
    # that is not magnetic, with each coordinate at its own frequency, has
    # kappa3 well above zero
    setups = _frame_setups(n, s)
    cfg = IntegratorConfig(t_end=0.4, step=1e-3)
    trajs = [exact_flow(st, cfg.times) for st in setups] + integrate_many(setups, cfg)
    freqs = 1.0 + np.arange(SpaceSignature(n, s).dim)
    phase = np.outer(cfg.times, freqs)
    trajs.append(Trajectory(setups[0].sig, cfg.times, np.sin(phase), freqs * np.cos(phase)))
    defined_counts = set()
    for traj in trajs:
        series = frenet_apparatus(traj)
        want = reference_frenet_apparatus(traj)
        for name, ref in zip(("kappa1", "kappa2", "kappa3", "v1", "v2", "v3"), want):
            got = getattr(series, name)
            assert got.dtype == ref.dtype, name
            assert got.flags.c_contiguous == ref.flags.c_contiguous, name
            assert_same_bits(got, ref)
        frame = (series.v1, series.v2, series.v3)
        defined_counts.update(sum(np.all(np.isfinite(v), axis=1) for v in frame).tolist())
    assert defined_counts == {1, 2, 3}
    assert np.nanmin(series.kappa3) > 1e-3  # the last curve, the one that is not magnetic


@pytest.mark.parametrize("n, s", SIG_GRID)
def test_covariant_tt_is_fourth_order(n, s):
    # exact-flow samples with their accelerations dropped: the difference of
    # the velocities against the exact covariant acceleration falls as h^4
    # (x16 per halving); a strong field keeps it well above rounding at 2e-3
    setup = dataclasses.replace(_frame_setups(n, s)[0], q=6.0)
    errs = []
    for h in (8e-3, 4e-3, 2e-3):
        exact = exact_flow(setup, IntegratorConfig(t_end=1.0, step=h).times)
        _, want, _ = _lorentz_terms(exact)
        _, got, _ = _lorentz_terms(Trajectory(exact.sig, exact.times, exact.points,
                                              exact.velocities))
        errs.append(np.max(np.abs(got - want[2:-2])))
    assert errs[0] / errs[1] >= 12.0 and errs[1] / errs[2] >= 12.0, errs


# ---------------------------------------------------------------------------
# Measurement: each field computed on its first read, and only then
# ---------------------------------------------------------------------------

def _counting(calls, name, fn):
    def spy(*args):
        calls.append((name, args[0]))
        return fn(*args)
    return spy


def test_measurement_computes_each_field_once_on_first_read(monkeypatch, helix_traj):
    series = frenet_apparatus(helix_traj)
    want_fit = fit_field_strength(helix_traj)
    calls = []
    for name in ("_nanmedian", "fit_field_strength"):
        monkeypatch.setattr(frenet, name, _counting(calls, name, getattr(frenet, name)))
    m = frenet.Measurement(helix_traj, series)
    assert calls == []
    for _ in range(2):
        assert m.kappa2 == np.nanmedian(series.kappa2)
        assert m.fit == want_fit
    assert [name for name, _ in calls] == ["_nanmedian", "fit_field_strength"]


_INF, _NAN = np.inf, np.nan
_ZEROS = np.random.default_rng(7).choice([0.0, -0.0, _NAN, 1.0, -1.0], size=(6, 41))
# the values np.nanmedian is asked for, and (where none is finite) the NaN
# that _nanmedian gives instead of np.nanmedian's value or warning
_MEDIAN_CASES = {
    "odd": [3.0, -1.0, 2.0, 7.5, 0.25],
    "even": [4.0, 1.0, -3.0, 2.0],
    "nan_first": [_NAN, 2.0, 1.0, 3.0],
    "nan_last": [2.0, 1.0, 3.0, 5.0, _NAN, _NAN],
    "nan_both_ends": [_NAN, _NAN, 1.0, 4.0, 2.0, 3.0, _NAN, _NAN],
    "nan_middle": [1.0, _NAN, 3.0, 2.0, _NAN, 5.0, 4.0],
    "inf_odd": [_INF, 1.0, 2.0],
    "inf_even": [_INF, _INF, 1.0, -_INF],
    "minus_inf_middle": [-_INF, -_INF, -_INF, 1.0, 2.0],
    "inf_middle": [_INF, _NAN, 1.0, _INF],
    "zeros_plus_minus": [0.0, -0.0],
    "zeros_minus_plus": [-0.0, 0.0],
    "zeros_minus_minus": [-0.0, -0.0],
    "zero_minus_odd": [1.0, -0.0, -1.0],
    "zeros_mixed_odd": [-0.0, 0.0, -0.0, 1.0, -1.0],
    "zeros_behind_nans": [-0.0, _NAN, 0.0, 1.0, -0.0, _NAN, -1.0, -0.0],
    "zeros_minus_nan_tail": [0.0, _NAN, _NAN, -1.0, 1.0, -0.0, -0.0],
    **{f"zeros_drawn_{k}": list(row[:40 + k % 2]) for k, row in enumerate(_ZEROS)},
    "single": [2.5],
    "single_minus_zero": [-0.0],
    "single_behind_nans": [_NAN, _NAN, -0.0, _NAN],
    "all_nan": [_NAN, _NAN, _NAN],
    "all_inf": [_INF, -_INF, _INF],
    "all_inf_and_nan": [_NAN, -_INF, -_INF, _NAN],
}


@pytest.mark.parametrize("name", list(_MEDIAN_CASES))
def test_nanmedian_has_the_bits_of_np_nanmedian(name):
    arr = np.array(_MEDIAN_CASES[name])
    before = arr.copy()
    got = frenet._nanmedian(arr)
    assert type(got) is float
    assert_same_bits(arr, before)  # the input is left as it was
    if np.isfinite(arr).any():
        assert_same_bits(got, float(np.nanmedian(arr)))
    else:
        assert np.isnan(got)


def test_measurement_of_a_geodesic_has_nan_curvatures_without_warnings(geodesic_traj):
    # kappa2 and kappa3 are NaN on every sample; RuntimeWarnings are errors
    m = frenet.Measurement(geodesic_traj, frenet_apparatus(geodesic_traj))
    assert np.isnan(m.kappa2) and np.isnan(m.kappa3) and np.isnan(m.kappa3_max)
    assert m.v2_alignment is None
    assert m.fit[0] is None


def test_callers_read_only_the_fields_they_use(monkeypatch):
    def refuse(*args):
        raise AssertionError("a sweep cell reads neither the fit nor the v2 alignment")

    with monkeypatch.context() as mp:
        mp.setattr(frenet, "fit_field_strength", refuse)
        mp.setattr(frenet.Measurement, "v2_alignment", property(refuse))
        rows = run_sweep(SweepSpec(q_values=(2.0, -1.5), cos_theta_values=(0.0, 0.3),
                                   t_end=0.5, step=1e-2))
    assert len(rows) == 4

    # classify_trajectory reads kappa1 and kappa2 more than once, and takes
    # each median once
    traj = exact_flow(slant_setup(1, 1, 2.0, 0.3), np.arange(201) * 1e-2)
    series = frenet_apparatus(traj)
    medians = []
    monkeypatch.setattr(frenet, "_nanmedian", _counting(medians, "", frenet._nanmedian))
    assert classify_trajectory(traj, series).kind.value == "slant_helix"
    assert [id(arr) for _, arr in medians] == [id(series.kappa1), id(series.kappa2),
                                               id(series.kappa3)]


def test_run_all_takes_one_frenet_apparatus_per_analysed_trajectory(monkeypatch):
    calls = []
    monkeypatch.setattr(verify, "frenet_apparatus",
                        _counting(calls, "frenet_apparatus", verify.frenet_apparatus))
    verify.run_all(0, samples=10, points=9, cases=3)
    assert len(calls) == 2 + 3  # the circle, the Legendre helix and the 3 cases
    assert len({id(traj) for _, traj in calls}) == len(calls)


def test_run_all_takes_each_curvature_median_once(monkeypatch):
    # circle_order walks the circle's record, and the classification checks
    # read each case's Frenet medians from classify_trajectory's record
    medians = []
    monkeypatch.setattr(frenet, "_nanmedian", _counting(medians, "", frenet._nanmedian))
    verify.run_all(0, samples=10, points=9, cases=3)
    ids = [id(arr) for _, arr in medians]
    assert len(ids) == len(set(ids))
    # kappa1 and kappa2 of the circle, of the helix and of each case, and
    # kappa3 of the helix and of each case that classify_trajectory dispatches
    assert len(ids) >= 2 * 2 + 2 * 3 + 1
