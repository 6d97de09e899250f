import decimal
import json
import math
from numbers import Integral

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from magcurves import (
    CurveKind,
    IntegratorConfig,
    MagneticSetup,
    SpaceSignature,
    Trajectory,
    angle_drift,
    check_circle_existence,
    classify_trajectory,
    fit_field_strength,
    frenet_apparatus,
    initial_tangent,
    integrate_many,
    invert_q,
    order_bound_curvatures,
    predict_class,
    random_params,
    rho,
    sample_case_b,
    CaseBParams,
    exact_flow,
    residual,
    speed_drift,
)
from magcurves import model_space as ms
from magcurves.cli import main
from magcurves.dynamics import check_angles
from magcurves.errors import ConfigError, InconsistentCaseError, InfeasibleAngleError, typed_number
from magcurves.sweep import SweepSpec
from conftest import assert_same_bits, slant_setup


# ---------------------------------------------------------------------------
# predicted classification
# ---------------------------------------------------------------------------

def test_predict_slant_circle():
    cls = predict_class(2.0, 0.5, 1)
    assert cls.kind is CurveKind.SLANT_CIRCLE
    assert cls.kappa1 == pytest.approx(math.sqrt(3.0), abs=1e-15)
    assert cls.kappa2 == 0.0
    assert cls.epsilon == 0  # 1 - q cos(theta) vanishes on the circle locus


def test_predict_legendre_helix():
    cls = predict_class(1.5, 0.0, 2)
    assert cls.kind is CurveKind.LEGENDRE_HELIX
    assert cls.kappa1 == 1.5
    assert cls.kappa2 == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert cls.epsilon == 1


def test_predict_slant_helix():
    cls = predict_class(2.0, 0.3, 1)
    assert cls.kind is CurveKind.SLANT_HELIX
    assert cls.kappa1 == pytest.approx(2.0 * math.sqrt(0.91), abs=1e-14)
    assert cls.kappa2 == pytest.approx(0.4, abs=1e-14)
    assert cls.epsilon == 1


def test_predict_geodesic_band():
    for s in (1, 2, 3):
        cls = predict_class(5.0, 1.0 / math.sqrt(s), s)
        assert cls.kind is CurveKind.GEODESIC
        assert cls.kappa1 == 0.0
    cls = predict_class(5.0, -1.0 / math.sqrt(2.0), 2)
    assert cls.kind is CurveKind.GEODESIC


def test_predict_rejects_infeasible_angle():
    with pytest.raises(InfeasibleAngleError):
        predict_class(1.0, 0.9, 2)
    with pytest.raises(ValueError):
        predict_class(0.0, 0.1, 1)


def test_circle_below_threshold_is_out_of_range():
    # cos(theta) = 1/q with |q| <= sqrt(s) exceeds 1/sqrt(s), so no circle
    # sneaks in below the existence threshold
    with pytest.raises(InfeasibleAngleError):
        predict_class(1.2, 1.0 / 1.2, 2)


def _check_slant_angle(entry_point, ct, s):
    """Call one entry point that checks a slant contact angle."""
    sig = SpaceSignature(1, s)
    if entry_point == "initial_tangent":
        initial_tangent(sig, np.zeros(sig.dim), [ct] * s)
    elif entry_point == "order_bound_curvatures":
        order_bound_curvatures(2.0, [ct] * s)
    elif entry_point == "predict_class":
        predict_class(2.0, ct, s)
    elif entry_point == "rho":
        rho(ct, s)
    elif entry_point == "random_params":
        random_params(sig, 1.0, ct, seed=0)
    elif entry_point == "CaseBParams":
        CaseBParams(sig, ct, c=np.zeros(2), d=np.zeros(2), h=np.zeros(s))
    else:
        SweepSpec(q_values=[2.0], cos_theta_values=[ct], s_values=[s])


ANGLE_ENTRY_POINTS = ["initial_tangent", "order_bound_curvatures", "predict_class", "rho",
                      "random_params", "CaseBParams", "SweepSpec"]


@pytest.mark.parametrize("entry_point", ANGLE_ENTRY_POINTS)
def test_angle_rule_has_one_boundary(entry_point):
    for s in (1, 2, 3):
        _check_slant_angle(entry_point, 1.0 / math.sqrt(s), s)  # |cos theta| = 1/sqrt(s) passes
    # s cos^2 = 1 + 2e-12 is beyond the 1e-12 slack on the sum, while
    # |cos theta| - 1/sqrt(s) = 5.8e-13 would be within that slack on the
    # cosine: every entry point draws the line at the same place
    sliver = (1.0 / math.sqrt(3.0)) * (1.0 + 1e-12)
    if entry_point == "SweepSpec":
        with pytest.raises(ValueError, match="inadmissible"):
            _check_slant_angle(entry_point, sliver, 3)
    else:
        with pytest.raises(InfeasibleAngleError):
            _check_slant_angle(entry_point, sliver, 3)


def test_angle_rule_boundary_on_the_cli(tmp_path, capsys):
    s, ct = 3, (1.0 / math.sqrt(3.0)) * (1.0 + 1e-12)
    cfg = tmp_path / "sliver.json"
    cfg.write_text(json.dumps({"n": 1, "s": s, "q": 2.0, "cos_theta": ct, "t_end": 0.01}))
    assert main(["classify", "--config", str(cfg)]) == 2
    assert main(["integrate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    assert "angles are not realizable" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# order-bound curvature formulas
# ---------------------------------------------------------------------------

def test_order_bound_exact_cell():
    k1, k2 = order_bound_curvatures(1.0, [0.5, 0.0])
    assert k1 == pytest.approx(math.sqrt(0.75), abs=1e-15)
    assert k2 == pytest.approx(1.0, abs=1e-15)


def test_order_bound_geodesic_degenerate():
    s = 3
    k1, k2 = order_bound_curvatures(2.0, [1.0 / math.sqrt(s)] * s)
    assert k1 == pytest.approx(0.0, abs=1e-7)


def test_order_bound_infeasible():
    with pytest.raises(InfeasibleAngleError):
        order_bound_curvatures(1.0, [0.8, 0.8])


@settings(max_examples=200, deadline=None)
@given(
    q=st.floats(0.3, 4.0) | st.floats(-4.0, -0.3),
    frac=st.floats(-0.95, 0.95),
    s=st.integers(1, 3),
)
def test_order_bound_reduces_to_slant_formulas(q, frac, s):
    ct = frac / math.sqrt(s)
    k1, k2 = order_bound_curvatures(q, [ct] * s)
    assert k1 == pytest.approx(abs(q) * math.sqrt(1 - s * ct * ct), abs=1e-12)
    assert k2 == pytest.approx(math.sqrt(s) * abs(1 - q * ct), abs=1e-12)


@pytest.mark.parametrize("cos", [[0.6], [0.6, 0.7], [0.6, 0.5, -0.2]], ids=["s1", "s2", "s3"])
@pytest.mark.parametrize("q", [1e154, -1e154, 1e155, -1e160, 1e200, -1e250, 1e300, -1e307, 1e308],
                         ids=lambda q: f"{q:.0e}".replace("+", ""))
def test_order_bound_kappa2_where_q_squared_overflows(q, cos):
    # the plain sum A q^2 - 2 B q + ... overflows from |q| ~ 1e154 on (inf, or
    # inf - inf = NaN), though kappa2 ~ sqrt(A) |q| stays finite
    s = len(cos)
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        a = sum(decimal.Decimal(c) ** 2 for c in cos)
        b = sum(decimal.Decimal(c) for c in cos)
        big = decimal.Decimal(q)
        want = (a * big * big - a * s + b * b - 2 * b * big + s).sqrt()
        k1, k2 = order_bound_curvatures(q, cos)
        assert abs(decimal.Decimal(k2) - want) <= decimal.Decimal(4e-16) * want
    a_sum, b_sum = float(np.sum(np.square(cos))), float(np.sum(cos))
    if math.isfinite(a_sum * q * q - a_sum * s + b_sum * b_sum - 2.0 * b_sum * q + s):
        assert k2 == _np_sum_order_bound(q, np.array(cos))[1]  # the plain sum's bits


# ---------------------------------------------------------------------------
# the scalar paths of the formulas: np.sum's bits below width 8
# ---------------------------------------------------------------------------

def _np_sum_order_bound(q, cos):
    """The order-bound curvatures with both sums taken by np.sum."""
    a_sum, b_sum, s = float(np.sum(cos * cos)), float(np.sum(cos)), cos.shape[-1]
    k2sq = a_sum * q * q - a_sum * s + b_sum * b_sum - 2.0 * b_sum * q + s
    return abs(q) * math.sqrt(max(0.0, 1.0 - a_sum)), math.sqrt(max(0.0, k2sq))


@pytest.mark.parametrize("width", range(1, 13))
def test_scalar_sums_have_the_bits_of_np_sum(width):
    # both sides of the width-8 switch, signed zeros included
    rng = np.random.default_rng(width)
    for trial in range(300):
        cos = rng.uniform(-1.0, 1.0, size=width) / math.sqrt(width)
        cos[rng.random(width) < 0.2] = 0.0
        cos[rng.random(width) < 0.2] = -0.0
        if trial == 0:
            cos[:] = -0.0
        q = float(rng.uniform(0.5, 3.0) * rng.choice([-1.0, 1.0]))
        assert_same_bits(check_angles(cos), float(np.sum(cos * cos)))
        for got, want in zip(order_bound_curvatures(q, cos), _np_sum_order_bound(q, cos)):
            assert_same_bits(got, want)
        assert_same_bits(order_bound_curvatures(q, list(cos)), order_bound_curvatures(q, cos))


@pytest.mark.parametrize("width", [1, 2, 7, 8, 12])
def test_check_angles_contract_on_both_sides_of_width_8(width):
    for bad in (1e200, math.nan, math.inf):
        cos = np.zeros(width)
        cos[-1] = bad
        with pytest.raises(InfeasibleAngleError):
            check_angles(cos)
    # cosines rounded from 1/sqrt(s) pass, slack and all
    assert check_angles(np.full(width, 1.0 / math.sqrt(width))) == pytest.approx(1.0, abs=1e-12)
    assert check_angles([1.0 / math.sqrt(width)] * width) == check_angles(
        np.full(width, 1.0 / math.sqrt(width)))


def test_typed_number_keeps_its_contract():
    for bad in (math.nan, math.inf, -math.inf, np.float64(math.nan), np.float64(-math.inf)):
        with pytest.raises(ConfigError, match="q must be finite"):
            typed_number("q", bad)
    for bad in (True, False, "1.0", None, [1.0]):
        with pytest.raises(ConfigError, match="q must be a real number"):
            typed_number("q", bad)
    with pytest.raises(ConfigError, match="n must be an integer"):
        typed_number("n", 2.0, Integral)
    for good in (2.5, -0.0, np.float64(2.5), 3, 10**300):
        got = typed_number("q", good)
        assert type(got) is float and float.hex(got) == float.hex(float(good))
    with pytest.raises(ConfigError, match="q must be finite"):
        typed_number("q", 10**400)


# ---------------------------------------------------------------------------
# inverse strengths
# ---------------------------------------------------------------------------

def test_invert_legendre_both_signs():
    res = invert_q(2.0, math.sqrt(2.0), 2, case="ii")
    assert res.case_tag == "ii"
    assert res.cos_theta == 0.0
    assert set(res.q_candidates) == {2.0, -2.0}


def test_invert_circle():
    res = invert_q(1.0, 0.0, 1, case="iii", eps=1)
    assert res.q_candidates == (math.sqrt(2.0),)
    assert res.cos_theta == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
    back = predict_class(res.q_candidates[0], res.cos_theta, 1)
    assert back.kind is CurveKind.SLANT_CIRCLE
    assert back.kappa2 == 0.0


def test_invert_generic_helix():
    res = invert_q(1.0, 0.4, 1, case="iv", eps=1, branch=1)
    q = res.q_candidates[0]
    assert q == pytest.approx(math.sqrt(2.96), abs=1e-15)
    assert res.cos_theta == pytest.approx(1.4 / math.sqrt(2.96), abs=1e-15)
    back = predict_class(q, res.cos_theta, 1)
    assert back.kappa2 == pytest.approx(0.4, abs=1e-12)


def test_invert_inconsistent_cases():
    with pytest.raises(InconsistentCaseError):
        invert_q(1.0, 0.4, 1, case="iii")  # circles have kappa2 = 0
    with pytest.raises(InconsistentCaseError):
        invert_q(1.0, 0.0, 1, case="iv")
    with pytest.raises(InconsistentCaseError):
        invert_q(1.0, 1.0, 4, case="ii")  # kappa2 != sqrt(s)
    with pytest.raises(InconsistentCaseError):
        invert_q(1.0, 0.0, 1, case="i")
    with pytest.raises(ValueError):
        invert_q(0.0, 0.0, 1, case="iii")
    with pytest.raises(ValueError):
        invert_q(1.0, 0.0, 1, case="iii", eps=2)


@settings(max_examples=300, deadline=None)
@given(
    k1=st.floats(0.05, 5.0),
    k2=st.floats(0.01, 5.0),
    s=st.integers(1, 3),
    eps=st.sampled_from([1, -1]),
    branch=st.sampled_from([1, -1]),
)
def test_invert_round_trip(k1, k2, s, eps, branch):
    w = eps * math.sqrt(s) + branch * k2
    if abs(w) < 1e-6:
        k2 = k2 + 0.5  # step off the Legendre coincidence w = 0
        w = eps * math.sqrt(s) + branch * k2
    res = invert_q(k1, k2, s, case="iv", eps=eps, branch=branch)
    back = predict_class(res.q_candidates[0], res.cos_theta, s)
    assert back.kappa1 == pytest.approx(k1, abs=1e-12)
    assert back.kappa2 == pytest.approx(k2, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(k1=st.floats(0.05, 5.0), s=st.integers(1, 3), eps=st.sampled_from([1, -1]))
def test_invert_circle_round_trip(k1, s, eps):
    res = invert_q(k1, 0.0, s, case="iii", eps=eps)
    q = res.q_candidates[0]
    assert abs(q) > math.sqrt(s)  # the existence threshold is built in
    back = predict_class(q, res.cos_theta, s)
    assert back.kind is CurveKind.SLANT_CIRCLE
    assert back.kappa1 == pytest.approx(k1, abs=1e-12)


# ---------------------------------------------------------------------------
# existence threshold and the v3 component
# ---------------------------------------------------------------------------

def test_circle_existence_threshold():
    assert not check_circle_existence(1.0, 1)
    assert check_circle_existence(2.0, 1)
    assert not check_circle_existence(math.sqrt(2.0), 2)  # equality excluded
    assert not check_circle_existence(-math.sqrt(3.0), 3)
    assert check_circle_existence(math.sqrt(2.0) + 1e-12, 2)
    with pytest.raises(ValueError):
        check_circle_existence(0.0, 1)


def test_predict_class_takes_the_threshold_from_check_circle_existence(monkeypatch):
    from magcurves import classify
    assert predict_class(2.0, 0.5, 1).kind is CurveKind.SLANT_CIRCLE
    monkeypatch.setattr(classify, "check_circle_existence", lambda q, s: False)
    assert predict_class(2.0, 0.5, 1).kind is CurveKind.SLANT_HELIX


def test_rho_values():
    assert rho(1.0 / math.sqrt(2.0), 2) == pytest.approx(0.0, abs=1e-7)
    assert rho(0.0, 1) == 1.0
    assert rho(0.5, 2) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(InfeasibleAngleError):
        rho(0.9, 2)


# ---------------------------------------------------------------------------
# empirical classification
# ---------------------------------------------------------------------------

def test_classify_circle(circle_traj):
    series = frenet_apparatus(circle_traj)
    cls = classify_trajectory(circle_traj, series, tol=1e-3)
    assert cls.kind is CurveKind.SLANT_CIRCLE
    assert cls.kappa1 == pytest.approx(math.sqrt(3.0), abs=1e-3)
    assert cls.q == pytest.approx(2.0, abs=1e-3)
    assert cls.measured["v2_alignment"] == pytest.approx(-1.0, abs=1e-4)


def test_classify_legendre(legendre_traj):
    series = frenet_apparatus(legendre_traj)
    cls = classify_trajectory(legendre_traj, series, tol=1e-3)
    assert cls.kind is CurveKind.LEGENDRE_HELIX
    assert cls.kappa2 == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_classify_geodesic(geodesic_traj):
    series = frenet_apparatus(geodesic_traj)
    cls = classify_trajectory(geodesic_traj, series, tol=1e-3)
    assert cls.kind is CurveKind.GEODESIC
    assert cls.q is None  # strength indeterminate on Reeb-direction geodesics
    assert cls.kappa1 == 0.0


def test_classify_nonslant(nonslant_traj):
    series = frenet_apparatus(nonslant_traj)
    cls = classify_trajectory(nonslant_traj, series, tol=1e-3)
    assert cls.kind is CurveKind.GENERAL_MAGNETIC
    assert cls.q == pytest.approx(1.0, abs=1e-3)
    assert cls.kappa2 == pytest.approx(1.0, abs=1e-3)
    assert cls.cos_theta is None


def test_classify_case_b_closed_form():
    sig = SpaceSignature(1, 1)
    ct = 0.5
    params = CaseBParams(sig, ct, c=[math.sqrt(3.0), 0.0], d=[0.0, 0.0], h=[0.0])
    traj = sample_case_b(params, 1e-3 * np.arange(4001))
    series = frenet_apparatus(traj)
    cls = classify_trajectory(traj, series, tol=1e-3)
    want = predict_class(2 * sig.s * ct, ct, sig.s)
    assert cls.kind is want.kind
    assert cls.kappa1 == pytest.approx(want.kappa1, abs=1e-3)
    assert cls.kappa2 == pytest.approx(want.kappa2, abs=1e-3)


@pytest.mark.parametrize("n,s", [(1, 1), (2, 3), (9, 1)])
def test_sample_layout_does_not_change_any_bit(n, s):
    # Trajectory keeps every sample array column-major, so C-ordered,
    # F-ordered and strided samples give the same bits downstream, with the
    # exact accelerations and with finite differences
    sig = SpaceSignature(n, s)
    rng = np.random.default_rng([n, s, 3])
    p0 = rng.normal(size=sig.dim)
    cos = np.full(s, 0.4 / math.sqrt(s)) + rng.uniform(-0.05, 0.05, size=s)
    setup = MagneticSetup(sig, 1.7, p0, initial_tangent(sig, p0, cos, rng.normal(size=2 * n)))
    exact = exact_flow(setup, IntegratorConfig(t_end=1.0, step=1e-3).times)

    def layouts(a):
        wide = np.zeros((len(a), 2 * a.shape[1]))
        wide[:, ::2] = a
        return np.ascontiguousarray(a), np.asfortranarray(a), wide[:, ::2]

    for acc in (layouts(exact.accelerations), (None,) * 3):
        results = []
        for pts, vel, a in zip(layouts(exact.points), layouts(exact.velocities), acc):
            traj = Trajectory(sig, exact.times, pts, vel, q=setup.q, accelerations=a)
            assert traj.points.flags.f_contiguous and traj.velocities.flags.f_contiguous
            series = frenet_apparatus(traj)
            results.append((series, classify_trajectory(traj, series).to_json(),
                            residual(traj, setup.q), speed_drift(traj), angle_drift(traj)))
        for series, *values in results[1:]:
            for name in ("kappa1", "kappa2", "kappa3", "v1", "v2", "v3"):
                assert_same_bits(getattr(series, name), getattr(results[0][0], name))
            assert values == list(results[0][1:])
        # the mean angles are summed over C-ordered rows, whatever the layout
        # (for s >= 2 a sum down each contiguous column has other last bits)
        etas = ms.eta_comps(sig, np.ascontiguousarray(exact.points),
                            np.ascontiguousarray(exact.velocities))
        assert json.loads(results[0][1])["measured"]["cosines"] == etas.mean(axis=0).tolist()


def test_classify_rejects_non_unit_speed_line():
    # a straight coordinate line at a y offset satisfies the Lorentz
    # equation pointwise for some strength, but it is not unit speed, so it
    # is not a normal magnetic trajectory
    sig = SpaceSignature(1, 1)
    y0 = 0.8
    t = np.linspace(0.0, 4.0, 2001)
    pts = np.column_stack([t, np.full_like(t, y0), np.zeros_like(t)])
    vel = np.column_stack([np.ones_like(t), np.zeros_like(t), np.zeros_like(t)])
    traj = Trajectory(sig, t, pts, vel)
    series = frenet_apparatus(traj)
    cls = classify_trajectory(traj, series, tol=1e-3)
    assert cls.kind is CurveKind.NOT_MAGNETIC
    # the residual itself is tiny: normality is what fails
    assert cls.measured["residual"] < 1e-6
    assert cls.measured["speed_deviation"] > 0.01


def test_a_strength_jump_fails_the_residual_rule():
    # exact pieces at q = 2, then at q = 2.006 from t = 2, joined with
    # continuous position and velocity: unit speed and constant angles hold
    # to rounding, so only the residual at the fitted strength (3.3e-3, from
    # the five-point stencil across the join) makes the curve not magnetic
    sig = SpaceSignature(1, 1)
    times = np.arange(401) * 1e-2
    p0 = np.zeros(sig.dim)
    first = exact_flow(MagneticSetup(sig, 2.0, p0, initial_tangent(sig, p0, [0.3])), times[:201])
    second = exact_flow(MagneticSetup(sig, 2.006, first.points[-1], first.velocities[-1]),
                        times[200:] - times[200])
    traj = Trajectory(sig, times, np.concatenate([first.points, second.points[1:]]),
                      np.concatenate([first.velocities, second.velocities[1:]]))
    tol = 1e-3
    cls = classify_trajectory(traj, frenet_apparatus(traj), tol=tol)
    measured = cls.measured
    assert max(measured["speed_deviation"], measured["angle_deviation"]) <= 1e-15
    assert tol < measured["residual"] < 10 * tol
    assert cls.kind is CurveKind.NOT_MAGNETIC


def test_fit_field_strength(circle_traj, geodesic_traj):
    q, res = fit_field_strength(circle_traj)
    assert q == pytest.approx(2.0, abs=1e-4)
    assert res < 1e-4
    q, res = fit_field_strength(geodesic_traj)
    assert q is None
    assert res < 1e-9


def test_classification_agrees_with_prediction_randomized():
    # randomized empirical agreement: measured class and curvature match the
    # predicted ones with zero mismatches
    rng = np.random.default_rng(2024)
    drawn = []
    while len(drawn) < 100:
        s = int(rng.integers(1, 4))
        n = int(rng.integers(1, 3))
        limit = 1.0 / math.sqrt(s)
        q = rng.uniform(0.5, 3.0) * rng.choice([-1.0, 1.0])
        kind_pick = len(drawn) % 4
        if kind_pick == 0:
            ct = rng.choice([-1.0, 1.0]) * limit          # geodesic
        elif kind_pick == 1:
            q = rng.uniform(math.sqrt(s) + 0.3, 4.0) * rng.choice([-1.0, 1.0])
            ct = 1.0 / q                                   # circle
        elif kind_pick == 2:
            ct = 0.0                                       # Legendre
        else:
            ct = rng.uniform(-0.9, 0.9) * limit            # generic helix
            if abs(ct) < 5e-2 or abs(ct - 1.0 / q) < 5e-2:
                continue
        drawn.append((n, s, q, ct, slant_setup(n, s, q, ct, direction=rng.normal(size=2 * n))))
    trajs = integrate_many([setup for *_, setup in drawn], IntegratorConfig(t_end=1.5, step=1e-3))
    for (n, s, q, ct, _), traj in zip(drawn, trajs):
        series = frenet_apparatus(traj)
        got = classify_trajectory(traj, series, tol=1e-3)
        want = predict_class(q, ct, s)
        assert got.kind is want.kind, (n, s, q, ct, got.kind, want.kind)
        if want.kind is not CurveKind.GEODESIC:
            assert got.measured["kappa1"] == pytest.approx(want.kappa1, abs=1e-3)
            if want.kappa2 > 1e-3:
                assert got.measured["kappa2"] == pytest.approx(want.kappa2, abs=1e-3)


def test_sasakian_reduction_identities():
    # with a single Reeb direction the formulas carry no s-dependence left:
    # kappa1 = |q| sin(theta), kappa2 = |1 - q cos(theta)|
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 100:
        theta = rng.uniform(0.2, math.pi - 0.2)
        q = rng.uniform(0.5, 2.5) * rng.choice([-1.0, 1.0])
        ct = math.cos(theta)
        if abs(ct - 1.0 / q) < 1e-2 or abs(abs(ct) - 1.0) < 1e-9:
            continue
        checked += 1
        cls = predict_class(q, ct, 1)
        assert abs(cls.kappa1 - abs(q) * math.sin(theta)) < 1e-14
        assert abs(cls.kappa2 - abs(1.0 - q * ct)) < 1e-14


def test_json_shape():
    cls = predict_class(2.0, 0.5, 1)
    doc = cls.as_dict()
    assert set(doc) == {"class", "q", "cos_theta", "kappa1", "kappa2", "epsilon", "measured"}
    assert doc["class"] == "slant_circle"
