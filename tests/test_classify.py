import decimal
import functools
import json
import math
import re
from numbers import Integral

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from magcurves import (
    CurveClass,
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
    CaseAParams,
    CaseBParams,
    lambda_,
    exact_flow,
    residual,
    speed_drift,
)
from magcurves import model_space as ms
from magcurves.cli import build_parser, main
from magcurves.dynamics import check_angles
from magcurves.errors import (ConfigError, InconsistentCaseError, InfeasibleAngleError,
                              real_vector, typed_number)
from magcurves.sweep import SweepSpec, in_tolerance
from conftest import assert_same_bits, slant_setup
from oracles import rk4_reference


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
    for trial in range(301):
        cos = rng.uniform(-1.0, 1.0, size=width) / math.sqrt(width)
        cos[rng.random(width) < 0.2] = 0.0
        cos[rng.random(width) < 0.2] = -0.0
        if trial == 0:
            cos[:] = -0.0
        if trial == 300 and width >= 3:
            # B is 1.0 added in order, and 1.0 + 2^-52 added in reverse: the
            # order of the additions is pinned, not only their value
            cos[:] = 0.0
            cos[:3] = (1.0, 1e-16, 1e-16)
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


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: order_bound_curvatures(2.0, [[0.3, 0.4], [0.1, 0.2]]),
                 r"nonempty 1-D sequence, got shape \(2, 2\)", id="order_bound_curvatures-2d"),
    pytest.param(lambda: order_bound_curvatures(2.0, []),
                 r"nonempty 1-D sequence, got shape \(0,\)", id="order_bound_curvatures-empty"),
    pytest.param(lambda: order_bound_curvatures(2.0, 0.3),
                 r"nonempty 1-D sequence, got shape \(\)", id="order_bound_curvatures-scalar"),
    pytest.param(lambda: check_angles(0.3),
                 r"nonempty 1-D sequence, got shape \(\)", id="check_angles-scalar"),
    pytest.param(lambda: predict_class(2.0, 0.3, 0),
                 "s must be a positive integer, got 0", id="predict_class-s0"),
    pytest.param(lambda: predict_class(2.0, 0.3, 1.5),
                 "s must be a positive integer, got 1.5", id="predict_class-s1.5"),
    pytest.param(lambda: rho(0.3, 0), "s must be a positive integer, got 0", id="rho-s0"),
    pytest.param(lambda: SweepSpec(q_values=[2.0], cos_theta_values=[0.3], s_values=[-1]),
                 "s must be a positive integer, got -1", id="SweepSpec-s-1"),
    pytest.param(lambda: predict_class(2.0, 0.3, True),
                 "s must be a positive integer, got True", id="predict_class-sTrue"),
    pytest.param(lambda: rho(0.3, "2"), "s must be a positive integer, got '2'", id="rho-s'2'"),
    pytest.param(lambda: check_circle_existence(2.0, 0),
                 "s must be a positive integer, got 0", id="check_circle_existence-s0"),
    pytest.param(lambda: check_circle_existence(2.0, -1),
                 "s must be a positive integer, got -1", id="check_circle_existence-s-1"),
    pytest.param(lambda: lambda_(2.0, 0, 0.3),
                 "s must be a positive integer, got 0", id="lambda_-s0"),
    pytest.param(lambda: lambda_(2.0, 1.5, 0.3),
                 "s must be a positive integer, got 1.5", id="lambda_-s1.5"),
    pytest.param(lambda: SweepSpec(q_values=[2.0], cos_theta_values=[0.3], n_values=[0]),
                 "n must be a positive integer, got 0", id="SweepSpec-n0"),
    pytest.param(lambda: SweepSpec(q_values=[2.0], cos_theta_values=[0.3], n_values=[True]),
                 r"n_values entries must be integers, got \[True\]", id="SweepSpec-nTrue"),
    pytest.param(lambda: SweepSpec(q_values=[2.0], cos_theta_values=[0.3], n_values=[1.5]),
                 r"n_values entries must be integers, got \[1.5\]", id="SweepSpec-n1.5"),
])
def test_malformed_contact_angle_input_raises_value_error(call, message):
    # once silently wrong sums, an IndexError, a ZeroDivisionError or a TypeError
    with pytest.raises(ValueError, match=message) as info:
        call()
    assert not isinstance(info.value, InfeasibleAngleError)


@functools.cache
def _exact_helix():
    """An exact q = 2, cos theta = 0.3 slant helix, and its Frenet series."""
    traj = exact_flow(slant_setup(1, 1, 2.0, 0.3), np.arange(401) * 0.01)
    return traj, frenet_apparatus(traj)


def _classify_cli_tol(tol):
    """The classify subcommand with --tol, called past main's exit-code mapping."""
    args = build_parser().parse_args(["classify", "--traj", "missing.csv", f"--tol={tol}"])
    return args.func(args)


_NOT_NUMBERS = [math.nan, math.inf, -math.inf, True, "2"]
_NOT_POSITIVE = _NOT_NUMBERS + [0.0, -1.0]
_NOT_COUNTS = _NOT_NUMBERS + [0, -1, 1.5]
_ZERO_ROW = {"kappa1_pred": 0.0, "kappa2_pred": 0.0, "kappa1_meas": 0.0, "kappa2_meas": 0.0}
_SIG11 = SpaceSignature(1, 1)

# (public entry, the name its message starts with, the call with the bad
# scalar x, the bad values): the field strength q is finite and nonzero (0
# is allowed where it is the geodesic's), tol, t_end and step are finite
# and positive, record_every a positive integer
_SCALAR_ENTRIES = [
    ("MagneticSetup", "q", lambda x: slant_setup(1, 1, x, 0.3), _NOT_NUMBERS + [0.0]),
    ("IntegratorConfig", "t_end", lambda x: IntegratorConfig(t_end=x, step=1e-3), _NOT_POSITIVE),
    ("IntegratorConfig", "step", lambda x: IntegratorConfig(t_end=1.0, step=x), _NOT_POSITIVE),
    ("IntegratorConfig", "record_every", lambda x: IntegratorConfig(1.0, 1e-3, x), _NOT_COUNTS),
    ("predict_class", "q", lambda x: predict_class(x, 0.3, 1), _NOT_NUMBERS + [0.0]),
    ("check_circle_existence", "q", lambda x: check_circle_existence(x, 1), _NOT_NUMBERS + [0]),
    ("order_bound_curvatures", "q", lambda x: order_bound_curvatures(x, [0.3, 0.4]),
     _NOT_NUMBERS),
    ("lambda_", "q", lambda x: lambda_(x, 1, 0.3), _NOT_NUMBERS),
    ("lambda_", "cos_theta", lambda x: lambda_(2.0, 1, x), _NOT_NUMBERS),
    ("CaseAParams", "q", lambda x: CaseAParams(_SIG11, x, 0.5, a=[0.0], b=[0.0],
                                               c=[math.sqrt(3.0)], d=[0.0], h=[0.0]),
     _NOT_NUMBERS + [0.0]),
    ("random_params", "q", lambda x: random_params(_SIG11, x, 0.3, 0), _NOT_NUMBERS + [0.0]),
    ("SweepSpec", "q_values", lambda x: SweepSpec(q_values=[2.0, x], cos_theta_values=[0.3]),
     _NOT_NUMBERS + [0]),
    *[("SweepSpec", key, lambda x, key=key: SweepSpec(q_values=[2.0], cos_theta_values=[0.3],
                                                      **{key: x}), bad)
      for key, bad in (("tol", _NOT_POSITIVE), ("t_end", _NOT_POSITIVE),
                       ("step", _NOT_POSITIVE), ("record_every", _NOT_COUNTS))],
    ("classify_trajectory", "tol", lambda x: classify_trajectory(*_exact_helix(), tol=x),
     _NOT_POSITIVE),
    ("in_tolerance", "tol", lambda x: in_tolerance(_ZERO_ROW, x), _NOT_POSITIVE),
    # argparse reads --tol as a float, so only floats reach the check
    ("classify", "--tol", _classify_cli_tol, [math.nan, math.inf, -math.inf, 0.0, -1.0]),
]


@pytest.mark.parametrize("call, key, bad", [
    pytest.param(call, key, bad, id=f"{entry}-{key}-{bad!r}")
    for entry, key, call, values in _SCALAR_ENTRIES for bad in values])
def test_malformed_scalar_input_raises_value_error(call, key, bad):
    # many of these once returned a result (NaN curvatures, a class with
    # q = True, a geodesic at tol = inf) or failed by accident
    with pytest.raises(ValueError, match=rf"^{re.escape(key)}( entries)? must be"):
        call(bad)


def test_classify_trajectory_refuses_non_finite_samples():
    traj, series = _exact_helix()
    for field, k, j, bad in (("points", 7, 0, math.nan), ("points", 0, 2, math.inf),
                             ("velocities", 399, 1, -math.inf), ("velocities", 12, 2, math.nan)):
        arrays = {"points": traj.points.copy(), "velocities": traj.velocities.copy()}
        arrays[field][k, j] = bad
        arrays[field][k + 1:, j] = math.nan  # only the first non-finite sample is named
        broken = Trajectory(traj.sig, traj.times, q=traj.q, **arrays)
        # raised before the Frenet series is read, so the stale one of the intact curve is fine
        with pytest.raises(ValueError, match=rf"^sample {k} \(t = {traj.times[k]:.6g}\) has a "
                                             "non-finite point or velocity$"):
            classify_trajectory(broken, series)


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


_SIG13 = SpaceSignature(1, 3)
_P0 = [0.5, -0.25, 2.0]
_T0 = [0.0, 2.0, 0.0]  # unit speed at _P0: eta vanishes and the x, y part has norm 1
_CASE_A = dict(a=[0.0], b=[0.0], c=[math.sqrt(3.0)], d=[0.0], h=[0.0])
_CASE_B = dict(c=[1.0, 0.0], d=[0.0, 0.0], h=[0.0, 0.0, 0.0])  # sum c^2 = 4 (1 - 3 / 4)

# (public entry, the name its message starts with, the call with the bad
# vector x, a valid vector): every entry a real number, the given length,
# every entry finite (ConfigError naming the argument)
_VECTOR_ENTRIES = [
    ("MagneticSetup", "p0", lambda x: MagneticSetup(_SIG11, 2.0, x, _T0), _P0),
    ("MagneticSetup", "T0", lambda x: MagneticSetup(_SIG11, 2.0, _P0, x), _T0),
    ("initial_tangent", "cosines", lambda x: initial_tangent(_SIG13, [0.0] * 5, x), [0.1] * 3),
    ("initial_tangent", "direction", lambda x: initial_tangent(_SIG11, _P0, [0.5], x),
     [1.0, -1.0]),
    *[("CaseAParams", key, lambda x, key=key: CaseAParams(_SIG11, 2.0, 0.5, **{**_CASE_A, key: x}),
       _CASE_A[key]) for key in _CASE_A],
    *[("CaseBParams", key, lambda x, key=key: CaseBParams(_SIG13, 0.5, **{**_CASE_B, key: x}),
       _CASE_B[key]) for key in _CASE_B],
    ("frame_matrix", "point", lambda x: ms.frame_matrix(_SIG11, x), _P0),
    ("frame_matrix-batched", "point", lambda x: ms.frame_matrix(_SIG11, [_P0, x]), _P0),
    ("christoffel_array", "point", lambda x: ms.christoffel_array(_SIG11, x), _P0),
]
# contact angles: the entry rule, then check_angles' shape check and its sum
# (NaN and inf are infeasible angles)
_COSINE_ENTRIES = [
    ("check_angles", check_angles, [0.3, 0.4]),
    ("order_bound_curvatures", lambda x: order_bound_curvatures(2.0, x), [0.3, 0.4]),
    ("predict_class", lambda x: predict_class(2.0, x[0], 2), [0.3]),
    ("rho", lambda x: rho(x[0], 2), [0.3]),
    ("random_params", lambda x: random_params(_SIG13, 2.0, x[0], 0), [0.3]),
]
_ENTRY_RULE = r"entries must be real numbers"
_SHAPE_RULE = r"(cosines entries must be real numbers|contact angles must be a nonempty 1-D)"


def _vector_cases():
    for entry, name, call, valid in _VECTOR_ENTRIES:
        key = re.escape(name)
        wrong = rf"^{key} ({_ENTRY_RULE}|must have {len(valid)} entries)"
        for label, first, want in (("bool", True, rf"^{key} {_ENTRY_RULE}"),
                                   ("str", str(valid[0]), rf"^{key} {_ENTRY_RULE}"),
                                   ("None", None, rf"^{key} {_ENTRY_RULE}"),
                                   ("nested", [valid[0]], wrong),
                                   ("nan", math.nan, rf"^{key} must be finite"),
                                   ("inf", math.inf, rf"^{key} must be finite")):
            yield pytest.param(call, [first, *valid[1:]], ConfigError, want,
                               id=f"{entry}-{name}-{label}")
        yield pytest.param(call, valid + [0.0], ConfigError, wrong, id=f"{entry}-{name}-length")
    for entry, call, valid in _COSINE_ENTRIES:
        for label, first, error, want in (
                ("bool", True, ConfigError, rf"^cosines {_ENTRY_RULE}"),
                ("str", str(valid[0]), ConfigError, rf"^cosines {_ENTRY_RULE}"),
                ("None", None, ConfigError, rf"^cosines {_ENTRY_RULE}"),
                ("nested", [valid[0]], ValueError, _SHAPE_RULE),
                ("nan", math.nan, InfeasibleAngleError, "exceeds 1 by nan"),
                ("inf", math.inf, InfeasibleAngleError, "exceeds 1 by inf")):
            yield pytest.param(call, [first, *valid[1:]], error, want, id=f"{entry}-{label}")
        if len(valid) > 1:  # a scalar cos_theta has no length of its own
            yield pytest.param(call, [], ValueError, _SHAPE_RULE, id=f"{entry}-length")


@pytest.mark.parametrize("call, bad, error, message", list(_vector_cases()))
def test_malformed_vector_input_raises_value_error(call, bad, error, message):
    # many of these once built a setup, a frame or a parameter set from bools
    # and strings, returned NaN tangents, or raised TypeError
    with pytest.raises(error, match=message) as info:
        call(bad)
    if error is not InfeasibleAngleError:
        assert not isinstance(info.value, InfeasibleAngleError)


# (entry, the call with the vector x, integer-valued data for x)
_VECTOR_DATA = [
    ("MagneticSetup-p0", lambda x: MagneticSetup(_SIG11, 2.0, x, _T0).p0, [1, -2, 3]),
    ("MagneticSetup-T0", lambda x: MagneticSetup(_SIG11, 2.0, [1.0, -2.0, 3.0], x).T0, _T0),
    ("initial_tangent-cosines", lambda x: initial_tangent(_SIG13, [0.0] * 5, x), [0, 0, 0]),
    ("initial_tangent-direction", lambda x: initial_tangent(_SIG11, _P0, [0.5], x), [3, -4]),
    ("CaseAParams", lambda x: CaseAParams(_SIG11, 1.0, 0.0, a=x[:1], b=x[1:2], c=x[2:3],
                                          d=x[3:4], h=x[4:]).setup().T0, [1, -1, 2, 0, 3]),
    ("CaseBParams", lambda x: CaseBParams(_SIG13, 0.5, c=x[:2], d=x[2:4],
                                          h=x[4:]).setup().p0, [1, 0, 1, -1, 0, 1, 2]),
    ("frame_matrix", lambda x: ms.frame_matrix(_SIG11, x), [1, -2, 3]),
    ("christoffel_array", lambda x: ms.christoffel_array(_SIG11, x), [1, -2, 3]),
    ("check_angles", check_angles, [0, 1, 0]),
    ("order_bound_curvatures", lambda x: order_bound_curvatures(2.0, x), [0, 1, 0]),
]


@pytest.mark.parametrize("call, values", [pytest.param(call, values, id=entry)
                                          for entry, call, values in _VECTOR_DATA])
def test_vector_input_forms_give_the_same_bits(call, values):
    # a list of floats, a tuple, ints, a float32 array and a float64 array
    forms = [list(map(float, values)), tuple(values), [int(v) for v in values],
             np.array(values, dtype=np.float32), np.array(values, dtype=np.float64)]
    want = call(forms[-1])
    for form in forms[:-1]:
        assert_same_bits(call(form), want)
    assert real_vector("values", forms[-1], len(values)) is forms[-1]  # taken without a copy


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


@pytest.mark.parametrize("call, message", [
    (lambda: invert_q(1.0, -0.5, 1, case="iv"), "kappa2 must be nonnegative"),
    (lambda: invert_q(1.0, 0.4, 1, case="v"),
     "unknown case 'v': expected one of 'i', 'ii', 'iii', 'iv'"),
    (lambda: CurveClass(CurveKind.GENERAL_MAGNETIC, kappa1=-1.0),
     "kappa1 must be nonnegative, got -1.0"),
], ids=["invert-negative-kappa2", "invert-case-v", "curve-class-negative-kappa1"])
def test_classification_refusal_messages(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_real_vector_refuses_an_integer_beyond_the_float_range():
    with pytest.raises(ConfigError) as exc:
        real_vector("p0", [10**400, 0, 0], 3)
    assert str(exc.value) == f"p0 must be finite, got {[10**400, 0, 0]!r}"


@pytest.mark.parametrize("key", ["eps", "branch"])
@pytest.mark.parametrize("value, accepted", [
    (1, True), (np.int64(1), True), (True, False), (1.0, False),
])
def test_invert_signs_are_the_integers_plus_minus_one(key, value, accepted):
    call = functools.partial(invert_q, 1.0, 0.4, 1, case="iv", **{key: value})
    if accepted:
        assert call() == invert_q(1.0, 0.4, 1, case="iv")
    else:
        with pytest.raises(ValueError, match=r"^eps and branch must be \+1 or -1$"):
            call()


# each inverse checks its family's kappa2 at 1e-12, from both sides (s = 2,
# kappa1 = 1): case ii at sqrt(s), case iii at 0, case iv away from 0
@pytest.mark.parametrize("case, kappa2, accepted", [
    ("ii", math.sqrt(2.0) + 5e-13, True), ("ii", math.sqrt(2.0) + 1e-11, False),
    ("iii", 5e-13, True), ("iii", 1e-11, False),
    ("iv", 5e-13, False), ("iv", 1e-11, True),
])
def test_inverse_curvature_check_is_at_1e_12(case, kappa2, accepted):
    call = functools.partial(invert_q, 1.0, kappa2, 2, case=case)
    if accepted:
        assert call().case_tag == case
    else:
        with pytest.raises(InconsistentCaseError, match=f"^case {case} "):
            call()


@pytest.mark.parametrize("case", [None, 4, ["iv"], "IV"])
def test_invert_refuses_a_case_outside_the_table(case):
    with pytest.raises(ValueError) as exc:
        invert_q(1.0, 0.4, 1, case=case)
    assert str(exc.value) == f"unknown case {case!r}: expected one of 'i', 'ii', 'iii', 'iv'"


@pytest.mark.parametrize("q, epsilon", [(2.0, 0), (1.5, 1), (4.0, -1), (np.float64(4.0), -1)])
def test_epsilon_is_the_integer_sign_of_one_minus_q_cos_theta(q, epsilon):
    # (2, 0.5) is the slant circle, where 1 - q cos theta vanishes
    cls = predict_class(q, 0.5, 1)
    assert type(cls.epsilon) is int and cls.epsilon == epsilon


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


def _flow(q, cosines, speed=1.0):
    # the exact flow from the origin on t in [0, 4], run at the given constant
    # speed: sampled at times speed * t and recorded at t, so the velocities
    # and accelerations scale by speed and speed^2, and at q_hat = speed * q
    # the Lorentz residual stays at rounding level
    sig = SpaceSignature(1, len(cosines))
    p0 = np.zeros(sig.dim)
    times = IntegratorConfig(t_end=4.0).times
    flow = exact_flow(MagneticSetup(sig, q, p0, initial_tangent(sig, p0, cosines)),
                      speed * times)
    return Trajectory(sig, times, flow.points, speed * flow.velocities,
                      accelerations=speed ** 2 * flow.accelerations)


def _tilted_helix(deviation):
    # nabla_T T = -q phi T + eps (xi - eta(T) T) keeps unit speed, and eta(T)
    # climbs at eps (1 - eta^2); eps is set so that eta strays about deviation
    # from its mean.  The added force is g-orthogonal to phi T, so the fitted
    # strength stays q, and the residual, eps sqrt(1 - eta^2), is deviation / 5
    sig, q, ct, t_end = SpaceSignature(1, 1), 2.0, 0.3, 10.0
    eps = 2.0 * deviation / ((1.0 - ct * ct) * t_end)
    xi = np.array([0.0, 0.0, 2.0])

    def force(p, v):
        return eps * (xi - ms.eta_comps(sig, p, v)[0] * v)

    return rk4_reference(slant_setup(1, 1, q, ct), IntegratorConfig(t_end, 1e-2), force)


# each family rule of classify_trajectory at tol = 1e-3: a curve that puts the
# rule's quantity at x, the quantity as measured, and the kinds at x = 2 tol
# (past the threshold) and at x = tol / 2
_RULE_CURVES = {
    "speed": (lambda x: _flow(2.0, [0.3], speed=1.0 + x),
              lambda m: m["speed_deviation"], CurveKind.NOT_MAGNETIC, CurveKind.SLANT_HELIX),
    "angle_deviation": (_tilted_helix, lambda m: m["angle_deviation"],
                        CurveKind.NOT_MAGNETIC, CurveKind.SLANT_HELIX),
    "slant_spread": (lambda x: _flow(2.0, [0.3 + x / 2, 0.3 - x / 2]),
                     lambda m: max(m["cosines"]) - min(m["cosines"]),
                     CurveKind.GENERAL_MAGNETIC, CurveKind.SLANT_HELIX),
    "geodesic_kappa1": (lambda x: _flow(3.0, [math.sqrt(1.0 - (x / 3.0) ** 2)]),
                        lambda m: m["kappa1"], CurveKind.SLANT_HELIX, CurveKind.GEODESIC),
    "legendre_cos_theta": (lambda x: _flow(2.0, [x]), lambda m: m["cosines"][0],
                           CurveKind.SLANT_HELIX, CurveKind.LEGENDRE_HELIX),
    "circle_kappa2": (lambda x: _flow(2.0, [(1.0 - x) / 2.0]), lambda m: m["kappa2"],
                      CurveKind.SLANT_HELIX, CurveKind.SLANT_CIRCLE),
}


@pytest.mark.parametrize("factor", [2.0, 0.5])
@pytest.mark.parametrize("rule", list(_RULE_CURVES))
def test_each_family_rule_switches_at_tol(rule, factor):
    curve, quantity, past, within = _RULE_CURVES[rule]
    tol = 1e-3
    traj = curve(factor * tol)
    cls = classify_trajectory(traj, frenet_apparatus(traj), tol=tol)
    assert quantity(cls.measured) == pytest.approx(factor * tol, rel=0.05)
    assert cls.kind is (past if factor > 1 else within)


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
